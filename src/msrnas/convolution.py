"""Dense 2-d convolution (cross-correlation), its exact adjoint, and shape math.

The array-level routines work on plain numpy NCHW arrays; ``conv2d`` wraps the
forward pass as a differentiable graph op. A 1x1 kernel without padding is one
``np.matmul`` over the channel groups (its weight gradient one batched
``matmul`` over the batch, then a sum over it). Every other conv, with ``g``
groups of ``cg`` inputs and ``og`` outputs, padded width ``wp``, stride ``s``
and dilation ``d``, runs as one batched GEMM per kernel row k (row-band GEMM):
the padded input rows ``y*s + k*d``, copied out as ``A_k`` (g, n*ho, cg*wp),
meet the band matrix ``T_k`` (g, cg*wp, og*wo) whose only nonzeros are
``T_k[(c, x*s + l*d), (o, x)] = w[o, c, k, l]``, kernel row k repeated down
the diagonals. The forward is ``sum_k A_k @ T_k``; the weight gradient sums
the band diagonals of ``A_k^T @ G`` over x. A row's copy is about the input's
size, not kh*kw times it; for one image with one input channel per group (a
stacked depthwise conv in power iteration) ``A_k`` is a strided view of the
padded input and nothing is copied. ``T_k`` has ``g*cg*og*wp*wo`` entries,
which stays small because the only dense kxk conv in the network is the
3-channel stem (the depthwise convs have cg = og = 1). Each call builds its
band from the weight unless it is handed one: ``conv_bands`` builds a conv's
forward and adjoint bands once for a caller that runs both maps many times
on an unchanged weight.

The adjoint runs on the same kernel (Dumoulin & Visin, arXiv 1603.07285):
the cotangent, spread out with step ``s`` onto a zero canvas of
``(h + (kh-1)*d) x (w + (kw-1)*d)`` at offset ``(k-1)*d - p``, is correlated
at stride 1 and padding 0 with the flipped kernel, whose input and output
channels swap within each group. Cotangent rows and columns that would land
off the canvas only ever read padding and are dropped. The adjoint is exact
with respect to the forward map, including padding, striding, dilation and
groups; the power iteration and the backward pass rely on that. Every
routine returns a C-contiguous array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, _make, _node
from .errors import ConstructionError, DimensionError


@dataclass
class ConvSpec:
    """One convolutional layer: geometry plus the live weight array.

    The weight array is shared (aliased) with the owning layer's parameter;
    all updates to it must be in place so every view stays in sync.
    """

    out_channels: int
    in_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: int = 0
    dilation: int = 1
    groups: int = 1
    weight: np.ndarray = field(repr=False, kw_only=True)

    def __post_init__(self):
        for name in ("out_channels", "in_channels", "kernel_h", "kernel_w",
                     "stride", "dilation", "groups"):
            if getattr(self, name) < 1:
                raise ConstructionError(f"ConvSpec.{name} must be positive")
        if self.padding < 0:
            raise ConstructionError("ConvSpec.padding must be nonnegative")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ConstructionError(
                f"channels ({self.in_channels} in, {self.out_channels} out) "
                f"not divisible by groups={self.groups}"
            )
        expected = (self.out_channels, self.in_channels // self.groups,
                    self.kernel_h, self.kernel_w)
        self.weight = np.asarray(self.weight)
        if self.weight.shape != expected:
            raise ConstructionError(
                f"weight shape {self.weight.shape} != expected {expected}"
            )

    @property
    def is_pointwise(self) -> bool:
        """1x1 kernel without padding: one channel mix per sampled pixel."""
        return self.kernel_h == 1 and self.kernel_w == 1 and self.padding == 0

    @property
    def is_depthwise(self) -> bool:
        return (self.groups == self.in_channels
                and self.out_channels == self.in_channels)

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        """Output spatial extents; raises if the kernel does not fit."""
        eff_h = (self.kernel_h - 1) * self.dilation + 1
        eff_w = (self.kernel_w - 1) * self.dilation + 1
        if h + 2 * self.padding < eff_h or w + 2 * self.padding < eff_w:
            raise DimensionError(
                f"effective kernel {eff_h}x{eff_w} exceeds padded input "
                f"{h + 2 * self.padding}x{w + 2 * self.padding}"
            )
        ho = (h + 2 * self.padding - eff_h) // self.stride + 1
        wo = (w + 2 * self.padding - eff_w) // self.stride + 1
        return ho, wo

    def matrix_shape(self, h: int, w: int) -> tuple[int, int]:
        """(rows, cols) of the dense matrix view at input extents (h, w)."""
        ho, wo = self.out_hw(h, w)
        return self.out_channels * ho * wo, self.in_channels * h * w


def _pad_input(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    n, c, h, w = x.shape
    p = padding
    out = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    out[:, :, p: p + h, p: p + w] = x
    return out


def _input_rows(x: np.ndarray, spec: ConvSpec, ho: int):
    """Yield ``A_k`` for k = 0, 1, ...: the padded input rows ``y*s + k*d``
    (y < ho) as (g, n*ho, cg*wp). For one image with one input channel per
    group (a stacked depthwise conv in power iteration) ``A_k`` is a strided
    view of the padded input; otherwise it is copied into one buffer reused
    across k."""
    xp = _pad_input(x, spec.padding)
    n, c, _, wp = xp.shape
    g, s = spec.groups, spec.stride
    rows = None if n == 1 and c == g else np.empty((g, n, ho, c // g, wp), dtype=x.dtype)
    for k in range(spec.kernel_h):
        start = k * spec.dilation
        view = xp[:, :, start: start + (ho - 1) * s + 1: s]
        if rows is None:
            yield view[0]
            continue
        rows[...] = view.reshape(n, g, c // g, ho, wp).transpose(1, 0, 3, 2, 4)
        yield rows.reshape(g, n * ho, c // g * wp)


def _band_index(spec: ConvSpec, wo: int) -> tuple[np.ndarray, np.ndarray]:
    """Output columns x, shape (wo,), and the padded input column
    ``x*s + l*d`` that tap l reads at each, shape (kw, wo)."""
    cols = np.arange(wo)
    taps = cols * spec.stride + np.arange(spec.kernel_w)[:, None] * spec.dilation
    return cols, taps


def _band_matrices(spec: ConvSpec, wp: int, wo: int, dtype) -> np.ndarray:
    """``T_k`` for every kernel row k, shape (kh, g, cg*wp, og*wo), with
    ``T_k[grp, (c, x*s + l*d), (o, x)] = w[grp*og + o, c, k, l]`` and zeros
    elsewhere."""
    g, kh, kw = spec.groups, spec.kernel_h, spec.kernel_w
    cg, og = spec.in_channels // g, spec.out_channels // g
    cols, taps = _band_index(spec, wo)
    band = np.zeros((kh, g, cg, wp, og, wo), dtype=dtype)
    # Indexed this way the band's entries come out as (kw, wo, kh, g, cg, og).
    taps_first = spec.weight.reshape(g, og, cg, kh, kw).transpose(4, 3, 0, 2, 1)
    band[:, :, :, taps, :, cols] = taps_first[:, None]
    return band.reshape(kh, g, cg * wp, og * wo)


def _adjoint_spec(spec: ConvSpec) -> ConvSpec:
    """The conv the adjoint correlates its canvas with: the flipped kernel,
    input and output channels swapped within each group, stride 1, no
    padding."""
    g, kh, kw = spec.groups, spec.kernel_h, spec.kernel_w
    og = spec.out_channels // g
    return ConvSpec(
        spec.in_channels, spec.out_channels, kh, kw, dilation=spec.dilation,
        groups=g, weight=spec.weight.reshape(g, og, -1, kh, kw)
        .transpose(0, 2, 1, 3, 4)[..., ::-1, ::-1].reshape(-1, og, kh, kw))


def conv_bands(spec: ConvSpec, input_hw: tuple[int, int], dtype
               ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The bands that ``conv2d_forward`` and ``conv2d_transpose_forward``
    build for ``spec`` at input extents ``input_hw``, for a caller that runs
    both maps many times on one weight; None for a map that is a plain
    matmul. They are only valid while the weight does not change."""
    h, w = input_hw
    _, wo = spec.out_hw(h, w)
    forward = adjoint = None
    if not spec.is_pointwise:
        forward = _band_matrices(spec, w + 2 * spec.padding, wo, dtype)
    flipped = _adjoint_spec(spec)
    if not flipped.is_pointwise:
        adjoint = _band_matrices(flipped, w + (spec.kernel_w - 1) * spec.dilation,
                                 w, dtype)
    return forward, adjoint


def _check_input(x: np.ndarray, spec: ConvSpec) -> None:
    if x.ndim != 4:
        raise DimensionError(f"conv input must be NCHW, got ndim={x.ndim}")
    if x.shape[1] != spec.in_channels:
        raise DimensionError(
            f"conv expects {spec.in_channels} input channels, got {x.shape[1]}"
        )


def _correlate(x: np.ndarray, spec: ConvSpec, band: np.ndarray | None = None
               ) -> np.ndarray:
    """Cross-correlation of an NCHW array whose channels match ``spec``;
    ``band`` is the prebuilt ``_band_matrices`` result, if any."""
    n = x.shape[0]
    ho, wo = spec.out_hw(x.shape[2], x.shape[3])
    g = spec.groups
    if spec.is_pointwise:
        s = spec.stride
        xs = x[:, :, ::s, ::s].reshape(n, g, spec.in_channels // g, ho * wo)
        out = np.matmul(spec.weight.reshape(g, spec.out_channels // g, -1), xs)
        return out.reshape(n, spec.out_channels, ho, wo).astype(x.dtype, copy=False)
    cg, og = spec.in_channels // g, spec.out_channels // g
    wp = x.shape[3] + 2 * spec.padding
    if band is None:
        band = _band_matrices(spec, wp, wo, x.dtype)
    elif band.shape != (spec.kernel_h, g, cg * wp, og * wo) or band.dtype != x.dtype:
        raise DimensionError(
            f"band {band.shape} {band.dtype} does not fit a {x.dtype} input of "
            f"width {x.shape[3]} for {spec}"
        )
    acc = np.empty((g, n * ho, og * wo), dtype=x.dtype)
    prod = np.empty_like(acc)
    for k, rows in enumerate(_input_rows(x, spec, ho)):
        np.matmul(rows, band[k], out=acc if k == 0 else prod)
        if k:
            acc += prod
    del rows, prod  # free before the output copy, to bound the peak
    out = acc.reshape(g, n, ho, og, wo).transpose(1, 0, 3, 2, 4)
    return np.ascontiguousarray(out).reshape(n, spec.out_channels, ho, wo)


def conv2d_forward(x: np.ndarray, spec: ConvSpec,
                   band: np.ndarray | None = None) -> np.ndarray:
    """Cross-correlation with zero padding in NCHW layout; ``band`` is the
    forward band of ``conv_bands``, built here when not given."""
    x = np.asarray(x)
    _check_input(x, spec)
    return _correlate(x, spec, band)


def _landing(offset: int, step: int, count: int, size: int) -> tuple[slice, slice]:
    """The indices i < count whose position ``offset + i*step`` lies in
    [0, size), and those positions, as two slices."""
    lo = -(min(offset, 0) // step)
    hi = max(lo, min(count, (size - 1 - offset) // step + 1))
    return slice(lo, hi), slice(offset + lo * step, offset + hi * step, step)


def conv2d_transpose_forward(y: np.ndarray, spec: ConvSpec,
                             input_hw: tuple[int, int],
                             band: np.ndarray | None = None) -> np.ndarray:
    """Exact adjoint of ``conv2d_forward`` at input extents ``input_hw``
    (several input sizes can share one output size when stride > 1);
    ``band`` is the adjoint band of ``conv_bands``, built here when not
    given."""
    y = np.asarray(y)
    kh, kw = spec.kernel_h, spec.kernel_w
    flipped = _adjoint_spec(spec)
    _check_input(y, flipped)
    n, _, ho, wo = y.shape
    h, w = input_hw
    if spec.out_hw(h, w) != (ho, wo):
        raise DimensionError(
            f"output extents {(ho, wo)} inconsistent with input extents {(h, w)}"
        )
    p, s, d = spec.padding, spec.stride, spec.dilation
    if spec.is_pointwise and s == 1:
        return _correlate(y, flipped, band)
    canvas = np.zeros((n, spec.out_channels, h + (kh - 1) * d, w + (kw - 1) * d),
                      dtype=y.dtype)
    src_h, dst_h = _landing((kh - 1) * d - p, s, ho, canvas.shape[2])
    src_w, dst_w = _landing((kw - 1) * d - p, s, wo, canvas.shape[3])
    canvas[:, :, dst_h, dst_w] = y[:, :, src_h, src_w]
    return _correlate(canvas, flipped, band)


def conv2d_weight_grad(x: np.ndarray, gy: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Gradient of the forward map with respect to the kernel."""
    x = np.asarray(x)
    _check_input(x, spec)
    n = x.shape[0]
    ho, wo = spec.out_hw(x.shape[2], x.shape[3])
    if gy.shape != (n, spec.out_channels, ho, wo):
        raise DimensionError(
            f"weight-grad cotangent shape {gy.shape} != {(n, spec.out_channels, ho, wo)}"
        )
    g, kh, kw = spec.groups, spec.kernel_h, spec.kernel_w
    cg, og = spec.in_channels // g, spec.out_channels // g
    if spec.is_pointwise:
        s = spec.stride
        xs = x[:, :, ::s, ::s].reshape(n, g, cg, ho * wo)
        gw = np.matmul(gy.reshape(n, g, og, ho * wo), xs.transpose(0, 1, 3, 2))
        return gw.sum(axis=0).reshape(spec.weight.shape).astype(
            spec.weight.dtype, copy=False)
    wp = x.shape[3] + 2 * spec.padding
    cols, taps = _band_index(spec, wo)
    # The cotangent as the (g, n*ho, og*wo) GEMM operand.
    gyr = np.ascontiguousarray(gy.reshape(n, g, og, ho, wo).transpose(1, 0, 3, 2, 4))
    gyr = gyr.reshape(g, n * ho, og * wo)
    gw = np.empty((kh, kw, g, cg, og), dtype=spec.weight.dtype)
    for k, rows in enumerate(_input_rows(x, spec, ho)):
        full = np.matmul(rows.transpose(0, 2, 1), gyr).reshape(g, cg, wp, og, wo)
        # The band entries of row k, as (kw, wo, g, cg, og), summed over x.
        gw[k] = full[:, :, taps, :, cols].sum(axis=1)
    return np.ascontiguousarray(gw.transpose(2, 4, 3, 0, 1)).reshape(spec.weight.shape)


def conv2d(x: Tensor, weight: Tensor, spec: ConvSpec) -> Tensor:
    """Differentiable convolution by ``spec``, whose weight array is
    ``weight.data`` (layout [out, in/groups, kh, kw]).

    The graph keeps the input only for the weight gradient."""
    in_hw = x.data.shape[2:]
    nx, nw = _node(x), _node(weight)
    x_data = x.data if nw is not None else None

    def bw(g):
        if nx is not None:
            nx.accumulate(conv2d_transpose_forward(g, spec, input_hw=in_hw), own=True)
        if nw is not None:
            nw.accumulate(conv2d_weight_grad(x_data, g, spec), own=True)

    return _make(conv2d_forward(x.data, spec), (nx, nw), bw)
