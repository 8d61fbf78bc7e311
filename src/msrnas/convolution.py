"""Dense 2-d convolution (cross-correlation), its exact adjoint, and shape math.

The array-level routines work on plain numpy NCHW arrays; ``conv2d`` wraps the
forward pass as a differentiable graph op. Compute is organized tap by tap:
for each kernel position, a strided view of the (padded) input is contracted
against that tap's weights, which keeps temporaries at activation size and
turns the channel mixing into stacked GEMMs. A 1x1 kernel without padding
has a single tap: its forward and adjoint are one ``np.matmul`` over the
channel groups and its groups-1 weight gradient one ``tensordot``. The
adjoint implemented by ``conv2d_transpose_forward`` scatter-adds through the
same views and is exact with respect to the forward map, including zero
padding, striding, dilation and channel groups; the spectral-norm power
iteration and the backward pass both rely on that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .autodiff import Tensor, _make
from .errors import ConstructionError, DimensionError


@lru_cache(maxsize=512)
def _einsum_path(equation: str, *shapes: tuple):
    dummies = [np.empty(s, dtype=np.float32) for s in shapes]
    return np.einsum_path(equation, *dummies, optimize="optimal")[0]


def _einsum(equation: str, *operands: np.ndarray) -> np.ndarray:
    path = _einsum_path(equation, *(op.shape for op in operands))
    return np.einsum(equation, *operands, optimize=path)


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
    weight: np.ndarray = field(default=None, repr=False)

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
        if self.weight is None:
            self.weight = np.zeros(expected)
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

    def min_input_hw(self, ho: int, wo: int) -> tuple[int, int]:
        """Smallest input extents whose forward output is (ho, wo)."""
        eff_h = (self.kernel_h - 1) * self.dilation + 1
        eff_w = (self.kernel_w - 1) * self.dilation + 1
        return ((ho - 1) * self.stride + eff_h - 2 * self.padding,
                (wo - 1) * self.stride + eff_w - 2 * self.padding)

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


def _tap_slices(spec: ConvSpec, k: int, l: int, ho: int, wo: int) -> tuple[slice, slice]:
    s, d = spec.stride, spec.dilation
    return (slice(k * d, k * d + (ho - 1) * s + 1, s),
            slice(l * d, l * d + (wo - 1) * s + 1, s))


def _pointwise_weight(spec: ConvSpec) -> np.ndarray:
    """A 1x1 kernel as its per-group channel matrices, shape (g, out/g, in/g)."""
    g = spec.groups
    return spec.weight.reshape(g, spec.out_channels // g, spec.in_channels // g)


def _check_input(x: np.ndarray, spec: ConvSpec) -> None:
    if x.ndim != 4:
        raise DimensionError(f"conv input must be NCHW, got ndim={x.ndim}")
    if x.shape[1] != spec.in_channels:
        raise DimensionError(
            f"conv expects {spec.in_channels} input channels, got {x.shape[1]}"
        )


def conv2d_forward(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Cross-correlation with zero padding in NCHW layout."""
    x = np.asarray(x)
    _check_input(x, spec)
    n = x.shape[0]
    ho, wo = spec.out_hw(x.shape[2], x.shape[3])
    if spec.is_pointwise:
        g, s = spec.groups, spec.stride
        xs = x[:, :, ::s, ::s].reshape(n, g, spec.in_channels // g, ho * wo)
        out = np.matmul(_pointwise_weight(spec), xs)
        return out.reshape(n, spec.out_channels, ho, wo).astype(x.dtype, copy=False)
    xp = _pad_input(x, spec.padding)
    w = spec.weight
    out = np.zeros((n, spec.out_channels, ho, wo), dtype=x.dtype)
    if spec.is_depthwise:
        for k in range(spec.kernel_h):
            for l in range(spec.kernel_w):
                sh, sw = _tap_slices(spec, k, l, ho, wo)
                out += xp[:, :, sh, sw] * w[:, 0, k, l][None, :, None, None]
    elif spec.groups == 1:
        for k in range(spec.kernel_h):
            for l in range(spec.kernel_w):
                sh, sw = _tap_slices(spec, k, l, ho, wo)
                out += _einsum("ncyx,oc->noyx", xp[:, :, sh, sw], w[:, :, k, l])
    else:
        g = spec.groups
        cg = spec.in_channels // g
        og = spec.out_channels // g
        wg = w.reshape(g, og, cg, spec.kernel_h, spec.kernel_w)
        outg = out.reshape(n, g, og, ho, wo)
        xpg = xp.reshape(n, g, cg, *xp.shape[2:])
        for k in range(spec.kernel_h):
            for l in range(spec.kernel_w):
                sh, sw = _tap_slices(spec, k, l, ho, wo)
                outg += _einsum("ngcyx,goc->ngoyx", xpg[:, :, :, sh, sw],
                                wg[:, :, :, k, l])
    return out


def conv2d_transpose_forward(
    y: np.ndarray, spec: ConvSpec, input_hw: tuple[int, int] | None = None
) -> np.ndarray:
    """Exact adjoint of ``conv2d_forward``.

    `input_hw` disambiguates the source extents when stride > 1 (several
    input sizes can share one output size); when omitted, the smallest
    consistent extents are used.
    """
    y = np.asarray(y)
    if y.ndim != 4:
        raise DimensionError(f"conv transpose input must be NCHW, got ndim={y.ndim}")
    if y.shape[1] != spec.out_channels:
        raise DimensionError(
            f"conv transpose expects {spec.out_channels} channels, got {y.shape[1]}"
        )
    n, _, ho, wo = y.shape
    if input_hw is None:
        input_hw = spec.min_input_hw(ho, wo)
    h, w = input_hw
    if spec.out_hw(h, w) != (ho, wo):
        raise DimensionError(
            f"output extents {(ho, wo)} inconsistent with input extents {(h, w)}"
        )
    if spec.is_pointwise:
        g, s = spec.groups, spec.stride
        yg = y.reshape(n, g, spec.out_channels // g, ho * wo)
        xs = np.matmul(_pointwise_weight(spec).transpose(0, 2, 1), yg)
        xs = xs.reshape(n, spec.in_channels, ho, wo).astype(y.dtype, copy=False)
        if s == 1:
            return xs
        x = np.zeros((n, spec.in_channels, h, w), dtype=y.dtype)
        x[:, :, ::s, ::s] = xs
        return x
    p = spec.padding
    wk = spec.weight
    xp = np.zeros((n, spec.in_channels, h + 2 * p, w + 2 * p), dtype=y.dtype)
    if spec.is_depthwise:
        for k in range(spec.kernel_h):
            for l in range(spec.kernel_w):
                sh, sw = _tap_slices(spec, k, l, ho, wo)
                xp[:, :, sh, sw] += y * wk[:, 0, k, l][None, :, None, None]
    elif spec.groups == 1:
        for k in range(spec.kernel_h):
            for l in range(spec.kernel_w):
                sh, sw = _tap_slices(spec, k, l, ho, wo)
                xp[:, :, sh, sw] += _einsum("noyx,oc->ncyx", y, wk[:, :, k, l])
    else:
        g = spec.groups
        cg = spec.in_channels // g
        og = spec.out_channels // g
        wg = wk.reshape(g, og, cg, spec.kernel_h, spec.kernel_w)
        yg = y.reshape(n, g, og, ho, wo)
        xpg = xp.reshape(n, g, cg, *xp.shape[2:])
        for k in range(spec.kernel_h):
            for l in range(spec.kernel_w):
                sh, sw = _tap_slices(spec, k, l, ho, wo)
                xpg[:, :, :, sh, sw] += _einsum("ngoyx,goc->ngcyx", yg,
                                                wg[:, :, :, k, l])
    if p == 0:
        return xp
    return np.ascontiguousarray(xp[:, :, p: p + h, p: p + w])


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
    if spec.is_pointwise and spec.groups == 1:
        s = spec.stride
        gw = np.tensordot(gy, x[:, :, ::s, ::s], axes=([0, 2, 3], [0, 2, 3]))
        return gw.reshape(spec.weight.shape).astype(spec.weight.dtype, copy=False)
    xp = _pad_input(x, spec.padding)
    gw = np.zeros_like(spec.weight)
    if spec.is_depthwise:
        for k in range(spec.kernel_h):
            for l in range(spec.kernel_w):
                sh, sw = _tap_slices(spec, k, l, ho, wo)
                gw[:, 0, k, l] = (gy * xp[:, :, sh, sw]).sum(axis=(0, 2, 3))
    elif spec.groups == 1:
        for k in range(spec.kernel_h):
            for l in range(spec.kernel_w):
                sh, sw = _tap_slices(spec, k, l, ho, wo)
                gw[:, :, k, l] = _einsum("noyx,ncyx->oc", gy, xp[:, :, sh, sw])
    else:
        g = spec.groups
        cg = spec.in_channels // g
        og = spec.out_channels // g
        gwg = gw.reshape(g, og, cg, spec.kernel_h, spec.kernel_w)
        yg = gy.reshape(n, g, og, ho, wo)
        xpg = xp.reshape(n, g, cg, *xp.shape[2:])
        for k in range(spec.kernel_h):
            for l in range(spec.kernel_w):
                sh, sw = _tap_slices(spec, k, l, ho, wo)
                gwg[:, :, :, k, l] = _einsum("ngoyx,ngcyx->goc", yg,
                                             xpg[:, :, :, sh, sw])
    return gw


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0,
           dilation: int = 1, groups: int = 1) -> Tensor:
    """Differentiable convolution; weight layout [out, in/groups, kh, kw]."""
    out_channels, cg, kh, kw = weight.data.shape
    spec = ConvSpec(
        out_channels=out_channels,
        in_channels=cg * groups,
        kernel_h=kh,
        kernel_w=kw,
        stride=stride,
        padding=padding,
        dilation=dilation,
        groups=groups,
        weight=weight.data,
    )
    in_hw = x.data.shape[2:]
    data = conv2d_forward(x.data, spec)

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(
                conv2d_transpose_forward(g, spec, input_hw=in_hw), own=True
            )
        if weight.requires_grad:
            weight.accumulate_grad(conv2d_weight_grad(x.data, g, spec), own=True)

    return _make(data, (x, weight), bw)
