"""2-d convolution (cross-correlation), its exact adjoint, its weight
gradient, and shape math.

Every array here is channel-major, (C, H, N, W): channels, rows, batch,
columns. The network keeps its activations in that layout, so a run of rows
of one channel is one contiguous block. The graph nodes that run these maps
are ``layers.BatchNorm2d``'s. A 1x1 kernel without padding is one channel
mix, ``W @ x.reshape(C, -1)`` per channel group, with the weight gradient
``gy.reshape(O, -1) @ x.reshape(C, -1)^T``. Every other conv, with ``g``
groups of ``cg`` inputs and ``og`` outputs, input width ``w``, stride ``s``,
padding ``p`` and dilation ``d``, runs one batched GEMM per kernel row k
(row-band GEMM) against the band matrix ``T_k`` (g, cg*w, og*wo), whose only
nonzeros are ``T_k[(c, x*s + l*d - p), (o, x)] = w[o, c, k, l]``: kernel row
k repeated down the diagonals, with the taps that read horizontal padding
left out. The rows ``y0..y1`` of the output whose kernel row k reads inside
the input meet the input rows ``y*s + k*d - p``, as ``A_k`` (g, ny*N,
cg*w); vertical padding is the rows left out. The one band is used three
ways:

- forward: ``out[rows y0..y1] += A_k @ T_k``;
- adjoint: ``gx[input rows y*s + k*d - p] += G_k @ T_k^T``, with ``G_k``
  the cotangent's rows y0..y1: a strided row add, so stride 2 does only the
  useful work;
- weight gradient: kernel row k is the band diagonals of ``A_k^T @ G_k``,
  summed over x one tap at a time from zero, in order of x.

For a conv with one input channel per group (every depthwise conv) at stride
1, ``A_k`` is a view of the input and nothing is copied; with one output
channel per group, ``G_k`` is a view of the cotangent at any stride.
Otherwise each group's channels are first laid side by side along the last
axis, once per call. ``T_k`` has
``g*cg*og*w*wo`` entries, which stays small because the only dense kxk conv
in the network is the 3-channel stem. Each call builds the band from the
weight unless it is handed one: ``conv_bands`` builds it once for a caller
that runs the maps many times on an unchanged weight. A caller that stacks
kernels of different sizes as one conv (``spectral.power_iteration``) also
passes, per kernel row, the slice of groups with taps in it
(``row_groups``), and that row's GEMM and add run over those groups only.
Such a call, whose operand is a batch of one, first sets the operand on
zero rows (``_canvas``), so that every kernel row reaches every output row
and each row's add is one contiguous block instead of one small add per
group; the sums are unchanged, bit for bit.

What a call needs of its geometry alone is built once per geometry and
cached, keyed by ints. A row plan (``_row_plan``: kernel height, stride,
padding, dilation, groups, input and output rows, ``row_groups``) holds
each kernel row's output span and input rows and the moves of the forward
and of the adjoint. A column plan (``_column_plan``: kernel width, stride,
padding, dilation, channels per group, input and output columns) holds
each kernel column's taps, through which a band is written as strided
diagonals, and the weight gradient's read-only tap index. A column plan
covers one group, so it does not grow with the number of groups. Bands
depend on the weight and are not cached.

The adjoint is exact with respect to the forward map, including padding,
striding, dilation and groups; the spectral-norm estimate and the backward
pass rely on that. Every routine returns a C-contiguous array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

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


def _check_input(x: np.ndarray, channels: int) -> None:
    if x.ndim != 4:
        raise DimensionError(f"conv input must be (C, H, N, W), got ndim={x.ndim}")
    if x.shape[0] != channels:
        raise DimensionError(f"conv expects {channels} input channels, got {x.shape[0]}")


def _spans(size: int, s: int, p: int, d: int, n: int, n_out: int) -> list[tuple]:
    """``(k, y0, y1, start)`` for each kernel index k (a row or a column)
    that reads inside an input of n entries along its axis: the outputs
    ``y0 <= y < y1`` at which it does, and the first input ``y0*s + k*d - p``
    they read."""
    spans = []
    for k in range(size):
        offset = k * d - p
        y0 = max(0, -(offset // s))
        y1 = min(n_out, (n - 1 - offset) // s + 1)
        if y0 < y1:
            spans.append((k, y0, y1, y0 * s + offset))
    return spans


@dataclass(frozen=True)
class _RowPlan:
    """What a conv call needs of its geometry along the rows: per kernel
    row k that reads inside the input, ``(k, y0, y1, rows)``, the input rows
    ``y*s + k*d - p`` of the output rows y0..y1 as a slice (``spans``); and
    the ``first`` and ``moves`` of ``_row_gemms`` for the forward and for
    the adjoint (``_moves``)."""

    spans: tuple
    forward: tuple
    adjoint: tuple


@dataclass(frozen=True)
class _ColumnPlan:
    """What a conv call needs of its geometry along the columns: per kernel
    column l that reads inside the input, ``(l, x0, n, start)``, its n taps
    at the output columns x0.. and the input columns start, start + s, ..
    (``taps``); and the weight gradient's read-only ``tap_index``
    (kw, cg, og, depth) into one group's ``A_k^T G_k`` block followed by a
    zero row: per kernel column and channel pair, a zero, then the column's
    taps in order of x, then zeros up to the longest column."""

    taps: tuple
    tap_index: np.ndarray


# Geometries kept in each plan cache; a network has a few dozen.
_PLANS = 1024


@functools.lru_cache(maxsize=_PLANS)
def _row_plan(kh: int, s: int, p: int, d: int, g: int, h: int, ho: int,
              row_groups: tuple | None) -> _RowPlan:
    spans = tuple((k, y0, y1, slice(start, start + (y1 - y0 - 1) * s + 1, s))
                  for k, y0, y1, start in _spans(kh, s, p, d, h, ho))
    if row_groups is not None:
        row_groups = [slice(*pair) for pair in row_groups]
    geometry = (spans, kh, s, p, d, g, h, ho, row_groups)
    return _RowPlan(spans, _moves(*geometry, adjoint=False), _moves(*geometry, adjoint=True))


@functools.lru_cache(maxsize=_PLANS)
def _column_plan(kw: int, s: int, p: int, d: int, cg: int, og: int, w: int,
                 wo: int) -> _ColumnPlan:
    taps = tuple((l, x0, x1 - x0, start) for l, x0, x1, start in _spans(kw, s, p, d, w, wo))
    # Each column's l, x0, n and start as (columns, 1, 1, 1), to broadcast
    # over the channel pairs and the position x of a tap in its column.
    l, x0, n, start =np.array(taps, dtype=np.intp).reshape(-1, 4).T[:, :, None, None, None]
    x = np.arange(max(n.flat, default=0))
    c, o = np.arange(cg)[:, None, None], np.arange(og)[:, None]
    zero = cg * w * og * wo
    index = np.full((kw, cg, og, 1 + len(x)), zero, dtype=np.intp)
    index[l[:, 0, 0, 0], :, :, 1:] = np.where(
        x < n, ((c * w + start + x * s) * og + o) * wo + x0 + x, zero)
    index.setflags(write=False)
    return _ColumnPlan(taps, index)


def _rows(spec: ConvSpec, h: int, ho: int, row_groups=None) -> _RowPlan:
    """The row plan of ``spec`` at h input rows; ``row_groups`` as in
    ``conv2d_forward``."""
    if row_groups is not None:
        row_groups = tuple((rg.start, rg.stop) for rg in row_groups)
    return _row_plan(spec.kernel_h, spec.stride, spec.padding, spec.dilation,
                     spec.groups, h, ho, row_groups)


def _columns(spec: ConvSpec, w: int, wo: int) -> _ColumnPlan:
    """The column plan of ``spec`` at w input columns, shared by every
    group count."""
    g = spec.groups
    return _column_plan(spec.kernel_w, spec.stride, spec.padding, spec.dilation,
                        spec.in_channels // g, spec.out_channels // g, w, wo)


def _band_matrices(spec: ConvSpec, w: int, wo: int, dtype) -> np.ndarray:
    """``T_k`` for every kernel row k, shape (kh, g, cg*w, og*wo), with
    ``T_k[grp, (c, x*s + l*d - p), (o, x)] = w[grp*og + o, c, k, l]`` for
    the taps inside the input and zeros elsewhere."""
    g, kh, kw = spec.groups, spec.kernel_h, spec.kernel_w
    cg, og = spec.in_channels // g, spec.out_channels // g
    band = np.zeros((kh, g, cg, w, og, wo), dtype=dtype)
    weight = spec.weight.reshape(g, og, cg, kh, kw).transpose(3, 0, 2, 1, 4)
    # Kernel column l's taps lie on a diagonal of each (w, wo) plane, one
    # step of s rows and one column apart: a strided view of the band.
    size = band.itemsize
    strides = band.strides[:3] + (band.strides[4], (spec.stride * og * wo + 1) * size)
    for l, x0, n, start in _columns(spec, w, wo).taps:
        diagonal = np.ndarray((kh, g, cg, og, n), band.dtype, band,
                              (start * og * wo + x0) * size, strides)
        diagonal[...] = weight[..., l, None]
    return band.reshape(kh, g, cg * w, og * wo)


def conv_bands(spec: ConvSpec, input_hw: tuple[int, int], dtype) -> np.ndarray | None:
    """The band that ``conv2d_forward`` and ``conv2d_transpose_forward``
    build for ``spec`` at input extents ``input_hw``, for a caller that runs
    both maps many times on one weight; None for a plain channel mix. It is
    only valid while the weight does not change."""
    if spec.is_pointwise:
        return None
    h, w = input_hw
    return _band_matrices(spec, w, spec.out_hw(h, w)[1], dtype)


def _fitting_band(spec: ConvSpec, band, w: int, wo: int, dtype) -> np.ndarray:
    if band is None:
        return _band_matrices(spec, w, wo, dtype)
    g = spec.groups
    shape = (spec.kernel_h, g, spec.in_channels // g * w, spec.out_channels // g * wo)
    if band.shape != shape or band.dtype != dtype:
        raise DimensionError(
            f"band {band.shape} {band.dtype} does not fit a {np.dtype(dtype)} "
            f"input of width {w} for {spec}")
    return band


def _grouped(a: np.ndarray, g: int) -> np.ndarray:
    """A (C, H, N, W) array as (g, H, N, C/g*W): each group's channels side
    by side along the last axis; a view when a group has one channel."""
    c, h, n, w = a.shape
    a = a.reshape(g, c // g, h, n, w).transpose(0, 2, 3, 1, 4)
    return np.ascontiguousarray(a).reshape(g, h, n, c // g * w)


def _ungrouped(a: np.ndarray, w: int) -> np.ndarray:
    """The inverse of ``_grouped`` for width w: (g, H, N, cg*w) as
    (g*cg, H, N, w)."""
    g, h, n, cgw = a.shape
    a = a.reshape(g, h, n, cgw // w, w).transpose(0, 3, 1, 2, 4)
    return np.ascontiguousarray(a).reshape(-1, h, n, w)


def _sampled(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """The pixels a 1x1 conv reads, as (g, cg, ho*N*wo); a view at stride 1."""
    s = spec.stride
    return x[:, ::s, :, ::s].reshape(spec.groups, spec.in_channels // spec.groups, -1)


def _row_gemms(rows: np.ndarray, band: np.ndarray, first, moves,
               out_rows: int) -> np.ndarray:
    """The sum of ``out[grp, dst] += rows[grp, src] @ band[k, grp]`` over
    the ``(k, src, dst, grp)`` of ``first`` and of ``moves`` in order:
    ``rows`` is (g, H, N, K) and ``out`` (g, out_rows, N, band.shape[3]),
    zero where no move lands. ``first``, a move onto every output row of
    every group or None, writes ``out`` in place of zeroing it."""
    g, _, n, _ = rows.shape
    out = np.empty((g, out_rows, n, band.shape[3]), dtype=rows.dtype)
    if first is None:
        out[...] = 0
    else:
        k, src, _, _ = first
        np.matmul(rows[:, src].reshape(g, -1, band.shape[2]), band[k],
                  out=out.reshape(g, -1, band.shape[3]))
    for k, src, dst, grp in moves:
        part = rows[grp, src]
        prod = np.matmul(part.reshape(len(part), -1, band.shape[2]), band[k, grp])
        out[grp, dst] += prod.reshape(len(part), -1, n, band.shape[3])
    return out


def _moves(spans: tuple, kh: int, s: int, p: int, d: int, g: int, h: int, ho: int,
           row_groups, adjoint: bool):
    """The ``first`` and ``moves`` of ``_row_gemms`` for the row ``spans``
    of a ``_RowPlan``. Per kernel row k: the
    output rows y0..y1 it reaches and the input rows they read (the other
    way round for the adjoint), over the groups ``row_groups[k]`` (every
    group when None); a row with no group is left out. ``first`` is the
    move that reaches every row of every group (the middle kernel row, at
    the padding the network uses), if one does; the others follow in order
    of k.

    With ``row_groups`` the operand is ``_canvas``'s, on which every kernel
    row reaches every row of the output, so each move's add is one
    contiguous block; the rows it adds beyond the unpadded span are zeros,
    and ``first`` stays the move it is unpadded, so every sum is the same.
    A move over one row keeps its unpadded span: numpy multiplies a single
    row by a matrix-vector product, whose bits can differ from the matrix
    product's.
    """
    n_out = h if adjoint else ho
    every_row, every_group = slice(0, n_out, 1), slice(0, g)
    first, moves = None, []
    for k, y0, y1, rows in spans:
        grp = every_group if row_groups is None else row_groups[k]
        if grp.start >= grp.stop:
            continue
        src, dst = (slice(y0, y1, 1), rows) if adjoint else (rows, slice(y0, y1, 1))
        reaches_all = dst == every_row and grp == every_group
        if row_groups is not None and y1 - y0 == 1:
            at = (kh - 1) * d - p + y0 * s if adjoint else rows.start + p
            src = slice(at, at + 1)
        elif row_groups is not None:
            lo = (kh - 1 - k) * d if adjoint else k * d
            src = slice(lo, lo + h) if adjoint else slice(lo, lo + (ho - 1) * s + 1, s)
            dst = every_row
        if first is None and reaches_all:
            first = (k, src, dst, grp)
        else:
            moves.append((k, src, dst, grp))
    return first, tuple(moves)


def _canvas(a: np.ndarray, spec: ConvSpec, h: int, ho: int, adjoint: bool) -> np.ndarray:
    """The operand ``a`` (g, rows, N, K) of a call with ``row_groups`` set
    on zero rows, so that every kernel row k reaches every output row: the
    forward's input row r is canvas row r + p, so output row y reads
    canvas row y*s + k*d; the adjoint's cotangent row y is canvas row
    y*s + (kh - 1)*d - p, so input row r reads canvas row
    r + (kh - 1 - k)*d, with zeros between strided rows."""
    reach = (spec.kernel_h - 1) * spec.dilation
    if adjoint:
        top, height, step = reach - spec.padding, h + reach, spec.stride
    else:
        height = max(h + spec.padding, (ho - 1) * spec.stride + reach + 1)
        top, step = spec.padding, 1
    out = np.zeros((a.shape[0], height) + a.shape[2:], dtype=a.dtype)
    out[:, top:top + (a.shape[1] - 1) * step + 1:step] = a
    return out


def conv2d_forward(x: np.ndarray, spec: ConvSpec, band: np.ndarray | None = None,
                   row_groups: list[slice] | None = None) -> np.ndarray:
    """Cross-correlation with zero padding of a (C, H, N, W) input; ``band``
    is the one of ``conv_bands``, built here when not given. ``row_groups``
    (per kernel row, the slice of groups whose kernels have taps in it) lets
    a stack of kernels of different sizes skip the rest: see ``_moves``."""
    x = np.asarray(x)
    _check_input(x, spec.in_channels)
    _, h, n, w = x.shape
    ho, wo = spec.out_hw(h, w)
    g = spec.groups
    og = spec.out_channels // g
    if spec.is_pointwise:
        out = np.matmul(spec.weight.reshape(g, og, -1), _sampled(x, spec))
        return out.reshape(spec.out_channels, ho, n, wo).astype(x.dtype, copy=False)
    band = _fitting_band(spec, band, w, wo, x.dtype)
    rows = _grouped(x, g)
    if row_groups is not None:
        rows = _canvas(rows, spec, h, ho, adjoint=False)
    first, moves = _rows(spec, h, ho, row_groups).forward
    return _ungrouped(_row_gemms(rows, band, first, moves, ho), wo)


def conv2d_transpose_forward(y: np.ndarray, spec: ConvSpec,
                             input_hw: tuple[int, int],
                             band: np.ndarray | None = None,
                             row_groups: list[slice] | None = None) -> np.ndarray:
    """Exact adjoint of ``conv2d_forward`` at input extents ``input_hw``
    (several input sizes can share one output size when stride > 1);
    ``band`` and ``row_groups`` are as there. The band is multiplied by
    transposed, and copied into that memory order unless it is already laid
    out so."""
    y = np.asarray(y)
    _check_input(y, spec.out_channels)
    _, ho, n, wo = y.shape
    h, w = input_hw
    if spec.out_hw(h, w) != (ho, wo):
        raise DimensionError(
            f"output extents {(ho, wo)} inconsistent with input extents {(h, w)}"
        )
    g, s = spec.groups, spec.stride
    og = spec.out_channels // g
    if spec.is_pointwise:
        gx = np.matmul(spec.weight.reshape(g, og, -1).transpose(0, 2, 1),
                       y.reshape(g, og, -1)).astype(y.dtype, copy=False)
        gx = gx.reshape(spec.in_channels, ho, n, wo)
        if s == 1:
            return gx
        out = np.zeros((spec.in_channels, h, n, w), dtype=y.dtype)
        out[:, ::s, :, ::s] = gx
        return out
    band = _fitting_band(spec, band, w, wo, y.dtype)
    # A stacked matmul by a transposed view runs at about half speed.
    band_t = np.ascontiguousarray(band.transpose(0, 1, 3, 2))
    rows = _grouped(y, g)
    if row_groups is not None:
        rows = _canvas(rows, spec, h, ho, adjoint=True)
    first, moves = _rows(spec, h, ho, row_groups).adjoint
    return _ungrouped(_row_gemms(rows, band_t, first, moves, h), w)


def conv2d_weight_grad(x: np.ndarray, gy: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Gradient of the forward map with respect to the kernel."""
    x = np.asarray(x)
    _check_input(x, spec.in_channels)
    _, h, n, w = x.shape
    ho, wo = spec.out_hw(h, w)
    if gy.shape != (spec.out_channels, ho, n, wo):
        raise DimensionError(
            f"weight-grad cotangent shape {gy.shape} != {(spec.out_channels, ho, n, wo)}"
        )
    g, kh = spec.groups, spec.kernel_h
    cg, og = spec.in_channels // g, spec.out_channels // g
    if spec.is_pointwise:
        gw = np.matmul(gy.reshape(g, og, -1), _sampled(x, spec).transpose(0, 2, 1))
        return gw.reshape(spec.weight.shape).astype(spec.weight.dtype, copy=False)
    rows, cotangent = _grouped(x, g), _grouped(gy, g)
    # Per kernel row k and group, A_k^T G_k and then a zero row, which the
    # tap index reads where a kernel column has fewer taps than the longest.
    full = np.zeros((kh, g, cg * w + 1, og * wo), dtype=np.result_type(x, gy))
    for k, y0, y1, src in _rows(spec, h, ho).spans:
        a_k = rows[:, src].reshape(g, -1, cg * w)
        g_k = cotangent[:, y0:y1].reshape(g, -1, og * wo)
        np.matmul(a_k.transpose(0, 2, 1), g_k, out=full[k, :, :cg * w])
    taps = np.take(full.reshape(kh, g, -1), _columns(spec, w, wo).tap_index, axis=2)
    # The last partial sum of each kernel column's taps, added one by one
    # from zero in order of x; np.add.reduce would pair them up and round
    # differently.
    gw = np.add.accumulate(taps, axis=-1)[..., -1]
    return np.ascontiguousarray(gw.transpose(1, 4, 3, 0, 2),
                                dtype=spec.weight.dtype).reshape(spec.weight.shape)
