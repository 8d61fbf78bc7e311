"""Shared fixtures, independent numerical oracles and file writers for the
test suite.

The conv oracles (``naive_conv2d``, the tap loop, ``materialize_conv_matrix``)
take and return NCHW arrays; the program's conv routines work on
channel-major (C, H, N, W) arrays, and ``to_chnw``/``to_nchw`` convert.
``conv2d`` is one conv as its own graph op: the unfused reference for the
conv chains that the network runs inside its BatchNorm nodes.
``reference_power_iteration`` is the plain power iteration on a stack of
spectral handles, the reference for the Krylov estimate, and
``add_at_conv2d_weight_grad`` the row-band weight gradient with its taps
summed by ``np.add.at``, the reference for the program's tap sums."""

import numpy as np
import pytest

from msrnas import convolution, spectral
from msrnas.autodiff import Tensor, _make, _node
from msrnas.convolution import (
    ConvSpec,
    conv2d_forward,
    conv2d_transpose_forward,
    conv2d_weight_grad,
)

DENSE_MATRIX_CAP = 4096 * 4096  # max rows*cols a materialized matrix may hold


def to_chnw(a: np.ndarray) -> np.ndarray:
    """An NCHW array in the program's (C, H, N, W) layout."""
    return np.ascontiguousarray(np.asarray(a).transpose(1, 2, 0, 3))


def to_nchw(a: np.ndarray) -> np.ndarray:
    """A (C, H, N, W) array in NCHW."""
    return np.ascontiguousarray(np.asarray(a).transpose(2, 0, 1, 3))


def conv2d(x: Tensor, weight: Tensor, spec: ConvSpec) -> Tensor:
    """Differentiable convolution by ``spec`` of a (C, H, N, W) tensor,
    whose weight array is ``weight.data`` (layout [out, in/groups, kh, kw]).

    The graph keeps the input only for the weight gradient."""
    in_hw = (x.data.shape[1], x.data.shape[3])
    nx, nw = _node(x), _node(weight)
    x_data = x.data if nw is not None else None

    def bw(g):
        if nx is not None:
            nx.accumulate(conv2d_transpose_forward(g, spec, input_hw=in_hw), own=True)
        if nw is not None:
            nw.accumulate(conv2d_weight_grad(x_data, g, spec), own=True)

    return _make(conv2d_forward(x.data, spec), (nx, nw), bw)


def naive_conv2d(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Nested-loop cross-correlation; the from-first-principles reference."""
    n, c_in, h, w = x.shape
    ho, wo = spec.out_hw(h, w)
    p, s, d = spec.padding, spec.stride, spec.dilation
    g = spec.groups
    cg = c_in // g
    og = spec.out_channels // g
    out = np.zeros((n, spec.out_channels, ho, wo), dtype=x.dtype)
    for b in range(n):
        for o in range(spec.out_channels):
            grp = o // og
            for y in range(ho):
                for xx in range(wo):
                    acc = 0.0
                    for ci in range(cg):
                        cin = grp * cg + ci
                        for ky in range(spec.kernel_h):
                            for kx in range(spec.kernel_w):
                                iy = y * s - p + ky * d
                                ix = xx * s - p + kx * d
                                if 0 <= iy < h and 0 <= ix < w:
                                    acc += x[b, cin, iy, ix] * spec.weight[o, ci, ky, kx]
                    out[b, o, y, xx] = acc
    return out


def _tap_slices(spec: ConvSpec, k: int, l: int, ho: int, wo: int) -> tuple[slice, slice]:
    s, d = spec.stride, spec.dilation
    return (slice(k * d, k * d + (ho - 1) * s + 1, s),
            slice(l * d, l * d + (wo - 1) * s + 1, s))


def _pad(x: np.ndarray, p: int) -> np.ndarray:
    return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x


def tap_conv2d_forward(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Tap-loop reference forward: one strided view of the padded input per
    kernel tap, contracted against that tap's weights."""
    n = x.shape[0]
    ho, wo = spec.out_hw(x.shape[2], x.shape[3])
    g = spec.groups
    cg, og = spec.in_channels // g, spec.out_channels // g
    xp = _pad(x, spec.padding)
    xpg = xp.reshape(n, g, cg, *xp.shape[2:])
    wg = spec.weight.reshape(g, og, cg, spec.kernel_h, spec.kernel_w)
    out = np.zeros((n, g, og, ho, wo), dtype=x.dtype)
    for k in range(spec.kernel_h):
        for l in range(spec.kernel_w):
            sh, sw = _tap_slices(spec, k, l, ho, wo)
            out += np.einsum("ngcyx,goc->ngoyx", xpg[:, :, :, sh, sw],
                             wg[:, :, :, k, l], optimize=True)
    return out.reshape(n, spec.out_channels, ho, wo)


def tap_conv2d_transpose(y: np.ndarray, spec: ConvSpec,
                         input_hw: tuple[int, int]) -> np.ndarray:
    """Tap-loop reference adjoint: scatter-adds through the same views."""
    n, _, ho, wo = y.shape
    h, w = input_hw
    p, g = spec.padding, spec.groups
    cg, og = spec.in_channels // g, spec.out_channels // g
    wg = spec.weight.reshape(g, og, cg, spec.kernel_h, spec.kernel_w)
    yg = y.reshape(n, g, og, ho, wo)
    xpg = np.zeros((n, g, cg, h + 2 * p, w + 2 * p), dtype=y.dtype)
    for k in range(spec.kernel_h):
        for l in range(spec.kernel_w):
            sh, sw = _tap_slices(spec, k, l, ho, wo)
            xpg[:, :, :, sh, sw] += np.einsum("ngoyx,goc->ngcyx", yg,
                                              wg[:, :, :, k, l], optimize=True)
    return xpg[:, :, :, p: p + h, p: p + w].reshape(n, spec.in_channels, h, w)


def tap_conv2d_weight_grad(x: np.ndarray, gy: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Tap-loop reference weight gradient: one contraction per kernel tap."""
    n = x.shape[0]
    ho, wo = gy.shape[2:]
    g = spec.groups
    cg, og = spec.in_channels // g, spec.out_channels // g
    xp = _pad(x, spec.padding)
    xpg = xp.reshape(n, g, cg, *xp.shape[2:])
    yg = gy.reshape(n, g, og, ho, wo)
    gw = np.zeros((g, og, cg, spec.kernel_h, spec.kernel_w), dtype=spec.weight.dtype)
    for k in range(spec.kernel_h):
        for l in range(spec.kernel_w):
            sh, sw = _tap_slices(spec, k, l, ho, wo)
            gw[:, :, :, k, l] = np.einsum("ngoyx,ngcyx->goc", yg, xpg[:, :, :, sh, sw],
                                          optimize=True)
    return gw.reshape(spec.weight.shape)


def add_at_conv2d_weight_grad(x: np.ndarray, gy: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """The weight gradient of (C, H, N, W) arrays as the row-band kernel
    computed it before its tap sums: per kernel row k, the product
    ``A_k^T G_k`` of each group's input rows ``y*s + k*d - p`` and
    cotangent rows y, whose band diagonals ``np.add.at`` adds into kernel
    columns l tap by tap, in order of l and then of output column x."""
    c, h, n, w = x.shape
    ho, wo = spec.out_hw(h, w)
    g, kh, kw, s, p, d = (spec.groups, spec.kernel_h, spec.kernel_w, spec.stride,
                          spec.padding, spec.dilation)
    cg, og = c // g, spec.out_channels // g
    cols = np.arange(wo) * s + np.arange(kw)[:, None] * d - p
    l, cols_x = np.nonzero((cols >= 0) & (cols < w))
    cols = cols[l, cols_x]
    rows, cotangent = _grouped(x, g), _grouped(gy, g)
    gw = np.zeros((kh, kw, g, cg, og), dtype=spec.weight.dtype)
    for k in range(kh):
        offset = k * d - p
        y0, y1 = max(0, -(offset // s)), min(ho, (h - 1 - offset) // s + 1)
        if y0 >= y1:
            continue
        start = y0 * s + offset
        a_k = rows[:, start:start + (y1 - y0 - 1) * s + 1:s].reshape(g, -1, cg * w)
        g_k = cotangent[:, y0:y1].reshape(g, -1, og * wo)
        full = np.matmul(a_k.transpose(0, 2, 1), g_k).reshape(g, cg, w, og, wo)
        np.add.at(gw[k], l, full[:, :, cols, :, cols_x])
    return np.ascontiguousarray(gw.transpose(2, 4, 3, 0, 1)).reshape(spec.weight.shape)


def _grouped(a: np.ndarray, g: int) -> np.ndarray:
    """A (C, H, N, W) array as (g, H, N, C/g*W), each group's channels side
    by side along the last axis."""
    c, h, n, w = a.shape
    a = a.reshape(g, c // g, h, n, w).transpose(0, 2, 3, 1, 4)
    return np.ascontiguousarray(a).reshape(g, h, n, c // g * w)


def clear_conv_plans() -> None:
    """Empty the conv kernels' per-geometry plan caches."""
    convolution._row_plan.cache_clear()
    convolution._column_plan.cache_clear()


@pytest.fixture
def plan_builds(monkeypatch) -> list:
    """A list that gains one entry per plan the conv kernels build: each
    row or column plan computes its spans once."""
    builds = []
    spans = convolution._spans
    monkeypatch.setattr(convolution, "_spans",
                        lambda *args: builds.append(args) or spans(*args))
    return builds


def conv_kernel_outputs(spec: ConvSpec, x: np.ndarray, gy: np.ndarray, **kw) -> list:
    """Forward, adjoint and weight gradient of ``spec`` at the (C, H, N, W)
    input ``x`` and cotangent ``gy``; ``kw`` (``band``, ``row_groups``) goes
    to the forward and the adjoint."""
    hw = (x.shape[1], x.shape[3])
    return [conv2d_forward(x, spec, **kw),
            conv2d_transpose_forward(gy, spec, input_hw=hw, **kw),
            conv2d_weight_grad(x, gy, spec)]


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def materialize_conv_matrix(spec: ConvSpec, input_hw: tuple[int, int],
                            cap: int = DENSE_MATRIX_CAP) -> np.ndarray:
    """Dense matrix M with column j = vec(conv(e_j)); exact linear-map view."""
    h, w = input_hw
    rows, cols = spec.matrix_shape(h, w)
    if rows * cols > cap:
        raise ValueError(f"dense matrix {rows}x{cols} exceeds cap of {cap} entries")
    basis = np.eye(cols, dtype=np.float64).reshape(cols, spec.in_channels, h, w)
    out = conv2d_forward(to_chnw(basis), ConvSpec(
        out_channels=spec.out_channels,
        in_channels=spec.in_channels,
        kernel_h=spec.kernel_h,
        kernel_w=spec.kernel_w,
        stride=spec.stride,
        padding=spec.padding,
        dilation=spec.dilation,
        groups=spec.groups,
        weight=spec.weight.astype(np.float64),
    ))
    return to_nchw(out).reshape(cols, rows).T.copy()


def depthwise_blocks(spec: ConvSpec, input_hw: tuple[int, int]) -> np.ndarray:
    """The diagonal blocks of a depthwise conv's dense matrix, one per
    channel, as float64 (C, ho*wo, h*w), assembled tap by tap from the
    definition of the correlation."""
    h, w = input_hw
    ho, wo = spec.out_hw(h, w)
    s, p, d = spec.stride, spec.padding, spec.dilation
    weight = spec.weight.astype(np.float64)[:, 0]
    blocks = np.zeros((spec.in_channels, ho * wo, h * w))
    y, x = np.meshgrid(np.arange(ho), np.arange(wo), indexing="ij")
    for k in range(spec.kernel_h):
        for l in range(spec.kernel_w):
            iy, ix = y * s - p + k * d, x * s - p + l * d
            inside = (iy >= 0) & (iy < h) & (ix >= 0) & (ix < w)
            rows, cols = (y * wo + x)[inside], (iy * w + ix)[inside]
            blocks[:, rows, cols] += weight[:, k, l][:, None]
    return blocks


def dense_spectral_norm(spec: ConvSpec, input_hw: tuple[int, int]) -> float:
    """The largest singular value of the conv's dense matrix, as float64: the
    square root of the top eigenvalue of the smaller Gram matrix. A
    depthwise conv's matrix is block diagonal, one block per channel, so
    each channel's block is decomposed on its own."""
    if spec.is_depthwise:
        blocks = depthwise_blocks(spec, input_hw)
    else:
        blocks = materialize_conv_matrix(spec, input_hw)[None]
    if blocks.shape[1] > blocks.shape[2]:
        blocks = blocks.transpose(0, 2, 1)
    gram = blocks @ blocks.transpose(0, 2, 1)
    return float(np.sqrt(np.linalg.eigvalsh(gram)[:, -1].max()))


def reference_power_iteration(handles, iterations: int) -> tuple[np.ndarray, np.ndarray]:
    """Power iteration on a stack of handles (one ``stack_key``): alternate
    the stacked conv and its adjoint on each member's unit vector, normalized
    per member, ``iterations`` times. Returns ||M a|| per member for its
    final unit vector a, as float64, and those vectors as rows; the handles'
    vectors are not changed. The reference for ``spectral.power_iteration``,
    whose Krylov space holds the iterates of this loop from the same start."""
    first, m = handles[0], len(handles)
    spec, band, row_groups = spectral._stacked_conv(handles)
    (h, w), (ho, wo) = first.in_hw, spec.out_hw(*first.in_hw)
    in_shape = (spec.in_channels, h, 1, w)
    out_shape = (spec.out_channels, ho, 1, wo)
    a = np.concatenate([handle.vector.reshape(1, -1) for handle in handles])
    for _ in range(iterations):
        b = conv2d_forward(a.reshape(in_shape), spec, band=band,
                           row_groups=row_groups).reshape(m, -1)
        b /= np.linalg.norm(b, axis=1)[:, None]
        spectral._flush_tiny(b)
        a = conv2d_transpose_forward(b.reshape(out_shape), spec, input_hw=first.in_hw,
                                     band=band, row_groups=row_groups).reshape(m, -1)
        a /= np.linalg.norm(a, axis=1)[:, None]
        spectral._flush_tiny(a)
    out = conv2d_forward(a.reshape(in_shape), spec, band=band,
                         row_groups=row_groups).reshape(m, -1)
    return np.linalg.norm(out, axis=1).astype(np.float64), a


def write_cifar_batch(path, labels: np.ndarray, pixels: np.ndarray) -> None:
    """Serialize (labels, pixels) to the CIFAR-10 binary record format."""
    labels = np.asarray(labels, dtype=np.uint8)
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.shape[1:] != (3, 32, 32) or labels.shape[0] != pixels.shape[0]:
        raise ValueError(f"cannot serialize labels {labels.shape} with pixels {pixels.shape}")
    records = np.concatenate([labels[:, None], pixels.reshape(len(labels), -1)], axis=1)
    with open(path, "wb") as fh:
        fh.write(records.tobytes())


def central_difference(f, theta: np.ndarray, index: tuple, h: float) -> float:
    """Two-sided finite difference of scalar f at one coordinate of theta."""
    orig = theta[index]
    theta[index] = orig + h
    plus = f()
    theta[index] = orig - h
    minus = f()
    theta[index] = orig
    return (plus - minus) / (2.0 * h)


def relative_error(a: float, b: float, floor: float = 1e-6) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def random_conv_spec(rng: np.random.Generator, *, dtype=np.float64,
                     max_channels: int = 4, max_kernel: int = 3,
                     allow_groups: bool = True) -> ConvSpec:
    """Random small ConvSpec exercising stride, padding, dilation, groups."""
    groups = 1
    if allow_groups and rng.random() < 0.4:
        groups = int(rng.integers(1, max_channels + 1))
    c_in = groups * int(rng.integers(1, max(2, max_channels // groups + 1)))
    c_out = groups * int(rng.integers(1, max(2, max_channels // groups + 1)))
    kh = int(rng.integers(1, max_kernel + 1))
    kw = int(rng.integers(1, max_kernel + 1))
    stride = int(rng.integers(1, 3))
    dilation = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 3))
    weight = rng.standard_normal((c_out, c_in // groups, kh, kw)).astype(dtype)
    return ConvSpec(
        out_channels=c_out, in_channels=c_in, kernel_h=kh, kernel_w=kw,
        stride=stride, padding=padding, dilation=dilation, groups=groups,
        weight=weight,
    )


def fitting_input_hw(spec: ConvSpec, rng: np.random.Generator,
                     lo: int = 4, hi: int = 8) -> tuple[int, int]:
    eff_h = (spec.kernel_h - 1) * spec.dilation + 1
    eff_w = (spec.kernel_w - 1) * spec.dilation + 1
    h = int(rng.integers(max(lo, eff_h), hi + 1))
    w = int(rng.integers(max(lo, eff_w), hi + 1))
    return h, w


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))
