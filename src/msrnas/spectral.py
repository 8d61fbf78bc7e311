"""Spectral-norm estimation and adjustment, and the exact stable rank of a
1x1 conv's matrix view.

Every conv is held at a constant spectral norm. A padding-0 1x1 conv's norm
has a closed form: its matrix view is ``W ⊗ S``, with ``S`` the pixel
sampling, so the norm is ``||W||_2`` (Sedghi, Gupta & Long, "The Singular
Values of Convolutional Layers", ICLR 2019), exact in float64 from one
batched SVD per stack. Every other conv's norm is estimated by
Golub-Kahan-Lanczos bidiagonalization (Golub & Kahan, SIAM J. Numer. Anal.
1965), which alternates the convolution and its exact adjoint from a
persistent unit vector, warm-started across training steps as the power
iteration of spectral normalization is (Miyato et al., "Spectral
Normalization for GANs", ICLR 2018), and ends on the Ritz vector of the
Krylov space it spans. One step costs what one power iteration costs, and
reaches the top singular value in O(1/sqrt(gap)) steps instead of O(1/gap).
Its estimate never exceeds the true norm, so dividing by it is a safe
normalizer. The function keeps the name ``power_iteration``, under which
the benchmark's tracer patches and reports it. The stable rank needs no
estimate either: every rank-scored conv is a padding-0 1x1 conv
(``stable_rank``), scored one conv per call.

The estimate runs on stacks of handles (``stack_key``). A stack of m
convs of one geometry is one block-diagonal conv with m times the output
and input channels and m times the groups: member k's weights fill the k-th
diagonal block and its vector the k-th channel slice of the input. Depthwise
convs with "same" padding stack by channels, stride, input extent and
dtype, whatever their kernel: each member's kernel sits centred in the
widest footprint, at dilation 1, and each kernel row's GEMM runs only over
the members with taps in that row (``row_groups`` of the conv routines),
which ``stack_handles`` keeps contiguous by ordering members sep3, sep5,
dil3, dil5. So each member's products and sums are those of a stack of its
own geometry, bit for bit. One forward and one adjoint call of the stacked
conv advance every member by one step; norms, Gram-Schmidt, stopping and
the Ritz vector stay per member, and so do the persistent vectors. A single
handle is a stack of one, so the stacked path is the only path. The weights
do not change within a ``power_iteration`` call, so it builds the stacked
conv's one band once and hands it to every forward and adjoint call; it is
dropped when the call returns, with the call's Lanczos basis. A handle's
vector is (1, C, H, W), which in memory is the (C, H, 1, W) batch of one
image the conv routines take.
"""

from __future__ import annotations

import dataclasses
import itertools
import zlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .convolution import ConvSpec, conv2d_forward, conv2d_transpose_forward, conv_bands
from .errors import ArgumentError, ConfigError, DegenerateOperatorError

@dataclass
class SpectralConfig:
    target_norm: float = 1.0      # constant every conv's spectral norm is set to
    iterations: int = 5           # Krylov steps per training-time adjustment
    # Krylov steps of the initial cold adjust: 15 match 50 power iterations
    # on every iterated conv of three supernet shapes; 18 are the fewest that
    # also hold every iterated conv of a 4/5/8/16 supernet (seed 1) within 1%.
    rank_iterations: int = 18
    seed: int = 0

    def __post_init__(self):
        if self.target_norm <= 0:
            raise ConfigError("target_norm must be positive")
        if self.iterations < 1:
            raise ConfigError("iterations must be at least 1")
        if self.rank_iterations < self.iterations:
            raise ConfigError("rank_iterations must be >= iterations")


def _seed_for(name: str, seed: int) -> list[int]:
    return [seed & 0xFFFFFFFF, zlib.crc32(name.encode("utf-8"))]


class ConvHandle:
    """Spectral-norm state for one convolution at a fixed input size.

    ``vector`` is the persistent start vector (warm start across training
    steps: each call leaves its Ritz vector there), drawn at construction
    from a stream seeded by the handle's name.
    A padding-0 1x1 conv is not iterated: every ``power_iteration`` call
    sets its vector from the weight alone, to the top right singular vector
    at input pixel (0, 0). That vector is derived state, so nothing is drawn
    for it (it is zero until the first call) and checkpoints do not store it.
    The referenced ConvSpec aliases the layer's live weight array, so in-place
    weight updates are always visible.
    """

    def __init__(self, spec: ConvSpec, in_hw: tuple[int, int], *,
                 seed: int = 0, name: str = "conv"):
        self.spec = spec
        self.in_hw = (int(in_hw[0]), int(in_hw[1]))
        self.name = name
        self.seed = seed
        self.stack_key = stack_key(spec, self.in_hw)
        shape = (1, spec.in_channels) + self.in_hw
        if spec.is_pointwise:
            self.vector = np.zeros(shape, dtype=spec.weight.dtype)
            return
        rng = np.random.Generator(np.random.PCG64(_seed_for(name, seed)))
        v = rng.standard_normal(shape).astype(spec.weight.dtype)
        self.vector = v / np.linalg.norm(v)


def conv_geometry(spec: ConvSpec, in_hw: tuple[int, int]) -> tuple:
    """Everything but the weight values that fixes a conv's linear map."""
    return (spec.out_channels, spec.in_channels, spec.groups, spec.kernel_h,
            spec.kernel_w, spec.stride, spec.padding, spec.dilation,
            (int(in_hw[0]), int(in_hw[1])), spec.weight.dtype.str)


def _same_depthwise(spec: ConvSpec) -> bool:
    """A depthwise kxk conv (k > 1) whose padding keeps the extents at
    stride 1."""
    return (spec.is_depthwise and not spec.is_pointwise
            and spec.kernel_h == spec.kernel_w
            and 2 * spec.padding == (spec.kernel_h - 1) * spec.dilation)


def stack_key(spec: ConvSpec, in_hw: tuple[int, int]) -> tuple:
    """What a conv shares with the other members of its spectral-norm
    stack: its geometry, or for a depthwise conv with "same" padding its
    channels, stride, input extents and dtype, whatever its kernel."""
    if _same_depthwise(spec):
        return ("depthwise", spec.in_channels, spec.stride,
                (int(in_hw[0]), int(in_hw[1])), spec.weight.dtype.str)
    return conv_geometry(spec, in_hw)


def stack_handles(handles: Sequence[ConvHandle]) -> list[list[ConvHandle]]:
    """The handles grouped by ``stack_key``, stacks in first-seen order and
    members by dilation, then kernel (sep3, sep5, dil3, dil5), so that the
    members with taps in any kernel row of a stack are contiguous."""
    stacks: dict[tuple, list[ConvHandle]] = {}
    for handle in handles:
        stacks.setdefault(handle.stack_key, []).append(handle)
    return [sorted(stack, key=lambda h: (h.spec.dilation, h.spec.kernel_h))
            for stack in stacks.values()]


def _block_diagonal(handles: Sequence[ConvHandle]) -> ConvSpec:
    """The conv whose k-th diagonal block is handle k's conv, for handles
    of one geometry."""
    spec, m = handles[0].spec, len(handles)
    if m == 1:
        return spec
    return dataclasses.replace(
        spec,
        out_channels=m * spec.out_channels,
        in_channels=m * spec.in_channels,
        groups=m * spec.groups,
        weight=np.concatenate([handle.spec.weight for handle in handles]),
    )


def _stacked_conv(handles: Sequence[ConvHandle]
                  ) -> tuple[ConvSpec, np.ndarray, list[slice] | None]:
    """The block-diagonal conv whose k-th diagonal block is handle k's
    conv, its band (``conv_bands``), and per kernel row the slice of its
    groups with taps in that row (None: all of them). In a depthwise stack
    each run of members of one geometry builds its band rows as a stack of
    its own would."""
    first_spec, in_hw = handles[0].spec, handles[0].in_hw
    dtype = first_spec.weight.dtype
    if not _same_depthwise(first_spec):
        spec = _block_diagonal(handles)
        return spec, conv_bands(spec, in_hw, dtype), None
    size = max((h.spec.kernel_h - 1) * h.spec.dilation + 1 for h in handles)
    channels = len(handles) * first_spec.in_channels
    w, wo = in_hw[1], first_spec.out_hw(*in_hw)[1]
    weight = np.zeros((channels, 1, size, size), dtype=dtype)
    band = np.zeros((size, channels, w, wo), dtype=dtype)
    first, last = np.full(size, channels), np.zeros(size, dtype=int)
    lo = 0
    for _, run in itertools.groupby(handles, lambda h: (h.spec.kernel_h, h.spec.dilation)):
        run_spec = _block_diagonal(list(run))
        hi = lo + run_spec.in_channels
        reach = (run_spec.kernel_h - 1) * run_spec.dilation + 1
        taps = slice((size - reach) // 2, (size + reach) // 2, run_spec.dilation)
        weight[lo:hi, :, taps, taps] = run_spec.weight
        band[taps, lo:hi] = conv_bands(run_spec, in_hw, dtype)
        first[taps] = np.minimum(first[taps], lo)
        last[taps] = hi
        lo = hi
    spec = ConvSpec(channels, channels, size, size, stride=first_spec.stride,
                    padding=size // 2, groups=channels, weight=weight)
    return spec, band, [slice(int(a), int(max(a, b))) for a, b in zip(first, last)]


def _pointwise_norms(handles: Sequence[ConvHandle]) -> np.ndarray:
    """The exact spectral norm of every member of a padding-0 1x1 stack, in
    float64 from one batched SVD: the largest ``||W_g||_2`` over the
    member's channel groups g. Each member's vector becomes the top right
    singular vector of that block at input pixel (0, 0), which every stride
    samples, so ``||c(a)||`` is the norm."""
    spec, m = handles[0].spec, len(handles)
    g = spec.groups
    weights = np.stack([h.spec.weight.reshape(g, spec.out_channels // g, -1)
                        for h in handles]).astype(np.float64)
    _, sigmas, vh = np.linalg.svd(weights, full_matrices=False)
    top = sigmas[:, :, 0].argmax(axis=1)
    for k, handle in enumerate(handles):
        vector = np.zeros((g, spec.in_channels // g) + handle.in_hw,
                          dtype=handle.vector.dtype)
        vector[top[k], :, 0, 0] = vh[k, top[k], 0]
        handle.vector = vector.reshape(handle.vector.shape)
    return sigmas[np.arange(m), top, 0]


def _flush_tiny(v: np.ndarray) -> None:
    """Set the entries of ``v`` below the square root of its dtype's smallest
    normal number to zero, in place, so that no product of two entries left
    is subnormal."""
    v[np.abs(v) < np.sqrt(np.finfo(v.dtype).tiny)] = 0


def _row_norms(v: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of ``v``, in its dtype."""
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def power_iteration(handles: Sequence[ConvHandle], iterations: int) -> np.ndarray:
    """Estimate the spectral norm of every handle's conv by ``iterations``
    steps of Golub-Kahan-Lanczos bidiagonalization from its vector; returns
    ||c(a)|| per handle for its new unit vector a, as float64.

    The name is the one of the power iteration this replaced, under which
    the benchmark's tracer patches it. Step j applies the map to the
    member's Lanczos vector q_j and the adjoint to the normalized result
    p_j: ``alpha_j p_j = M q_j - beta_{j-1} p_{j-1}``, and ``beta_j q_{j+1}``
    is ``M^T p_j`` reorthogonalized against q_1..q_j (which takes ``alpha_j
    q_j`` from it) by classical Gram-Schmidt applied twice, in the handle's
    dtype. Only the q basis is kept. The top right singular vector of each
    member's iterations x (iterations + 1) upper bidiagonal of alphas and
    betas (one batched float64 SVD per stack) gives the Ritz vector a in the
    span of the q's, which becomes the handle's vector, and one more forward
    gives ||c(a)||: 2 * iterations + 1 conv calls per stack, as for that
    many power iterations, whose last iterate lies in the same span. A
    one-step call is one power iteration. The estimate never exceeds the
    true norm, and it is at least ||M q_1||, the last call's estimate when
    the weights have not changed since.

    A member stops when its Krylov space is spent: a beta at most eps times
    the largest alpha or beta so far (e.g. M^T M a multiple of the identity
    on the space, or more steps than the vector has entries), or an alpha
    at most sqrt(eps) times it (more steps than M has rank; the p's are not
    reorthogonalized, so a p made of rounding noise would not be orthogonal
    to the others). Its later rows of the bidiagonal and the basis stay
    zero, and its later conv calls run on zeros.

    The handles must share one ``stack_key``. Their convs run stacked as one
    block-diagonal conv, one forward and one adjoint call per step, with
    norms, Gram-Schmidt, stopping and the SVD per member, so each member's
    result is that of a stack of one, bit for bit. Entries below the square
    root of the dtype's smallest normal number (about 1e-19 in float32) are
    set to zero in the basis and the stored vector: a depthwise vector
    concentrates in its dominant channel, its other channels decay towards
    zero, and BLAS runs many times slower when products of entries are
    subnormal; in a unit vector such entries change no norm or dot product
    at the dtype's precision.

    A stack of padding-0 1x1 convs needs no iteration: its norms are exact,
    whatever ``iterations`` (``_pointwise_norms``). An all-zero kernel or a
    first forward that vanishes raises DegenerateOperatorError naming the
    member, and no member's vector changes.
    """
    first = handles[0]
    for handle in handles:
        if handle.stack_key != first.stack_key:
            raise ArgumentError(
                f"spectral-norm stack mixes {first.name} and {handle.name}, "
                "which cannot share one"
            )
        if not np.any(handle.spec.weight):
            raise DegenerateOperatorError(
                f"all-zero kernel in {handle.name}: spectral norm undefined for "
                "the Krylov estimate", handle=handle,
            )
    if first.spec.is_pointwise:
        return _pointwise_norms(handles)
    m = len(handles)
    spec, band, row_groups = _stacked_conv(handles)
    (h, w), (ho, wo) = first.in_hw, spec.out_hw(*first.in_hw)
    vec_shape = (1, first.spec.in_channels, h, w)
    in_shape = (spec.in_channels, h, 1, w)
    out_shape = (spec.out_channels, ho, 1, wo)
    # The same band laid out for the adjoint, which multiplies by its
    # transpose: so laid out, it is not copied in every adjoint call.
    adjoint_band = np.ascontiguousarray(band.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)

    def forward(v: np.ndarray) -> np.ndarray:
        return conv2d_forward(v.reshape(in_shape), spec, band=band,
                              row_groups=row_groups).reshape(m, -1)

    # basis[j, k] is member k's q_{j+1}, and members[k] is member k's basis;
    # a stopped member's later rows are zero.
    start = np.concatenate([handle.vector.reshape(1, -1) for handle in handles])
    basis = np.zeros((iterations + 1,) + start.shape, dtype=start.dtype)
    basis[0] = start
    members = basis.transpose(1, 0, 2)
    bidiagonal = np.zeros((m, iterations, iterations + 1))
    eps = np.finfo(start.dtype).eps
    live = np.ones(m, dtype=bool)
    p, beta = 0, np.zeros(m, dtype=start.dtype)
    scale = np.zeros_like(beta)  # per member the largest alpha or beta so far
    for j in range(iterations):
        p = forward(basis[j]) - beta[:, None] * p
        alpha = _row_norms(p)
        if j == 0:
            for k in np.flatnonzero(alpha == 0.0):
                raise DegenerateOperatorError(
                    f"forward iterate vanished in {handles[k].name}", handle=handles[k]
                )
        scale = np.maximum(scale, alpha)
        live &= alpha > np.sqrt(eps) * scale
        alpha *= live
        p /= np.where(live, alpha, np.inf)[:, None]
        r = conv2d_transpose_forward(p.reshape(out_shape), spec, input_hw=first.in_hw,
                                     band=adjoint_band, row_groups=row_groups).reshape(m, -1)
        # Classical Gram-Schmidt, twice, against q_1..q_j (which takes alpha_j
        # q_j from r); at j = 0 also against the q_2 slot, still zero, as
        # numpy runs a matmul whose inner dimension is 1 without BLAS.
        q = members[:, :max(j + 1, 2)]
        for _ in range(2):
            r -= np.matmul(np.matmul(q, r[:, :, None]).transpose(0, 2, 1), q)[:, 0]
        beta = _row_norms(r)
        scale = np.maximum(scale, beta)
        live &= beta > eps * scale
        beta *= live
        np.divide(r, np.where(live, beta, np.inf)[:, None], out=basis[j + 1])
        _flush_tiny(basis[j + 1])
        bidiagonal[:, j, j] = alpha
        bidiagonal[:, j, j + 1] = beta
    ritz = np.linalg.svd(bidiagonal)[2][:, 0]
    # Signed to keep to the start vector's side, as a power iterate does.
    ritz = (ritz * np.copysign(1.0, ritz[:, :1])).astype(start.dtype)
    a = np.matmul(ritz[:, None, :], members)[:, 0]
    a /= _row_norms(a)[:, None]
    _flush_tiny(a)
    for k, handle in enumerate(handles):
        handle.vector = a[k].reshape(vec_shape)
    return _row_norms(forward(a)).astype(np.float64)


def spectral_norm_adjust(handles: ConvHandle | Sequence[ConvHandle],
                         cfg: SpectralConfig) -> None:
    """Rescale each conv's weight in place so its spectral-norm estimate
    equals the configured constant. A single handle is a group of one."""
    if isinstance(handles, ConvHandle):
        handles = [handles]
    sigmas = power_iteration(handles, cfg.iterations)
    for handle, sigma in zip(handles, sigmas):
        if sigma == 0.0:
            raise DegenerateOperatorError(
                f"zero spectral-norm estimate in {handle.name}", handle=handle
            )
    for handle, sigma in zip(handles, sigmas):
        handle.spec.weight *= cfg.target_norm / float(sigma)


def stable_rank(spec: ConvSpec, input_hw: tuple[int, int]
                ) -> tuple[float, float] | None:
    """Squared Frobenius over squared spectral norm of the matrix view of a
    padding-0 ungrouped 1x1 conv at input extents ``input_hw``.

    Returns the stable rank and the spectral norm it divides by, both exact
    in float64, or None for an all-zero weight. Such a conv's matrix view is
    ``W ⊗ S``, where ``S`` picks the sampled pixels and has orthonormal rows,
    so its spectral norm is ``||W||_2`` and its squared Frobenius norm
    ``ho*wo*||W||_F^2`` (Sedghi, Gupta & Long, "The Singular Values of
    Convolutional Layers", ICLR 2019).
    """
    if not spec.is_pointwise or spec.groups != 1:
        raise ArgumentError(
            f"stable_rank needs an ungrouped padding-0 1x1 conv, got {spec}"
        )
    ho, wo = spec.out_hw(*input_hw)
    weight = spec.weight.reshape(spec.out_channels, spec.in_channels).astype(np.float64)
    sigma = np.linalg.svd(weight, compute_uv=False)[0]
    if not sigma > 0.0:
        return None
    return float(ho * wo * (weight ** 2).sum() / sigma ** 2), float(sigma)
