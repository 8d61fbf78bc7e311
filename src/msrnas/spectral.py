"""Spectral-norm estimation and adjustment, and the exact stable rank of a
1x1 conv's matrix view.

The power iteration alternates the convolution and its exact adjoint on a
persistent unit vector; its estimate never exceeds the true spectral norm, so
dividing by it is a safe normalizer for the training-time adjustment. The
stable rank needs no estimate: every rank-scored conv is a padding-0 1x1
conv, whose spectral and Frobenius norms have a closed form in its weight
matrix (``stable_rank``), scored one conv per call.

Power iteration runs on groups of handles that share one geometry (channels,
groups, kernel, stride, padding, dilation, input extents and dtype; see
``conv_geometry``). A group of m convs is stacked as one block-diagonal conv
with m times the output and input channels and m times the groups: member
k's weights fill the k-th diagonal block and its vector the k-th channel
slice of the input. One forward and one adjoint call of that conv advance
every member by one iteration; norms and normalization stay per member, and
so do the persistent vectors. A single handle is a group of one, so the
stacked path is the only path. A grouped 1x1 stack is one batched matmul
in ``convolution``, any other stack one batched band GEMM per kernel row.
The weights do not change within a ``power_iteration`` call, so it builds
the stacked conv's one band once (``conv_bands``) and hands it to every
forward and adjoint call; it is dropped when the call returns. A handle's
vector is (1, C, H, W), which in memory is the (C, H, 1, W) batch of one
image the conv routines take.
"""

from __future__ import annotations

import dataclasses
import zlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .convolution import ConvSpec, conv2d_forward, conv2d_transpose_forward, conv_bands
from .errors import ArgumentError, ConfigError, DegenerateOperatorError

@dataclass
class SpectralConfig:
    target_norm: float = 1.0      # constant every conv's spectral norm is set to
    iterations: int = 5           # power iterations per training-time adjustment
    rank_iterations: int = 50     # iterations of the initial cold adjust
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
    """Power-iteration state for one convolution at a fixed input size.

    ``vector`` is the persistent iteration vector (warm start across training
    steps), drawn at construction from a stream seeded by the handle's name.
    The referenced ConvSpec aliases the layer's live weight array, so in-place
    weight updates are always visible.
    """

    def __init__(self, spec: ConvSpec, in_hw: tuple[int, int], *,
                 seed: int = 0, name: str = "conv"):
        self.spec = spec
        self.in_hw = (int(in_hw[0]), int(in_hw[1]))
        self.name = name
        self.seed = seed
        self.geometry = conv_geometry(spec, self.in_hw)
        rng = np.random.Generator(np.random.PCG64(_seed_for(name, seed)))
        v = rng.standard_normal((1, spec.in_channels) + self.in_hw)
        v = v.astype(spec.weight.dtype)
        self.vector = v / np.linalg.norm(v)


def conv_geometry(spec: ConvSpec, in_hw: tuple[int, int]) -> tuple:
    """Everything but the weight values that fixes a conv's linear map."""
    return (spec.out_channels, spec.in_channels, spec.groups, spec.kernel_h,
            spec.kernel_w, spec.stride, spec.padding, spec.dilation,
            (int(in_hw[0]), int(in_hw[1])), spec.weight.dtype.str)


def group_by_geometry(handles: Sequence[ConvHandle]) -> list[list[ConvHandle]]:
    """The handles grouped by geometry, groups and members in first-seen
    order."""
    groups: dict[tuple, list[ConvHandle]] = {}
    for handle in handles:
        groups.setdefault(handle.geometry, []).append(handle)
    return list(groups.values())


def _stacked_spec(handles: Sequence[ConvHandle]) -> ConvSpec:
    """The block-diagonal conv whose k-th diagonal block is handle k's conv."""
    spec = handles[0].spec
    m = len(handles)
    if m == 1:
        return spec
    return dataclasses.replace(
        spec,
        out_channels=m * spec.out_channels,
        in_channels=m * spec.in_channels,
        groups=m * spec.groups,
        weight=np.concatenate([handle.spec.weight for handle in handles]),
    )


def power_iteration(handles: Sequence[ConvHandle], iterations: int) -> np.ndarray:
    """Estimate the spectral norm of every handle's conv by alternating the
    map and its adjoint; returns ||c(a)|| per handle for its final unit
    vector a, as float64.

    The handles must share one geometry. Their convs run stacked as one
    block-diagonal conv, one forward and one adjoint call per iteration,
    with norms taken per member, so each member's iterates are those of a
    run on its own. Each estimate is an under-estimate of the true norm and
    is non-decreasing across iterations (Rayleigh-quotient ascent). An
    all-zero kernel or an iterate that vanishes raises
    DegenerateOperatorError naming the member, and no member's vector
    changes.
    """
    first = handles[0]
    for handle in handles:
        if handle.geometry != first.geometry:
            raise ArgumentError(
                f"power iteration group mixes the geometries of {first.name} "
                f"and {handle.name}"
            )
        if not np.any(handle.spec.weight):
            raise DegenerateOperatorError(
                f"all-zero kernel in {handle.name}: spectral norm undefined for "
                "power iteration", handle=handle,
            )
    m = len(handles)
    spec = _stacked_spec(handles)
    (h, w), (ho, wo) = first.in_hw, spec.out_hw(*first.in_hw)
    vec_shape = (1, first.spec.in_channels, h, w)
    in_shape = (spec.in_channels, h, 1, w)
    out_shape = (spec.out_channels, ho, 1, wo)
    # Row k of a (and of b) is member k's iterate.
    a = np.concatenate([handle.vector.reshape(1, -1) for handle in handles])
    band = conv_bands(spec, first.in_hw, a.dtype)
    # The same band laid out for the adjoint, which multiplies by its
    # transpose: so laid out, it is not copied in every adjoint call.
    adjoint_band = None if band is None else np.ascontiguousarray(
        band.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
    for _ in range(iterations):
        b = conv2d_forward(a.reshape(in_shape), spec, band=band).reshape(m, -1)
        nb = np.linalg.norm(b, axis=1)
        for k in np.flatnonzero(nb == 0.0):
            raise DegenerateOperatorError(
                f"forward iterate vanished in {handles[k].name}", handle=handles[k]
            )
        b /= nb[:, None]
        a = conv2d_transpose_forward(b.reshape(out_shape), spec, input_hw=first.in_hw,
                                     band=adjoint_band).reshape(m, -1)
        na = np.linalg.norm(a, axis=1)
        for k in np.flatnonzero(na == 0.0):
            raise DegenerateOperatorError(
                f"adjoint iterate vanished in {handles[k].name}", handle=handles[k]
            )
        a /= na[:, None]
    for k, handle in enumerate(handles):
        handle.vector = a[k].reshape(vec_shape)
    out = conv2d_forward(a.reshape(in_shape), spec, band=band).reshape(m, -1)
    return np.linalg.norm(out, axis=1).astype(np.float64)


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
