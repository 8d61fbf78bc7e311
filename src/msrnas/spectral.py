"""Spectral-norm estimation and adjustment, Frobenius norms and stable rank of
the convolution matrix view, noise sensitivity, and dense test oracles.

The power iteration alternates the convolution and its exact adjoint on a
persistent unit vector; its estimate never exceeds the true spectral norm, so
dividing by it is a safe normalizer and the resulting stable-rank figure is an
over-estimate whose bias shrinks with the iteration count.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .convolution import ConvSpec, conv2d_forward, conv2d_transpose_forward
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateInputError,
    DegenerateOperatorError,
)

DENSE_MATRIX_CAP = 4096 * 4096  # max rows*cols a materialized matrix may hold

FROBENIUS_MATRIX = "matrix"  # Frobenius norm of the full matrix view
FROBENIUS_KERNEL = "kernel"  # Frobenius norm of the raw kernel tensor


@dataclass
class SpectralConfig:
    target_norm: float = 1.0      # constant every conv's spectral norm is set to
    iterations: int = 5           # power iterations per training-time adjustment
    rank_iterations: int = 50     # cold-start iterations for rank measurement
    seed: int = 0
    frobenius_mode: str = FROBENIUS_MATRIX

    def __post_init__(self):
        if self.target_norm <= 0:
            raise ConfigError("target_norm must be positive")
        if self.iterations < 1:
            raise ConfigError("iterations must be at least 1")
        if self.rank_iterations < self.iterations:
            raise ConfigError("rank_iterations must be >= iterations")
        if self.frobenius_mode not in (FROBENIUS_MATRIX, FROBENIUS_KERNEL):
            raise ConfigError(
                f"frobenius_mode must be '{FROBENIUS_MATRIX}' or '{FROBENIUS_KERNEL}'"
            )


def _seed_for(name: str, seed: int) -> list[int]:
    return [seed & 0xFFFFFFFF, zlib.crc32(name.encode("utf-8"))]


class ConvHandle:
    """Power-iteration state for one convolution at a fixed input size.

    Holds the persistent iteration vector (warm start across training steps).
    The referenced ConvSpec aliases the layer's live weight array, so in-place
    weight updates are always visible.
    """

    def __init__(self, spec: ConvSpec, in_hw: tuple[int, int], *,
                 seed: int = 0, name: str = "conv"):
        self.spec = spec
        self.in_hw = (int(in_hw[0]), int(in_hw[1]))
        self.name = name
        self.seed = seed
        self._vec: np.ndarray | None = None

    def _fresh_vector(self) -> np.ndarray:
        rng = np.random.Generator(np.random.PCG64(_seed_for(self.name, self.seed)))
        h, w = self.in_hw
        v = rng.standard_normal((1, self.spec.in_channels, h, w))
        v = v.astype(self.spec.weight.dtype)
        return v / np.linalg.norm(v)

    @property
    def vector(self) -> np.ndarray:
        if self._vec is None:
            self._vec = self._fresh_vector()
        return self._vec

    @vector.setter
    def vector(self, value: np.ndarray) -> None:
        self._vec = value

    def reset(self) -> None:
        self._vec = None


def power_iteration(handle: ConvHandle, iterations: int) -> float:
    """Estimate the spectral norm of the handle's conv by alternating the map
    and its adjoint; returns ||c(a)|| for the final unit vector a.

    The estimate is an under-estimate of the true norm and is non-decreasing
    across iterations (Rayleigh-quotient ascent).
    """
    spec = handle.spec
    if not np.any(spec.weight):
        raise DegenerateOperatorError(
            f"all-zero kernel in {handle.name}: spectral norm undefined for "
            "power iteration"
        )
    a = handle.vector
    restarted = False
    i = 0
    while i < iterations:
        b = conv2d_forward(a, spec)
        nb = np.linalg.norm(b)
        if nb == 0.0:
            # a landed in the null space; one reseed is enough for any
            # nonzero kernel outside measure-zero cases.
            if restarted:
                raise DegenerateOperatorError(
                    f"power iteration collapsed twice in {handle.name}"
                )
            handle.reset()
            a = handle.vector
            restarted = True
            continue
        b /= nb
        a = conv2d_transpose_forward(b, spec, input_hw=handle.in_hw)
        na = np.linalg.norm(a)
        if na == 0.0:
            raise DegenerateOperatorError(
                f"adjoint iterate vanished in {handle.name}"
            )
        a /= na
        i += 1
    handle.vector = a
    return float(np.linalg.norm(conv2d_forward(a, spec)))


def spectral_norm_adjust(handle: ConvHandle, cfg: SpectralConfig) -> np.ndarray:
    """Rescale the conv's weight in place so its spectral norm estimate equals
    the configured constant; returns the adjusted weight array."""
    sigma = power_iteration(handle, cfg.iterations)
    if sigma == 0.0:
        raise DegenerateOperatorError(
            f"zero spectral-norm estimate in {handle.name}"
        )
    scale = cfg.target_norm / sigma
    handle.spec.weight *= scale
    return handle.spec.weight


def frobenius_norm_of_map(spec: ConvSpec, input_hw: tuple[int, int],
                          mode: str = FROBENIUS_MATRIX) -> float:
    """Frobenius norm of the conv's dense matrix view at the given input size,
    computed from in-bounds kernel-tap counts without storing the matrix.

    ``mode='kernel'`` returns the plain kernel-tensor norm instead.
    """
    if mode == FROBENIUS_KERNEL:
        return float(np.linalg.norm(spec.weight))
    h, w = input_hw
    ho, wo = spec.out_hw(h, w)
    p, s, d = spec.padding, spec.stride, spec.dilation
    # count_h[k] = number of output rows whose k-th kernel tap lands inside
    # the real (unpadded) input; every matrix entry is one weight value, so
    # ||M||_F^2 = sum_kl count_h[k]*count_w[l]*sum_oc w[o,c,k,l]^2.
    positions_h = np.arange(ho) * s - p
    positions_w = np.arange(wo) * s - p
    count_h = np.array([
        int(np.count_nonzero((positions_h + k * d >= 0) & (positions_h + k * d < h)))
        for k in range(spec.kernel_h)
    ])
    count_w = np.array([
        int(np.count_nonzero((positions_w + l * d >= 0) & (positions_w + l * d < w)))
        for l in range(spec.kernel_w)
    ])
    per_tap = (spec.weight.astype(np.float64) ** 2).sum(axis=(0, 1))
    total = float((count_h[:, None] * count_w[None, :] * per_tap).sum())
    return float(np.sqrt(total))


def stable_rank(spec: ConvSpec, input_hw: tuple[int, int],
                cfg: SpectralConfig) -> float:
    """Squared Frobenius over squared spectral norm of the matrix view.

    Uses a cold-start power iteration with the config seed so repeated calls
    are deterministic. The raw ratio over-estimates the true stable rank
    (the spectral norm is under-estimated); in matrix mode the result is
    clipped to the feasible range [1, min(rows, cols)], which can only
    reduce the estimation error.
    """
    handle = ConvHandle(spec, input_hw, seed=cfg.seed, name="stable-rank-probe")
    sigma = power_iteration(handle, cfg.rank_iterations)
    if sigma == 0.0:
        raise DegenerateOperatorError("zero spectral-norm estimate")
    fro = frobenius_norm_of_map(spec, input_hw, mode=cfg.frobenius_mode)
    ratio = (fro / sigma) ** 2
    if cfg.frobenius_mode == FROBENIUS_KERNEL:
        return float(ratio)
    rows, cols = spec.matrix_shape(*input_hw)
    return float(min(max(ratio, 1.0), float(min(rows, cols))))


def materialize_conv_matrix(spec: ConvSpec, input_hw: tuple[int, int],
                            cap: int = DENSE_MATRIX_CAP) -> np.ndarray:
    """Dense matrix M with column j = vec(conv(e_j)); exact linear-map view."""
    h, w = input_hw
    rows, cols = spec.matrix_shape(h, w)
    if rows * cols > cap:
        raise CapacityError(
            f"dense matrix {rows}x{cols} exceeds cap of {cap} entries"
        )
    basis = np.eye(cols, dtype=np.float64).reshape(cols, spec.in_channels, h, w)
    out = conv2d_forward(basis, ConvSpec(
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
    return out.reshape(cols, rows).T.copy()


def exact_singular_values(matrix: np.ndarray) -> np.ndarray:
    """All singular values in descending order (LAPACK dense SVD)."""
    return np.linalg.svd(np.asarray(matrix, dtype=np.float64), compute_uv=False)


def noise_sensitivity_stats(spec: ConvSpec, x: np.ndarray, samples: int,
                            seed: int = 0, chunk: int = 256) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of the relative output perturbation
    E[ ||c(x + eta*||x||) - c(x)||^2 / ||c(x)||^2 ] under eta ~ N(0, I)."""
    if samples < 1:
        raise DegenerateInputError("noise sensitivity needs samples >= 1")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3:
        x = x[None]
    base = conv2d_forward(x, spec)
    base_sq = float((base ** 2).sum())
    if base_sq == 0.0:
        raise DegenerateInputError("c(x) is zero: noise sensitivity undefined")
    xn = float(np.linalg.norm(x))
    rng = np.random.Generator(np.random.PCG64(seed))
    ratios = np.empty(samples, dtype=np.float64)
    done = 0
    spec64 = ConvSpec(
        out_channels=spec.out_channels, in_channels=spec.in_channels,
        kernel_h=spec.kernel_h, kernel_w=spec.kernel_w, stride=spec.stride,
        padding=spec.padding, dilation=spec.dilation, groups=spec.groups,
        weight=spec.weight.astype(np.float64),
    )
    while done < samples:
        n = min(chunk, samples - done)
        eta = rng.standard_normal((n,) + x.shape[1:])
        perturbed = conv2d_forward(x + eta * xn, spec64)
        diff = perturbed - base
        ratios[done:done + n] = (diff ** 2).sum(axis=(1, 2, 3)) / base_sq
        done += n
    mean = float(ratios.mean())
    stderr = float(ratios.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return mean, stderr


def noise_sensitivity(spec: ConvSpec, x: np.ndarray, samples: int,
                      seed: int = 0) -> float:
    """Monte-Carlo noise sensitivity of the conv at input x (see stats variant)."""
    return noise_sensitivity_stats(spec, x, samples, seed)[0]
