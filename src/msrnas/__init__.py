"""Desk-scale minimum-stable-rank architecture search.

Trains an over-parameterized cell supernet whose convolutions are kept at a
constant spectral norm (exact for 1x1 convs, warm-started Golub-Kahan-Lanczos
estimates for the rest), measures the stable rank of each candidate
operator's final convolution, and derives a discrete architecture by
minimum-stable-rank selection.
"""

import os


def _cap_threads() -> None:
    # MSRNAS_THREADS caps BLAS threading; must run before numpy is imported.
    cap = os.environ.get("MSRNAS_THREADS")
    if cap:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ.setdefault(var, cap)


_cap_threads()

from .autodiff import Tensor, no_grad  # noqa: E402
from .convolution import ConvSpec, conv2d_forward, conv2d_transpose_forward  # noqa: E402
from .spectral import (  # noqa: E402
    ConvHandle,
    SpectralConfig,
    power_iteration,
    spectral_norm_adjust,
    stable_rank,
)
from .supernet import (  # noqa: E402
    SupernetConfig,
    build_discrete_network,
    build_supernet,
    collect_rank_table,
)
from .derive import (  # noqa: E402
    Genotype,
    RankTable,
    SelectionMode,
    derive_genotype,
)

__all__ = [
    "Tensor",
    "no_grad",
    "ConvSpec",
    "conv2d_forward",
    "conv2d_transpose_forward",
    "ConvHandle",
    "SpectralConfig",
    "power_iteration",
    "spectral_norm_adjust",
    "stable_rank",
    "SupernetConfig",
    "build_supernet",
    "build_discrete_network",
    "collect_rank_table",
    "Genotype",
    "RankTable",
    "SelectionMode",
    "derive_genotype",
]
