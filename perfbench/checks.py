"""Output checks run on the artifacts of a benchmark run.

Each check returns ``(name, ok, detail)``; a failed check counts as one
failure in the benchmark result. The spectral-norm oracle builds the dense
matrix of a convolution directly from its weights and geometry, so it does
not rely on the program's own convolution or matrix code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os

import numpy as np

from msrnas import checkpoint, derive, layers, operators, spectral, supernet, train
from msrnas.errors import DerivationError, GenotypeError

# After an adjustment, the oracle's ||M a|| for the handle's own unit vector a
# equals the target up to float32 rounding: the weight was rescaled by exactly
# the program's estimate, and the program's conv agrees with the oracle.
ESTIMATE_REL_TOL = 1e-4
# After CONVERGE_ITERATIONS more power iterations the true spectral norm lies
# this close to the target; kaiming-initialised weights lie well outside.
SIGMA_REL_TOL = 0.05
# The dense stem's top singular values lie within 2% of each other, so its
# estimate converges slowly: after 55 warm iterations its sigma was still up
# to 2% above target on search-batch, after 205 within 1e-3.
CONVERGE_ITERATIONS = 400
# Sampled convs see at least this extent, so that a dilated 5x5 kernel still
# has off-centre taps inside the image and its matrix is not diagonal.
SAMPLE_MIN_EXTENT = 4

Check = tuple[str, bool, str]


def dense_conv_matrix(spec, in_hw: tuple[int, int]) -> np.ndarray:
    """Matrix M with vec(conv(x)) = M vec(x), assembled tap by tap."""
    h, w = in_hw
    kh, kw, s, p, d = spec.kernel_h, spec.kernel_w, spec.stride, spec.padding, spec.dilation
    ho = (h + 2 * p - (kh - 1) * d - 1) // s + 1
    wo = (w + 2 * p - (kw - 1) * d - 1) // s + 1
    cg = spec.in_channels // spec.groups
    og = spec.out_channels // spec.groups
    weight = np.asarray(spec.weight, dtype=np.float64)
    matrix = np.zeros((spec.out_channels * ho * wo, spec.in_channels * h * w))
    o, y, x = np.meshgrid(np.arange(spec.out_channels), np.arange(ho),
                          np.arange(wo), indexing="ij")
    rows = (o * ho + y) * wo + x
    for c_local in range(cg):
        c = (o // og) * cg + c_local
        for k in range(kh):
            for l in range(kw):
                iy = y * s - p + k * d
                ix = x * s - p + l * d
                inside = (iy >= 0) & (iy < h) & (ix >= 0) & (ix < w)
                cols = (c * h + iy) * w + ix
                matrix[rows[inside], cols[inside]] += weight[o[inside], c_local, k, l]
    return matrix


def sample_handles(net) -> dict[str, object]:
    """One handle per conv kind: the smallest matrix view among convs that
    see at least SAMPLE_MIN_EXTENT pixels a side."""
    kinds = {
        "pw_stride1": lambda owner, conv: (conv.spec.kernel_h == 1 and conv.spec.stride == 1
                                           and conv.spec.groups == 1),
        "fr_pw_stride2": lambda owner, conv: isinstance(owner, operators.FactorizedReduce),
        "dw3": lambda owner, conv: (conv.spec.is_depthwise and conv.spec.kernel_h == 3
                                    and conv.spec.dilation == 1),
        "dil_dw5": lambda owner, conv: (conv.spec.is_depthwise and conv.spec.kernel_h == 5
                                        and conv.spec.dilation == 2),
        "dense_stem": lambda owner, conv: isinstance(owner, supernet.Stem),
    }
    pairs = [(owner, conv) for owner in net.modules() for conv in owner.children()
             if isinstance(conv, layers.Conv2d) and min(conv.in_hw) >= SAMPLE_MIN_EXTENT]
    picked = {}
    for kind, match in kinds.items():
        found = [conv for owner, conv in pairs if match(owner, conv)]
        if found:
            best = min(found, key=lambda conv: (
                math.prod(conv.spec.matrix_shape(*conv.in_hw)), conv.path))
            picked[kind] = best.handle
    return picked


def sigma_gaps(net) -> dict[str, tuple[float, float]]:
    """Per sampled kind: (||M a|| / ||a|| / target - 1, sigma / target - 1),
    with M the oracle matrix and a the handle's power-iteration vector."""
    target = net.spectral_cfg.target_norm
    gaps = {}
    for kind, handle in sample_handles(net).items():
        matrix = dense_conv_matrix(handle.spec, handle.in_hw)
        a = np.asarray(handle.vector, dtype=np.float64).reshape(-1)
        estimate = float(np.linalg.norm(matrix @ a) / np.linalg.norm(a))
        sigma = float(np.linalg.svd(matrix, compute_uv=False)[0])
        gaps[kind] = (estimate / target - 1.0, sigma / target - 1.0)
    return gaps


def _detail(gaps: dict, which: int) -> str:
    return ", ".join(f"{kind}={g[which]:.2e}" for kind, g in gaps.items())


def check_estimate(net, label: str = "sigma_estimate_oracle") -> tuple[Check, float]:
    """After a training-time adjustment, every sampled handle's estimate, as
    the oracle computes it, equals the target. Also returns the largest
    sigma / target - 1: the power iteration's under-estimate, which
    spectral.py documents as a lower bound with no accuracy promise."""
    gaps = sigma_gaps(net)
    worst = max((abs(e) for e, _ in gaps.values()), default=math.inf)
    ok = len(gaps) == 5 and worst <= ESTIMATE_REL_TOL
    warm_gap = max((s for _, s in gaps.values()), default=0.0)
    return (label, ok, f"max |estimate/target-1|={worst:.3e} ({_detail(gaps, 0)}); "
                       f"sigma/target-1: {_detail(gaps, 1)}"), warm_gap


def converge_sampled(net) -> None:
    """Adjust each sampled handle with CONVERGE_ITERATIONS power iterations."""
    cfg = dataclasses.replace(net.spectral_cfg, iterations=CONVERGE_ITERATIONS,
                              rank_iterations=CONVERGE_ITERATIONS)
    for handle in sample_handles(net).values():
        spectral.spectral_norm_adjust(handle, cfg)


def check_sigma(net, label: str = "sigma_oracle") -> Check:
    """sigma of one sampled handle per kind is within SIGMA_REL_TOL of target."""
    gaps = sigma_gaps(net)
    worst = max((abs(s) for _, s in gaps.values()), default=math.inf)
    ok = len(gaps) == 5 and worst <= SIGMA_REL_TOL
    return label, ok, f"max |sigma/target-1|={worst:.3e} ({_detail(gaps, 1)})"


def _finite_losses(run_root: str) -> Check:
    with open(os.path.join(run_root, "metrics.csv"), encoding="utf-8") as fh:
        log = train.MetricsLog.from_csv(fh.read())
    values = [v for r in log.records for v in (r.train_loss, r.val_loss)]
    ok = bool(log.records) and all(math.isfinite(v) for v in values)
    # An epoch's train loss is the mean of its step losses, so it is finite
    # only if every step loss was.
    return "finite_losses", ok, f"{len(log.records)} epochs"


def search_checks(run: train.RunDir, epochs: int) -> tuple[list[Check], float]:
    """Checks on a finished search run directory, and the largest
    sigma / target - 1 of the sampled handles after a warm adjustment."""
    checks = [_finite_losses(run.root)]
    table_path = run.rank_table_path(epochs)
    table = derive.load_rank_table(table_path)
    try:
        table.require_complete()
        for mode in derive.SelectionMode:
            derive.derive_genotype(table, mode=mode).validate()
        checks.append(("rank_table_derives", True, "complete; min and max valid"))
    except (DerivationError, GenotypeError) as exc:
        checks.append(("rank_table_derives", False, str(exc)))
    net, epoch = checkpoint.load_checkpoint(run.checkpoint_path(epochs))
    reloaded = derive.rank_table_to_text(supernet.collect_rank_table(net, epoch=epoch))
    with open(table_path, encoding="utf-8") as fh:
        saved = fh.read()
    checks.append(("checkpoint_reproduces_ranks", reloaded == saved,
                   f"epoch {epoch} table {'matches' if reloaded == saved else 'differs'}"))
    # The adjustment the next training step would make: warm, cfg.iterations.
    net.begin_step()
    net.adjust_all()
    estimate_check, warm_gap = check_estimate(net)
    checks.append(estimate_check)
    converge_sampled(net)
    checks.append(check_sigma(net))
    return checks, warm_gap


def eval_checks(run: train.RunDir) -> list[Check]:
    checks = [_finite_losses(run.root)]
    with open(os.path.join(run.root, "result.txt"), encoding="utf-8") as fh:
        values = [float(line.split()[1]) for line in fh if line.strip()]
    checks.append(("finite_test_result", all(math.isfinite(v) for v in values),
                   " ".join(f"{v:.4f}" for v in values)))
    return checks


def run_digest(run: train.RunDir, extra: bytes) -> str:
    """sha256 over the deterministic artifacts: metrics, rank tables, genotype."""
    digest = hashlib.sha256()
    files = [run.metrics_path]
    if os.path.isdir(run.ranks):
        files += [os.path.join(run.ranks, f) for f in sorted(os.listdir(run.ranks))]
    result = os.path.join(run.root, "result.txt")
    if os.path.exists(result):
        files.append(result)
    for path in files:
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    digest.update(extra)
    return digest.hexdigest()
