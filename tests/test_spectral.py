"""Power iteration (single and grouped by geometry), spectral-norm adjustment,
and the closed-form stable rank of 1x1 convs, checked against the dense SVD
oracle."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msrnas.convolution import ConvSpec, conv2d_forward
from msrnas.errors import ArgumentError, DegenerateOperatorError
from msrnas.spectral import (
    ConvHandle,
    SpectralConfig,
    power_iteration,
    spectral_norm_adjust,
    stable_rank,
)

from conftest import fitting_input_hw, materialize_conv_matrix, random_conv_spec


def identity_spec(channels: int = 1) -> ConvSpec:
    w = np.eye(channels, dtype=np.float64).reshape(channels, channels, 1, 1)
    return ConvSpec(channels, channels, 1, 1, weight=w)


def test_scalar_conv_sigma_after_one_iteration():
    spec = ConvSpec(1, 1, 1, 1, weight=np.array([[[[2.0]]]]))
    handle = ConvHandle(spec, (3, 3), seed=7)
    assert power_iteration([handle], 1)[0] == pytest.approx(2.0, abs=1e-12)


def test_identity_conv_sigma_is_one():
    handle = ConvHandle(identity_spec(3), (4, 4), seed=1)
    assert power_iteration([handle], 1)[0] == pytest.approx(1.0, abs=1e-12)


def test_power_iteration_matches_dense_svd(rng):
    spec = ConvSpec(2, 2, 3, 3, padding=1,
                    weight=rng.standard_normal((2, 2, 3, 3)))
    handle = ConvHandle(spec, (8, 8), seed=3)
    sigma = power_iteration([handle], 50)[0]
    exact = np.linalg.svd(materialize_conv_matrix(spec, (8, 8)), compute_uv=False)[0]
    assert abs(sigma - exact) / exact < 0.01


def test_power_iteration_zero_kernel_raises():
    spec = ConvSpec(1, 1, 3, 3, weight=np.zeros((1, 1, 3, 3)))
    with pytest.raises(DegenerateOperatorError):
        power_iteration([ConvHandle(spec, (5, 5))], 5)


def test_underestimate_and_monotone_sequence(rng):
    for _ in range(10):
        spec = random_conv_spec(rng)
        h, w = fitting_input_hw(spec, rng)
        exact = np.linalg.svd(materialize_conv_matrix(spec, (h, w)), compute_uv=False)[0]
        handle = ConvHandle(spec, (h, w), seed=11)
        estimates = [power_iteration([handle], 1)[0] for _ in range(20)]
        for k, est in enumerate(estimates):
            assert est <= exact + 1e-8, f"overshoot at iteration {k + 1}"
        diffs = np.diff(estimates)
        assert (diffs >= -1e-10).all(), "estimate sequence decreased"


def test_adjust_exact_scalar_case():
    spec = ConvSpec(1, 1, 1, 1, weight=np.array([[[[4.0]]]]))
    handle = ConvHandle(spec, (4, 4), seed=0)
    cfg = SpectralConfig(target_norm=1.0, iterations=1)
    spectral_norm_adjust(handle, cfg)
    assert spec.weight[0, 0, 0, 0] == pytest.approx(0.25 * 4.0 * 0.25 / 0.25)
    assert spec.weight[0, 0, 0, 0] == pytest.approx(1.0)


def test_adjust_fixed_point(rng):
    spec = identity_spec(2)
    handle = ConvHandle(spec, (5, 5), seed=0)
    cfg = SpectralConfig(target_norm=1.0, iterations=3)
    before = spec.weight.copy()
    spectral_norm_adjust(handle, cfg)
    np.testing.assert_allclose(spec.weight, before, atol=1e-12)


def test_adjust_converges_over_warm_started_rounds(rng):
    spec = ConvSpec(3, 3, 3, 3, padding=1,
                    weight=3.0 * rng.standard_normal((3, 3, 3, 3)))
    handle = ConvHandle(spec, (8, 8), seed=5)
    cfg = SpectralConfig(target_norm=1.0, iterations=5)
    for _ in range(10):
        spectral_norm_adjust(handle, cfg)
    oracle = ConvHandle(spec, (8, 8), seed=99)
    sigma = power_iteration([oracle], 50)[0]
    assert 0.99 <= sigma <= 1.01


def pointwise_spec(weight: np.ndarray, stride: int = 1) -> ConvSpec:
    """A padding-0 1x1 conv with the given (out, in) weight matrix."""
    o, c = weight.shape
    return ConvSpec(o, c, 1, 1, stride=stride, weight=weight.reshape(o, c, 1, 1))


def dense_stable_rank(spec: ConvSpec, hw: tuple[int, int]) -> tuple[float, float]:
    """(stable rank, spectral norm) of the materialized matrix view via SVD."""
    sv = np.linalg.svd(materialize_conv_matrix(spec, hw), compute_uv=False)
    return float((sv ** 2).sum() / sv[0] ** 2), float(sv[0])


def test_stable_rank_identity_map():
    n = 2 * 4 * 4
    assert stable_rank(identity_spec(2), (4, 4))[0] == pytest.approx(n, rel=1e-12)


def test_stable_rank_rank_one_map(rng):
    # Outer-product weight on a 1x1 conv at 1x1 input: exactly rank one.
    u = rng.standard_normal((3, 1))
    v = rng.standard_normal((1, 4))
    spec = pointwise_spec(u @ v)
    assert stable_rank(spec, (1, 1))[0] == pytest.approx(1.0, rel=1e-12)


def test_stable_rank_closed_form_two_singular_values():
    spec = pointwise_spec(np.diag([2.0, 1.0]))
    assert stable_rank(spec, (1, 1)) == pytest.approx((1.25, 2.0), rel=1e-12)


def closed_form_cases(rng):
    """Square, wide, tall and rank-deficient weights, each at stride 1 and 2
    over input extents from 1x1 to 7x5."""
    weights = [rng.standard_normal((4, 4)), rng.standard_normal((3, 6)),
               rng.standard_normal((6, 3)),
               rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))]
    for weight in weights:
        for stride in (1, 2):
            for hw in ((1, 1), (2, 3), (4, 4), (7, 5)):
                yield pointwise_spec(weight, stride), hw


def test_stable_rank_matches_svd_oracle(rng):
    for spec, hw in closed_form_cases(rng):
        rank, sigma = stable_rank(spec, hw)
        expected, expected_sigma = dense_stable_rank(spec, hw)
        assert abs(rank - expected) <= 1e-10 * expected, (spec, hw)
        assert abs(sigma - expected_sigma) <= 1e-10 * expected_sigma, (spec, hw)


def test_stable_rank_bounds(rng):
    # The matrix view repeats W once per output pixel: its stable rank lies
    # in [ho*wo, ho*wo*min(O, C)].
    for spec, hw in closed_form_cases(rng):
        pixels = np.prod(spec.out_hw(*hw))
        sr, _ = stable_rank(spec, hw)
        assert pixels * (1 - 1e-12) <= sr
        assert sr <= pixels * min(spec.out_channels, spec.in_channels) * (1 + 1e-12)


def test_stable_rank_rejects_other_geometries(rng):
    dense = ConvSpec(3, 3, 3, 3, padding=1, weight=rng.standard_normal((3, 3, 3, 3)))
    padded = ConvSpec(3, 3, 1, 1, padding=1, weight=rng.standard_normal((3, 3, 1, 1)))
    grouped = ConvSpec(4, 4, 1, 1, groups=2, weight=rng.standard_normal((4, 2, 1, 1)))
    for spec in (dense, padded, grouped):
        with pytest.raises(ArgumentError):
            stable_rank(spec, (5, 5))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stable_rank_zero_weight_is_none(dtype):
    spec = pointwise_spec(np.zeros((3, 5), dtype=dtype), stride=2)
    assert stable_rank(spec, (6, 6)) is None


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.floats(0.05, 20).filter(lambda k: abs(k) > 1e-3))
def test_stable_rank_scale_invariance(seed, k):
    rng = np.random.Generator(np.random.PCG64(seed))
    o, c = rng.integers(1, 7, size=2)
    weight = rng.standard_normal((o, c))
    stride = int(rng.integers(1, 3))
    hw = tuple(int(v) for v in rng.integers(1, 8, size=2))
    base, _ = stable_rank(pointwise_spec(weight, stride), hw)
    scaled, _ = stable_rank(pointwise_spec(k * weight, stride), hw)
    assert scaled == pytest.approx(base, rel=1e-10)


def test_materialize_identity_is_identity():
    m = materialize_conv_matrix(identity_spec(2), (3, 3))
    np.testing.assert_allclose(m, np.eye(2 * 9), atol=1e-12)


def test_materialize_definition_check(rng):
    spec = random_conv_spec(rng)
    h, w = fitting_input_hw(spec, rng)
    m = materialize_conv_matrix(spec, (h, w))
    x = rng.standard_normal((1, spec.in_channels, h, w))
    np.testing.assert_allclose(
        m @ x.reshape(-1), conv2d_forward(x, spec).reshape(-1), atol=1e-10
    )


def test_materialize_cap():
    spec = ConvSpec(8, 8, 3, 3, padding=1, weight=np.ones((8, 8, 3, 3)))
    with pytest.raises(ValueError, match="exceeds cap"):
        materialize_conv_matrix(spec, (64, 64), cap=1000)


def test_warm_start_persists_across_calls(rng):
    spec = ConvSpec(2, 2, 3, 3, padding=1,
                    weight=rng.standard_normal((2, 2, 3, 3)))
    handle = ConvHandle(spec, (6, 6), seed=8)
    first = power_iteration([handle], 1)[0]
    fifth = None
    for _ in range(4):
        fifth = power_iteration([handle], 1)[0]
    cold = ConvHandle(spec, (6, 6), seed=8)
    five_at_once = power_iteration([cold], 5)[0]
    assert fifth == pytest.approx(five_at_once, rel=1e-12)
    assert fifth >= first - 1e-10


# Grouped power iteration over the geometry groups of a supernet ------------

GROUP_KINDS = {
    "pw_stride1": lambda s: s.kernel_h == 1 and s.stride == 1 and s.groups == 1,
    "fr_pw_stride2": lambda s: s.kernel_h == 1 and s.stride == 2,
    "dw3": lambda s: (s.is_depthwise and s.kernel_h == 3 and s.dilation == 1
                      and s.stride == 1),
    "dw5": lambda s: (s.is_depthwise and s.kernel_h == 5 and s.dilation == 1
                      and s.stride == 1),
    "dil_dw3": lambda s: s.is_depthwise and s.kernel_h == 3 and s.dilation == 2,
    "dil_dw5": lambda s: s.is_depthwise and s.kernel_h == 5 and s.dilation == 2,
    "dw_stride2": lambda s: s.is_depthwise and s.dilation == 1 and s.stride == 2,
    "dil_dw_stride2": lambda s: s.is_depthwise and s.dilation == 2 and s.stride == 2,
    "dense_stem": lambda s: s.kernel_h == 3 and s.groups == 1,
}


def tiny_supernet(seed: int = 0):
    from msrnas.supernet import SupernetConfig, build_supernet

    cfg = SupernetConfig(cells=3, nodes=5, initial_channels=4, num_classes=4,
                         input_hw=(10, 10))
    return build_supernet(cfg, SpectralConfig(), dtype=np.float64, seed=seed)


@pytest.fixture(scope="module")
def grouped_net():
    return tiny_supernet()


def kind_groups(net) -> dict:
    """The first geometry group of each kind whose members see at least 4
    pixels a side (so a dilated 5x5 kernel is not diagonal)."""
    picked = {}
    for group in net.handle_groups:
        spec = group[0].spec
        for kind, match in GROUP_KINDS.items():
            if kind not in picked and match(spec) and min(group[0].in_hw) >= 4:
                picked[kind] = group
    return picked


def test_handle_groups_partition_by_geometry(grouped_net):
    net = grouped_net
    members = [h for group in net.handle_groups for h in group]
    assert sorted(map(id, members)) == sorted(map(id, net.handles))
    assert len({h.geometry for h in net.handles}) == len(net.handle_groups)
    for group in net.handle_groups:
        assert len({h.geometry for h in group}) == 1
    groups = kind_groups(net)
    assert set(groups) == set(GROUP_KINDS)
    assert len(groups["dense_stem"]) == 1
    assert all(len(g) > 1 for kind, g in groups.items() if kind != "dense_stem")


@pytest.mark.parametrize("kind", sorted(GROUP_KINDS))
def test_grouped_power_iteration_matches_oracle_and_group_of_one(grouped_net, kind):
    group = kind_groups(grouped_net)[kind][:3]
    probes = [ConvHandle(h.spec, h.in_hw, seed=h.seed, name=h.name) for h in group]
    sigmas = power_iteration(probes, 100)
    assert sigmas.shape == (len(group),)
    for probe, sigma in zip(probes, sigmas):
        alone = ConvHandle(probe.spec, probe.in_hw, seed=probe.seed, name=probe.name)
        assert power_iteration([alone], 100)[0] == pytest.approx(sigma, rel=1e-12)
        np.testing.assert_allclose(alone.vector, probe.vector, atol=1e-12)
        matrix = materialize_conv_matrix(probe.spec, probe.in_hw)
        exact = np.linalg.svd(matrix, compute_uv=False)[0]
        assert sigma <= exact * (1 + 1e-9)
        assert abs(sigma - exact) / exact < 0.01
        # The estimate is ||M a|| for the member's own stored unit vector.
        a = probe.vector.reshape(-1)
        assert np.linalg.norm(a) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(matrix @ a) == pytest.approx(sigma, rel=1e-12)


def test_grouped_adjust_raises_for_zero_kernel_member():
    net = tiny_supernet(seed=1)
    group = kind_groups(net)["dw3"]
    victim = group[2]
    victim.spec.weight[...] = 0.0
    before = [h.spec.weight.copy() for h in group]
    with pytest.raises(DegenerateOperatorError) as alone:
        spectral_norm_adjust(victim, net.spectral_cfg)
    net.begin_step()
    with pytest.raises(DegenerateOperatorError, match=re.escape(victim.name)) as grouped:
        net.adjust_all()
    assert grouped.value.handle is victim
    assert str(grouped.value) == str(alone.value)
    # No member of the failing group was rescaled.
    for handle, weight in zip(group, before):
        np.testing.assert_array_equal(handle.spec.weight, weight)


def test_null_space_restart_leaves_other_members_unchanged(rng):
    hw = (3, 3)

    def handles():
        specs = [ConvSpec(2, 2, 1, 1, weight=weight) for weight in weights]
        return [ConvHandle(spec, hw, seed=4, name=f"m{k}")
                for k, spec in enumerate(specs)]

    weights = [rng.standard_normal((2, 2, 1, 1)) for _ in range(3)]
    # Rank one; (1, 1) at every pixel lies in its null space.
    weights[1] = np.array([[1.0, -1.0], [2.0, -2.0]]).reshape(2, 2, 1, 1)
    group = handles()
    null = np.ones((1, 2) + hw)
    group[1].vector = null / np.linalg.norm(null)
    sigmas = power_iteration(group, 4)

    reference = handles()
    others = [reference[0], reference[2]]
    np.testing.assert_allclose(sigmas[[0, 2]], power_iteration(others, 4), rtol=1e-14)
    for got, want in zip((group[0], group[2]), others):
        np.testing.assert_allclose(got.vector, want.vector, rtol=1e-14, atol=0)
    # The collapsed member restarted from its own fresh vector.
    restarted = reference[1]
    assert sigmas[1] == pytest.approx(power_iteration([restarted], 4)[0], rel=1e-14)
    np.testing.assert_allclose(group[1].vector, restarted.vector, rtol=1e-14, atol=0)
    assert sigmas[1] == pytest.approx(np.sqrt(10.0), rel=1e-12)


def test_power_iteration_rejects_mixed_geometries():
    a = ConvHandle(identity_spec(2), (4, 4))
    b = ConvHandle(identity_spec(2), (5, 5))
    with pytest.raises(ArgumentError):
        power_iteration([a, b], 1)
