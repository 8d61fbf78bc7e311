"""The Krylov spectral-norm estimate (single and stacked), the exact
spectral norm of 1x1 convs, spectral-norm adjustment, and the closed-form
stable rank of 1x1 convs, checked against the dense SVD oracle and the
reference power iteration."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msrnas import convolution, spectral
from msrnas.convolution import ConvSpec, conv2d_forward, conv2d_transpose_forward
from msrnas.errors import ArgumentError, DegenerateOperatorError
from msrnas.spectral import (
    ConvHandle,
    SpectralConfig,
    conv_geometry,
    power_iteration,
    spectral_norm_adjust,
    stable_rank,
)

from conftest import (
    fitting_input_hw,
    materialize_conv_matrix,
    random_conv_spec,
    reference_power_iteration,
)


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
    # One image in (C, H, N, W) has the memory order of one in NCHW.
    x = rng.standard_normal((spec.in_channels, h, 1, w))
    np.testing.assert_allclose(
        m @ x.reshape(-1), conv2d_forward(x, spec).reshape(-1), atol=1e-10
    )


def test_materialize_cap():
    spec = ConvSpec(8, 8, 3, 3, padding=1, weight=np.ones((8, 8, 3, 3)))
    with pytest.raises(ValueError, match="exceeds cap"):
        materialize_conv_matrix(spec, (64, 64), cap=1000)


def test_warm_start_persists_across_calls(rng):
    # One step is one power iteration, so five warm-started one-step calls
    # reach the reference's five-iteration estimate and vector; five steps
    # in one call reach at least as far.
    spec = ConvSpec(2, 2, 3, 3, padding=1,
                    weight=rng.standard_normal((2, 2, 3, 3)))
    handle = ConvHandle(spec, (6, 6), seed=8)
    first = power_iteration([handle], 1)[0]
    fifth = None
    for _ in range(4):
        fifth = power_iteration([handle], 1)[0]
    (five_iterations,), (vector,) = reference_power_iteration(
        [ConvHandle(spec, (6, 6), seed=8)], 5)
    assert fifth == pytest.approx(five_iterations, rel=1e-12)
    np.testing.assert_allclose(handle.vector.reshape(-1), vector, atol=1e-12)
    assert fifth >= first - 1e-10
    five_at_once = power_iteration([ConvHandle(spec, (6, 6), seed=8)], 5)[0]
    assert five_at_once >= fifth * (1 - 1e-12)


def non_1x1_convs(rng, count: int):
    """``count`` random convs whose kernel is not 1x1, with fitting input
    extents."""
    while count:
        spec = random_conv_spec(rng)
        if spec.kernel_h * spec.kernel_w > 1:
            count -= 1
            yield spec, fitting_input_hw(spec, rng)


@pytest.mark.parametrize("steps", [1, 2, 5, 10])
def test_krylov_estimate_lies_between_power_iteration_and_sigma(rng, steps):
    # From the same start vector, the Krylov space holds the power iterate,
    # so the estimate is at least the reference's and at most the true norm.
    for spec, hw in non_1x1_convs(rng, 20):
        exact = np.linalg.svd(materialize_conv_matrix(spec, hw), compute_uv=False)[0]
        (reference,), _ = reference_power_iteration([ConvHandle(spec, hw, seed=11)], steps)
        estimate = power_iteration([ConvHandle(spec, hw, seed=11)], steps)[0]
        assert estimate >= reference * (1 - 1e-6), (spec, hw)
        assert estimate <= exact * (1 + 1e-6), (spec, hw)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ["pointwise_padded", "steps_beyond_size"])
def test_exhausted_krylov_space_stops_early(rng, dtype, case):
    # A padded 1x1 conv is iterated, and its M^T M = W^T W (x) I has only as
    # many distinct eigenvalues as channels; a 1-channel 3x3 conv on a 2x2
    # input has a 4-dimensional input space, below the 10 steps. Each call
    # stops once its space is spent, with no warning (the suite makes
    # warnings errors) and the exact norm.
    if case == "pointwise_padded":
        spec = ConvSpec(3, 3, 1, 1, padding=1, weight=rng.standard_normal((3, 3, 1, 1)))
        hw = (4, 5)
    else:
        spec = ConvSpec(1, 1, 3, 3, padding=1, weight=rng.standard_normal((1, 1, 3, 3)))
        hw = (2, 2)
    spec.weight = spec.weight.astype(dtype)
    assert not spec.is_pointwise
    exact = np.linalg.svd(materialize_conv_matrix(spec, hw), compute_uv=False)[0]
    handle = ConvHandle(spec, hw, seed=2)
    estimate = power_iteration([handle], 10)[0]
    assert abs(estimate - exact) <= 1e-6 * exact
    assert np.linalg.norm(handle.vector) == pytest.approx(1.0, rel=1e-6)


# Power iteration over the stacks of a supernet ----------------------------

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


def tiny_supernet(seed: int = 0, dtype=np.float64):
    from msrnas.supernet import SupernetConfig, build_supernet

    cfg = SupernetConfig(cells=3, nodes=5, initial_channels=4, num_classes=4,
                         input_hw=(10, 10))
    return build_supernet(cfg, SpectralConfig(), dtype=dtype, seed=seed)


@pytest.fixture(scope="module")
def grouped_net():
    return tiny_supernet()


def kind_groups(net) -> dict:
    """Per kind, its members in the first stack that holds some and whose
    members see at least 4 pixels a side (so a dilated 5x5 kernel is not
    diagonal)."""
    picked = {}
    for group in net.handle_groups:
        for kind, match in GROUP_KINDS.items():
            members = [h for h in group if match(h.spec)]
            if kind not in picked and members and min(members[0].in_hw) >= 4:
                picked[kind] = members
    return picked


def test_handle_groups_partition_by_geometry(grouped_net):
    net = grouped_net
    members = [h for group in net.handle_groups for h in group]
    assert sorted(map(id, members)) == sorted(map(id, net.handles))
    assert len({h.stack_key for h in net.handles}) == len(net.handle_groups)
    merged = 0
    for group in net.handle_groups:
        assert len({h.stack_key for h in group}) == 1
        spec = group[0].spec
        if spec.is_depthwise and not spec.is_pointwise:
            # One stack per (channels, stride, input extent, dtype), its
            # members ordered sep3, sep5, dil3, dil5.
            assert len({(h.spec.in_channels, h.spec.stride, h.in_hw, h.spec.weight.dtype)
                        for h in group}) == 1
            assert all(2 * h.spec.padding == (h.spec.kernel_h - 1) * h.spec.dilation
                       for h in group)
            order = [(h.spec.dilation, h.spec.kernel_h) for h in group]
            assert order == sorted(order)
            merged += len(set(order)) > 1
        else:
            assert len({conv_geometry(h.spec, h.in_hw) for h in group}) == 1
    assert merged >= 3
    depthwise = {(h.spec.in_channels, h.spec.stride, h.in_hw) for h in net.handles
                 if h.spec.is_depthwise}
    assert sum(g[0].spec.is_depthwise for g in net.handle_groups) == len(depthwise)
    first = next(g for g in net.handle_groups
                 if g[0].spec.is_depthwise and g[0].spec.stride == 1)
    kinds = [h.name.rsplit(".", 2)[1] for h in first]
    assert sorted(set(kinds), key=kinds.index) == ["op_sep3", "op_sep5", "op_dil3", "op_dil5"]
    groups = kind_groups(net)
    assert set(groups) == set(GROUP_KINDS)
    assert len(groups["dense_stem"]) == 1
    assert all(len(g) > 1 for kind, g in groups.items() if kind != "dense_stem")


@pytest.mark.parametrize("kind", sorted(GROUP_KINDS))
def test_grouped_power_iteration_matches_oracle_and_group_of_one(grouped_net, kind):
    group = kind_groups(grouped_net)[kind][:3]
    probes = probes_of(group)
    sigmas = power_iteration(probes, 100)
    assert sigmas.shape == (len(group),)
    for probe, sigma in zip(probes, sigmas):
        alone = ConvHandle(probe.spec, probe.in_hw, name=probe.name)
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


def test_null_space_iterate_raises_and_changes_no_member(rng):
    hw = (3, 3)
    weights = [rng.standard_normal((2, 2, 1, 2)) for _ in range(3)]
    # Each output is a difference of horizontal neighbours summed over
    # channels, so a constant image lies in its null space.
    weights[1] = np.tile([1.0, -1.0], (2, 2, 1, 1))
    group = [ConvHandle(ConvSpec(2, 2, 1, 2, weight=weight), hw, seed=4, name=f"m{k}")
             for k, weight in enumerate(weights)]
    null = np.ones((1, 2) + hw)
    group[1].vector = null / np.linalg.norm(null)
    before = [(h.spec.weight.copy(), h.vector.copy()) for h in group]
    with pytest.raises(DegenerateOperatorError,
                       match="forward iterate vanished in m1$") as caught:
        power_iteration(group, 4)
    assert caught.value.handle is group[1]
    for handle, (weight, vector) in zip(group, before):
        np.testing.assert_array_equal(handle.spec.weight, weight)
        np.testing.assert_array_equal(handle.vector, vector)


def test_power_iteration_rejects_mixed_geometries():
    a = ConvHandle(identity_spec(2), (4, 4))
    b = ConvHandle(identity_spec(2), (5, 5))
    with pytest.raises(ArgumentError):
        power_iteration([a, b], 1)


def probes_of(group):
    """Fresh handles on the group's convs, so the group's own vectors stay;
    each starts from its conv's start vector, the nets here having the
    default spectral seed."""
    return [ConvHandle(h.spec, h.in_hw, name=h.name) for h in group]


def geometry_runs(group):
    """The members of a stack split by geometry, in stack order."""
    runs: dict[tuple, list] = {}
    for handle in group:
        runs.setdefault(conv_geometry(handle.spec, handle.in_hw), []).append(handle)
    return list(runs.values())


@pytest.mark.parametrize("iterations", [5, 50])
def test_power_iteration_builds_one_band_per_group(monkeypatch, iterations):
    # Each geometry in a stack builds its band rows once per call; rebuilding
    # them in every conv call would take 2 * iterations + 1. A 1x1 stack
    # builds none.
    built = []
    band_matrices = convolution._band_matrices
    monkeypatch.setattr(convolution, "_band_matrices",
                        lambda *args: built.append(1) or band_matrices(*args))
    net = tiny_supernet(dtype=np.float32)
    for group in net.handle_groups:
        built.clear()
        power_iteration(probes_of(group), iterations)
        assert len(built) == (0 if group[0].spec.is_pointwise else len(geometry_runs(group)))


def per_call_bands(patch) -> None:
    """Make ``power_iteration`` run a stack as the plain block-diagonal conv
    of its members' own geometry, each conv call building its own band."""
    def plain_stack(handles):
        spec = spectral._block_diagonal(handles)
        return spec, convolution.conv_bands(spec, handles[0].in_hw, spec.weight.dtype), None

    patch.setattr(spectral, "_stacked_conv", plain_stack)
    for name in ("conv2d_forward", "conv2d_transpose_forward"):
        patch.setattr(spectral, name,
                      lambda *args, _kernel=getattr(convolution, name), band=None,
                      row_groups=None, **kw: _kernel(*args, **kw))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_prebuilt_bands_match_per_call_bands_exactly(dtype, monkeypatch):
    # A merged depthwise stack gives each member the estimate and vector,
    # bit for bit, of a stack of its own geometry whose conv calls each
    # build their own band.
    net = tiny_supernet(seed=2, dtype=dtype)
    mixed = 0
    for group in net.handle_groups:
        if group[0].spec.is_pointwise:
            continue
        probes = probes_of(group)
        sigmas = dict(zip(map(id, probes), power_iteration(probes, 5)))
        runs = geometry_runs(probes)
        mixed += len(runs) > 1
        with monkeypatch.context() as patch:
            per_call_bands(patch)
            for run in runs:
                alone = probes_of(run)
                want_sigmas = power_iteration(alone, 5)
                np.testing.assert_array_equal([sigmas[id(p)] for p in run], want_sigmas)
                for probe, want in zip(run, alone):
                    np.testing.assert_array_equal(probe.vector, want.vector)
    assert mixed >= 3


def test_row_groups_skip_only_zero_band_rows(rng):
    # A merged stack's conv calls with and without its row_groups agree:
    # the groups a kernel row skips hold only zero taps in that row.
    net = tiny_supernet(seed=5)
    merged = [g for g in net.handle_groups
              if len({(h.spec.kernel_h, h.spec.dilation) for h in g}) > 1]
    assert merged
    for group in merged:
        spec, band, row_groups = spectral._stacked_conv(group)
        hw = group[0].in_hw
        assert any(rg.stop - rg.start < spec.groups for rg in row_groups)
        x = rng.standard_normal((spec.in_channels, hw[0], 1, hw[1]))
        y = conv2d_forward(x, spec)
        np.testing.assert_array_equal(conv2d_forward(x, spec, band=band, row_groups=row_groups), y)
        np.testing.assert_array_equal(
            conv2d_transpose_forward(y, spec, input_hw=hw, band=band, row_groups=row_groups),
            conv2d_transpose_forward(y, spec, input_hw=hw))
        np.testing.assert_array_equal(band, convolution.conv_bands(spec, hw, spec.weight.dtype))


# The search-batch supernet (3/5/8/16, float32) ------------------------------

@pytest.fixture(scope="module")
def search_net():
    """A 3/5/8/16 float32 supernet after its cold 50-iteration adjust."""
    from msrnas.supernet import SupernetConfig, build_supernet

    cfg = SupernetConfig(cells=3, nodes=5, initial_channels=8, num_classes=10,
                         input_hw=(16, 16))
    net = build_supernet(cfg, SpectralConfig(seed=3), dtype=np.float32, seed=3)
    net.begin_step()
    net.adjust_all(iterations=net.spectral_cfg.rank_iterations)
    return net


def subnormal_count(array: np.ndarray) -> int:
    return int(np.count_nonzero((array != 0) & (np.abs(array) < np.finfo(array.dtype).tiny)))


def test_no_vector_holds_a_subnormal(search_net):
    # Unflushed, 50 power iterations left about 3000 subnormal entries in
    # the depthwise vectors and three warm adjusts about 7000; the Krylov
    # vectors of this supernet hold none even unflushed.
    assert sum(subnormal_count(h.vector) for h in search_net.handles) == 0
    for _ in range(3):
        search_net.begin_step()
        search_net.adjust_all()
        assert sum(subnormal_count(h.vector) for h in search_net.handles) == 0


def test_warm_adjust_makes_a_fixed_number_of_stacks_and_conv_calls(search_net, monkeypatch):
    # One stack per depthwise (channels, stride, input extent) and one per
    # other geometry; a 1x1 stack makes no conv call, any other stack
    # iterations forward and adjoint calls plus one final forward.
    calls = []
    for name in ("conv2d_forward", "conv2d_transpose_forward"):
        kernel = getattr(spectral, name)
        monkeypatch.setattr(spectral, name,
                            lambda *args, _kernel=kernel, **kw: calls.append(1)
                            or _kernel(*args, **kw))
    search_net.begin_step()
    search_net.adjust_all()
    iterated = [g for g in search_net.handle_groups if not g[0].spec.is_pointwise]
    assert len(search_net.handle_groups) == 14
    assert len(iterated) == 6
    assert len(calls) == 6 * (2 * search_net.spectral_cfg.iterations + 1) == 66


# The exact spectral norm of 1x1 convs ---------------------------------------

@pytest.mark.parametrize("out_channels, in_channels, stride, groups",
                         [(4, 4, 1, 1), (4, 4, 2, 1), (3, 6, 1, 1), (6, 3, 2, 1),
                          (4, 6, 1, 2)])
def test_pointwise_norm_is_exact(rng, out_channels, in_channels, stride, groups):
    hw = (5, 4)
    shape = (out_channels, in_channels // groups, 1, 1)
    handles = [ConvHandle(ConvSpec(out_channels, in_channels, 1, 1, stride=stride,
                                   groups=groups, weight=rng.standard_normal(shape)),
                          hw, seed=k, name=f"m{k}")
               for k in range(3)]
    sigmas = power_iteration(handles, 1)
    for handle, sigma in zip(handles, sigmas):
        matrix = materialize_conv_matrix(handle.spec, hw)
        exact = np.linalg.svd(matrix, compute_uv=False)[0]
        assert abs(sigma - exact) <= 1e-12 * exact
        a = handle.vector.reshape(-1)
        assert handle.vector.shape == (1, in_channels) + hw
        assert np.linalg.norm(a) == pytest.approx(1.0, rel=1e-12)
        assert abs(np.linalg.norm(matrix @ a) - exact) <= 1e-12 * exact


def test_cold_adjust_sets_every_pointwise_norm_to_target():
    net = tiny_supernet(seed=4, dtype=np.float32)
    net.begin_step()
    net.adjust_all(iterations=net.spectral_cfg.rank_iterations)
    target = net.spectral_cfg.target_norm
    pointwise = [h for h in net.handles if h.spec.is_pointwise]
    assert len(pointwise) > 90
    for handle in pointwise:
        weight = handle.spec.weight.reshape(handle.spec.out_channels, -1)
        sigma = np.linalg.svd(weight.astype(np.float64), compute_uv=False)[0]
        assert abs(sigma - target) <= 1e-6 * target, handle.name
