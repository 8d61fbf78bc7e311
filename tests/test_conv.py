"""Convolution forward/adjoint checks against hand values, a naive loop
reference, the tap-loop reference and the dense matrix oracle.

The oracles take NCHW arrays and the kernels channel-major (C, H, N, W)
ones; the ``*_nchw`` wrappers run a kernel on NCHW arrays."""

import dataclasses
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msrnas import convolution
from msrnas.autodiff import Tensor
from msrnas.convolution import (
    ConvSpec,
    conv2d_forward,
    conv2d_transpose_forward,
    conv2d_weight_grad,
    conv_bands,
)
from msrnas.derive import Genotype, intermediate_nodes
from msrnas.errors import ConstructionError, DimensionError
from msrnas.layers import Conv2d, cross_entropy
from msrnas.operators import OPERATOR_NAMES
from msrnas.optim import TrainHyper, sgd_momentum_step
from msrnas.spectral import SpectralConfig, conv_geometry
from msrnas.supernet import SupernetConfig, build_discrete_network, build_supernet

from conftest import (
    add_at_conv2d_weight_grad,
    assert_same_bits,
    central_difference,
    clear_conv_plans,
    conv2d,
    conv_kernel_outputs,
    fitting_input_hw,
    materialize_conv_matrix,
    mul,
    naive_conv2d,
    random_conv_spec,
    relative_error,
    sub,
    sum_,
    tap_conv2d_forward,
    tap_conv2d_transpose,
    tap_conv2d_weight_grad,
    to_chnw,
    to_nchw,
)

GENOTYPE_7NODE = pathlib.Path(__file__).parents[1] / "perfbench" / "genotype_min_7node.json"


def forward_nchw(x, spec):
    return to_nchw(conv2d_forward(to_chnw(x), spec))


def adjoint_nchw(y, spec, input_hw):
    return to_nchw(conv2d_transpose_forward(to_chnw(y), spec, input_hw=input_hw))


def spec_1x1(value: float) -> ConvSpec:
    return ConvSpec(1, 1, 1, 1, weight=np.array([[[[value]]]], dtype=np.float64))


def test_hand_forced_window_sums():
    x = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)
    spec = ConvSpec(1, 1, 2, 2, weight=np.ones((1, 1, 2, 2)))
    out = forward_nchw(x, spec)
    np.testing.assert_array_equal(out[0, 0], [[12.0, 16.0], [24.0, 28.0]])


def test_identity_1x1_kernel_passthrough(rng):
    x = rng.standard_normal((1, 5, 2, 4))
    out = conv2d_forward(x, spec_1x1(1.0))
    np.testing.assert_array_equal(out, x)


def test_dilated_conv_matches_matrix_oracle(rng):
    weight = rng.standard_normal((4, 3, 3, 3))
    spec = ConvSpec(4, 3, 3, 3, stride=1, padding=2, dilation=2, weight=weight)
    x = rng.standard_normal((2, 3, 5, 5))
    out = forward_nchw(x, spec)
    m = materialize_conv_matrix(spec, (5, 5))
    expected = (m @ x.reshape(2, -1).T).T.reshape(out.shape)
    np.testing.assert_allclose(out, expected, atol=1e-10)


def test_forward_matches_naive_reference_corpus(rng):
    for _ in range(25):
        spec = random_conv_spec(rng)
        h, w = fitting_input_hw(spec, rng)
        x = rng.standard_normal((2, spec.in_channels, h, w))
        np.testing.assert_allclose(
            forward_nchw(x, spec), naive_conv2d(x, spec), atol=1e-10
        )


def test_adjoint_identity_random_specs(rng):
    for _ in range(25):
        spec = random_conv_spec(rng)
        h, w = fitting_input_hw(spec, rng)
        a = rng.standard_normal((spec.in_channels, h, 2, w))
        fwd = conv2d_forward(a, spec)
        b = rng.standard_normal(fwd.shape)
        lhs = float((fwd * b).sum())
        rhs = float((a * conv2d_transpose_forward(b, spec, input_hw=(h, w))).sum())
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_transpose_of_1x1_kernel_multiplies(rng):
    y = rng.standard_normal((1, 4, 3, 4))
    out = conv2d_transpose_forward(y, spec_1x1(2.5), input_hw=(4, 4))
    np.testing.assert_allclose(out, 2.5 * y, atol=1e-12)


def test_transpose_matches_matrix_transpose(rng):
    weight = rng.standard_normal((2, 2, 3, 3))
    spec = ConvSpec(2, 2, 3, 3, stride=2, padding=1, weight=weight)
    h, w = 6, 7
    m = materialize_conv_matrix(spec, (h, w))
    ho, wo = spec.out_hw(h, w)
    b = rng.standard_normal((1, 2, ho, wo))
    expected = (m.T @ b.reshape(-1)).reshape(1, 2, h, w)
    np.testing.assert_allclose(
        adjoint_nchw(b, spec, (h, w)), expected, atol=1e-10
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-2, 2), st.floats(-2, 2))
def test_linearity(seed, alpha, beta):
    rng = np.random.Generator(np.random.PCG64(seed))
    spec = random_conv_spec(rng)
    h, w = fitting_input_hw(spec, rng)
    a = rng.standard_normal((spec.in_channels, h, 1, w))
    b = rng.standard_normal((spec.in_channels, h, 1, w))
    mixed = conv2d_forward(alpha * a + beta * b, spec)
    separate = alpha * conv2d_forward(a, spec) + beta * conv2d_forward(b, spec)
    np.testing.assert_allclose(mixed, separate, atol=1e-10)


def test_channel_mismatch_raises(rng):
    spec = random_conv_spec(rng)
    x = rng.standard_normal((spec.in_channels + 1, 8, 1, 8))
    with pytest.raises(DimensionError):
        conv2d_forward(x, spec)


def test_kernel_larger_than_input_raises():
    spec = ConvSpec(1, 1, 5, 5, weight=np.ones((1, 1, 5, 5)))
    with pytest.raises(DimensionError):
        conv2d_forward(np.ones((1, 1, 3, 3)), spec)


def test_transpose_shape_mismatch_raises(rng):
    spec = ConvSpec(1, 1, 3, 3, stride=2, weight=rng.standard_normal((1, 1, 3, 3)))
    with pytest.raises(DimensionError):
        conv2d_transpose_forward(np.ones((1, 3, 1, 3)), spec, input_hw=(5, 5))


def test_spec_validation():
    with pytest.raises(ConstructionError):
        ConvSpec(3, 4, 3, 3, groups=2, weight=np.zeros((3, 2, 3, 3)))
    with pytest.raises(ConstructionError):
        ConvSpec(2, 2, 3, 3, weight=np.zeros((2, 2, 2, 2)))
    with pytest.raises(ConstructionError):
        ConvSpec(2, 2, 3, 3, padding=-1, weight=np.zeros((2, 2, 3, 3)))


def test_output_size_formula(rng):
    spec = ConvSpec(1, 1, 3, 3, stride=2, padding=1, dilation=2,
                    weight=rng.standard_normal((1, 1, 3, 3)))
    h, w = 11, 9
    ho, wo = spec.out_hw(h, w)
    assert ho == (11 + 2 - 2 * 2 - 1) // 2 + 1
    assert wo == (9 + 2 - 2 * 2 - 1) // 2 + 1
    assert conv2d_forward(np.zeros((1, h, 2, w)), spec).shape == (1, ho, 2, wo)


def test_conv_gradients_match_finite_differences(rng):
    spec = random_conv_spec(rng)
    h, w = fitting_input_hw(spec, rng)
    x = Tensor(rng.standard_normal((spec.in_channels, h, 2, w)), requires_grad=True)
    weight = Tensor(spec.weight, requires_grad=True)
    ho, wo = spec.out_hw(h, w)
    target = rng.standard_normal((spec.out_channels, ho, 2, wo))

    def loss_tensor():
        out = conv2d(x, weight, spec)
        diff = sub(out, target)
        return sum_(mul(diff, diff))

    loss = loss_tensor()
    loss.backward()
    for t in (x, weight):
        flat_size = t.data.size
        for c in rng.choice(flat_size, size=min(8, flat_size), replace=False):
            idx = np.unravel_index(c, t.data.shape)
            num = central_difference(
                lambda: float(loss_tensor().data), t.data, idx, 1e-6
            )
            assert relative_error(t.grad[idx], num) < 1e-5


def wide_conv_spec(rng: np.random.Generator, kind: str) -> ConvSpec:
    """Random float64 spec of one kind ("dense", "grouped" or "depthwise"):
    non-square kernels up to 5, stride up to 3, dilation up to 2 and padding
    up to one past the kernel's reach."""
    kh, kw = (int(v) for v in rng.integers(1, 6, size=2))
    dilation = int(rng.integers(1, 3))
    reach = (max(kh, kw) - 1) * dilation
    if kind == "depthwise":
        groups = c_in = c_out = int(rng.integers(1, 5))
    elif kind == "grouped":
        groups = int(rng.integers(2, 4))
        c_in, c_out = (groups * int(v) for v in rng.integers(1, 3, size=2))
    else:
        groups = 1
        c_in, c_out = (int(v) for v in rng.integers(1, 4, size=2))
    return ConvSpec(c_out, c_in, kh, kw, stride=int(rng.integers(1, 4)),
                    padding=int(rng.integers(0, reach + 2)), dilation=dilation,
                    groups=groups,
                    weight=rng.standard_normal((c_out, c_in // groups, kh, kw)))


def wide_input_hw(spec: ConvSpec, rng: np.random.Generator) -> tuple[int, int]:
    """Input extents from the smallest the kernel fits up to 4 more."""
    lo = [max(1, (k - 1) * spec.dilation + 1 - 2 * spec.padding)
          for k in (spec.kernel_h, spec.kernel_w)]
    return tuple(int(rng.integers(v, v + 5)) for v in lo)


WIDE_KINDS = ("dense", "grouped", "depthwise")


@pytest.mark.parametrize("kind", WIDE_KINDS)
def test_wide_corpus_matches_naive_and_matrix_oracles(kind):
    rng = np.random.default_rng(WIDE_KINDS.index(kind))
    for _ in range(15):
        spec = wide_conv_spec(rng, kind)
        h, w = wide_input_hw(spec, rng)
        x = rng.standard_normal((2, spec.in_channels, h, w))
        y = conv2d_forward(to_chnw(x), spec)
        assert y.flags.c_contiguous
        np.testing.assert_allclose(to_nchw(y), naive_conv2d(x, spec), atol=1e-10)
        m = materialize_conv_matrix(spec, (h, w))
        b = rng.standard_normal(to_nchw(y).shape)
        adj = conv2d_transpose_forward(to_chnw(b), spec, input_hw=(h, w))
        assert adj.flags.c_contiguous
        expected = (m.T @ b.reshape(2, -1).T).T.reshape(x.shape)
        np.testing.assert_allclose(to_nchw(adj), expected, atol=1e-10)


def test_weight_grad_matches_matrix_form():
    # The conv is linear in the kernel, so a central difference of
    # <conv(x; W), gy> is exact up to rounding; every entry is checked.
    rng = np.random.default_rng(10)
    for kind in WIDE_KINDS * 15:
        spec = wide_conv_spec(rng, kind)
        h, w = wide_input_hw(spec, rng)
        ho, wo = spec.out_hw(h, w)
        x = rng.standard_normal((spec.in_channels, h, 2, w))
        gy = rng.standard_normal((spec.out_channels, ho, 2, wo))
        gw = conv2d_weight_grad(x, gy, spec)
        assert gw.flags.c_contiguous and gw.shape == spec.weight.shape
        for idx in np.ndindex(spec.weight.shape):
            num = central_difference(
                lambda: float((conv2d_forward(x, spec) * gy).sum()), spec.weight, idx, 0.5)
            assert abs(gw[idx] - num) < 1e-10 * max(1.0, abs(num))


def kind_corpus(kind: str, dtype) -> list[tuple]:
    """15 specs of ``wide_conv_spec``'s kind in ``dtype``, each with an input
    of batch 2 and a cotangent of its output's shape, both (C, H, N, W)."""
    rng = np.random.default_rng(20 + WIDE_KINDS.index(kind))
    corpus = []
    for _ in range(15):
        spec = wide_conv_spec(rng, kind)
        spec = dataclasses.replace(spec, weight=spec.weight.astype(dtype))
        h, w = wide_input_hw(spec, rng)
        ho, wo = spec.out_hw(h, w)
        x = rng.standard_normal((spec.in_channels, h, 2, w)).astype(dtype)
        gy = rng.standard_normal((spec.out_channels, ho, 2, wo)).astype(dtype)
        corpus.append((spec, x, gy))
    return corpus


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", WIDE_KINDS)
def test_weight_grad_tap_sums_match_add_at_exactly(kind, dtype):
    # A padding-0 1x1 conv's gradient is one channel-mix GEMM, with no taps.
    for spec, x, gy in kind_corpus(kind, dtype):
        if spec.is_pointwise:
            continue
        assert_same_bits(conv2d_weight_grad(x, gy, spec),
                         add_at_conv2d_weight_grad(x, gy, spec))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_weight_grad_tap_sums_match_add_at_on_workload_geometries(dtype):
    # At 16 px a kernel column has up to 16 taps, past the 8 below which
    # numpy's pairwise sums happen to add in order.
    rng = np.random.default_rng(7)
    for spec, (h, w) in workload_conv_geometries():
        if spec.is_pointwise:
            continue
        spec = dataclasses.replace(spec, weight=spec.weight.astype(dtype))
        ho, wo = spec.out_hw(h, w)
        x = rng.standard_normal((spec.in_channels, h, 2, w)).astype(dtype)
        gy = rng.standard_normal((spec.out_channels, ho, 2, wo)).astype(dtype)
        assert_same_bits(conv2d_weight_grad(x, gy, spec),
                         add_at_conv2d_weight_grad(x, gy, spec))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", WIDE_KINDS)
def test_cold_plans_give_the_warm_plans_outputs(kind, dtype, plan_builds):
    for spec, x, gy in kind_corpus(kind, dtype):
        clear_conv_plans()
        plan_builds.clear()
        cold = conv_kernel_outputs(spec, x, gy)
        # One row plan and one column plan; a padding-0 1x1 conv needs none.
        assert len(plan_builds) == (0 if spec.is_pointwise else 2)
        warm = conv_kernel_outputs(spec, x, gy)
        assert len(plan_builds) == (0 if spec.is_pointwise else 2)
        for got, want in zip(warm, cold):
            assert_same_bits(got, want)


def conv_plans(spec: ConvSpec, hw: tuple[int, int], row_groups=None) -> tuple:
    """The row and column plans that the kernels use for ``spec`` at input
    extents ``hw``."""
    (h, w), (ho, wo) = hw, spec.out_hw(*hw)
    return convolution._rows(spec, h, ho, row_groups), convolution._columns(spec, w, wo)


def test_plans_are_keyed_by_every_geometry_field():
    rng = np.random.default_rng(4)

    def conv(channels=4, groups=4, kernel=3, **geometry):
        geometry = {"stride": 3, "padding": 1, **geometry}
        return ConvSpec(channels, channels, kernel, kernel, groups=groups, **geometry,
                        weight=rng.standard_normal((channels, channels // groups,
                                                    kernel, kernel)))

    # At stride 3 each variant below keeps the 2x2 output, so each field
    # must key the plans by itself.
    base, hw = conv(), (6, 6)
    rows, cols = conv_plans(base, hw)
    # Only the geometry keys a plan: not the weight, dtype or batch.
    x = rng.standard_normal((4, 6, 3, 6)).astype(np.float32)
    gy = rng.standard_normal((4, 2, 3, 2)).astype(np.float32)
    conv_kernel_outputs(dataclasses.replace(base, weight=base.weight.astype(np.float32)),
                        x, gy)
    assert all(a is b for a, b in zip(conv_plans(conv(), hw), (rows, cols)))
    # (spec, extents, row_groups, new row plan, new column plan): a column
    # plan covers one group, so it serves every group count.
    every_row = [slice(0, 4)] * 3
    variants = [(conv(kernel=5), hw, None, True, True),
                (conv(stride=4), hw, None, True, True),
                (conv(padding=0), hw, None, True, True),
                (conv(dilation=2), hw, None, True, True),
                (base, (5, 6), None, True, False),
                (base, (6, 5), None, False, True),
                (conv(channels=6, groups=6), hw, None, True, False),
                (conv(groups=2), hw, None, True, True),
                (base, hw, every_row, True, False),
                (base, hw, every_row[:2] + [slice(2, 4)], True, False)]
    seen = {id(rows)}
    for spec, extents, row_groups, new_rows, new_cols in variants:
        assert spec.out_hw(*extents) == (2, 2)
        other_rows, other_cols = conv_plans(spec, extents, row_groups)
        assert (other_rows is not rows) == new_rows
        assert (other_cols is not cols) == new_cols
        if new_rows:
            assert id(other_rows) not in seen
            seen.add(id(other_rows))
    with pytest.raises(ValueError):
        cols.tap_index[0, 0, 0, 0] = 1


def train_step(net, params, images: np.ndarray, labels: np.ndarray) -> None:
    """One SGD step of ``net`` on one batch, with a supernet's spectral
    adjust first."""
    if hasattr(net, "adjust_all"):
        net.begin_step()
        net.adjust_all()
    for param in params:
        param.zero_grad()
    cross_entropy(net(Tensor(images)), labels).backward()
    sgd_momentum_step(params, 0.025, TrainHyper())


def test_training_steps_build_plans_in_the_first_step_only(plan_builds):
    cfg = SupernetConfig(cells=3, nodes=5, initial_channels=4, num_classes=4,
                         input_hw=(10, 10))
    rows = [[("sep5", 0), ("dil3", 1)] for _ in intermediate_nodes(5)]
    genotype = Genotype(mode="min", nodes=5, operators=OPERATOR_NAMES,
                        normal=[list(r) for r in rows], reduce=[list(r) for r in rows])
    rng = np.random.default_rng(5)
    images = rng.standard_normal((8, 3, 10, 10)).astype(np.float32)
    labels = rng.integers(0, 4, size=8)
    for net in (build_supernet(cfg, SpectralConfig(), seed=0),
                build_discrete_network(genotype, cfg, seed=1)):
        params = net.parameters()
        clear_conv_plans()
        plan_builds.clear()
        train_step(net, params, images, labels)
        assert plan_builds
        plan_builds.clear()
        train_step(net, params, images, labels)
        assert not plan_builds


def workload_conv_geometries() -> list[tuple]:
    """One (spec, in_hw) per distinct conv geometry in the two perfbench
    workload networks: the 3/5/8/16 supernet and the 8/7/16/16 network of
    the committed 7-node genotype."""
    supernet = build_supernet(
        SupernetConfig(cells=3, nodes=5, initial_channels=8, num_classes=4,
                       input_hw=(16, 16)), SpectralConfig(), seed=0)
    genotype = Genotype.from_json_str(GENOTYPE_7NODE.read_text(encoding="utf-8"))
    discrete = build_discrete_network(
        genotype, SupernetConfig(cells=8, nodes=7, initial_channels=16,
                                 num_classes=4, input_hw=(16, 16)), seed=0)
    found = {}
    for net in (supernet, discrete):
        for module in net.modules():
            if isinstance(module, Conv2d):
                found.setdefault(conv_geometry(module.spec, module.in_hw),
                                 (module.spec, module.in_hw))
    return list(found.values())


def _assert_float32_close(got, want, terms):
    # Set before any comparison ran: 16 eps * sqrt(terms summed per entry),
    # relative to the largest reference entry.
    tol = 16 * np.finfo(np.float32).eps * np.sqrt(terms)
    assert got.dtype == np.float32 and got.flags.c_contiguous
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


@pytest.mark.parametrize("batch", [64, 16])
def test_kernels_match_tap_loop_on_workload_geometries(batch):
    rng = np.random.default_rng(batch)
    geometries = workload_conv_geometries()
    assert sum(not spec.is_pointwise for spec, _ in geometries) >= 8
    for spec, (h, w) in geometries:
        x = rng.standard_normal((batch, spec.in_channels, h, w)).astype(np.float32)
        taps = spec.kernel_h * spec.kernel_w
        y = conv2d_forward(to_chnw(x), spec)
        _assert_float32_close(y, to_chnw(tap_conv2d_forward(x, spec)),
                              spec.in_channels // spec.groups * taps)
        gy = to_nchw(rng.standard_normal(y.shape).astype(np.float32))
        _assert_float32_close(
            conv2d_transpose_forward(to_chnw(gy), spec, input_hw=(h, w)),
            to_chnw(tap_conv2d_transpose(gy, spec, (h, w))),
            spec.out_channels // spec.groups * taps)
        _assert_float32_close(conv2d_weight_grad(to_chnw(x), to_chnw(gy), spec),
                              tap_conv2d_weight_grad(x, gy, spec),
                              batch * y.shape[1] * y.shape[3])


# (channels in, out, groups, kernel, stride, padding, dilation) at batch 64
# on 16x16: the 5x5 depthwise conv of SepConv and of DilConv, on normal and
# on reduction edges, and the dense stem.
MEMORY_CASES = [(8, 8, 8, 5, 1, 2, 1), (8, 8, 8, 5, 1, 4, 2),
                (8, 8, 8, 5, 2, 2, 1), (8, 8, 8, 5, 2, 4, 2), (3, 24, 1, 3, 1, 1, 1)]


@pytest.mark.parametrize("case", MEMORY_CASES)
def test_kernel_transient_memory_bound(case):
    # Peak allocation of each kernel call, result included, stays within 4x
    # the larger of its padded input and its output.
    c, o, g, k, s, p, d = case
    rng = np.random.default_rng(0)
    spec = ConvSpec(o, c, k, k, stride=s, padding=p, dilation=d, groups=g,
                    weight=rng.standard_normal((o, c // g, k, k)).astype(np.float32))
    ho, wo = spec.out_hw(16, 16)
    x = rng.standard_normal((c, 16, 64, 16)).astype(np.float32)
    gy = rng.standard_normal((o, ho, 64, wo)).astype(np.float32)
    bound = 4 * max(64 * c * (16 + 2 * p) ** 2, gy.size) * 4
    calls = [lambda: conv2d_forward(x, spec),
             lambda: conv2d_transpose_forward(gy, spec, input_hw=(16, 16)),
             lambda: conv2d_weight_grad(x, gy, spec)]
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


# (out, in, groups, stride, h, w): the single-matmul 1x1 path, with channel
# groups, stride 2 and odd extents whose last row/column is not sampled.
POINTWISE_CASES = [
    (6, 4, 2, 2, 7, 5),
    (3, 5, 1, 2, 9, 7),
    (9, 6, 3, 1, 5, 3),
    (4, 4, 4, 3, 7, 8),
]


@pytest.mark.parametrize("case", POINTWISE_CASES)
def test_pointwise_matches_naive_and_matrix_transpose(rng, case):
    o, c, g, s, h, w = case
    spec = ConvSpec(o, c, 1, 1, stride=s, groups=g,
                    weight=rng.standard_normal((o, c // g, 1, 1)))
    assert spec.is_pointwise
    x = rng.standard_normal((3, c, h, w))
    np.testing.assert_allclose(forward_nchw(x, spec), naive_conv2d(x, spec),
                               atol=1e-12)
    m = materialize_conv_matrix(spec, (h, w))
    b = rng.standard_normal((3, o) + spec.out_hw(h, w))
    expected = (m.T @ b.reshape(3, -1).T).T.reshape(3, c, h, w)
    np.testing.assert_allclose(adjoint_nchw(b, spec, (h, w)), expected, atol=1e-12)


@pytest.mark.parametrize("case", POINTWISE_CASES)
def test_pointwise_gradients_match_finite_differences(rng, case):
    o, c, g, s, h, w = case
    x = Tensor(rng.standard_normal((c, h, 2, w)), requires_grad=True)
    weight = Tensor(rng.standard_normal((o, c // g, 1, 1)), requires_grad=True)
    spec = ConvSpec(o, c, 1, 1, stride=s, groups=g, weight=weight.data)
    target = rng.standard_normal((o, (h - 1) // s + 1, 2, (w - 1) // s + 1))

    def loss_tensor():
        diff = sub(conv2d(x, weight, spec), target)
        return sum_(mul(diff, diff))

    loss_tensor().backward()
    for t in (x, weight):
        for flat in rng.choice(t.data.size, size=min(8, t.data.size), replace=False):
            idx = np.unravel_index(flat, t.data.shape)
            num = central_difference(lambda: float(loss_tensor().data), t.data, idx, 1e-6)
            assert relative_error(t.grad[idx], num) < 1e-5


def test_pointwise_float32_matches_tap_loop(rng):
    # The same map through the tap loop: a 1x1 kernel zero-padded to 3x3
    # with padding 1 and the centre tap carrying the weights.
    w1 = rng.standard_normal((8, 6, 1, 1)).astype(np.float32)
    w3 = np.zeros((8, 6, 3, 3), dtype=np.float32)
    w3[:, :, 1, 1] = w1[:, :, 0, 0]
    pw = ConvSpec(8, 6, 1, 1, stride=2, weight=w1)
    tap = ConvSpec(8, 6, 3, 3, stride=2, padding=1, weight=w3)
    x = rng.standard_normal((4, 6, 9, 9)).astype(np.float32)
    y = conv2d_forward(to_chnw(x), pw)
    assert y.dtype == np.float32
    np.testing.assert_allclose(to_nchw(y), tap_conv2d_forward(x, tap), rtol=1e-5,
                               atol=1e-5)
    gy = to_nchw(rng.standard_normal(y.shape).astype(np.float32))
    np.testing.assert_allclose(adjoint_nchw(gy, pw, (9, 9)),
                               tap_conv2d_transpose(gy, tap, (9, 9)),
                               rtol=1e-5, atol=1e-5)
    gw = conv2d_weight_grad(to_chnw(x), to_chnw(gy), pw)
    assert gw.shape == w1.shape and gw.dtype == np.float32
    np.testing.assert_allclose(gw[:, :, 0, 0], tap_conv2d_weight_grad(x, gy, tap)[:, :, 1, 1],
                               rtol=1e-4, atol=1e-4)


# (kernel, stride, dilation) of stacked depthwise convs, as power iteration
# runs them: one image, one input channel per group, DARTS padding.
STACKED_DEPTHWISE_CASES = [(k, s, d) for k in (3, 5) for s in (1, 2) for d in (1, 2)]


def matmul_operands(call) -> list[tuple[np.ndarray, np.ndarray]]:
    """Run ``call()`` and return the operands of every ``np.matmul`` it made."""
    seen = []
    matmul = np.matmul

    def recording(a, b, *args, **kwargs):
        seen.append((a, b))
        return matmul(a, b, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "matmul", recording)
        call()
    return seen


@pytest.mark.parametrize("case", STACKED_DEPTHWISE_CASES)
def test_batch_one_depthwise_rows_are_views_and_match_oracles(case):
    k, s, d = case
    rng = np.random.default_rng(k * 100 + s * 10 + d)
    c, (h, w) = 6, (11, 8)
    spec = ConvSpec(c, c, k, k, stride=s, padding=d * (k - 1) // 2, dilation=d,
                    groups=c, weight=rng.standard_normal((c, 1, k, k)))
    ho, wo = spec.out_hw(h, w)
    x = rng.standard_normal((c, h, 1, w))
    gy = rng.standard_normal((c, ho, 1, wo))
    m = materialize_conv_matrix(spec, (h, w))
    np.testing.assert_allclose(conv2d_forward(x, spec).reshape(-1), m @ x.reshape(-1),
                               atol=1e-10)
    np.testing.assert_allclose(
        conv2d_transpose_forward(gy, spec, input_hw=(h, w)).reshape(-1),
        m.T @ gy.reshape(-1), atol=1e-10)
    gw = conv2d_weight_grad(x, gy, spec)
    for idx in np.ndindex(spec.weight.shape):
        num = central_difference(
            lambda: float((conv2d_forward(x, spec) * gy).sum()), spec.weight, idx, 0.5)
        assert abs(gw[idx] - num) < 1e-10 * max(1.0, abs(num))

    # At batch 64, every kernel-row operand is a view of its input: the
    # cotangent's rows always, the input's rows at stride 1.
    x = rng.standard_normal((c, h, 64, w))
    gy = rng.standard_normal((c, ho, 64, wo))
    forward = matmul_operands(lambda: conv2d_forward(x, spec))
    adjoint = matmul_operands(lambda: conv2d_transpose_forward(gy, spec, input_hw=(h, w)))
    wgrad = matmul_operands(lambda: conv2d_weight_grad(x, gy, spec))
    assert len(forward) == len(adjoint) == len(wgrad) == k
    assert all(np.shares_memory(rows, gy) for rows, _ in adjoint)
    assert all(np.shares_memory(rows, gy) for _, rows in wgrad)
    if s == 1:
        assert all(np.shares_memory(rows, x) for rows, _ in forward + wgrad)


def test_prebuilt_band_must_fit_the_input():
    rng = np.random.default_rng(3)
    spec = ConvSpec(4, 4, 3, 3, padding=1, groups=4,
                    weight=rng.standard_normal((4, 1, 3, 3)))
    band = conv_bands(spec, (6, 8), np.float64)
    x = rng.standard_normal((4, 6, 1, 8))
    y = rng.standard_normal((4, 6, 1, 8))
    np.testing.assert_array_equal(conv2d_forward(x, spec, band=band),
                                  conv2d_forward(x, spec))
    np.testing.assert_array_equal(
        conv2d_transpose_forward(y, spec, input_hw=(6, 8), band=band),
        conv2d_transpose_forward(y, spec, input_hw=(6, 8)))
    with pytest.raises(DimensionError):
        conv2d_forward(rng.standard_normal((4, 6, 1, 9)), spec, band=band)
    with pytest.raises(DimensionError):
        conv2d_forward(x.astype(np.float32), spec, band=band)
