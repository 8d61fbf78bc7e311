"""Gradient, semantics and graph-lifetime checks for the autodiff engine,
and for the test-only ops (conftest) that build its losses and references."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from msrnas import autodiff as ad
from msrnas import convolution
from msrnas.autodiff import Tensor
from msrnas.errors import DimensionError, StateError
from msrnas.layers import BatchNorm2d, Conv2d, cross_entropy
from msrnas.spectral import SpectralConfig
from msrnas.supernet import SupernetConfig, build_supernet

from conftest import (
    assert_same_bits,
    broadcast_add,
    central_difference,
    matmul,
    mul,
    pad2d,
    power,
    relative_error,
    shift_by_padding,
    slice_,
    sum_,
    weighted_sum,
)


def fd_check(build_loss, arrays, rng, n_coords=6, h=1e-6, tol=1e-6):
    """Compare analytic gradients of build_loss() against central differences."""
    loss = build_loss()
    loss.backward()
    grads = [t.grad.copy() for t in arrays]
    for t, g in zip(arrays, grads):
        flat = t.data.reshape(-1)
        coords = rng.choice(flat.size, size=min(n_coords, flat.size), replace=False)
        for c in coords:
            idx = np.unravel_index(c, t.data.shape)
            num = central_difference(lambda: float(build_loss().data), t.data, idx, h)
            assert relative_error(g[idx], num) < tol, (
                f"gradient mismatch at {idx}: analytic {g[idx]}, numeric {num}"
            )


def test_relu_values():
    out = ad.relu(Tensor(np.array([-1.0, 0.0, 2.0])))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_nonnegative_passthrough(rng):
    x = np.abs(rng.standard_normal((3, 4)))
    out = ad.relu(Tensor(x))
    np.testing.assert_array_equal(out.data, x)


def test_relu_gradient_mask_by_finite_differences(rng):
    x = Tensor(rng.standard_normal(40), requires_grad=True)
    # Keep probes away from the kink where central differences are invalid.
    x.data[np.abs(x.data) < 1e-3] += 0.1
    weights = rng.standard_normal(40)
    fd_check(lambda: weighted_sum(ad.relu(x), weights), [x], rng)
    loss = sum_(ad.relu(x))
    x.zero_grad()
    loss.backward()
    np.testing.assert_array_equal(x.grad, (x.data > 0).astype(x.data.dtype))


def test_sum_of_params_gradient_is_one(rng):
    x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    sum_(x).backward()
    np.testing.assert_array_equal(x.grad, np.ones_like(x.data))


def test_zero_times_function_gradient_is_zero(rng):
    x = Tensor(rng.standard_normal(7), requires_grad=True)
    loss = mul(sum_(mul(ad.relu(x), x)), 0.0)
    loss.backward()
    np.testing.assert_array_equal(x.grad, np.zeros_like(x.data))


def test_backward_requires_scalar(rng):
    x = Tensor(rng.standard_normal(3), requires_grad=True)
    with pytest.raises(StateError):
        ad.relu(x).backward()


def test_backward_without_graph_raises():
    with pytest.raises(StateError):
        Tensor(np.array(1.0)).backward()


def test_broadcast_add_mul_gradients(rng):
    a = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((1, 3)), requires_grad=True)
    fd_check(lambda: sum_(mul(broadcast_add(a, b), mul(a, b))), [a, b], rng)


def test_matmul_gradients(rng):
    a = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    fd_check(lambda: sum_(power(matmul(a, b), 2.0)), [a, b], rng)


def test_mean_reduction_gradients(rng):
    x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
    fd_check(lambda: sum_(power(ad.mean(x, axis=(0, 2, 3), keepdims=True), 2.0)),
             [x], rng)


def test_concat_and_slice_gradients(rng):
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 2)), requires_grad=True)

    weights = rng.standard_normal((2, 3))

    def loss():
        cat = ad.concat([a, b], axis=1)
        return weighted_sum(slice_(cat, (slice(None), slice(1, 4))), weights)

    fd_check(loss, [a, b], rng)


def test_pad2d_roundtrip_gradient(rng):
    # (C, H, N, W): the spatial axes are 1 and 3.
    x = Tensor(rng.standard_normal((2, 3, 1, 3)), requires_grad=True)
    padded = pad2d(x, (0, 1, 2, 1))
    assert padded.data.shape == (2, 4, 1, 6)
    np.testing.assert_array_equal(padded.data[:, :3, :, 2:5], x.data)
    fd_check(lambda: sum_(power(shift_by_padding(x), 2.0)), [x], rng)


@pytest.mark.parametrize("hw", [(4, 6), (5, 7), (1, 3)], ids=["even", "odd", "one-row"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_shift_up_left_is_bit_identical_to_pad_then_slice(rng, hw, dtype):
    h, w = hw
    data = rng.standard_normal((3, h, 2, w)).astype(dtype)
    weights = rng.standard_normal(data.shape).astype(dtype)
    # A -0.0 cotangent entry reads +0.0 once added into the padded grid.
    weights.reshape(-1)[::5] = -0.0
    results = []
    for shift in (ad.shift_up_left, shift_by_padding):
        x = Tensor(data.copy(), requires_grad=True)
        out = shift(x)
        weighted_sum(out, weights).backward()
        results.append((np.ascontiguousarray(out.data), x.grad))
    (out, grad), (ref_out, ref_grad) = results
    assert_same_bits(out, ref_out)
    assert_same_bits(grad, ref_grad)
    np.testing.assert_array_equal(out[:, :h - 1, :, :w - 1], data[:, 1:, :, 1:])
    assert not out[:, h - 1].any() and not out[..., w - 1].any()


def test_add_refuses_operands_of_different_shapes(rng):
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    for other in (Tensor(rng.standard_normal((1, 3))), Tensor(rng.standard_normal(3)),
                  Tensor(np.array(1.0))):
        with pytest.raises(DimensionError, match="one shape"):
            a + other
    b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    sum_(a + b).backward()
    np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
    np.testing.assert_array_equal(b.grad, np.ones((2, 3)))


def test_transpose_gradient(rng):
    x = Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
    weights = rng.standard_normal((3, 4, 2, 5))
    moved = ad.transpose(x, (1, 2, 0, 3))
    np.testing.assert_array_equal(moved.data, x.data.transpose(1, 2, 0, 3))
    fd_check(lambda: weighted_sum(ad.transpose(x, (1, 2, 0, 3)), weights), [x], rng)
    reversed_ = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    fd_check(lambda: weighted_sum(ad.transpose(reversed_), weights[:2, 0, 0, :3]),
             [reversed_], rng)


def test_gradient_accumulates_over_reuse(rng):
    x = Tensor(rng.standard_normal(4), requires_grad=True)
    loss = sum_(mul(x, x)) + mul(sum_(x), 2.0)
    loss.backward()
    np.testing.assert_allclose(x.grad, 2.0 * x.data + 2.0, rtol=1e-12)


def test_no_grad_suppresses_graph(rng):
    x = Tensor(rng.standard_normal(4), requires_grad=True)
    with ad.no_grad():
        out = x + x
    assert not out.requires_grad
    assert out._node is None


def test_deep_graph_backward_does_not_recurse(rng):
    x = Tensor(np.array(1.0), requires_grad=True)
    zero = Tensor(np.array(0.0))
    y = x
    for _ in range(3000):
        y = y + zero
    y.backward()
    assert x.grad == 1.0


# Graph lifetime ------------------------------------------------------------
# tracemalloc counts every numpy buffer allocation, so these bounds are exact
# byte counts of one fixed step, not timings.


@pytest.fixture
def tiny_step():
    """A float32 tiny-config supernet ready for one training step.

    One untraced step runs first, so that numpy's and the conv module's
    one-time caches are filled before any test starts tracing.
    """
    cfg = SupernetConfig(cells=3, nodes=5, initial_channels=4, num_classes=4,
                         input_hw=(10, 10))
    net = build_supernet(cfg, SpectralConfig(), dtype=np.float32, seed=0)
    rng = np.random.default_rng(0)
    images = Tensor(rng.standard_normal((8, 3, 10, 10)).astype(np.float32))
    labels = rng.integers(0, 4, size=8)
    params = net.parameters()
    net.begin_step()
    net.adjust_all()
    cross_entropy(net(images), labels).backward()
    net.begin_step()
    net.adjust_all()
    for p in params:
        p.zero_grad()
    return net, params, images, labels


def test_backward_frees_graph_as_it_runs(tiny_step):
    """The backward peaks within twice what the forward's graph holds and
    keeps nothing but the parameter gradients.

    The factor multiplies the graph (367 KB), which is now not much larger
    than the gradients the backward must allocate (109 KB); the peak reads
    623 KB (1.70×). A backward that kept every gradient it computes peaks at
    2290 KB (6.2×)."""
    net, params, images, labels = tiny_step
    grad_bytes = sum(p.data.nbytes for p in params)
    tracemalloc.start()
    try:
        loss = cross_entropy(net(images), labels)
        held_after_forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
        assert np.abs(net.stem.conv.weight.grad).max() > 0.0
        # The gradients, allocated by this backward, are all it may keep.
        for p in params:
            p.zero_grad()
        held_after_backward = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * held_after_forward
    assert held_after_backward <= grad_bytes


def test_training_step_holds_at_most_1_5_mb_and_peaks_under_2_5_mb():
    """What a 3/5/8/16 float32 supernet's training forward at batch 8 holds
    for its backward (1.32 MB), and the backward's peak (2.17 MB):
    deterministic stand-ins for a peak-RSS bound. The forward held 10.2 MB
    when each BatchNorm kept its x̂ instead of rebuilding it, 6.0 MB while
    the graph kept each depthwise conv's output instead of its BatchNorm
    node rebuilding it, and 2.53 MB (backward peak 3.06 MB) while it kept
    each SepConv's inner ReLU output instead of the SepConv's one node
    rebuilding it."""
    cfg = SupernetConfig(cells=3, nodes=5, initial_channels=8, num_classes=4,
                         input_hw=(16, 16))
    net = build_supernet(cfg, SpectralConfig(), dtype=np.float32, seed=0)
    rng = np.random.default_rng(0)
    images = Tensor(rng.standard_normal((8, 3, 16, 16)).astype(np.float32))
    labels = rng.integers(0, 4, size=8)
    # One untraced step fills the one-time caches, as in ``tiny_step``.
    net.begin_step()
    net.adjust_all()
    cross_entropy(net(images), labels).backward()
    net.begin_step()
    net.adjust_all()
    for p in net.parameters():
        p.zero_grad()
    tracemalloc.start()
    try:
        loss = cross_entropy(net(images), labels)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held <= 1.5e6
    assert peak <= 2.5e6


def test_unconsumed_graph_freed_without_cycle_collector(tiny_step):
    net, _, images, labels = tiny_step
    gc.disable()
    try:
        logits = net(images)
        loss = cross_entropy(logits, labels)
        interior = weakref.ref(logits.data)
        del logits, loss
        assert interior() is None
    finally:
        gc.enable()


def test_forward_frees_activations_backward_does_not_read(tiny_step, monkeypatch):
    net, _, images, labels = tiny_step
    dead, alive, depthwise_outputs = [], [], []
    bn_forward, relu, concat, conv_forward = (
        BatchNorm2d.forward, ad.relu, ad.concat, convolution.conv2d_forward)

    def record_bn(module, *branches):
        # A BatchNorm node keeps its conv chains' inputs, to run the chains
        # again in the backward, and neither their outputs nor its own.
        out = bn_forward(module, *branches)
        dead.append(weakref.ref(out.data))
        alive.extend(weakref.ref(x.data) for _, x in branches)
        return out

    def record_relu(x):
        out = relu(x)
        alive.append(weakref.ref(out.data))
        return out

    def record_concat(tensors, axis=0):
        out = concat(tensors, axis=axis)
        dead.append(weakref.ref(out.data))
        return out

    def record_conv(x, spec, *args, **kwargs):
        # Every conv output, the depthwise ones included, dies in the node.
        out = conv_forward(x, spec, *args, **kwargs)
        dead.append(weakref.ref(out))
        if spec.is_depthwise and not spec.is_pointwise:
            depthwise_outputs.append(dead[-1])
        return out

    monkeypatch.setattr(BatchNorm2d, "forward", record_bn)
    monkeypatch.setattr(ad, "relu", record_relu)
    monkeypatch.setattr(ad, "concat", record_concat)
    monkeypatch.setattr(convolution, "conv2d_forward", record_conv)
    gc.disable()
    try:
        loss = cross_entropy(net(images), labels)
        assert loss.requires_grad
        assert dead and all(ref() is None for ref in dead)
        assert alive and all(ref() is not None for ref in alive)
    finally:
        gc.enable()
    depthwise = [m for m in net.modules() if isinstance(m, Conv2d) and m.spec.groups > 1]
    assert len(depthwise_outputs) == len(depthwise)


def test_second_backward_raises_and_leaves_keep_grad(rng):
    x = Tensor(rng.standard_normal(5), requires_grad=True)
    hidden = mul(ad.relu(x), x)
    loss = sum_(hidden)
    loss.backward()
    np.testing.assert_array_equal(x.grad, 2.0 * np.maximum(x.data, 0.0))
    assert hidden.grad is None and not hidden.requires_grad
    with pytest.raises(StateError):
        loss.backward()
