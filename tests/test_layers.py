"""Batchnorm, linear/classifier, and cross-entropy behavior."""

import numpy as np
import pytest

from msrnas import autodiff as ad
from msrnas.autodiff import Tensor
from msrnas.errors import DimensionError
from msrnas.layers import (
    BatchNorm2d,
    Conv2d,
    Linear,
    Module,
    cross_entropy,
    global_avg_pool,
)

from conftest import central_difference, relative_error, to_chnw, to_nchw


def test_batchnorm_constant_input_returns_beta(rng):
    bn = BatchNorm2d(3, dtype=np.float64)
    bn.beta.data[:] = [1.0, -2.0, 0.5]
    x = np.ones((3, 5, 4, 5)) * np.array([3.0, -1.0, 7.0]).reshape(3, 1, 1, 1)
    out = bn(Tensor(x))
    for c, b in enumerate([1.0, -2.0, 0.5]):
        np.testing.assert_allclose(out.data[c], b, atol=1e-3)


def test_batchnorm_identity_on_standardized_batch(rng):
    bn = BatchNorm2d(2, dtype=np.float64)
    x = rng.standard_normal((64, 2, 8, 8))
    x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
    out = bn(Tensor(to_chnw(x)))
    np.testing.assert_allclose(to_nchw(out.data), x, atol=1e-4)


def test_batchnorm_output_statistics(rng):
    bn = BatchNorm2d(3, dtype=np.float64)
    bn.gamma.data[:] = [2.0, 0.5, 1.5]
    bn.beta.data[:] = [1.0, -1.0, 0.0]
    x = rng.standard_normal((32, 3, 6, 6)) * 4.0 + 2.0
    out = to_nchw(bn(Tensor(to_chnw(x))).data)
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), bn.beta.data, atol=1e-3)
    np.testing.assert_allclose(out.std(axis=(0, 2, 3)), np.abs(bn.gamma.data), atol=1e-3)


def test_batchnorm_running_stats_track_batches(rng):
    bn = BatchNorm2d(2, dtype=np.float64)
    x = rng.standard_normal((16, 2, 4, 4)) + 3.0
    bn(Tensor(to_chnw(x)))
    # Momentum 0.1: the running stats move a tenth of the way to the batch's.
    np.testing.assert_allclose(bn.running_mean, 0.1 * x.mean(axis=(0, 2, 3)), rtol=1e-12)
    np.testing.assert_allclose(bn.running_var, 0.9 + 0.1 * x.var(axis=(0, 2, 3)),
                               rtol=1e-12)
    bn.eval()
    before = bn.running_mean.copy()
    bn(Tensor(to_chnw(x)))
    np.testing.assert_array_equal(bn.running_mean, before)


def test_batchnorm_eval_uses_running_stats(rng):
    bn = BatchNorm2d(2, dtype=np.float64)
    x = rng.standard_normal((32, 2, 4, 4)) * 2.0 + 1.0
    bn(Tensor(to_chnw(x)))
    bn.eval()
    out = to_nchw(bn(Tensor(to_chnw(x))).data)
    mean = 0.1 * x.mean(axis=(0, 2, 3), keepdims=True)
    var = 0.9 + 0.1 * x.var(axis=(0, 2, 3), keepdims=True)
    expected = (x - mean) / np.sqrt(var + 1e-5)
    np.testing.assert_allclose(out, expected, atol=1e-6)


def test_batchnorm_channel_mismatch(rng):
    bn = BatchNorm2d(3)
    with pytest.raises(DimensionError):
        bn(Tensor(rng.standard_normal((4, 3, 2, 3))))


def composite_batchnorm(bn: BatchNorm2d, x: Tensor) -> Tensor:
    """BatchNorm built from elementary graph ops, as the layer once was.

    The reference for the layer's one-node forward and closed-form backward;
    it reads the running statistics but does not update them.
    """
    shape = (bn.channels, 1, 1, 1)
    if bn.training:
        mu = ad.mean(x, axis=(1, 2, 3), keepdims=True)
        centered = x - mu
        var = ad.mean(centered * centered, axis=(1, 2, 3), keepdims=True)
    else:
        mu = Tensor(bn.running_mean.reshape(shape))
        var = Tensor(bn.running_var.reshape(shape))
        centered = x - mu
    inv_std = (var + bn.eps) ** -0.5
    return centered * inv_std * ad.reshape(bn.gamma, shape) + ad.reshape(bn.beta, shape)


def _batchnorm_with_state(rng, training: bool, dtype=np.float64):
    bn = BatchNorm2d(3, dtype=dtype)
    bn.gamma.data[:] = rng.standard_normal(3)
    bn.beta.data[:] = rng.standard_normal(3)
    bn.running_mean[:] = rng.standard_normal(3)
    bn.running_var[:] = rng.uniform(0.5, 2.0, 3)
    if not training:
        bn.eval()
    return bn


def _fd_check_batchnorm(bn: BatchNorm2d, rng) -> None:
    x = Tensor(rng.standard_normal((bn.channels, 3, 6, 3)), requires_grad=True)
    weights = rng.standard_normal((bn.channels, 3, 6, 3))

    def loss():
        return (bn(x) * weights).sum()

    out = loss()
    out.backward()
    for t in (x, bn.gamma, bn.beta):
        g = t.grad
        flat = t.data.reshape(-1)
        for c in rng.choice(flat.size, size=min(5, flat.size), replace=False):
            idx = np.unravel_index(c, t.data.shape)
            num = central_difference(lambda: float(loss().data), t.data, idx, 1e-6)
            assert relative_error(g[idx], num) < 1e-5


def test_batchnorm_gradients_finite_difference(rng):
    _fd_check_batchnorm(BatchNorm2d(2, dtype=np.float64), rng)


def test_batchnorm_eval_gradients_finite_difference(rng):
    _fd_check_batchnorm(_batchnorm_with_state(rng, training=False), rng)


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
def test_batchnorm_node_matches_composite_graph(rng, training, dtype, tol):
    bn = _batchnorm_with_state(rng, training, dtype)
    x = (rng.standard_normal((3, 5, 4, 5)) * 2.0 + 1.0).astype(dtype)
    weights = rng.standard_normal((3, 5, 4, 5)).astype(dtype)
    params = (bn.gamma, bn.beta)

    def run(forward):
        for p in params:
            p.zero_grad()
        xt = Tensor(x.copy(), requires_grad=True)
        out = forward(xt)
        (out * weights).sum().backward()
        return out.data, [xt.grad] + [p.grad for p in params]

    ref_out, ref_grads = run(lambda xt: composite_batchnorm(bn, xt))
    out, grads = run(bn)
    np.testing.assert_array_equal(out, ref_out)
    for g, ref in zip(grads, ref_grads):
        np.testing.assert_allclose(g, ref, rtol=0, atol=tol * np.abs(ref).max())


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((4, 10)))
    loss = cross_entropy(logits, np.zeros(4, dtype=np.int64))
    assert float(loss.data) == pytest.approx(np.log(10.0))


def test_cross_entropy_matches_manual(rng):
    logits_arr = rng.standard_normal((5, 3))
    labels = np.array([0, 2, 1, 1, 0])
    loss = cross_entropy(Tensor(logits_arr), labels)
    shifted = logits_arr - logits_arr.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    expected = -logp[np.arange(5), labels].mean()
    assert float(loss.data) == pytest.approx(expected, rel=1e-12)


def test_cross_entropy_gradient_is_softmax_minus_onehot(rng):
    logits = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    labels = np.array([1, 0, 5, 2])
    cross_entropy(logits, labels).backward()
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    softmax = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    onehot = np.zeros_like(softmax)
    onehot[np.arange(4), labels] = 1.0
    np.testing.assert_allclose(logits.grad, (softmax - onehot) / 4.0, atol=1e-12)


def test_cross_entropy_stable_for_large_logits():
    logits = Tensor(np.array([[1000.0, 0.0], [-1000.0, 0.0]]), requires_grad=True)
    loss = cross_entropy(logits, np.array([1, 1]))
    # Row 0 puts all its mass on the wrong class (loss 1000), row 1 on the
    # right one (loss e^-1000, i.e. 0).
    assert float(loss.data) == 500.0
    loss.backward()
    assert np.isfinite(logits.grad).all()
    np.testing.assert_array_equal(logits.grad, [[0.5, -0.5], [0.0, 0.0]])


def test_cross_entropy_is_one_node_with_float32_gradient(rng):
    z = 3.0 * rng.standard_normal((6, 5))
    labels = np.array([0, 4, 2, 2, 1, 3])
    logits = Tensor(z.astype(np.float32), requires_grad=True)
    loss = cross_entropy(logits, labels)
    assert loss._node.parents == (logits._node,)
    loss.backward()
    softmax = np.exp(z - z.max(axis=1, keepdims=True))
    softmax /= softmax.sum(axis=1, keepdims=True)
    expected = (softmax - np.eye(5)[labels]) / 6.0
    assert logits.grad.dtype == np.float32
    np.testing.assert_allclose(logits.grad, expected, rtol=0, atol=1e-6)


def test_cross_entropy_shape_errors():
    logits = Tensor(np.zeros((3, 4)))
    with pytest.raises(DimensionError):
        cross_entropy(logits, np.zeros(2, dtype=np.int64))
    with pytest.raises(DimensionError):
        cross_entropy(Tensor(np.zeros(4)), np.zeros(4, dtype=np.int64))


def test_global_avg_pool(rng):
    x = rng.standard_normal((2, 3, 4, 5))
    np.testing.assert_allclose(
        global_avg_pool(Tensor(to_chnw(x))).data, x.mean(axis=(2, 3)), atol=1e-12
    )


def test_linear_forward(rng):
    lin = Linear(4, 3, rng=rng, dtype=np.float64)
    x = rng.standard_normal((5, 4))
    np.testing.assert_allclose(
        lin(Tensor(x)).data, x @ lin.weight.data + lin.bias.data, atol=1e-12
    )


def test_parameters_collection(rng):
    class Small(Module):
        def __init__(self):
            super().__init__()
            self.conv = Conv2d(2, 2, 3, padding=1, in_hw=(4, 4), rng=rng,
                               dtype=np.float64)
            self.bn = BatchNorm2d(2, dtype=np.float64)

        def forward(self, x):
            return self.bn(self.conv(x))

    net = Small()
    params = net.parameters()
    named = dict(net.named_parameters())
    assert set(named) == {"conv.weight", "bn.gamma", "bn.beta"}
    assert [id(p) for p in params] == [id(p) for p in named.values()]
    for p in params:
        p.grad = np.ones_like(p.data)
        p.zero_grad()
        assert p.grad is None
        assert p.momentum.shape == p.data.shape
        assert not p.momentum.any()


def test_conv2d_spec_aliases_parameter(rng):
    conv = Conv2d(2, 3, 3, in_hw=(4, 4), rng=rng, dtype=np.float64)
    assert conv.spec.weight is conv.weight.data
    conv.weight.data *= 2.0
    assert conv.spec.weight is conv.weight.data
