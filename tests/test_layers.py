"""Batchnorm (fused with the convs that feed it), linear/classifier, and
cross-entropy behavior."""

import numpy as np
import pytest

from msrnas import autodiff as ad
from msrnas import layers
from msrnas.autodiff import Tensor, _make, _node
from msrnas.errors import DimensionError, NumericsError, StateError
from msrnas.layers import (
    BatchNorm2d,
    Conv2d,
    Linear,
    Module,
    cross_entropy,
    global_avg_pool,
)
from msrnas.operators import DilConv, FactorizedReduce, ReLUConvBN, SepConv
from msrnas.supernet import Stem

from conftest import (
    assert_same_bits,
    broadcast_add,
    central_difference,
    conv2d,
    matmul,
    mul,
    power,
    relative_error,
    reshape,
    shift_by_padding,
    sub,
    to_chnw,
    to_nchw,
    weighted_sum,
)


def identity_conv(channels: int, dtype=np.float64) -> Conv2d:
    """A 1x1 conv whose output is its input, bit for bit, to feed a
    BatchNorm2d a given activation."""
    conv = Conv2d(channels, channels, 1, in_hw=(1, 1), rng=np.random.default_rng(0),
                  dtype=dtype)
    conv.weight.data[...] = np.eye(channels, dtype=dtype).reshape(conv.weight.data.shape)
    return conv


def normalize(bn: BatchNorm2d, x: np.ndarray) -> Tensor:
    """``bn`` over the (C, H, N, W) array ``x``, through an identity conv,
    recording no graph (as an eval-mode BatchNorm must)."""
    with ad.no_grad():
        return bn(((identity_conv(x.shape[0], x.dtype),), Tensor(x)))


def test_batchnorm_constant_input_returns_beta(rng):
    bn = BatchNorm2d(3, dtype=np.float64)
    bn.beta.data[:] = [1.0, -2.0, 0.5]
    x = np.ones((3, 5, 4, 5)) * np.array([3.0, -1.0, 7.0]).reshape(3, 1, 1, 1)
    out = normalize(bn, x)
    for c, b in enumerate([1.0, -2.0, 0.5]):
        np.testing.assert_allclose(out.data[c], b, atol=1e-3)


def test_batchnorm_identity_on_standardized_batch(rng):
    bn = BatchNorm2d(2, dtype=np.float64)
    x = rng.standard_normal((64, 2, 8, 8))
    x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
    out = normalize(bn, to_chnw(x))
    np.testing.assert_allclose(to_nchw(out.data), x, atol=1e-4)


def test_batchnorm_output_statistics(rng):
    bn = BatchNorm2d(3, dtype=np.float64)
    bn.gamma.data[:] = [2.0, 0.5, 1.5]
    bn.beta.data[:] = [1.0, -1.0, 0.0]
    x = rng.standard_normal((32, 3, 6, 6)) * 4.0 + 2.0
    out = to_nchw(normalize(bn, to_chnw(x)).data)
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), bn.beta.data, atol=1e-3)
    np.testing.assert_allclose(out.std(axis=(0, 2, 3)), np.abs(bn.gamma.data), atol=1e-3)


def test_batchnorm_running_stats_track_batches(rng):
    bn = BatchNorm2d(2, dtype=np.float64)
    x = rng.standard_normal((16, 2, 4, 4)) + 3.0
    normalize(bn, to_chnw(x))
    # Momentum 0.1: the running stats move a tenth of the way to the batch's.
    np.testing.assert_allclose(bn.running_mean, 0.1 * x.mean(axis=(0, 2, 3)), rtol=1e-12)
    np.testing.assert_allclose(bn.running_var, 0.9 + 0.1 * x.var(axis=(0, 2, 3)),
                               rtol=1e-12)
    bn.eval()
    before = bn.running_mean.copy()
    normalize(bn, to_chnw(x))
    np.testing.assert_array_equal(bn.running_mean, before)


def test_batchnorm_eval_uses_running_stats(rng):
    bn = BatchNorm2d(2, dtype=np.float64)
    x = rng.standard_normal((32, 2, 4, 4)) * 2.0 + 1.0
    normalize(bn, to_chnw(x))
    bn.eval()
    out = to_nchw(normalize(bn, to_chnw(x)).data)
    mean = 0.1 * x.mean(axis=(0, 2, 3), keepdims=True)
    var = 0.9 + 0.1 * x.var(axis=(0, 2, 3), keepdims=True)
    expected = (x - mean) / np.sqrt(var + 1e-5)
    np.testing.assert_allclose(out, expected, atol=1e-6)


def test_batchnorm_channel_mismatch(rng):
    bn = BatchNorm2d(3)
    with pytest.raises(DimensionError):
        normalize(bn, rng.standard_normal((4, 3, 2, 3)).astype(np.float32))


def test_batchnorm_names_the_non_finite_conv(rng, monkeypatch):
    fr = FactorizedReduce(3, 5, (6, 6), rng=rng, dtype=np.float64)
    fr.assign_paths("fr")
    fr.conv_b.weight.data[0, 0] = np.inf
    x = Tensor(rng.standard_normal((3, 6, 2, 6)))
    # As in the training loop, numpy's warnings on inf and nan are off.
    with np.errstate(invalid="ignore", over="ignore"):
        assert not np.isfinite(fr(x).data).all()  # unchecked: passes through
        monkeypatch.setattr(layers, "check_finite", True)
        with pytest.raises(NumericsError, match="^non-finite output in fr.conv_b$"):
            fr(x)


def test_batchnorm_names_the_non_finite_depthwise_conv(rng, monkeypatch):
    # The depthwise conv is never called as a module; its BatchNorm node
    # checks its output before the pointwise conv reads it.
    op = SepConv("sep3", 3, 3, 1, (6, 6), rng=rng, dtype=np.float64)
    op.assign_paths("cell0.edge_0_2.op_sep3")
    op.dw1.weight.data[1, 0, 1, 1] = np.nan
    x = Tensor(rng.standard_normal((3, 6, 2, 6)))
    with np.errstate(invalid="ignore", over="ignore"):
        assert not np.isfinite(op(x).data).all()
        monkeypatch.setattr(layers, "check_finite", True)
        with pytest.raises(NumericsError,
                           match=r"^non-finite output in cell0\.edge_0_2\.op_sep3\.dw1$"):
            op(x)


def test_batchnorm_names_the_non_finite_inner_batchnorm(rng, monkeypatch):
    # SepConv's first BatchNorm is an inner stage of the second's node, not
    # a module call; the node checks the stage's output before dw2 reads it.
    op = SepConv("sep3", 3, 3, 1, (6, 6), rng=rng, dtype=np.float64)
    op.assign_paths("cell0.edge_0_2.op_sep3")
    op.bn1.gamma.data[1] = np.inf
    x = Tensor(rng.standard_normal((3, 6, 2, 6)))
    with np.errstate(invalid="ignore", over="ignore"):
        assert not np.isfinite(op(x).data).all()
        monkeypatch.setattr(layers, "check_finite", True)
        with pytest.raises(NumericsError,
                           match=r"^non-finite output in cell0\.edge_0_2\.op_sep3\.bn1$"):
            op(x)


# The fused node against references -----------------------------------------
# Each kind is a module whose forward is BatchNorm2d nodes fed by convs: a
# 1x1 conv, the stem's dense 3x3, FactorizedReduce's two stride-2 1x1 convs
# (the second on the shifted grid), concatenated, DilConv's depthwise and
# pointwise chain, and SepConv's two such chains with a ReLU between.
KINDS = ("pw", "stem", "fr", "sep", "dil")
IN_HW = (6, 6)


def fed_batchnorm(kind: str, rng, training: bool, dtype=np.float64) -> Module:
    """A module of the given kind with random BN affine and running stats."""
    if kind == "pw":
        module = ReLUConvBN(3, 4, IN_HW, rng=rng, dtype=dtype)
    elif kind == "stem":
        module = Stem(4, IN_HW, rng=rng, dtype=dtype)
    elif kind == "fr":
        module = FactorizedReduce(3, 5, IN_HW, rng=rng, dtype=dtype)
    elif kind == "sep":
        module = SepConv("sep5", 3, 5, 2, IN_HW, rng=rng, dtype=dtype)
    else:
        module = DilConv("dil3", 3, 3, 1, IN_HW, rng=rng, dtype=dtype)
    for bn in module.modules():
        if isinstance(bn, BatchNorm2d):
            bn.gamma.data[:] = rng.standard_normal(bn.channels)
            bn.beta.data[:] = rng.standard_normal(bn.channels)
            bn.running_mean[:] = rng.standard_normal(bn.channels)
            bn.running_var[:] = rng.uniform(0.5, 2.0, bn.channels)
    if not training:
        module.eval()
    return module


def chain(convs, x: Tensor) -> Tensor:
    """``convs`` applied in order, each as its own ``conv2d`` graph op."""
    for conv in convs:
        x = conv2d(x, conv.weight, conv.spec)
    return x


def unfused(module: Module, x: Tensor, batchnorm) -> Tensor:
    """The module's convs as ``conv2d`` graph ops (concatenated for
    FactorizedReduce), each BatchNorm as ``batchnorm(bn, conv output)``."""
    if isinstance(module, FactorizedReduce):
        # Pad, then slice: the composite of the module's shift op.
        z = ad.concat([chain((module.conv_a,), x),
                       chain((module.conv_b,), shift_by_padding(x))], axis=0)
    elif isinstance(module, SepConv):
        out = batchnorm(module.bn1, chain((module.dw1, module.pw1), x))
        return batchnorm(module.bn2, chain((module.dw2, module.pw2), ad.relu(out)))
    elif isinstance(module, DilConv):
        z = chain((module.dw, module.pw), x)
    else:
        z = chain((module.conv,), x)
    return batchnorm(module.bn, z)


def composite_batchnorm(bn: BatchNorm2d, x: Tensor) -> Tensor:
    """BatchNorm built from elementary graph ops, as the layer once was.

    The reference for the layer's forward and closed-form backward; it reads
    the running statistics but does not update them.
    """
    shape = (bn.channels, 1, 1, 1)
    if bn.training:
        mu = ad.mean(x, axis=(1, 2, 3), keepdims=True)
        centered = sub(x, mu)
        var = ad.mean(mul(centered, centered), axis=(1, 2, 3), keepdims=True)
    else:
        mu = Tensor(bn.running_mean.reshape(shape))
        var = Tensor(bn.running_var.reshape(shape))
        centered = sub(x, mu)
    inv_std = power(broadcast_add(var, bn.eps), -0.5)
    return broadcast_add(mul(mul(centered, inv_std), reshape(bn.gamma, shape)),
                         reshape(bn.beta, shape))


def closed_form_batchnorm(bn: BatchNorm2d, x: Tensor) -> Tensor:
    """BatchNorm as one closed-form node over a given input, saving x̂, as
    the layer was before it took in its convs: the reference for the fused
    node's bits. It reads the running statistics but does not update them;
    its backward is the training-mode one, as the layer's is."""
    shape = (bn.channels, 1, 1, 1)
    if bn.training:
        mu = x.data.mean(axis=(1, 2, 3), keepdims=True)
        xhat = x.data - mu
        var = (xhat * xhat).mean(axis=(1, 2, 3), keepdims=True)
    else:
        xhat = x.data - bn.running_mean.reshape(shape)
        var = bn.running_var.reshape(shape)
    inv_std = (var + bn.eps) ** -0.5
    xhat *= inv_std
    gamma = bn.gamma.data.reshape(shape)
    count = x.data.size // bn.channels
    nx, ngamma, nbeta = _node(x), _node(bn.gamma), _node(bn.beta)

    def bw(g):
        gsum = g.sum(axis=(1, 2, 3), keepdims=True)
        gxsum = (g * xhat).sum(axis=(1, 2, 3), keepdims=True)
        nbeta.accumulate(gsum.reshape(-1), own=True)
        ngamma.accumulate(gxsum.reshape(-1), own=True)
        gx = (xhat * (gxsum / -count) + g - gsum / count) * (inv_std * gamma)
        nx.accumulate(gx, own=True)

    return _make(xhat * gamma + bn.beta.data.reshape(shape), (nx, ngamma, nbeta), bw)


def run_with_grads(module: Module, forward, x: np.ndarray, weights: np.ndarray):
    """``forward(xt)`` for a fresh input tensor, then the backward of its
    weighted sum: the output and the gradients of x and of every parameter
    (conv weights, γ and β). An eval-mode module records no graph: its
    forward runs under ``no_grad`` and the list of gradients is empty."""
    if not module.training:
        with ad.no_grad():
            return forward(Tensor(x.copy())).data, []
    params = module.parameters()
    for p in params:
        p.zero_grad()
    xt = Tensor(x.copy(), requires_grad=True)
    out = forward(xt)
    weighted_sum(out, weights).backward()
    return out.data, [xt.grad] + [p.grad for p in params]


def _inputs(rng, module: Module, dtype):
    x = (rng.standard_normal((3, IN_HW[0], 4, IN_HW[1])) * 2.0 + 1.0).astype(dtype)
    with ad.no_grad():
        out_shape = module(Tensor(x)).data.shape
    return x, rng.standard_normal(out_shape).astype(dtype)


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
def test_batchnorm_node_matches_composite_graph(rng, training, dtype, tol):
    for kind in KINDS:
        module = fed_batchnorm(kind, rng, training, dtype)
        x, weights = _inputs(rng, module, dtype)
        ref_out, ref_grads = run_with_grads(
            module, lambda xt: unfused(module, xt, composite_batchnorm), x, weights)
        out, grads = run_with_grads(module, module, x, weights)
        np.testing.assert_array_equal(out, ref_out, err_msg=kind)
        for g, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(g, ref, rtol=0, atol=tol * np.abs(ref).max(),
                                       err_msg=kind)


def _assert_bit_identical_to_unfused(rng, kind: str, training: bool, dtype) -> None:
    module = fed_batchnorm(kind, rng, training, dtype)
    x, weights = _inputs(rng, module, dtype)
    ref_out, ref_grads = run_with_grads(
        module, lambda xt: unfused(module, xt, closed_form_batchnorm), x, weights)
    out, grads = run_with_grads(module, module, x, weights)
    np.testing.assert_array_equal(out, ref_out)
    for g, ref in zip(grads, ref_grads):
        assert g.dtype == dtype
        np.testing.assert_array_equal(g, ref)


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("kind", KINDS)
def test_fused_batchnorm_is_bit_identical_to_conv_then_batchnorm(rng, kind, training):
    _assert_bit_identical_to_unfused(rng, kind, training, np.float32)


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("kind", ["sep", "dil"])
def test_conv_chain_node_is_bit_identical_to_unfused_float64(rng, kind, training):
    # The depthwise conv runs inside the node: recomputed in the backward
    # from the chain's input, with one band for its forward and adjoint.
    _assert_bit_identical_to_unfused(rng, kind, training, np.float64)


def _fd_check_fused(kind: str, rng) -> None:
    module = fed_batchnorm(kind, rng, training=True)
    x = Tensor(rng.standard_normal((3, IN_HW[0], 3, IN_HW[1])), requires_grad=True)
    weights = rng.standard_normal(module(x).data.shape)

    def loss():
        return weighted_sum(module(x), weights)

    loss().backward()
    for t in [x] + module.parameters():
        g = t.grad
        flat = t.data.reshape(-1)
        for c in rng.choice(flat.size, size=min(5, flat.size), replace=False):
            idx = np.unravel_index(c, t.data.shape)
            num = central_difference(lambda: float(loss().data), t.data, idx, 1e-6)
            assert relative_error(g[idx], num) < 1e-5, (kind, idx)


def test_batchnorm_gradients_finite_difference(rng):
    for kind in KINDS:
        _fd_check_fused(kind, rng)


def test_eval_mode_batchnorm_with_gradients_enabled_names_itself(rng):
    # Eval mode has no backward: outside no_grad it is refused, not run
    # with a graph that would carry the training-mode gradient.
    bn = BatchNorm2d(2, dtype=np.float64)
    bn.assign_paths("cell1.edge_0_2.op_dil3.bn")
    bn.eval()
    x = Tensor(rng.standard_normal((2, 3, 4, 3)))
    with pytest.raises(StateError, match=r"cell1\.edge_0_2\.op_dil3\.bn\b"):
        bn(((identity_conv(2),), x))
    np.testing.assert_array_equal(bn.running_mean, np.zeros(2))
    np.testing.assert_array_equal(bn.running_var, np.ones(2))
    with ad.no_grad():
        assert bn(((identity_conv(2),), x)).data.shape == x.data.shape


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


def _linear_with_grads(lin: Linear, forward, x: np.ndarray, weights: np.ndarray):
    """``forward(xt)`` and the gradients of x, W and b under the loss
    ``sum(out * weights)``."""
    lin.weight.zero_grad()
    lin.bias.zero_grad()
    xt = Tensor(x.copy(), requires_grad=True)
    out = forward(xt)
    weighted_sum(out, weights).backward()
    return [out.data, xt.grad, lin.weight.grad, lin.bias.grad]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_node_is_bit_identical_to_matmul_plus_bias(rng, dtype):
    lin = Linear(6, 4, rng=rng, dtype=dtype)
    lin.bias.data[:] = rng.standard_normal(4)
    x = rng.standard_normal((5, 6)).astype(dtype)
    weights = rng.standard_normal((5, 4)).astype(dtype)
    got = _linear_with_grads(lin, lin, x, weights)
    want = _linear_with_grads(
        lin, lambda xt: broadcast_add(matmul(xt, lin.weight), lin.bias), x, weights)
    for g, ref in zip(got, want):
        assert_same_bits(g, ref)
    xt = Tensor(x)
    out = lin(xt)
    assert out._node.parents == (lin.weight._node, lin.bias._node)


def test_linear_gradients_finite_difference(rng):
    lin = Linear(5, 3, rng=rng, dtype=np.float64)
    lin.bias.data[:] = rng.standard_normal(3)
    x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    weights = rng.standard_normal((4, 3))

    def loss():
        return weighted_sum(lin(x), weights)

    loss().backward()
    for t in (x, lin.weight, lin.bias):
        for c in rng.choice(t.data.size, size=min(6, t.data.size), replace=False):
            idx = np.unravel_index(c, t.data.shape)
            num = central_difference(lambda: float(loss().data), t.data, idx, 1e-6)
            assert relative_error(t.grad[idx], num) < 1e-7, idx


def test_parameters_collection(rng):
    class Small(Module):
        def __init__(self):
            super().__init__()
            self.conv = Conv2d(2, 2, 3, padding=1, in_hw=(4, 4), rng=rng,
                               dtype=np.float64)
            self.bn = BatchNorm2d(2, dtype=np.float64)

        def forward(self, x):
            return self.bn(((self.conv,), x))

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
