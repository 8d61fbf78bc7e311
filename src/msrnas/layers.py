"""Layer building blocks: parameters, conv, batchnorm, linear, losses."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import convolution
from .autodiff import Tensor, _make, _node
from .convolution import ConvSpec
from .errors import DimensionError, NumericsError

# When enabled, every Module.__call__ verifies its output is finite; used to
# name the first offending layer after a non-finite loss is detected.
check_finite = False


class Parameter(Tensor):
    """Trainable tensor with a momentum buffer (zeros until the first step)."""

    __slots__ = ("momentum",)

    def __init__(self, data):
        super().__init__(np.asarray(data), requires_grad=True)
        self.momentum = np.zeros_like(self.data)

    def ensure_grad(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)


class Module:
    """Minimal layer container with naming, modes, and parameter walking."""

    def __init__(self):
        self._modules: dict[str, Module] = {}
        self._params: dict[str, Parameter] = {}
        self._buffers: dict[str, np.ndarray] = {}
        self.training = True
        self.path = ""

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_params", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    def children(self):
        return self._modules.values()

    def modules(self):
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p)
        for mod_name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{mod_name}.")

    def named_buffers(self, prefix: str = ""):
        for name in self._buffers:
            yield (f"{prefix}{name}", self._buffers[name])
        for mod_name, mod in self._modules.items():
            yield from mod.named_buffers(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def assign_paths(self, prefix: str = "") -> None:
        self.path = prefix
        for name, mod in self._modules.items():
            mod.assign_paths(f"{prefix}.{name}" if prefix else name)

    def train(self) -> None:
        for m in self.modules():
            m.training = True

    def eval(self) -> None:
        for m in self.modules():
            m.training = False

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        out = self.forward(*args, **kwargs)
        if check_finite and isinstance(out, Tensor) and not np.isfinite(out.data).all():
            raise NumericsError(f"non-finite output in {self.path or type(self).__name__}")
        return out


def kaiming_normal(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)


class Conv2d(Module):
    """Bias-free convolution layer owning one ConvSpec (weight is aliased).

    It is never called itself: the ``BatchNorm2d`` node that normalizes its
    output runs it (``bn((chain, x), ...)``)."""

    def __init__(self, in_channels, out_channels, kernel_size, stride=1,
                 padding=0, dilation=1, groups=1, *, in_hw: tuple[int, int],
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        self.weight = Parameter(kaiming_normal(
            rng, (out_channels, in_channels // groups, kernel_size, kernel_size),
            fan_in, dtype))
        self.spec = ConvSpec(
            out_channels=out_channels,
            in_channels=in_channels,
            kernel_h=kernel_size,
            kernel_w=kernel_size,
            stride=stride,
            padding=padding,
            dilation=dilation,
            groups=groups,
            weight=self.weight.data,
        )
        # Input extents this layer sees in the network, so its spectral
        # handle knows the matrix view to measure.
        self.in_hw = in_hw


def _chain_outputs(branches, stages: list, check: bool = False,
                   saved: list | None = None) -> np.ndarray:
    """The channel concatenation of each ``(chain, input array)`` branch's
    output, the chain's items applied in order. An item is a ``Conv2d`` or,
    between two convs, an inner ``BatchNorm2d`` stage: batch normalization,
    γ, β and a ReLU (``_bn_forward`` in the preceding conv's output buffer,
    then ``np.maximum`` in place). Without ``saved`` (the forward), each
    inner stage normalizes with its own statistics, updating its running
    ones, and appends what ``_bn_forward`` returns to ``stages``; with
    ``check``, a non-finite conv output names its conv and a non-finite
    stage output (before the ReLU) its BatchNorm. With ``saved`` (the
    backward), each stage rebuilds its x̂ and output bit for bit from its
    entry of ``stages``, and each branch appends to ``saved`` the list of
    its steps: ``(conv, input, band)``, the band being the conv's
    ``convolution.conv_bands``, built once here for the conv's forward and
    adjoint, and ``(bn, output, x̂, stats)`` for a stage. The kernels are
    looked up on ``convolution`` at each call, so that replacing them there
    reaches these calls too."""
    outs = []
    inner = iter(stages) if saved is not None else None
    for chain, z in branches:
        steps = []
        for item in chain:
            if isinstance(item, BatchNorm2d):
                if inner is None:
                    out, stats = _bn_forward(item, z)
                    stages.append(stats)
                else:
                    stats = next(inner)
                    out, _ = _bn_forward(item, z, stats)
                    steps.append((item, out, z, stats))
                if check and not np.isfinite(out).all():
                    raise NumericsError(
                        f"non-finite output in {item.path or type(item).__name__}")
                z = np.maximum(out, 0.0, out=out)
                continue
            band = None
            if saved is not None:
                band = convolution.conv_bands(item.spec, (z.shape[1], z.shape[3]), z.dtype)
                steps.append((item, z, band))
            z = convolution.conv2d_forward(z, item.spec, band)
            if check and not np.isfinite(z).all():
                raise NumericsError(f"non-finite output in {item.path or type(item).__name__}")
        if saved is not None:
            saved.append(steps)
        outs.append(z)
    return outs[0] if len(outs) == 1 else np.concatenate(outs, axis=0)


def _bn_forward(bn: "BatchNorm2d", z: np.ndarray, stats: tuple | None = None):
    """Batch normalization of the (C, H, N, W) array ``z``, each channel
    over its trailing axes: x̂ in z's buffer, and the output γ x̂ + β in a
    new array, returned with ``stats = (μ, 1/σ, training)``. Without
    ``stats``, a training-mode ``bn`` takes the batch's statistics and
    updates its running ones, an eval-mode one takes the running ones; given
    the ``stats`` it returned, the same operations rebuild x̂ and the output
    bit for bit and the running statistics are left alone. The operations
    and their order are those of the composite-op reference in the tests."""
    if z.shape[0] != bn.channels:
        raise DimensionError(f"batchnorm over {bn.channels} channels got shape {z.shape}")
    shape = (bn.channels, 1, 1, 1)
    if stats is not None:
        mu, inv_std, _ = stats
        z -= mu
        out = np.empty_like(z)
    else:
        if bn.training:
            mu = z.mean(axis=(1, 2, 3), keepdims=True)
            z -= mu
            out = np.multiply(z, z)
            var = out.mean(axis=(1, 2, 3), keepdims=True)
            # Track stats outside the graph.
            m = bn.momentum
            bn.running_mean *= 1.0 - m
            bn.running_mean += m * mu.reshape(-1)
            bn.running_var *= 1.0 - m
            bn.running_var += m * var.reshape(-1)
        else:
            # A copy: the backward must subtract the mean the forward did.
            mu = bn.running_mean.reshape(shape).copy()
            z -= mu
            out = np.empty_like(z)
            var = bn.running_var.reshape(shape)
        inv_std = (var + bn.eps) ** -0.5
        stats = (mu, inv_std, bn.training)
    z *= inv_std
    np.multiply(z, bn.gamma.data.reshape(shape), out=out)
    out += bn.beta.data.reshape(shape)
    return out, stats


def _bn_backward(bn: "BatchNorm2d", g: np.ndarray, xhat: np.ndarray, stats: tuple,
                 ngamma, nbeta) -> np.ndarray:
    """BN's closed-form backward (Ioffe & Szegedy, 2015) from the output's
    gradient ``g``, given x̂ and the ``stats`` of ``_bn_forward``:
    accumulates β's and γ's gradients into ``nbeta`` and ``ngamma`` (None
    for one that records none) and returns the input's, in x̂'s buffer."""
    _, inv_std, training = stats
    gsum = g.sum(axis=(1, 2, 3), keepdims=True)
    gxsum = (g * xhat).sum(axis=(1, 2, 3), keepdims=True)
    if nbeta is not None:
        nbeta.accumulate(gsum.reshape(-1), own=True)
    if ngamma is not None:
        ngamma.accumulate(gxsum.reshape(-1), own=True)
    scale = inv_std * bn.gamma.data.reshape(inv_std.shape)
    if training:
        # dz = (g - mean(g) - x̂ mean(g x̂)) γ/σ, per channel.
        count = xhat.size // bn.channels
        xhat *= gxsum / -count
        xhat += g
        xhat -= gsum / count
        xhat *= scale
    else:
        np.multiply(g, scale, out=xhat)
    return xhat


class BatchNorm2d(Module):
    """Per-channel affine batch normalization with running statistics, fused
    with the chain(s) of convolutions whose output it normalizes into one
    graph node.

    ``bn((chain, x), ...)`` takes one branch per input: ``chain`` is a tuple
    of ``Conv2d`` applied to ``x`` in order (``DilConv`` passes a depthwise
    and a pointwise conv, ``ReLUConvBN``, the stem and ``FactorizedReduce``
    one conv each). The branches' outputs are concatenated along channels
    (``FactorizedReduce`` passes two), and each channel of that (C, H, N, W)
    activation is normalized over its trailing axes. A chain may also hold
    another ``BatchNorm2d``, an inner stage that normalizes with its own
    statistics and applies its γ, β and a ReLU: ``SepConv`` passes
    ``(dw1, pw1, bn1, dw2, pw2)``, so its whole body is one node. Neither
    the convs nor an inner BatchNorm are called as modules: under
    ``check_finite`` the node checks each one's output and names it.
    """

    eps = 1e-5
    momentum = 0.1   # weight of the current batch in the running statistics

    def __init__(self, channels, *, dtype=np.float32):
        super().__init__()
        self.channels = channels
        self.gamma = Parameter(np.ones(channels, dtype=dtype))
        self.beta = Parameter(np.zeros(channels, dtype=dtype))
        self.register_buffer("running_mean", np.zeros(channels, dtype=dtype))
        self.register_buffer("running_var", np.ones(channels, dtype=dtype))

    def forward(self, *branches: tuple[tuple[Module, ...], Tensor]) -> Tensor:
        """The normalized chain output, recording one graph node.

        The output takes the same numpy operations, in the same order, as
        the chain's items one after another followed by the composite-op
        reference in the tests, which requires it to be bit-identical; they
        run in place, x̂ in the last conv's output buffer and x̂² in the
        output's. Inner stages update their running statistics before this
        one does, in chain order. The node saves each chain's input and,
        per BatchNorm, μ and 1/σ: neither x̂, nor a conv's output, nor an
        inner stage's. Its backward runs the chains again and rebuilds each
        x̂ and stage output by the same operations, bit for bit (recompute,
        Chen et al., 2016), then runs BN's closed-form backward
        (``_bn_backward``) in x̂'s buffer, and goes back through each chain
        in reverse: per conv the weight gradient, then the adjoint; per
        inner stage the ReLU's mask, then its closed-form backward. Each
        recomputed intermediate, its band and x̂ are dropped once their last
        reader has run.
        """
        pairs = [(chain, x.data) for chain, x in branches]
        stages: list[tuple] = []
        z = _chain_outputs(pairs, stages, check=check_finite)
        data, stats = _bn_forward(self, z)
        chain_nodes = [(_node(x), [_param_nodes(item) for item in chain])
                       for chain, x in branches]
        own_nodes = _param_nodes(self)

        def bw(g):
            chains: list[list] = []
            gz = _chain_outputs(pairs, stages, saved=chains)
            mu, inv_std, _ = stats
            gz -= mu
            gz *= inv_std
            gz = _bn_backward(self, g, gz, stats, *own_nodes)
            # Each chain's share of the cotangent; the last share to go
            # frees x̂'s buffer.
            shares, lo = [], 0
            for steps in chains:
                hi = lo + steps[-1][0].spec.out_channels
                shares.append(gz[lo:hi])
                lo = hi
            del gz
            for (nx, item_nodes), steps in zip(chain_nodes, chains):
                gy = shares.pop(0)
                while steps:
                    step = steps.pop()
                    nodes = item_nodes[len(steps)]   # the popped item's
                    if isinstance(step[0], BatchNorm2d):
                        bn, out, xhat, stage = step
                        gy *= out > 0   # the ReLU's mask
                        gy = _bn_backward(bn, gy, xhat, stage, *nodes)
                        del step, out
                        continue
                    conv, inp, band = step
                    del step
                    (nw,) = nodes
                    if nw is not None:
                        nw.accumulate(convolution.conv2d_weight_grad(inp, gy, conv.spec),
                                      own=True)
                    if steps or nx is not None:
                        gy = convolution.conv2d_transpose_forward(
                            gy, conv.spec, input_hw=(inp.shape[1], inp.shape[3]), band=band)
                    del inp, band
                if nx is not None:
                    nx.accumulate(gy, own=True)
                del gy

        parents = [n for nx, nodes in chain_nodes
                   for n in [nx, *(n for ns in nodes for n in ns)]] + list(own_nodes)
        return _make(data, parents, bw)


def _param_nodes(module: Module) -> tuple:
    """The graph nodes of a conv's weight or of a BatchNorm's γ and β."""
    if isinstance(module, BatchNorm2d):
        return (_node(module.gamma), _node(module.beta))
    return (_node(module.weight),)


class Linear(Module):
    """Fully connected layer; weight stored (in, out) to avoid a transpose."""

    def __init__(self, in_features, out_features, *, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__()
        scale = 1.0 / np.sqrt(in_features)
        self.weight = Parameter(
            (rng.standard_normal((in_features, out_features)) * scale).astype(dtype))
        self.bias = Parameter(np.zeros(out_features, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        return ad.matmul(x, self.weight) + self.bias


def global_avg_pool(x: Tensor) -> Tensor:
    """(C, H, N, W) -> (N, C) spatial mean."""
    return ad.transpose(ad.mean(x, axis=(1, 3)))


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax logits,
    recorded as one graph node.

    The row-max shift keeps exp() in range without changing the value. The
    loss and its gradient (softmax - onehot)/N take the same numpy operations,
    in the same order, as the chain of elementwise ops shift, exp, row sum,
    log, gather, mean, negate would, so both match that chain bit for bit.
    """
    z = logits.data
    labels = np.asarray(labels)
    if z.ndim != 2 or labels.shape != z.shape[:1]:
        raise DimensionError(
            f"cross_entropy expects (N,K) logits and (N,) labels, got "
            f"{z.shape} and {labels.shape}"
        )
    nz = _node(logits)
    rows = np.arange(z.shape[0])
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    picked = shifted[rows, labels] - np.log(total)[:, 0]
    data = picked.mean() * -1.0

    def bw(g):
        per_row = (g * -1.0) / len(labels)
        gx = (-per_row / total) * e
        gx[rows, labels] += per_row
        nz.accumulate(gx, own=True)

    return _make(data, (nz,), bw)
