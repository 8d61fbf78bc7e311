"""Layer building blocks: parameters, conv, batchnorm, linear, losses."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import convolution
from .autodiff import Tensor, _make, _node
from .convolution import ConvSpec, conv2d
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
    """Bias-free convolution layer owning one ConvSpec (weight is aliased)."""

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

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.spec)


def _conv_outputs(branches, check: bool = False) -> np.ndarray:
    """The channel concatenation of each ``(conv, input array)`` pair's conv
    output; with ``check``, a non-finite output names its conv. The kernels
    are looked up on ``convolution`` at each call, as ``conv2d``'s are, so
    that replacing them there reaches these calls too."""
    outs = []
    for conv, x in branches:
        z = convolution.conv2d_forward(x, conv.spec)
        if check and not np.isfinite(z).all():
            raise NumericsError(f"non-finite output in {conv.path or type(conv).__name__}")
        outs.append(z)
    return outs[0] if len(outs) == 1 else np.concatenate(outs, axis=0)


class BatchNorm2d(Module):
    """Per-channel affine batch normalization with running statistics, fused
    with the convolution(s) whose output it normalizes into one graph node.

    ``bn((conv, x), ...)`` takes one ``(Conv2d, input)`` pair per conv; their
    outputs are concatenated along channels (``FactorizedReduce`` passes
    two), and each channel of that (C, H, N, W) activation is normalized
    over its trailing axes. The conv modules are not called: under
    ``check_finite`` the node checks each conv's output and names the conv.
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

    def forward(self, *branches: tuple[Conv2d, Tensor]) -> Tensor:
        """The normalized conv output, recording one graph node.

        The output takes the same numpy operations, in the same order, as
        ``conv2d`` followed by the composite-op reference in the tests, which
        requires it to be bit-identical; they run in place, x̂ in the conv
        output's buffer and x̂² in the output's. The node saves the conv
        inputs, μ, 1/σ and γ, not x̂: its backward runs the convs again and
        rebuilds x̂ by the same operations, bit for bit (recompute, Chen et
        al., 2016), then runs BN's closed-form backward (Ioffe & Szegedy,
        2015), in x̂'s buffer, into the convs' adjoints and weight gradients.
        """
        pairs = [(conv, x.data) for conv, x in branches]
        z = _conv_outputs(pairs, check=check_finite)
        if z.shape[0] != self.channels:
            raise DimensionError(
                f"batchnorm over {self.channels} channels got shape {z.shape}"
            )
        shape = (self.channels, 1, 1, 1)
        training = self.training
        if training:
            mu = z.mean(axis=(1, 2, 3), keepdims=True)
            z -= mu
            data = np.multiply(z, z)
            var = data.mean(axis=(1, 2, 3), keepdims=True)
            # Track stats outside the graph.
            m = self.momentum
            self.running_mean *= 1.0 - m
            self.running_mean += m * mu.reshape(-1)
            self.running_var *= 1.0 - m
            self.running_var += m * var.reshape(-1)
        else:
            # A copy: the backward must subtract the mean the forward did.
            mu = self.running_mean.reshape(shape).copy()
            z -= mu
            data = np.empty_like(z)
            var = self.running_var.reshape(shape)
        inv_std = (var + self.eps) ** -0.5
        z *= inv_std
        gamma = self.gamma.data.reshape(shape)
        np.multiply(z, gamma, out=data)
        data += self.beta.data.reshape(shape)
        count = z.size // self.channels
        conv_nodes = [(_node(x), _node(conv.weight)) for conv, x in branches]
        ngamma, nbeta = _node(self.gamma), _node(self.beta)

        def bw(g):
            xhat = _conv_outputs(pairs)
            xhat -= mu
            xhat *= inv_std
            gsum = g.sum(axis=(1, 2, 3), keepdims=True)
            gxsum = (g * xhat).sum(axis=(1, 2, 3), keepdims=True)
            if nbeta is not None:
                nbeta.accumulate(gsum.reshape(-1), own=True)
            if ngamma is not None:
                ngamma.accumulate(gxsum.reshape(-1), own=True)
            scale = inv_std * gamma
            if training:
                # dz = (g - mean(g) - x̂ mean(g x̂)) γ/σ, per channel.
                gz = xhat
                gz *= gxsum / -count
                gz += g
                gz -= gsum / count
                gz *= scale
            else:
                gz = np.multiply(g, scale, out=xhat)
            lo = 0
            for (conv, x), (nx, nw) in zip(pairs, conv_nodes):
                gy = gz[lo:lo + conv.spec.out_channels]
                lo += conv.spec.out_channels
                if nx is not None:
                    nx.accumulate(convolution.conv2d_transpose_forward(
                        gy, conv.spec, input_hw=(x.shape[1], x.shape[3])), own=True)
                if nw is not None:
                    nw.accumulate(convolution.conv2d_weight_grad(x, gy, conv.spec),
                                  own=True)

        parents = [n for pair in conv_nodes for n in pair] + [ngamma, nbeta]
        return _make(data, parents, bw)


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
