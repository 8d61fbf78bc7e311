"""Layer building blocks: parameters, conv, batchnorm, linear, losses."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
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


class BatchNorm2d(Module):
    """Per-channel affine batch normalization with running statistics, over
    a (C, H, N, W) activation: each channel's statistics reduce over its
    trailing axes."""

    eps = 1e-5
    momentum = 0.1   # weight of the current batch in the running statistics

    def __init__(self, channels, *, dtype=np.float32):
        super().__init__()
        self.channels = channels
        self.gamma = Parameter(np.ones(channels, dtype=dtype))
        self.beta = Parameter(np.zeros(channels, dtype=dtype))
        self.register_buffer("running_mean", np.zeros(channels, dtype=dtype))
        self.register_buffer("running_var", np.ones(channels, dtype=dtype))

    def forward(self, x: Tensor) -> Tensor:
        """Normalize each channel of a (C, H, N, W) tensor over its trailing
        axes, recording one graph node.

        The output takes the same numpy operations, in the same order, as
        the composite-op reference in the tests, which requires it to be
        bit-identical. The closed-form backward (Ioffe & Szegedy, 2015)
        keeps only x̂, 1/σ and γ; in eval mode the map is per-channel affine.
        """
        if x.data.ndim != 4 or x.data.shape[0] != self.channels:
            raise DimensionError(
                f"batchnorm over {self.channels} channels got shape {x.data.shape}"
            )
        shape = (self.channels, 1, 1, 1)
        training = self.training
        if training:
            mu = x.data.mean(axis=(1, 2, 3), keepdims=True)
            xhat = x.data - mu
            var = (xhat * xhat).mean(axis=(1, 2, 3), keepdims=True)
            # Track stats outside the graph.
            m = self.momentum
            self.running_mean *= 1.0 - m
            self.running_mean += m * mu.reshape(-1)
            self.running_var *= 1.0 - m
            self.running_var += m * var.reshape(-1)
        else:
            xhat = x.data - self.running_mean.reshape(shape)
            var = self.running_var.reshape(shape)
        inv_std = (var + self.eps) ** -0.5
        xhat *= inv_std
        gamma = self.gamma.data.reshape(shape)
        data = xhat * gamma
        data += self.beta.data.reshape(shape)
        count = x.data.size // self.channels
        nx, ngamma, nbeta = _node(x), _node(self.gamma), _node(self.beta)

        def bw(g):
            gsum = g.sum(axis=(1, 2, 3), keepdims=True)
            gxsum = (g * xhat).sum(axis=(1, 2, 3), keepdims=True)
            if nbeta is not None:
                nbeta.accumulate(gsum.reshape(-1), own=True)
            if ngamma is not None:
                ngamma.accumulate(gxsum.reshape(-1), own=True)
            if nx is not None:
                scale = inv_std * gamma
                if training:
                    # dx = (g - mean(g) - x̂ mean(g x̂)) γ/σ, per channel.
                    gx = xhat * (gxsum / -count)
                    gx += g
                    gx -= gsum / count
                    gx *= scale
                else:
                    gx = g * scale
                nx.accumulate(gx, own=True)

        return _make(data, (nx, ngamma, nbeta), bw)


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
