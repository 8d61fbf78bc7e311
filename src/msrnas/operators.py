"""Candidate operator set and cell preprocessing blocks.

``OPERATORS`` names the four candidates and gives each its class and kernel
size. All are stacks of depthwise/pointwise convolutions in ReLU-Conv-BN
order: separable convs apply the (depthwise, pointwise) pair
twice with the stride on the first depthwise; dilated variants apply it once
with dilation 2. Neither a candidate's first ReLU nor a preprocessing block's
is part of it: the cell rectifies each state once and the network each stem
and cell output once, and every reader shares the result. Each operator's
body is one ``BatchNorm2d`` graph node (a separable conv's inner BatchNorm
and ReLU included), so the graph keeps none of its intermediate outputs.
The final pointwise
convolution of each operator (``fin_conv``) is the one whose stable rank
scores the operator during derivation.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .layers import BatchNorm2d, Conv2d, Module


class SepConv(Module):
    """(ReLU, depthwise kxk, pointwise 1x1, BN) applied twice; the input
    arrives rectified, so only the second ReLU is applied here. The whole
    body is ``bn2``'s graph node, ``bn2(((dw1, pw1, bn1, dw2, pw2), x))``:
    ``bn1`` is an inner stage of it (normalization with its own statistics,
    γ, β and the ReLU), so the graph keeps neither a conv's output nor the
    inner ReLU's. The node saves x and each BatchNorm's μ and 1/σ, and its
    backward runs the body again from x."""

    def __init__(self, kind: str, channels: int, kernel_size: int,
                 stride: int, in_hw: tuple[int, int], *,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.kind = kind
        pad = (kernel_size - 1) // 2  # "same": out extent = in extent at stride 1
        self.dw1 = Conv2d(channels, channels, kernel_size, stride=stride,
                          padding=pad, groups=channels, in_hw=in_hw, rng=rng,
                          dtype=dtype)
        hw = self.dw1.spec.out_hw(*in_hw)
        self.pw1 = Conv2d(channels, channels, 1, in_hw=hw, rng=rng, dtype=dtype)
        self.bn1 = BatchNorm2d(channels, dtype=dtype)
        self.dw2 = Conv2d(channels, channels, kernel_size, stride=1, padding=pad,
                          groups=channels, in_hw=hw, rng=rng, dtype=dtype)
        self.pw2 = Conv2d(channels, channels, 1, in_hw=hw, rng=rng, dtype=dtype)
        self.bn2 = BatchNorm2d(channels, dtype=dtype)

    @property
    def fin_conv(self) -> Conv2d:
        """The final (rank-scored) convolution. A property, not an attribute:
        ``Module.__setattr__`` would register the conv under a second name."""
        return self.pw2

    def forward(self, x: Tensor) -> Tensor:
        return self.bn2(((self.dw1, self.pw1, self.bn1, self.dw2, self.pw2), x))


class DilConv(Module):
    """ReLU, dilated depthwise kxk (dilation 2, "same" padding), pointwise 1x1,
    BN; the input arrives rectified. The two convs run inside the BatchNorm's
    graph node, as in ``SepConv``."""

    def __init__(self, kind: str, channels: int, kernel_size: int,
                 stride: int, in_hw: tuple[int, int], *,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.kind = kind
        self.dw = Conv2d(channels, channels, kernel_size, stride=stride,
                         padding=kernel_size - 1, dilation=2, groups=channels,
                         in_hw=in_hw, rng=rng, dtype=dtype)
        self.pw = Conv2d(channels, channels, 1, in_hw=self.dw.spec.out_hw(*in_hw),
                         rng=rng, dtype=dtype)
        self.bn = BatchNorm2d(channels, dtype=dtype)

    @property
    def fin_conv(self) -> Conv2d:
        """The final (rank-scored) convolution; see ``SepConv.fin_conv``."""
        return self.pw

    def forward(self, x: Tensor) -> Tensor:
        return self.bn(((self.dw, self.pw), x))


# Every candidate operator: name -> (class, kernel size). Insertion order is
# the tie-break order of every argmin/argmax over operators.
OPERATORS: dict[str, tuple[type, int]] = {
    "sep3": (SepConv, 3),
    "sep5": (SepConv, 5),
    "dil3": (DilConv, 3),
    "dil5": (DilConv, 5),
}

OPERATOR_NAMES: tuple[str, ...] = tuple(OPERATORS)


class ReLUConvBN(Module):
    """1x1 conv -> BN on a rectified input; channel-matching preprocessing
    block (perfbench's metric ``operators.ReLUConvBN.fwd_s`` keys its name)."""

    def __init__(self, in_channels: int, out_channels: int,
                 in_hw: tuple[int, int], *, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__()
        self.conv = Conv2d(in_channels, out_channels, 1, in_hw=in_hw, rng=rng,
                           dtype=dtype)
        self.bn = BatchNorm2d(out_channels, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return self.bn(((self.conv,), x))


class FactorizedReduce(Module):
    """Spatial halving by two offset stride-2 1x1 convs, concatenated."""

    def __init__(self, in_channels: int, out_channels: int,
                 in_hw: tuple[int, int], *, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__()
        half_a = (out_channels + 1) // 2
        half_b = out_channels // 2
        self.conv_a = Conv2d(in_channels, half_a, 1, stride=2, in_hw=in_hw,
                             rng=rng, dtype=dtype)
        self.conv_b = Conv2d(in_channels, half_b, 1, stride=2, in_hw=in_hw,
                             rng=rng, dtype=dtype)
        self.bn = BatchNorm2d(out_channels, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        # Second branch samples the grid shifted by one pixel.
        shifted = ad.pad2d(x, (0, 1, 0, 1))[:, 1:, :, 1:]
        return self.bn(((self.conv_a,), x), ((self.conv_b,), shifted))
