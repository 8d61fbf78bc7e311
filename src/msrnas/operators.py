"""Candidate operator set and cell preprocessing blocks.

All four candidates are stacks of depthwise/pointwise convolutions in
ReLU-Conv-BN order: separable convs apply the (depthwise, pointwise) pair
twice with the stride on the first depthwise; dilated variants apply it once
with dilation 2. Neither a candidate's first ReLU nor a preprocessing block's
is part of it: the cell rectifies each state once and the network each stem
and cell output once, and every reader shares the result. The final pointwise
convolution of each operator is the one whose stable rank scores the
operator during derivation.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .layers import BatchNorm2d, Conv2d, Module


class OperatorKind(str, Enum):
    SEP3 = "sep3"
    SEP5 = "sep5"
    DIL3 = "dil3"
    DIL5 = "dil5"


# Tie-break order for every argmin/argmax over operators.
OPERATOR_ORDER: tuple[OperatorKind, ...] = (
    OperatorKind.SEP3,
    OperatorKind.SEP5,
    OperatorKind.DIL3,
    OperatorKind.DIL5,
)

OPERATOR_NAMES: tuple[str, ...] = tuple(k.value for k in OPERATOR_ORDER)


def stride1_padding(kernel_size: int, dilation: int = 1) -> int:
    """'Same' padding: output extent equals input extent at stride 1."""
    return dilation * (kernel_size - 1) // 2


class OpInstance(Module):
    """One candidate operator on one edge: conv stack plus metadata.

    ``conv_layers`` lists the convolutions in application order; the last one
    is the operator's final (rank-scored) convolution.
    """

    def __init__(self, kind: OperatorKind):
        super().__init__()
        self.kind = kind
        self.conv_layers: list[Conv2d] = []

    @property
    def fin_conv(self) -> Conv2d:
        return self.conv_layers[-1]


class SepConv(OpInstance):
    """(ReLU, depthwise kxk, pointwise 1x1, BN) applied twice; the input
    arrives rectified, so only the second ReLU is applied here."""

    def __init__(self, kind: OperatorKind, channels: int, kernel_size: int,
                 stride: int, in_hw: tuple[int, int], *,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__(kind)
        pad = stride1_padding(kernel_size)
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
        self.conv_layers = [self.dw1, self.pw1, self.dw2, self.pw2]

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn1(self.pw1(self.dw1(x)))
        return self.bn2(self.pw2(self.dw2(ad.relu(out))))


class DilConv(OpInstance):
    """ReLU, dilated depthwise kxk (dilation 2), pointwise 1x1, BN; the input
    arrives rectified."""

    def __init__(self, kind: OperatorKind, channels: int, kernel_size: int,
                 stride: int, in_hw: tuple[int, int], *,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__(kind)
        dilation = 2
        pad = stride1_padding(kernel_size, dilation)
        self.dw = Conv2d(channels, channels, kernel_size, stride=stride,
                         padding=pad, dilation=dilation, groups=channels,
                         in_hw=in_hw, rng=rng, dtype=dtype)
        self.pw = Conv2d(channels, channels, 1, in_hw=self.dw.spec.out_hw(*in_hw),
                         rng=rng, dtype=dtype)
        self.bn = BatchNorm2d(channels, dtype=dtype)
        self.conv_layers = [self.dw, self.pw]

    def forward(self, x: Tensor) -> Tensor:
        return self.bn(self.pw(self.dw(x)))


_KERNEL_SIZE = {
    OperatorKind.SEP3: 3,
    OperatorKind.SEP5: 5,
    OperatorKind.DIL3: 3,
    OperatorKind.DIL5: 5,
}


def build_operator(kind: OperatorKind, channels: int, stride: int,
                   in_hw: tuple[int, int], *, rng: np.random.Generator,
                   dtype=np.float32) -> OpInstance:
    k = _KERNEL_SIZE[kind]
    if kind in (OperatorKind.SEP3, OperatorKind.SEP5):
        return SepConv(kind, channels, k, stride, in_hw, rng=rng, dtype=dtype)
    return DilConv(kind, channels, k, stride, in_hw, rng=rng, dtype=dtype)


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
        return self.bn(self.conv(x))


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
        return self.bn(ad.concat([self.conv_a(x), self.conv_b(shifted)], axis=0))
