"""Momentum SGD with coupled weight decay and the cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ArgumentError, ConfigError
from .layers import Parameter


@dataclass
class TrainHyper:
    initial_lr: float = 0.025
    momentum: float = 0.9
    weight_decay: float = 3e-4
    epochs: int = 50
    batch_size: int = 64

    def __post_init__(self):
        if self.initial_lr <= 0:
            raise ConfigError("initial_lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be nonnegative")
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")


def cosine_lr(epoch: int, total_epochs: int, initial_lr: float) -> float:
    """Cosine annealing from initial_lr at epoch 0 down to 0 at total_epochs."""
    if total_epochs < 1:
        raise ArgumentError("total_epochs must be at least 1")
    if not 0 <= epoch <= total_epochs:
        raise ArgumentError(
            f"epoch {epoch} outside schedule range [0, {total_epochs}]"
        )
    return initial_lr * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


def sgd_momentum_step(params: list[Parameter], lr: float, hyper: TrainHyper) -> None:
    """v <- momentum*v + grad + weight_decay*param; param <- param - lr*v.

    Weight decay is coupled (added to the gradient before the momentum
    update). A parameter the backward pass did not reach has no gradient and
    steps with a zero one. All parameter updates are in place so aliased
    views stay valid.
    """
    for p in params:
        p.ensure_grad()
        g = p.grad
        if hyper.weight_decay:
            g = g + hyper.weight_decay * p.data
        buf = p.momentum
        buf *= hyper.momentum
        buf += g
        p.data -= lr * buf
