"""Momentum-SGD update rule and cosine schedule checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msrnas.errors import ArgumentError, ConfigError
from msrnas.layers import Parameter
from msrnas.optim import TrainHyper, cosine_lr, sgd_momentum_step


def make_param(value, grad=None, momentum=None):
    p = Parameter(np.array(value, dtype=np.float64))
    p.grad = None if grad is None else np.array(grad, dtype=np.float64)
    if momentum is not None:
        p.momentum = np.array(momentum, dtype=np.float64)
    return p


def test_plain_gradient_step():
    p = make_param([1.0, 2.0], grad=[0.5, -1.0])
    hyper = TrainHyper(momentum=0.0, weight_decay=0.0, epochs=1, batch_size=1)
    sgd_momentum_step([p], lr=0.1, hyper=hyper)
    np.testing.assert_allclose(p.data, [1.0 - 0.05, 2.0 + 0.1])


def test_momentum_buffer_drives_update_with_zero_grad():
    p = make_param([1.0], grad=[0.0], momentum=[2.0])
    hyper = TrainHyper(momentum=0.9, weight_decay=0.0, epochs=1, batch_size=1)
    sgd_momentum_step([p], lr=0.5, hyper=hyper)
    np.testing.assert_allclose(p.data, [1.0 - 0.5 * 0.9 * 2.0])


def test_two_steps_closed_form_displacement():
    p = make_param([0.0], grad=[1.0])
    hyper = TrainHyper(momentum=0.9, weight_decay=0.0, epochs=1, batch_size=1)
    sgd_momentum_step([p], lr=1.0, hyper=hyper)
    p.grad = np.array([1.0])
    sgd_momentum_step([p], lr=1.0, hyper=hyper)
    np.testing.assert_allclose(p.data, [-2.9])


def test_weight_decay_is_coupled():
    p = make_param([2.0], grad=[0.0])
    hyper = TrainHyper(momentum=0.0, weight_decay=0.1, epochs=1, batch_size=1)
    sgd_momentum_step([p], lr=1.0, hyper=hyper)
    np.testing.assert_allclose(p.data, [2.0 - 0.1 * 2.0])


def test_missing_grad_treated_as_zero():
    p = make_param([1.0])
    hyper = TrainHyper(momentum=0.9, weight_decay=0.0, epochs=1, batch_size=1)
    sgd_momentum_step([p], lr=1.0, hyper=hyper)
    np.testing.assert_allclose(p.data, [1.0])


def test_cosine_schedule_endpoints():
    assert cosine_lr(0, 50, 0.025) == pytest.approx(0.025)
    assert cosine_lr(50, 50, 0.025) == pytest.approx(0.0, abs=1e-17)
    assert cosine_lr(25, 50, 0.025) == pytest.approx(0.0125)


def test_cosine_schedule_range_errors():
    with pytest.raises(ArgumentError):
        cosine_lr(-1, 50, 0.025)
    with pytest.raises(ArgumentError):
        cosine_lr(51, 50, 0.025)
    with pytest.raises(ArgumentError):
        cosine_lr(0, 0, 0.025)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 500))
def test_cosine_schedule_monotone_decreasing(total):
    values = [cosine_lr(e, total, 1.0) for e in range(total + 1)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)
    assert values[0] == 1.0 and abs(values[-1]) < 1e-15
    mid = cosine_lr(total / 2, total, 1.0) if total % 2 == 0 else None
    if mid is not None:
        assert mid == pytest.approx(0.5)


def test_hyper_validation():
    with pytest.raises(ConfigError):
        TrainHyper(initial_lr=0.0)
    with pytest.raises(ConfigError):
        TrainHyper(momentum=1.0)
    with pytest.raises(ConfigError):
        TrainHyper(weight_decay=-1e-3)
    with pytest.raises(ConfigError):
        TrainHyper(batch_size=0)


def test_paper_defaults():
    hyper = TrainHyper()
    assert hyper.initial_lr == 0.025
    assert hyper.momentum == 0.9
    assert hyper.weight_decay == 3e-4
    assert hyper.epochs == 50
