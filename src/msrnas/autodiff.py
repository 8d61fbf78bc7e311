"""Reverse-mode automatic differentiation over dense numpy arrays.

The graph is built dynamically: each operation returns a Tensor holding its
result plus a closure that takes the output gradient and pushes gradients to
its parents. Calling ``backward()`` on a scalar walks the recorded graph once
in reverse topological order. Arrays keep whatever float dtype they were
created with, so the same graph code runs in float32 for training and float64
for the numerical test oracles.

Graph lifetime: a closure references its parents and the arrays it needs,
never its own output node, so the graph holds no reference cycles and is
freed by reference counting as soon as the last tensor of it is dropped,
without waiting for the cyclic garbage collector. ``backward()`` consumes
the graph: once a node's closure has run, the node drops its closure,
parents and gradient and stops requiring grad, so its activations are freed
while the rest of the backward pass runs. Afterwards only leaf tensors (the
parameters and any input created with ``requires_grad=True``) hold
``.grad``, and a second ``backward()`` on the same loss raises StateError.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, StateError

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording (validation passes)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Dense N-d array node with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def accumulate_grad(self, g: np.ndarray, own: bool = False) -> None:
        """Add `g` (broadcastable to this shape) into the gradient.

        ``own=True`` promises `g` is a freshly allocated full-shape array the
        caller will not reuse, letting the first accumulation skip a copy.
        """
        if self.grad is None:
            if g.shape == self.data.shape:
                self.grad = g if own else np.array(g)
            else:
                self.grad = np.zeros_like(self.data)
                self.grad += g
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate gradients into every reachable leaf, consuming the
        graph (see the module docstring); requires a scalar."""
        if self.data.size != 1:
            raise StateError(
                f"backward() requires a scalar loss, got shape {self.data.shape}"
            )
        if not self.requires_grad:
            raise StateError(
                "backward() on a tensor with no recorded computation graph"
            )
        # Iterative post-order DFS; cell graphs are deeper than the
        # interpreter's recursion limit.
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        # Popping releases the list's reference, so a consumed node is freed
        # as soon as no later closure still needs its data.
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node._backward = None
                node._parents = ()
                node.grad = None
                node.requires_grad = False

    # Operator sugar -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, key):
        return slice_(self, key)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x)
    if dtype is not None and arr.dtype != dtype:
        arr = arr.astype(dtype)
    return Tensor(arr)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    """Wrap `data` as the output of an op; `backward(g)` receives its gradient."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# Elementwise / broadcasting ops -----------------------------------------


def _acc(t: Tensor, g: np.ndarray) -> None:
    """Accumulate with broadcast reduction; fresh arrays are handed over."""
    if g.shape == t.data.shape:
        t.accumulate_grad(g)
    else:
        t.accumulate_grad(_unbroadcast(g, t.data.shape), own=True)


def add(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    data = a.data + b.data

    def bw(g):
        if a.requires_grad:
            _acc(a, g)
        if b.requires_grad:
            _acc(b, g)

    return _make(data, (a, b), bw)


def sub(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    data = a.data - b.data

    def bw(g):
        if a.requires_grad:
            _acc(a, g)
        if b.requires_grad:
            if g.shape == b.data.shape:
                b.accumulate_grad(-g, own=True)
            else:
                b.accumulate_grad(-_unbroadcast(g, b.data.shape), own=True)

    return _make(data, (a, b), bw)


def mul(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            ga = g * b.data
            if ga.shape == a.data.shape:
                a.accumulate_grad(ga, own=True)
            else:
                _acc(a, ga)
        if b.requires_grad:
            gb = g * a.data
            if gb.shape == b.data.shape:
                b.accumulate_grad(gb, own=True)
            else:
                _acc(b, gb)

    return _make(data, (a, b), bw)


def power(a: Tensor, exponent: float) -> Tensor:
    a = _as_tensor(a)
    exponent = float(exponent)
    data = a.data ** exponent

    def bw(g):
        a.accumulate_grad(g * (exponent * a.data ** (exponent - 1.0)), own=True)

    return _make(data, (a,), bw)


def relu(a: Tensor) -> Tensor:
    """Elementwise max(0, x); gradient mask is the indicator of x > 0."""
    a = _as_tensor(a)
    data = np.maximum(a.data, 0.0)

    def bw(g):
        a.accumulate_grad(g * (a.data > 0), own=True)

    return _make(data, (a,), bw)


# Linear algebra -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(
            f"matmul expects 2-d operands, got {a.data.shape} @ {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul inner dimensions differ: {a.data.shape} @ {b.data.shape}"
        )
    data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T, own=True)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g, own=True)

    return _make(data, (a, b), bw)


# Reductions ---------------------------------------------------------------


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        # Broadcasting += spreads the reduced gradient without a big temp.
        a.accumulate_grad(g)

    return _make(data, (a,), bw)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    data = a.data.mean(axis=axis, keepdims=keepdims)

    def bw(g):
        g = g / count
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a.accumulate_grad(g)

    return _make(data, (a,), bw)


# Shape manipulation -------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    data = a.data.reshape(shape)

    def bw(g):
        a.accumulate_grad(g.reshape(a.data.shape))

    return _make(data, (a,), bw)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in ts], axis=axis)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in ts])

    def bw(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                key = [slice(None)] * g.ndim
                key[axis] = slice(lo, hi)
                t.accumulate_grad(g[tuple(key)])

    return _make(data, ts, bw)


def slice_(a: Tensor, key) -> Tensor:
    a = _as_tensor(a)
    data = a.data[key]

    def bw(g):
        full = np.zeros_like(a.data)
        full[key] += g
        a.accumulate_grad(full, own=True)

    return _make(data, (a,), bw)


def pad2d(a: Tensor, pad: tuple) -> Tensor:
    """Zero-pad the two trailing (spatial) axes: pad = (top, bottom, left, right)."""
    a = _as_tensor(a)
    top, bottom, left, right = pad
    widths = [(0, 0)] * (a.data.ndim - 2) + [(top, bottom), (left, right)]
    data = np.pad(a.data, widths)
    key = (*[slice(None)] * (a.data.ndim - 2),
           slice(top, data.shape[-2] - bottom),
           slice(left, data.shape[-1] - right))

    def bw(g):
        a.accumulate_grad(g[key])

    return _make(data, (a,), bw)

