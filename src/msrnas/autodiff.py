"""Reverse-mode automatic differentiation over dense numpy arrays.

The graph is built dynamically: each operation returns a Tensor holding its
result and, when an input records gradients, a graph node. A node is a
private record of the result's shape, dtype and gradient, the nodes of the
inputs it sends gradients to, and a closure that takes the output gradient
and pushes gradients to those nodes. Calling ``backward()`` on a scalar walks
the recorded nodes once in reverse topological order. Arrays keep whatever
float dtype they were created with, so the same graph code runs in float32
for training and float64 for the numerical test oracles.

Graph lifetime: nodes hold no data. An op's result is freed as soon as the
forward code drops its Tensor, unless a closure saved the array because its
backward reads it. Each closure saves only that:

- ``relu``: its own output, whose mask ``out > 0`` equals ``in > 0``
  (the network's ReLUs on cell states, stem and cell outputs; a
  separable conv's inner ReLU runs inside its BatchNorm node);
- ``matmul`` and ``mul``: their operands; ``power``: its input;
- ``BatchNorm2d``, one node with the chain(s) that feed it (every conv in
  the network runs inside one, and a chain may hold an inner BatchNorm +
  ReLU stage, as a separable conv's does): each chain's input, and μ and
  1/σ of the node's and of each inner stage's normalization; its backward
  runs the chains again to rebuild each x̂, each conv's output and each
  inner stage's output;
- ``cross_entropy``: the shifted exponentials and their row sums;
- ``add``, ``sub``, ``sum_``, ``mean``, ``reshape``, ``transpose``,
  ``concat``, ``slice_`` and ``pad2d``: shapes only.

A closure references its input nodes, never its own output node, so the
graph holds no reference cycles and is freed by reference counting as soon
as the last tensor of it is dropped, without waiting for the cyclic garbage
collector. ``backward()`` consumes the graph: once a node's closure has run,
the node drops its closure, parents and gradient and stops requiring grad,
so the arrays that closure saved are freed while the rest of the backward
pass runs. Afterwards only leaf nodes (those of the parameters and of any
input created with ``requires_grad=True``) hold a gradient, and a second
``backward()`` on the same loss raises StateError.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ArgumentError, DimensionError, StateError

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


class _Node:
    """Graph record of one tensor: everything backward needs but its data.

    A leaf has no closure; an interior node's closure ``backward(g)`` sends
    gradients to ``parents``.
    """

    __slots__ = ("shape", "dtype", "grad", "requires_grad", "parents", "backward")

    def __init__(self, shape: tuple, dtype, parents: tuple = (), backward=None):
        self.shape = shape
        self.dtype = dtype
        self.grad: np.ndarray | None = None
        self.requires_grad = True
        self.parents: tuple[_Node, ...] = parents
        self.backward = backward

    def accumulate(self, g: np.ndarray, own: bool = False) -> None:
        """Add `g` (broadcastable to this shape) into the gradient.

        ``own=True`` promises `g` is a freshly allocated full-shape array the
        caller will not reuse, letting the first accumulation skip a copy.
        """
        if self.grad is None:
            if g.shape == self.shape:
                self.grad = g if own else np.array(g)
            else:
                self.grad = np.zeros(self.shape, self.dtype)
                self.grad += g
        else:
            self.grad += g


class Tensor:
    """Dense N-d array plus, when it records gradients, its graph node."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self._node = _Node(self.data.shape, self.data.dtype) if requires_grad else None

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def requires_grad(self) -> bool:
        return self._node is not None and self._node.requires_grad

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._node.grad = value

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
        topo: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(self._node, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self._node.grad = np.ones_like(self.data)
        # Popping releases the list's reference, so a consumed node and the
        # arrays its closure saved are freed once no later closure needs them.
        while topo:
            node = topo.pop()
            if node.backward is not None:
                node.backward(node.grad)
                node.backward = None
                node.parents = ()
                node.grad = None
                node.requires_grad = False

    # Operator sugar -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, key):
        return slice_(self, key)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x)
    if dtype is not None and arr.dtype != dtype:
        arr = arr.astype(dtype)
    return Tensor(arr)


def _node(t: Tensor) -> _Node | None:
    """The node that receives `t`'s gradient, or None if `t` records none."""
    return t._node if t.requires_grad else None


def _make(data: np.ndarray, parents: Sequence[_Node | None], backward) -> Tensor:
    """Wrap `data` as the output of an op whose inputs have the nodes
    `parents` (None for an input that records no gradient); `backward(g)`
    receives the output's gradient."""
    out = Tensor(data)
    if _grad_enabled:
        live = tuple(p for p in parents if p is not None)
        if live:
            out._node = _Node(out.data.shape, out.data.dtype, live, backward)
    return out


# Elementwise / broadcasting ops -----------------------------------------


def _acc(node: _Node, g: np.ndarray) -> None:
    """Accumulate with broadcast reduction; fresh arrays are handed over."""
    if g.shape == node.shape:
        node.accumulate(g)
    else:
        node.accumulate(_unbroadcast(g, node.shape), own=True)


def add(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    na, nb = _node(a), _node(b)

    def bw(g):
        if na is not None:
            _acc(na, g)
        if nb is not None:
            _acc(nb, g)

    return _make(a.data + b.data, (na, nb), bw)


def sub(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    na, nb = _node(a), _node(b)

    def bw(g):
        if na is not None:
            _acc(na, g)
        if nb is not None:
            if g.shape == nb.shape:
                nb.accumulate(-g, own=True)
            else:
                nb.accumulate(-_unbroadcast(g, nb.shape), own=True)

    return _make(a.data - b.data, (na, nb), bw)


def mul(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    na, nb = _node(a), _node(b)
    a_data, b_data = a.data, b.data

    def bw(g):
        if na is not None:
            ga = g * b_data
            if ga.shape == na.shape:
                na.accumulate(ga, own=True)
            else:
                _acc(na, ga)
        if nb is not None:
            gb = g * a_data
            if gb.shape == nb.shape:
                nb.accumulate(gb, own=True)
            else:
                _acc(nb, gb)

    return _make(a_data * b_data, (na, nb), bw)


def power(a: Tensor, exponent: float) -> Tensor:
    a = _as_tensor(a)
    exponent = float(exponent)
    na, a_data = _node(a), a.data

    def bw(g):
        na.accumulate(g * (exponent * a_data ** (exponent - 1.0)), own=True)

    return _make(a_data ** exponent, (na,), bw)


def relu(a: Tensor) -> Tensor:
    """Elementwise max(0, x); gradient mask is the indicator of x > 0, read
    off the output, which is positive exactly where x is."""
    a = _as_tensor(a)
    na = _node(a)
    data = np.maximum(a.data, 0.0)

    def bw(g):
        na.accumulate(g * (data > 0), own=True)

    return _make(data, (na,), bw)


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
    na, nb = _node(a), _node(b)
    a_data, b_data = a.data, b.data

    def bw(g):
        if na is not None:
            na.accumulate(g @ b_data.T, own=True)
        if nb is not None:
            nb.accumulate(a_data.T @ g, own=True)

    return _make(a_data @ b_data, (na, nb), bw)


# Reductions ---------------------------------------------------------------


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    na = _node(a)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        # Broadcasting += spreads the reduced gradient without a big temp.
        na.accumulate(g)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (na,), bw)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    na = _node(a)
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )

    def bw(g):
        g = g / count
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        na.accumulate(g)

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (na,), bw)


# Shape manipulation -------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    na = _node(a)

    def bw(g):
        na.accumulate(g.reshape(na.shape))

    return _make(a.data.reshape(shape), (na,), bw)


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute the axes, as ``np.transpose`` does (reversed when ``axes`` is
    None); the result is a view."""
    a = _as_tensor(a)
    na = _node(a)
    inverse = None if axes is None else tuple(np.argsort(axes))

    def bw(g):
        na.accumulate(g.transpose(inverse))

    return _make(a.data.transpose(axes), (na,), bw)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    nodes = [_node(t) for t in ts]
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in ts])

    def bw(g):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if n is not None:
                key = [slice(None)] * g.ndim
                key[axis] = slice(lo, hi)
                n.accumulate(g[tuple(key)])

    return _make(np.concatenate([t.data for t in ts], axis=axis), nodes, bw)


def slice_(a: Tensor, key) -> Tensor:
    """Basic indexing (ints, slices, None, Ellipsis). An index array or list
    is refused: the backward's ``+=`` would drop repeated indices."""
    if any(isinstance(k, (list, np.ndarray))
           for k in (key if isinstance(key, tuple) else (key,))):
        raise ArgumentError("slice_ takes basic indices only, not index arrays or lists")
    a = _as_tensor(a)
    na = _node(a)

    def bw(g):
        full = np.zeros(na.shape, na.dtype)
        full[key] += g
        na.accumulate(full, own=True)

    return _make(a.data[key], (na,), bw)


def pad2d(a: Tensor, pad: tuple) -> Tensor:
    """Zero-pad the spatial axes, H and W, of a (C, H, N, W) tensor:
    pad = (top, bottom, left, right)."""
    a = _as_tensor(a)
    na = _node(a)
    top, bottom, left, right = pad
    data = np.pad(a.data, [(0, 0), (top, bottom), (0, 0), (left, right)])
    key = (slice(None), slice(top, data.shape[1] - bottom),
           slice(None), slice(left, data.shape[3] - right))

    def bw(g):
        na.accumulate(g[key])

    return _make(data, (na,), bw)
