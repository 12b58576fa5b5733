"""Reverse-mode automatic differentiation over dense 2-D float arrays.

One primitive, ``sparse_affine``, also takes a constant ``scipy.sparse`` CSC
input; nothing here imports scipy.

Arrays are float32 when given as float32 and float64 otherwise; every
primitive computes its output and its gradients in its operands' dtype, so
a graph built from float32 parameters and inputs stays float32 end to end.

The graph is rebuilt on every forward evaluation (define-by-run): each
primitive returns a new Tensor that remembers its inputs and how to push a
gradient back to them.  ``backward()`` walks the graph in reverse
topological order from a 1x1 output and accumulates d(output)/d(leaf) into
every leaf created with ``requires=True``.

Backward closures receive the output gradient as an argument and capture
only input tensors and saved arrays, never the output node itself, so a
released graph is reclaimed by reference counting alone (no cycles).
Gradient buffers are never mutated in place (``adam_update`` only reads
them); accumulation rebinds ``t.grad``, so freshly computed arrays may be
shared safely.  A zeroed gradient is a read-only all-zero view, which the
first accumulation replaces rather than adds to; a parameter's gradient is
always an array (``backward`` frees only the interior nodes' gradients).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes do not conform for the requested primitive."""


class DomainError(ValueError):
    """An input lies outside a primitive's domain (e.g. log of x <= 0)."""


class NotScalar(ValueError):
    """backward() was asked to differentiate a non-1x1 output."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph recording inside the block (pure evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_float(data, copy: bool = False) -> np.ndarray:
    """data as a float32 array if it is float32, else float64; copy gives a C-ordered copy."""
    arr = np.asarray(data)
    dtype = np.float32 if arr.dtype.type is np.float32 else np.float64
    return np.array(arr, dtype=dtype, order="C") if copy else np.asarray(arr, dtype=dtype)


class Tensor:
    """A dense 2-D float array, optionally a node in the current graph.

    float32 data stays float32; any other data becomes float64.
    """

    __slots__ = ("data", "grad", "requires", "_parents", "_backward")

    def __init__(self, data, requires: bool = False):
        arr = _as_float(data)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeMismatch(f"expected a 2-D array, got ndim={arr.ndim}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires = requires
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def item(self) -> float:
        if self.data.size != 1:
            raise NotScalar(f"item() on a {self.data.shape} tensor")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires={self.requires})"


# read-only 0-d zeros that every zeroed gradient is a broadcast view of
_ZERO = {np.dtype(dt): np.zeros((), dtype=dt) for dt in (np.float32, np.float64)}
for _z in _ZERO.values():
    _z.flags.writeable = False


def _zero_grad(data: np.ndarray) -> np.ndarray:
    """An all-zero gradient shaped like data: a read-only broadcast view that
    takes no memory, and that _accum replaces instead of adding to."""
    return np.broadcast_to(_ZERO[data.dtype], data.shape)


def _is_zero_grad(g: np.ndarray) -> bool:
    zero = _ZERO.get(g.dtype)
    return zero is not None and g.base is zero


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires:
        return
    t.grad = g if t.grad is None or _is_zero_grad(t.grad) else t.grad + g


def _node(
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    back: Callable[[np.ndarray], None],
) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires for p in parents):
        out.requires = True
        out._parents = parents
        out._backward = back
    return out


# ---------------------------------------------------------------------------
# primitives


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b, with b a 1-row bias broadcast over the rows of x."""
    if x.cols != w.rows:
        raise ShapeMismatch(f"affine: x is {x.data.shape}, w is {w.data.shape}")
    if b.rows != 1 or b.cols != w.cols:
        raise ShapeMismatch(f"affine: bias must be 1x{w.cols}, got {b.data.shape}")

    def back(g: np.ndarray) -> None:
        if x.requires:
            _accum(x, g @ w.data.T)
        if w.requires:
            _accum(w, x.data.T @ g)
        if b.requires:
            _accum(b, g.sum(axis=0, keepdims=True))

    return _node(x.data @ w.data + b.data, (x, w, b), back)


def sparse_affine(x, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a constant (B, V) scipy.sparse CSC array x in w's dtype.

    The products run over x's nonzeros alone: the forward is scipy's CSC
    kernel, and w's gradient is x.T @ g, where x.T is the CSR array of x
    transposed, taken without a copy.  x gets no gradient.
    """
    if x.shape[1] != w.rows:
        raise ShapeMismatch(f"sparse_affine: x is {x.shape}, w is {w.data.shape}")
    if b.rows != 1 or b.cols != w.cols:
        raise ShapeMismatch(f"sparse_affine: bias must be 1x{w.cols}, got {b.data.shape}")

    def back(g: np.ndarray) -> None:
        if w.requires:
            _accum(w, x.T @ g)
        if b.requires:
            _accum(b, g.sum(axis=0, keepdims=True))

    out = x @ w.data
    out += b.data
    return _node(out, (w, b), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeMismatch(f"matmul: {a.data.shape} @ {b.data.shape}")

    def back(g: np.ndarray) -> None:
        if a.requires:
            _accum(a, g @ b.data.T)
        if b.requires:
            _accum(b, a.data.T @ g)

    return _node(a.data @ b.data, (a, b), back)


def transpose(x: Tensor) -> Tensor:
    def back(g: np.ndarray) -> None:
        _accum(x, g.T)

    return _node(x.data.T, (x,), back)


def relu(x: Tensor) -> Tensor:
    return clamp_min(x, 0.0)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction for stability."""
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def back(g: np.ndarray) -> None:
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(x, y * (g - dot))

    return _node(y, (x,), back)


def log_rows(x: Tensor) -> Tensor:
    """Elementwise natural log; every entry must be strictly positive."""
    if np.any(x.data <= 0.0):
        raise DomainError("log_rows: nonpositive entry")

    def back(g: np.ndarray) -> None:
        _accum(x, g / x.data)

    return _node(np.log(x.data), (x,), back)


def exp(x: Tensor) -> Tensor:
    # overflow saturates to inf; divergence detection downstream handles it
    with np.errstate(over="ignore"):
        y = np.exp(x.data)

    def back(g: np.ndarray) -> None:
        _accum(x, g * y)

    return _node(y, (x,), back)


def clamp_min(x: Tensor, floor: float) -> Tensor:
    """max(x, floor) elementwise, NaN kept; gradient passes only where
    x > floor."""
    mask = x.data > floor

    def back(g: np.ndarray) -> None:
        _accum(x, g * mask)

    return _node(np.maximum(x.data, floor), (x,), back)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"hadamard: {a.data.shape} vs {b.data.shape}")

    def back(g: np.ndarray) -> None:
        if a.requires:
            _accum(a, g * b.data)
        if b.requires:
            _accum(b, g * a.data)

    return _node(a.data * b.data, (a, b), back)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"add: {a.data.shape} vs {b.data.shape}")

    def back(g: np.ndarray) -> None:
        _accum(a, g)
        _accum(b, g)

    return _node(a.data + b.data, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"sub: {a.data.shape} vs {b.data.shape}")

    def back(g: np.ndarray) -> None:
        _accum(a, g)
        _accum(b, -g)

    return _node(a.data - b.data, (a, b), back)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def back(g: np.ndarray) -> None:
        _accum(x, g * c)

    return _node(x.data * c, (x,), back)


def add_scalar(x: Tensor, c: float) -> Tensor:
    def back(g: np.ndarray) -> None:
        _accum(x, g)

    return _node(x.data + float(c), (x,), back)


def gather(x: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """The entries x[rows[i], cols[i]] as one 1 x n row.

    The (row, col) pairs must be distinct: the backward scatters the row's
    gradient into zeros shaped like x by assignment, so a repeated pair
    would keep only one of its gradients.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ShapeMismatch(f"gather: rows {rows.shape} and cols {cols.shape}")

    def back(g: np.ndarray) -> None:
        out = np.zeros_like(x.data)
        out[rows, cols] = g[0]
        _accum(x, out)

    return _node(x.data[rows, cols], (x,), back)


def sum_all(x: Tensor) -> Tensor:
    shape = x.data.shape

    def back(g: np.ndarray) -> None:
        _accum(x, np.full(shape, g[0, 0], dtype=x.data.dtype))

    return _node(np.array([[x.data.sum()]]), (x,), back)


# ---------------------------------------------------------------------------
# backward pass


def backward(output: Tensor) -> None:
    """Accumulate d(output)/d(leaf) into every requires-grad leaf.

    The output must be 1x1; gradients add onto whatever is already in the
    leaves' buffers (zero them between steps).
    """
    if output.data.size != 1:
        raise NotScalar(f"backward on a {output.data.shape} output")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires and id(p) not in visited:
                stack.append((p, False))

    output.grad = np.ones_like(output.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
            # interior gradients are transient; free them eagerly
            if node is not output:
                node.grad = None


# ---------------------------------------------------------------------------
# parameters and optimization


class ParamStore:
    """Named trainable tensors, each with its own same-shape gradient buffer.

    A parameter keeps the dtype it was added with (float32 stays float32,
    anything else becomes float64); models compute in that dtype.
    """

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, array: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(_as_float(array, copy=True), requires=True)
        t.grad = _zero_grad(t.data)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grads(self) -> None:
        """Every gradient reads as zeros again, without a full-size pass: the
        next backward binds its first gradient instead of adding it."""
        for t in self._params.values():
            t.grad = _zero_grad(t.data)

    def grad_global_norm(self) -> float:
        sq = 0.0
        for t in self._params.values():
            sq += float((t.grad * t.grad).sum())
        return float(np.sqrt(sq))

    def scale_grads(self, factor: float) -> None:
        for t in self._params.values():
            t.grad = t.grad * factor


@dataclass
class AdamState:
    """Adam moments and hyperparameters; one entry per parameter name."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


# elements per Adam block: the block's slices of the parameter, gradient,
# moments and scratch stay in cache across the step's elementwise passes
ADAM_BLOCK = 1 << 16


def adam_update(params: ParamStore, state: AdamState) -> None:
    """One bias-corrected Adam step over every parameter; zeroes gradients.

    Every parameter is updated in blocks of ADAM_BLOCK elements on the
    calling thread.  Each element sees the same operations in the same
    order as an unblocked step, so the result is bit for bit the same.  The
    moments are updated in place; gradient arrays, which may be shared, are
    only read.
    """
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    scratch = None
    for name, p in params.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        if scratch is None or scratch.dtype != p.data.dtype:
            scratch = np.empty(ADAM_BLOCK, dtype=p.data.dtype)
        # ParamStore.add stores C-ordered copies, so the flat views of the
        # parameter and its moments write through; the gradient is only read
        flat = [np.ravel(a) for a in (p.data, p.grad, state.m[name], state.v[name])]
        for lo in range(0, p.data.size, ADAM_BLOCK):
            pb, gb, mb, vb = (a[lo:lo + ADAM_BLOCK] for a in flat)
            buf = scratch[:pb.size]
            mb *= b1
            vb *= b2
            np.multiply(gb, 1.0 - b1, out=buf)
            mb += buf
            np.multiply(gb, gb, out=buf)
            buf *= 1.0 - b2
            vb += buf
            # lr * (m / c1) / (sqrt(v / c2) + eps)
            np.divide(vb, c2, out=buf)
            np.sqrt(buf, out=buf)
            buf += state.eps
            np.divide(mb, buf, out=buf)
            buf *= state.lr / c1
            pb -= buf
    params.zero_grads()

