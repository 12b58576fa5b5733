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

A graph is differentiated once: ``backward`` releases each node's closure
and each interior node's ``data`` (leaves and the output keep theirs) as it
goes, and a second ``backward`` through it raises ``GraphConsumed``.  ReLU
is fused into ``affine`` and ``sparse_affine`` (``relu=True``), so no
pre-activation is kept.

The model's loss is two nodes with hand-written backwards:
``log_likelihood`` reads X' at a batch's nonzero entries alone, and
``gaussian_kl`` sums the closed-form Gaussian KL terms.  Evaluation takes its
log-likelihood from the same node, on a graph-free tensor.  No backward
reads X''s value, so ``model.forward_batch`` releases X' as soon as the
loss has gathered its entries: a training step never holds X' and its
gradient at once, and X' must be read before ``forward_batch`` returns.

Backward closures receive the output gradient as an argument and capture
only input tensors and saved arrays, never the output node itself, so a
released graph is reclaimed by reference counting alone (no cycles).
Gradient buffers are never mutated in place (Adam only reads them);
accumulation rebinds ``t.grad``, so freshly computed arrays may be shared
safely.  A zeroed gradient is a read-only all-zero view, which the first
accumulation replaces rather than adds to; a parameter's gradient is always
an array (``backward`` frees only the interior nodes' gradients).

Given a parameter store and its Adam state, ``backward`` steps each
parameter the moment the walk has completed its gradient and zeroes that
gradient again, so a step never holds every gradient of the store at once.
``adam_update`` takes the same step for gradients that must all be complete
first (a global-norm clip).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes do not conform for the requested primitive."""


class NotScalar(ValueError):
    """backward() was asked to differentiate a non-1x1 output."""


class GraphConsumed(RuntimeError):
    """backward() reached a node that an earlier backward has released, or a
    read asked for the value of a node whose value was released."""


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
        if arr.ndim != 2:
            raise ShapeMismatch(f"expected a 2-D array, got ndim={arr.ndim}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires = requires
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    def _value(self) -> np.ndarray:
        if self.data is None:
            raise GraphConsumed("read of a graph node whose value was released")
        return self.data

    @property
    def rows(self) -> int:
        return self._value().shape[0]

    @property
    def cols(self) -> int:
        return self._value().shape[1]

    def item(self) -> float:
        data = self._value()
        if data.size != 1:
            raise NotScalar(f"item() on a {data.shape} tensor")
        return float(data[0, 0])

    def __repr__(self) -> str:
        shape = "released" if self.data is None else self.data.shape
        return f"Tensor(shape={shape}, requires={self.requires})"


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


def affine(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """x @ w + b, with b a 1-row bias broadcast over the rows of x.

    relu gives clamp_min(affine(x, w, b), 0.0) bit for bit in one node: the
    backward masks g with out > 0, which is pre > 0 for NaN and ±0 too.
    """
    if x.cols != w.rows:
        raise ShapeMismatch(f"affine: x is {x.data.shape}, w is {w.data.shape}")
    if b.rows != 1 or b.cols != w.cols:
        raise ShapeMismatch(f"affine: bias must be 1x{w.cols}, got {b.data.shape}")

    def back(g: np.ndarray) -> None:
        if relu:
            g = g * (out > 0.0)
        if x.requires:
            _accum(x, g @ w.data.T)
        if w.requires:
            _accum(w, x.data.T @ g)
        if b.requires:
            _accum(b, g.sum(axis=0, keepdims=True))

    out = x.data @ w.data
    out += b.data
    if relu:
        np.maximum(out, 0.0, out=out)
    return _node(out, (x, w, b), back)


def sparse_affine(x, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """x @ w + b for a constant (B, V) scipy.sparse CSC array x in w's dtype;
    relu as in affine.

    The products run over x's nonzeros alone: the forward is scipy's CSC
    kernel, and w's gradient is x.T @ g, where x.T is the CSR array of x
    transposed, taken without a copy.  x gets no gradient.
    """
    if x.shape[1] != w.rows:
        raise ShapeMismatch(f"sparse_affine: x is {x.shape}, w is {w.data.shape}")
    if b.rows != 1 or b.cols != w.cols:
        raise ShapeMismatch(f"sparse_affine: bias must be 1x{w.cols}, got {b.data.shape}")

    def back(g: np.ndarray) -> None:
        if relu:
            g = g * (out > 0.0)
        if w.requires:
            _accum(w, x.T @ g)
        if b.requires:
            _accum(b, g.sum(axis=0, keepdims=True))

    out = x @ w.data
    out += b.data
    if relu:
        np.maximum(out, 0.0, out=out)
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


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction for stability."""
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def back(g: np.ndarray) -> None:
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(x, y * (g - dot))

    return _node(y, (x,), back)


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


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def back(g: np.ndarray) -> None:
        _accum(x, g * c)

    return _node(x.data * c, (x,), back)


def sum_all(x: Tensor) -> Tensor:
    shape = x.data.shape

    def back(g: np.ndarray) -> None:
        _accum(x, np.full(shape, g[0, 0], dtype=x.data.dtype))

    return _node(np.array([[x.data.sum()]]), (x,), back)


def log_likelihood(x: Tensor, rows, cols, counts: np.ndarray, floor: float) -> Tensor:
    """The 1x1 sum of counts * log(max(x[rows, cols], floor)), summed in the
    dtype of counts * x.

    x is read at the listed entries alone, and only here: the backward
    takes x's shape and dtype from the forward, so an interior x may have
    its value released once this returns (``model.forward_batch`` releases
    X').  The (row, col) pairs must be distinct: the backward scatters the
    entries' gradient into zeros shaped like x by assignment, so a repeated
    pair would keep only one of its gradients.  The gradient reaches an
    entry only where x > floor (not NaN).
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if not rows.shape == cols.shape == np.shape(counts) or rows.ndim != 1:
        raise ShapeMismatch(
            f"log_likelihood: rows {rows.shape}, cols {cols.shape}, counts {np.shape(counts)}"
        )
    picked = x.data[rows, cols]
    clamped = np.maximum(picked, floor)
    shape, dtype = x.data.shape, x.data.dtype

    def back(g: np.ndarray) -> None:
        out = np.zeros(shape, dtype=dtype)
        out[rows, cols] = g[0, 0] * counts / clamped * (picked > floor)
        _accum(x, out)

    return _node(np.array([[(counts * np.log(clamped)).sum()]]), (x,), back)


def gaussian_kl(mu: Tensor, logvar: Tensor) -> Tensor:
    """The 1x1 sum of mu^2 + exp(logvar) - logvar - 1 over every entry:
    twice KL(N(mu, exp(logvar)) || N(0, I)) summed over the rows."""
    if mu.data.shape != logvar.data.shape:
        raise ShapeMismatch(f"gaussian_kl: {mu.data.shape} vs {logvar.data.shape}")
    # overflow saturates to inf; divergence detection downstream handles it
    with np.errstate(over="ignore"):
        var = np.exp(logvar.data)

    def back(g: np.ndarray) -> None:
        g = np.broadcast_to(g, var.shape)
        # one contribution at a time, in the order a graph of elementwise
        # nodes adds them: the closed forms 2g*mu and g*(var - 1) round
        # differently, and would change every trained parameter's bits
        _accum(logvar, -g)
        _accum(mu, g * mu.data)
        _accum(mu, g * mu.data)
        _accum(logvar, g * var)

    return _node(np.array([[(mu.data * mu.data + var - logvar.data - 1.0).sum()]]), (mu, logvar), back)


# ---------------------------------------------------------------------------
# backward pass


def backward(
    output: Tensor,
    params: ParamStore | None = None,
    state: AdamState | None = None,
) -> None:
    """Accumulate d(output)/d(leaf) into every requires-grad leaf, and
    release the graph on the way.

    The output must be 1x1; gradients add onto whatever is already in the
    leaves' buffers (zero them between steps).  A graph that reaches a
    node an earlier backward released raises GraphConsumed before any
    gradient moves.

    Given params and their Adam state, backward also takes one Adam step:
    each parameter of the store is updated as soon as the reverse walk
    reaches it, when every node that reads it has run and its gradient is
    complete, and its gradient is then the zero view again.  A parameter
    the walk does not reach is stepped after the walk.  The parameters and
    the state end bit for bit as after backward(output) and then
    adam_update(params, state); leaves outside the store keep their
    gradients.
    """
    if output.data.size != 1:
        raise NotScalar(f"backward on a {output.data.shape} output")
    if (params is None) != (state is None):
        raise ValueError("backward takes a parameter store and its Adam state together")

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
        if node._parents and node._backward is None:
            raise GraphConsumed("backward through a graph an earlier backward released")
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires and id(p) not in visited:
                stack.append((p, False))

    # the store's parameters not yet stepped, by identity
    pending = {} if params is None else {id(t): (name, t) for name, t in params.items()}
    step = None if state is None else _adam_step(state)
    output.grad = np.ones_like(output.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
            node._backward = None
            # interior gradients and data are transient: no node run later
            # (its inputs) reads them
            if node is not output:
                node.grad = None
                node.data = None
        elif id(node) in pending:
            step(*pending.pop(id(node)))
    for name, t in pending.values():
        step(name, t)


# ---------------------------------------------------------------------------
# parameters and optimization


class ParamStore:
    """Named trainable tensors, each with its own same-shape gradient buffer.

    A parameter keeps the dtype it was added with (float32 stays float32,
    anything else becomes float64); models compute in that dtype.
    """

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, array: np.ndarray, copy: bool = True) -> Tensor:
        """A new parameter holding a C-ordered copy of array, or with
        copy=False the (C-ordered, float32 or float64) array itself."""
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(_as_float(array, copy=copy), requires=True)
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
            if not _is_zero_grad(t.grad):  # adds exactly 0.0
                sq += float((t.grad * t.grad).sum())
        return float(np.sqrt(sq))

    def scale_grads(self, factor: float) -> None:
        """Multiply every gradient by factor; a zeroed gradient stays the
        zero view."""
        for t in self._params.values():
            if not _is_zero_grad(t.grad):
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


def _adam_step(state: AdamState) -> Callable[[str, Tensor], None]:
    """Advance state to its next step, and return the update of one named
    parameter in that step, which zeroes its gradient.

    A parameter is updated in blocks of ADAM_BLOCK elements on the calling
    thread.  Each element sees the same operations in the same order as an
    unblocked step, so the result is bit for bit the same.  The moments are
    updated in place; gradient arrays, which may be shared, are only read.
    A parameter with a zeroed gradient and no moments yet is left alone,
    without moments: a step from zero moments and a zero gradient moves
    nothing (for a finite learning rate and eps > 0).
    """
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    scratch: dict[np.dtype, np.ndarray] = {}

    def step(name: str, p: Tensor) -> None:
        if name not in state.m:
            if _is_zero_grad(p.grad):
                return
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        if p.data.dtype not in scratch:
            scratch[p.data.dtype] = np.empty(ADAM_BLOCK, dtype=p.data.dtype)
        # ParamStore.add stores C-ordered copies, so the flat views of the
        # parameter and its moments write through; the gradient is only read
        flat = [np.ravel(a) for a in (p.data, p.grad, state.m[name], state.v[name])]
        for lo in range(0, p.data.size, ADAM_BLOCK):
            pb, gb, mb, vb = (a[lo:lo + ADAM_BLOCK] for a in flat)
            buf = scratch[p.data.dtype][:pb.size]
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
        p.grad = _zero_grad(p.data)

    return step


def adam_update(params: ParamStore, state: AdamState) -> None:
    """One bias-corrected Adam step over every parameter, in store order;
    zeroes gradients.  backward(output, params, state) takes the same step
    inside the backward pass."""
    step = _adam_step(state)
    for name, p in params.items():
        step(name, p)
