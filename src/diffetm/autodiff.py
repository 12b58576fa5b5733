"""Reverse-mode automatic differentiation over dense 2-D float64 arrays.

The graph is rebuilt on every forward evaluation (define-by-run): each
primitive returns a new Tensor that remembers its inputs and how to push a
gradient back to them.  ``backward()`` walks the graph in reverse
topological order from a 1x1 output and accumulates d(output)/d(leaf) into
every leaf created with ``requires=True``.

Backward closures receive the output gradient as an argument and capture
only input tensors and saved arrays, never the output node itself, so a
released graph is reclaimed by reference counting alone (no cycles).
Gradient buffers are never mutated in place; accumulation rebinds
``t.grad``, so freshly computed arrays may be shared safely.
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


# Debug-mode switch: when True, every Tensor construction rejects NaN/Inf.
check_finite = False

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


class Tensor:
    """A dense 2-D float64 array, optionally a node in the current graph."""

    __slots__ = ("data", "grad", "requires", "_parents", "_backward")

    def __init__(self, data, requires: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeMismatch(f"expected a 2-D array, got ndim={arr.ndim}")
        if check_finite and not np.all(np.isfinite(arr)):
            raise DomainError("tensor contains NaN or Inf entries")
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


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires:
        return
    t.grad = g if t.grad is None else t.grad + g


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
    mask = x.data > 0.0

    def back(g: np.ndarray) -> None:
        _accum(x, g * mask)

    return _node(np.where(mask, x.data, 0.0), (x,), back)


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
    """max(x, floor) elementwise; gradient passes only where x > floor."""
    mask = x.data > floor

    def back(g: np.ndarray) -> None:
        _accum(x, g * mask)

    return _node(np.where(mask, x.data, floor), (x,), back)


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


def sum_all(x: Tensor) -> Tensor:
    shape = x.data.shape

    def back(g: np.ndarray) -> None:
        _accum(x, np.full(shape, g[0, 0]))

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

    output.grad = np.ones((1, 1))
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
            # interior gradients are transient; free them eagerly
            if node is not output:
                node.grad = None


# ---------------------------------------------------------------------------
# parameters and optimization


class ParamStore:
    """Named trainable tensors, each with its own same-shape gradient buffer."""

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, array: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.array(array, dtype=np.float64), requires=True)
        t.grad = np.zeros_like(t.data)
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
        for t in self._params.values():
            t.grad = np.zeros_like(t.data)

    def grad_global_norm(self) -> float:
        sq = 0.0
        for t in self._params.values():
            if t.grad is not None:
                sq += float((t.grad * t.grad).sum())
        return float(np.sqrt(sq))

    def scale_grads(self, factor: float) -> None:
        for t in self._params.values():
            if t.grad is not None:
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


def adam_update(params: ParamStore, state: AdamState) -> None:
    """One bias-corrected Adam step over every parameter; zeroes gradients."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        p.data -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    params.zero_grads()


# ---------------------------------------------------------------------------
# gradient checking


def finite_diff_check(
    params: ParamStore,
    name: str,
    loss_fn: Callable[[], Tensor],
    step: float = 1e-5,
    max_coords: int = 8,
    seed: int = 0,
) -> float:
    """Compare analytic gradients of loss_fn against central differences.

    loss_fn must be deterministic (freeze any noise source by reconstructing
    it inside the closure).  Returns the max over sampled coordinates of
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    params.zero_grads()
    backward(loss_fn())
    analytic = params[name].grad.copy()

    flat = params[name].data.reshape(-1)
    n = flat.size
    rng = np.random.default_rng(seed)
    coords = rng.choice(n, size=min(max_coords, n), replace=False)

    worst = 0.0
    for idx in coords:
        orig = flat[idx]
        flat[idx] = orig + step
        f_plus = loss_fn().item()
        flat[idx] = orig - step
        f_minus = loss_fn().item()
        flat[idx] = orig
        numeric = (f_plus - f_minus) / (2.0 * step)
        a = analytic.reshape(-1)[idx]
        rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
        worst = max(worst, rel)
    params.zero_grads()
    return worst
