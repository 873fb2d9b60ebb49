"""Dense float64 tensors with a reverse-mode gradient tape.

Deliberately small: only the operations needed to express feed-forward
classifiers, softened-softmax losses and the pairwise-distance / triple-angle
relational penalties. Everything is double precision with a deterministic
evaluation order, so repeated runs are bit-identical on the same platform and
finite-difference gradient checks stay tight.

Shape discipline is strict. Binary operations require equal shapes or a scalar
right operand (a python number or a single-element tensor); there is no
general broadcasting. Row-vector bias addition gets its own operation.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "AutodiffError",
    "DIV_GUARD",
    "Tensor",
    "Tape",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "reduce_sum",
    "reduce_mean",
    "relu",
    "sqrt",
    "add_bias",
    "reshape",
    "gather",
    "huber_penalty",
    "softmax_with_temperature",
    "log_softmax_with_temperature",
    "pairwise_l2",
    "backward",
]

# Divisors smaller than this are reported as errors instead of clamped.
DIV_GUARD = 1e-12


class AutodiffError(RuntimeError):
    """Numeric contract violation: non-finite values or an unsafe division."""


class Tensor:
    """N-dimensional float64 array, optionally tracked for gradients.

    ``grad`` stays ``None`` until a backward pass reaches the tensor; ``None``
    means the derivative is identically zero (no path from the differentiated
    scalar back to this tensor).
    """

    __slots__ = ("data", "requires_grad", "grad", "parents", "_rule")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.size and not np.isfinite(arr).all():
            raise AutodiffError("tensor holds non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.parents: tuple = ()
        self._rule = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Copy of the values with no tape history and no gradient tracking."""
        return Tensor(self.data.copy())

    def _accumulate(self, g) -> None:
        # Never add in place: a rule may hand one array to several parents
        # or return a read-only broadcast view.
        self.grad = g if self.grad is None else self.grad + g

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class Tape:
    """Operation records reachable from one scalar, in topological order.

    Every node's inputs precede it in ``nodes``; a single reverse traversal
    therefore visits each node exactly once with its output gradient already
    complete.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes: Sequence[Tensor]):
        self.nodes = list(nodes)

    @classmethod
    def from_root(cls, root: Tensor) -> "Tape":
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited or node._rule is None:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                # Constant subgraphs cannot receive gradients; skip them.
                if parent.requires_grad:
                    stack.append((parent, False))
        return cls(order)

    def backprop(self) -> None:
        for node in reversed(self.nodes):
            g = node.grad
            if g is None:
                continue
            for parent, pg in zip(node.parents, node._rule(g)):
                if parent.requires_grad and pg is not None:
                    parent._accumulate(pg)


def _record(data, op: str, parents: Sequence[Tensor], rule: Callable) -> Tensor:
    data = np.asarray(data, dtype=np.float64)
    if data.size and not np.isfinite(data).all():
        raise AutodiffError(f"non-finite result from '{op}'")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = any(p.requires_grad for p in parents)
    out.grad = None
    out.parents = tuple(parents)
    out._rule = rule
    return out


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _require_tensor(op: str, x) -> None:
    if not isinstance(x, Tensor):
        raise TypeError(f"{op}: expected a Tensor or a scalar, got {type(x).__name__}")


def add(a: Tensor, b) -> Tensor:
    if _is_number(b):
        return _record(a.data + float(b), "add", (a,), lambda g: (g,))
    _require_tensor("add", b)
    if b.data.shape == a.data.shape:
        return _record(a.data + b.data, "add", (a, b), lambda g: (g, g))
    if b.data.size == 1:
        bshape = b.data.shape
        return _record(
            a.data + b.data.reshape(()),
            "add",
            (a, b),
            lambda g: (g, np.asarray(g.sum()).reshape(bshape)),
        )
    raise ValueError(f"add: shape mismatch {a.data.shape} vs {b.data.shape}")


def sub(a: Tensor, b) -> Tensor:
    if _is_number(b):
        return _record(a.data - float(b), "sub", (a,), lambda g: (g,))
    _require_tensor("sub", b)
    if b.data.shape == a.data.shape:
        return _record(a.data - b.data, "sub", (a, b), lambda g: (g, -g))
    if b.data.size == 1:
        bshape = b.data.shape
        return _record(
            a.data - b.data.reshape(()),
            "sub",
            (a, b),
            lambda g: (g, np.asarray(-g.sum()).reshape(bshape)),
        )
    raise ValueError(f"sub: shape mismatch {a.data.shape} vs {b.data.shape}")


def mul(a: Tensor, b) -> Tensor:
    ad = a.data
    if _is_number(b):
        bv = float(b)
        return _record(ad * bv, "mul", (a,), lambda g: (g * bv,))
    _require_tensor("mul", b)
    bd = b.data
    if bd.shape == ad.shape:
        return _record(ad * bd, "mul", (a, b), lambda g: (g * bd, g * ad))
    if bd.size == 1:
        bv = float(bd.reshape(()))
        bshape = bd.shape
        return _record(
            ad * bv,
            "mul",
            (a, b),
            lambda g: (g * bv, np.asarray((g * ad).sum()).reshape(bshape)),
        )
    raise ValueError(f"mul: shape mismatch {ad.shape} vs {bd.shape}")


def div(a: Tensor, b) -> Tensor:
    ad = a.data
    if _is_number(b):
        bv = float(b)
        if abs(bv) < DIV_GUARD:
            raise AutodiffError(f"div: divisor magnitude below {DIV_GUARD:g}")
        return _record(ad / bv, "div", (a,), lambda g: (g / bv,))
    _require_tensor("div", b)
    bd = b.data
    if bd.size and np.abs(bd).min() < DIV_GUARD:
        raise AutodiffError(f"div: divisor magnitude below {DIV_GUARD:g}")
    if bd.shape == ad.shape:
        return _record(
            ad / bd,
            "div",
            (a, b),
            lambda g: (g / bd, -g * ad / (bd * bd)),
        )
    if bd.size == 1:
        bv = float(bd.reshape(()))
        bshape = bd.shape
        return _record(
            ad / bv,
            "div",
            (a, b),
            lambda g: (g / bv, np.asarray(-(g * ad).sum() / (bv * bv)).reshape(bshape)),
        )
    raise ValueError(f"div: shape mismatch {ad.shape} vs {bd.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _require_tensor("matmul", a)
    _require_tensor("matmul", b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ValueError(f"matmul expects 2-d tensors, got {ad.shape} and {bd.shape}")
    if ad.shape[1] != bd.shape[0]:
        raise ValueError(f"matmul: inner dimensions differ, {ad.shape} vs {bd.shape}")
    return _record(ad @ bd, "matmul", (a, b), lambda g: (g @ bd.T, ad.T @ g))


def _normalized_axis(x: Tensor, axis) -> int | None:
    if axis is None:
        return None
    if not isinstance(axis, (int, np.integer)):
        raise ValueError(f"reduce axis must be an int or None, got {axis!r}")
    nd = x.data.ndim
    if not -nd <= axis < nd:
        raise ValueError(f"reduce axis {axis} invalid for shape {x.data.shape}")
    return int(axis) % nd


def reduce_sum(x: Tensor, axis=None) -> Tensor:
    ax = _normalized_axis(x, axis)
    shape = x.data.shape
    if ax is None:
        rule = lambda g: (np.broadcast_to(g, shape),)
    else:
        rule = lambda g: (np.broadcast_to(np.expand_dims(g, ax), shape),)
    return _record(x.data.sum(axis=ax), "sum", (x,), rule)


def reduce_mean(x: Tensor, axis=None) -> Tensor:
    ax = _normalized_axis(x, axis)
    shape = x.data.shape
    count = x.data.size if ax is None else shape[ax]
    if count == 0:
        raise ValueError("mean over zero elements")
    scale = 1.0 / count
    if ax is None:
        rule = lambda g: (np.broadcast_to(g * scale, shape),)
    else:
        rule = lambda g: (np.broadcast_to(np.expand_dims(g * scale, ax), shape),)
    return _record(x.data.sum(axis=ax) * scale, "mean", (x,), rule)


def relu(x: Tensor) -> Tensor:
    xd = x.data
    return _record(np.maximum(xd, 0.0), "relu", (x,), lambda g: (g * (xd > 0.0),))


def sqrt(x: Tensor) -> Tensor:
    xd = x.data
    if xd.size and xd.min() < 0.0:
        raise AutodiffError("sqrt of a negative value")
    out = np.sqrt(xd)
    # Subgradient 0 at exactly zero, matching the coincident-point convention.
    def rule(g):
        return (np.divide(0.5 * g, out, out=np.zeros_like(out), where=out > 0.0),)

    return _record(out, "sqrt", (x,), rule)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-m row vector to every row of an (n, m) tensor."""
    _require_tensor("add_bias", b)
    if x.data.ndim != 2 or b.data.ndim != 1 or x.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"add_bias: incompatible shapes {x.data.shape} and {b.data.shape}")
    return _record(x.data + b.data, "add_bias", (x, b), lambda g: (g, g.sum(axis=0)))


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape
    return _record(x.data.reshape(shape), "reshape", (x,), lambda g: (g.reshape(old),))


def gather(x: Tensor, indices) -> Tensor:
    """Select along the first axis; repeated indices accumulate gradient."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("gather indices must be one-dimensional")
    if x.data.ndim < 1:
        raise ValueError("gather needs at least a 1-d tensor")
    n = x.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"gather index out of range for first axis of size {n}")
    xd = x.data

    def rule(g):
        # One bincount over flat (row, column) positions: repeated rows add up
        # in index order, the same order on every run.
        width = xd.size // n if n else 0
        flat = (idx[:, None] * width + np.arange(width)).reshape(-1)
        gx = np.bincount(flat, weights=g.reshape(-1), minlength=xd.size)
        return (gx.reshape(xd.shape),)

    return _record(np.take(xd, idx, axis=0), "gather", (x,), rule)


def huber_penalty(x: Tensor) -> Tensor:
    """Elementwise penalty: quadratic within unit magnitude, linear beyond.

    Continuously differentiable at the seam, with derivative clip(x, -1, 1).
    """
    xd = x.data
    out = np.where(np.abs(xd) <= 1.0, 0.5 * xd * xd, np.abs(xd) - 0.5)
    return _record(out, "huber_penalty", (x,), lambda g: (g * np.clip(xd, -1.0, 1.0),))


def softmax_with_temperature(z: Tensor, t: float) -> Tensor:
    """Row softmax of z / t for a 2-d (batch, classes) tensor."""
    if not (_is_number(t) and t > 0):
        raise ValueError("temperature must be a positive number")
    if z.data.ndim != 2:
        raise ValueError(f"softmax expects a 2-d tensor, got shape {z.data.shape}")
    t = float(t)
    u = z.data / t
    u = u - u.max(axis=1, keepdims=True)
    e = np.exp(u)
    s = e / e.sum(axis=1, keepdims=True)

    def rule(g):
        return ((s * (g - (g * s).sum(axis=1, keepdims=True))) / t,)

    return _record(s, "softmax_with_temperature", (z,), rule)


def log_softmax_with_temperature(z: Tensor, t: float) -> Tensor:
    """Row log-softmax of z / t, computed stably for large logits."""
    if not (_is_number(t) and t > 0):
        raise ValueError("temperature must be a positive number")
    if z.data.ndim != 2:
        raise ValueError(f"log_softmax expects a 2-d tensor, got shape {z.data.shape}")
    t = float(t)
    u = z.data / t
    m = u.max(axis=1, keepdims=True)
    shifted = u - m
    out = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    s = np.exp(out)

    def rule(g):
        return ((g - s * g.sum(axis=1, keepdims=True)) / t,)

    return _record(out, "log_softmax_with_temperature", (z,), rule)


def pairwise_l2(e: Tensor) -> Tensor:
    """All-pairs euclidean distance matrix of the rows of an (n, d) tensor.

    The diagonal is exactly zero. Coincident rows get distance 0 with zero
    gradient (the chosen subgradient at the non-differentiable point).
    """
    ed = e.data
    if ed.ndim != 2:
        raise ValueError(f"pairwise_l2 expects a 2-d tensor, got shape {ed.shape}")
    if ed.shape[0] < 2:
        raise ValueError("pairwise_l2 needs at least 2 rows")
    diff = ed[:, None, :] - ed[None, :, :]
    d2 = (diff * diff).sum(axis=-1)
    dist = np.sqrt(d2)
    np.fill_diagonal(dist, 0.0)

    def rule(g):
        w = np.divide(g, dist, out=np.zeros_like(g), where=dist > 0.0)
        s = w + w.T
        ge = s.sum(axis=1, keepdims=True) * ed - s @ ed
        return (ge,)

    return _record(dist, "pairwise_l2", (e,), rule)


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep seeding d(loss)/d(loss) = 1.

    Gradients accumulate additively over multiple paths; tensors with
    ``requires_grad=False`` are never written to.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss._rule is None:
        raise AutodiffError("backward on an empty tape (loss is a leaf tensor)")
    tape = Tape.from_root(loss)
    loss.grad = np.ones_like(loss.data)
    tape.backprop()

