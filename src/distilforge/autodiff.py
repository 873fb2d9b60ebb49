"""Dense float64 tensors with a reverse-mode gradient tape.

Deliberately small: only the operations needed to express feed-forward
classifiers, softened-softmax losses and the pairwise-distance / triple-angle
relational penalties. Everything is double precision with a deterministic
evaluation order, so repeated runs are bit-identical on the same platform and
finite-difference gradient checks stay tight.

Shape discipline is strict. Binary operations require two tensors of equal
shape; `mul` and `div` also take a python number as the right operand, and
`div` a single-element tensor. There is no general broadcasting. Row-vector
bias addition gets its own operation. `legs` takes the (n, m, d) legs from
n rows to their m other endpoints in one record. `triple_cosines` takes its
cosines from one batched Gram matrix of those legs, at the cells an (n, m, m)
boolean mask selects, and scatters its gradient back by the same mask.

Every tensor holds finite values: `Tensor` checks what it wraps, and each op
checks its result unless finite inputs cannot give a non-finite one. `relu`,
`sqrt`, `gather`, `reshape` and `huber_penalty` skip the check (each op
states why); every other op can overflow, `legs` and `triple_cosines` too,
the latter since its `lengths` is an input of its own and may be far
shorter than the legs. A record whose inputs all are constants keeps
neither its inputs nor its gradient rule, so evaluation forwards, which run
over constant views of the weights, hold no references to their inputs.
The two-tensor rules of `sub`, `mul`, `div` and `matmul` give a constant
operand (the input batch, a frozen weight, the peer side of a relation gap)
`None` instead of a gradient that would be thrown away.
"""

from __future__ import annotations

import math
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
    "legs",
    "triple_cosines",
    "huber_penalty",
    "softmax_rows",
    "log_softmax_with_temperature",
    "pairwise_l2",
    "backward",
]

# Divisors smaller than this are reported as errors instead of clamped.
DIV_GUARD = 1e-12

# Rows closer than this are coincident: `pairwise_l2` gives them distance 0,
# with zero gradient, and the relation term skips triples touching them.
COINCIDENCE_EPS = 1e-8


class AutodiffError(RuntimeError):
    """Numeric contract violation: non-finite values or an unsafe division."""


class Tensor:
    """N-dimensional float64 array, optionally tracked for gradients.

    ``grad`` stays ``None`` until a backward pass reaches the tensor; ``None``
    means the derivative is identically zero (no path from the differentiated
    scalar back to this tensor). Only leaves keep it: an op's output holds
    its gradient until the pass has handed it on to the op's inputs.
    """

    __slots__ = ("data", "requires_grad", "grad", "parents", "_rule")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not _all_finite(arr):
            raise AutodiffError("tensor holds non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.parents: tuple = ()
        self._rule = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

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
        # Depth-first post-order. A None on the stack marks that every input
        # of the node below it is ordered, so that node comes next.
        order: list[Tensor] = []
        visited: set[Tensor] = set()
        stack: list = [root]
        while stack:
            node = stack.pop()
            if node is None:
                order.append(stack.pop())
                continue
            if node in visited or node._rule is None:
                continue
            visited.add(node)
            stack.append(node)
            stack.append(None)
            for parent in node.parents:
                # Constant subgraphs cannot receive gradients; skip them.
                if parent.requires_grad:
                    stack.append(parent)
        return cls(order)

    def backprop(self) -> None:
        for node in reversed(self.nodes):
            g = node.grad
            if g is None:
                continue
            # An interior gradient is spent once its rule has run; kept, a
            # later backward through this node would add it again.
            node.grad = None
            for parent, pg in zip(node.parents, node._rule(g)):
                if pg is not None and parent.requires_grad:
                    # Never add in place: a rule may hand one array to
                    # several parents or return a read-only view.
                    held = parent.grad
                    parent.grad = pg if held is None else held + pg


def _all_finite(a: np.ndarray) -> bool:
    """Whether every value of a float64 array is finite; true for an empty one."""
    # A scalar skips numpy's ufunc machinery, which costs ten times as much.
    return np.count_nonzero(np.isfinite(a)) == a.size if a.ndim else math.isfinite(a)


def _no_inputs(g) -> tuple:
    """Gradient rule of a record built from constants: it has no inputs to feed."""
    return ()


def _record(
    data, op: str, parents: tuple[Tensor, ...], rule: Callable, checked: bool = True
) -> Tensor:
    data = np.asarray(data, dtype=np.float64)
    if checked and not _all_finite(data):
        raise AutodiffError(f"non-finite result from '{op}'")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out.parents = parents
            out._rule = rule
            return out
    out.requires_grad = False
    out.parents = ()
    out._rule = _no_inputs
    return out


def _constant(data: np.ndarray) -> Tensor:
    """Constant tensor over a float64 array whose values are known to be finite.

    Neither copies nor checks: for arrays taken from checked tensors, or
    computed from them and fed only into ops that check their results.
    """
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    out.parents = ()
    out._rule = None
    return out


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _require_tensor(op: str, x) -> None:
    if not isinstance(x, Tensor):
        expected = "a Tensor or a number" if op in ("mul", "div") else "a Tensor"
        raise TypeError(f"{op}: expected {expected}, got {type(x).__name__}")


def _same_shape(op: str, a: Tensor, b) -> None:
    _require_tensor(op, b)
    if b.data.shape != a.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a, b)
    return _record(a.data + b.data, "add", (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("sub", a, b)
    rule = lambda g: (g if a.requires_grad else None, -g if b.requires_grad else None)
    return _record(a.data - b.data, "sub", (a, b), rule)


def mul(a: Tensor, b) -> Tensor:
    ad = a.data
    if _is_number(b):
        bv = float(b)
        return _record(ad * bv, "mul", (a,), lambda g: (g * bv,))
    _same_shape("mul", a, b)
    bd = b.data
    rule = lambda g: (g * bd if a.requires_grad else None, g * ad if b.requires_grad else None)
    return _record(ad * bd, "mul", (a, b), rule)


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
        rule = lambda g: (
            g / bd if a.requires_grad else None,
            -g * ad / (bd * bd) if b.requires_grad else None,
        )
        return _record(ad / bd, "div", (a, b), rule)
    if bd.size == 1:
        bv = float(bd.reshape(()))
        rule = lambda g: (
            g / bv if a.requires_grad else None,
            np.asarray(-(g * ad).sum() / (bv * bv)).reshape(bd.shape) if b.requires_grad else None,
        )
        return _record(ad / bv, "div", (a, b), rule)
    raise ValueError(f"div: shape mismatch {ad.shape} vs {bd.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _require_tensor("matmul", a)
    _require_tensor("matmul", b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ValueError(f"matmul expects 2-d tensors, got {ad.shape} and {bd.shape}")
    if ad.shape[1] != bd.shape[0]:
        raise ValueError(f"matmul: inner dimensions differ, {ad.shape} vs {bd.shape}")
    # A constant operand (the input batch, a frozen weight) gets no gradient.
    return _record(
        ad @ bd,
        "matmul",
        (a, b),
        lambda g: (g @ bd.T if a.requires_grad else None, ad.T @ g if b.requires_grad else None),
    )


def _normalized_axis(x: Tensor, axis) -> int | None:
    if axis is None:
        return None
    if isinstance(axis, bool) or not isinstance(axis, (int, np.integer)):
        raise ValueError(f"reduce axis must be an int or None, got {axis!r}")
    nd = x.data.ndim
    if not -nd <= axis < nd:
        raise ValueError(f"reduce axis {axis} invalid for shape {x.data.shape}")
    return int(axis) % nd


def reduce_sum(x: Tensor, axis=None) -> Tensor:
    ax = _normalized_axis(x, axis)
    shape = x.data.shape
    if ax is None:
        rule = lambda g: (np.full(shape, g),)
    else:
        kept, count = shape[:ax] + (1,) + shape[ax + 1 :], shape[ax]
        rule = lambda g: (g.reshape(kept).repeat(count, axis=ax),)
    return _record(x.data.sum(axis=ax), "sum", (x,), rule)


def reduce_mean(x: Tensor) -> Tensor:
    """Mean over all elements."""
    if x.data.size == 0:
        raise ValueError("mean over zero elements")
    shape, scale = x.data.shape, 1.0 / x.data.size
    rule = lambda g: (np.full(shape, g * scale),)
    return _record(x.data.sum() * scale, "mean", (x,), rule)


def relu(x: Tensor) -> Tensor:
    xd = x.data
    # Unchecked: each output is an input or zero.
    rule = lambda g: (g * (xd > 0.0),)
    return _record(np.maximum(xd, 0.0), "relu", (x,), rule, checked=False)


def sqrt(x: Tensor) -> Tensor:
    xd = x.data
    if xd.size and xd.min() < 0.0:
        raise AutodiffError("sqrt of a negative value")
    out = np.sqrt(xd)
    # Subgradient 0 at exactly zero, matching the coincident-point convention.
    def rule(g):
        return (np.divide(0.5 * g, out, out=np.zeros_like(out), where=out > 0.0),)

    # Unchecked: sqrt(v) <= max(v, 1) for v >= 0.
    return _record(out, "sqrt", (x,), rule, checked=False)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-m row vector to every row of an (n, m) tensor."""
    _require_tensor("add_bias", b)
    if x.data.ndim != 2 or b.data.ndim != 1 or x.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"add_bias: incompatible shapes {x.data.shape} and {b.data.shape}")
    return _record(x.data + b.data, "add_bias", (x, b), lambda g: (g, g.sum(axis=0)))


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape
    # Unchecked: the same values in another shape.
    rule = lambda g: (g.reshape(old),)
    return _record(x.data.reshape(shape), "reshape", (x,), rule, checked=False)


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
    rule = lambda g: (_scatter_rows(idx, g, xd.shape),)
    # Unchecked: every output is a copy of an input.
    return _record(np.take(xd, idx, axis=0), "gather", (x,), rule, checked=False)


def _scatter_rows(idx: np.ndarray, g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum the rows of g into a zero array of `shape` at the first-axis positions in idx."""
    if len(shape) == 1:
        return np.bincount(idx, weights=g, minlength=shape[0])
    # One bincount over flat (row, column) positions: repeated rows add up
    # in index order, the same order on every run.
    width = math.prod(shape[1:])
    flat = (idx[..., None] * width + np.arange(width)).reshape(-1)
    return np.bincount(flat, weights=g.reshape(-1), minlength=math.prod(shape)).reshape(shape)


def legs(x: Tensor, other) -> Tensor:
    """Legs x[other[v, a]] - x[v] from each row v of an (n, d) x, as (n, m, d).

    Row v of the (n, m) integer array `other` holds the other endpoints of
    the m legs that meet at v. One record with the values and the gradient
    of sub(gather(x, other), gather(x, middle)) over the flat legs. x is
    listed twice as an input: its gradient takes g scattered at `other`,
    then minus the sum of g over each middle's m legs, in that chain's order.
    """
    xd = x.data
    if xd.ndim != 2:
        raise ValueError(f"legs expects a 2-d tensor, got shape {xd.shape}")
    n = xd.shape[0]
    other = np.asarray(other, dtype=np.int64)
    if other.ndim != 2 or other.shape[0] != n:
        raise ValueError(f"legs: other of shape {other.shape} is not ({n}, m)")
    if other.size and (other.min() < 0 or other.max() >= n):
        raise ValueError(f"legs: other endpoint out of range for {n} rows")
    out = xd[other]
    out -= xd[:, None, :]

    def rule(g):
        # With at least 2 columns the sum adds each middle's legs in order, as
        # the scatter does, so both gradients equal the chain's bit for bit.
        return _scatter_rows(other, g, xd.shape), -g.sum(axis=1, initial=0.0)

    return _record(out, "legs", (x, x), rule)


def triple_cosines(legs: Tensor, lengths: Tensor, cells) -> Tensor:
    """Cosine between two legs that meet at one row for every selected cell.

    `legs` is (n, m, d): the m legs that meet at each of n rows. `lengths`
    (n, m) holds their norms; both are tape inputs. `cells` is an (n, m, m)
    boolean mask: cell (v, a, b) selects legs[v, a] and legs[v, b], whose
    cosine is their dot product over both lengths. All cosines come from
    one batched (n, m, m) Gram matrix of unit legs, returned at the
    selected cells in row-major order, within a few ulp of the per-triple
    gather, mul, reduce_sum and div chain.
    """
    ld, lens = legs.data, lengths.data
    if ld.ndim != 3 or lens.shape != ld.shape[:2]:
        raise ValueError(f"triple_cosines: legs {ld.shape} and lengths {lens.shape} do not match")
    cells = np.asarray(cells)
    n, m = lens.shape
    if cells.dtype != bool or cells.shape != (n, m, m):
        raise ValueError(f"triple_cosines: cells {cells.shape} must be a boolean {(n, m, m)} mask")
    short = lens < DIV_GUARD
    if short.any() and (short & (cells.any(axis=2) | cells.any(axis=1))).any():
        raise AutodiffError(f"triple_cosines: leg length below {DIV_GUARD:g}")
    # Legs no selected cell reads may be 0 long; any divisor serves them.
    safe = np.where(lens > 0.0, lens, 1.0)
    unit = ld / safe[..., None]
    gram = unit @ unit.transpose(0, 2, 1)

    def rule(g):
        g_gram = np.zeros_like(gram)
        g_gram[cells] = g
        g_unit = (g_gram + g_gram.transpose(0, 2, 1)) @ unit
        # Through unit = legs / lengths; the g_unit row of a leg no cosine
        # reads is zero.
        return g_unit / safe[..., None], -(g_unit * unit).sum(axis=2) / safe

    return _record(gram[cells], "triple_cosines", (legs, lengths), rule)


def huber_penalty(x: Tensor) -> Tensor:
    """Elementwise penalty: quadratic within unit magnitude, linear beyond.

    Continuously differentiable at the seam, with derivative clip(x, -1, 1).
    """
    xd = x.data
    c = np.clip(xd, -1.0, 1.0)
    a = np.abs(xd)
    # Unchecked: each output is at most 0.5 or |x| - 0.5; c is x where it is picked.
    out = np.where(a <= 1.0, 0.5 * c * c, a - 0.5)
    rule = lambda g: (g * c,)
    return _record(out, "huber_penalty", (x,), rule, checked=False)


def softmax_rows(z: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Row softmax and row log-softmax of z / t for a 2-d (batch, classes) array.

    Plain numpy, not a tape op: a distillation teacher's softened
    distribution is a constant, and `log_softmax_with_temperature` takes its
    value from here.
    """
    if not (_is_number(t) and math.isfinite(t) and t > 0):
        raise ValueError("temperature must be a finite positive number")
    if z.ndim != 2:
        raise ValueError(f"softmax expects a 2-d array, got shape {z.shape}")
    u = z / float(t)
    shifted = u - u.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    return e / total, shifted - np.log(total)


def log_softmax_with_temperature(z: Tensor, t: float) -> Tensor:
    """Row log-softmax of z / t, computed stably for large logits."""
    out = softmax_rows(z.data, t)[1]
    s = np.exp(out)
    t = float(t)

    def rule(g):
        return ((g - s * g.sum(axis=1, keepdims=True)) / t,)

    return _record(out, "log_softmax_with_temperature", (z,), rule)


def pairwise_l2(e: Tensor) -> Tensor:
    """All-pairs euclidean distance matrix of the rows of an (n, d) tensor.

    Rows closer than COINCIDENCE_EPS, the diagonal included, get distance 0
    with zero gradient: rows equal in a network's input may leave it a few
    ulps apart, by how the BLAS kernel rounds, and their distance's gradient
    would be unit-sized in a direction set by that rounding.
    """
    ed = e.data
    if ed.ndim != 2:
        raise ValueError(f"pairwise_l2 expects a 2-d tensor, got shape {ed.shape}")
    if ed.shape[0] < 2:
        raise ValueError("pairwise_l2 needs at least 2 rows")
    diff = ed[:, None, :] - ed[None, :, :]
    dist = np.multiply(diff, diff, out=diff).sum(axis=-1)
    np.sqrt(dist, out=dist)
    dist[dist < COINCIDENCE_EPS] = 0.0

    def rule(g):
        w = np.divide(g, dist, out=np.zeros_like(g), where=dist > 0.0)
        s = w + w.T
        ge = s.sum(axis=1, keepdims=True) * ed - s @ ed
        return (ge,)

    return _record(dist, "pairwise_l2", (e,), rule)


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep seeding d(loss)/d(loss) = 1.

    Gradients accumulate additively over multiple paths, and on leaves over
    backward calls; tensors with ``requires_grad=False`` are never written to.
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

