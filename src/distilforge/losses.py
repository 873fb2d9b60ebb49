"""Distillation losses for collaborative two-peer training.

Response-based terms compare softened class distributions: `cross_entropy`
against one-hot labels, and `kl_softened` against a teacher, which is the
peer's predictions at temperature 1 for the mutual term and a frozen
snapshot of the network itself at the configured temperature for the self
term. Relation-based terms compare batch geometry instead: normalized
pairwise distances over ordered sample pairs, and angle cosines over ordered
sample triples, each measured once per forward output by a `RelationSide`
and penalized with a unit-threshold Huber function.

All losses reduce with the batch mean, so values are comparable across batch
sizes. Teacher-side quantities (the peer and the snapshot) are constants:
gradients only ever flow into the network being updated, and a teacher's
softened distribution is computed off the tape.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import (
    COINCIDENCE_EPS,
    Tensor,
    _constant,
    _off_diagonal,
    add,
    div,
    gather,
    huber_penalty,
    legs,
    log_softmax_with_temperature,
    mul,
    pairwise_l2,
    reduce_mean,
    reduce_sum,
    reshape,
    softmax_rows,
    sqrt,
    sub,
    triple_cosines,
)
from .models import ForwardOutput, _number

__all__ = [
    "COINCIDENCE_EPS",
    "MEAN_DISTANCE_EPS",
    "TRIPLE_CAP_COUNT",
    "LossWeights",
    "TupleSets",
    "RelationSide",
    "RelationLoss",
    "TotalLoss",
    "cross_entropy",
    "kl_softened",
    "relation_distill_loss",
    "total_loss",
]

# Below this mean pair distance the batch is degenerate and the distance
# potentials (and their gradients) are defined as zero.
MEAN_DISTANCE_EPS = 1e-8

# A set holds at most this many triples, unless even two legs per middle index
# give more: batches whose n*(n-1)*(n-2) triples exceed it sample their legs.
TRIPLE_CAP_COUNT = 16 * 15 * 14


@dataclass(frozen=True)
class LossWeights:
    """Coefficients of the combined objective.

    alpha scales cross-entropy, beta the mutual term, gamma the
    self-distillation term; inside the mutual term beta1 scales the angle
    penalty and beta2 the peer KL. temperature softens the self-distillation
    KL only (the mutual KL always runs at temperature 1).
    """

    alpha: float = 0.4
    beta: float = 0.4
    gamma: float = 0.6
    beta1: float = 2.0
    beta2: float = 2.0
    temperature: float = 3.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "beta1", "beta2", "temperature"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        for name in ("alpha", "beta", "gamma", "beta1", "beta2"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be a finite non-negative number")
        if not (self.alpha > 0 or self.beta > 0 or self.gamma > 0):
            raise ValueError("at least one of alpha, beta, gamma must be positive")
        if not (np.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError("temperature must be positive")


@dataclass(frozen=True)
class TupleSets:
    """Ordered index pairs and triples over one batch: the legs of its rows.

    `other` is an (n, m) integer array: row v holds the other endpoints of
    the m legs that meet at v, in increasing order. n and m are its shape.
    The triples are the off-diagonal cells (v, a, b) of the (n, m, m) grid
    of leg pairs, in row-major order: the triple (u, v, w) whose legs (v, u)
    and (v, w) are other[v, a] = u and other[v, b] = w. `pair_index` holds
    u*n + v for all n*(n-1) ordered distinct pairs (u, v) in row-major
    order, for the distance term; it depends on n alone.

    m is `_legs_per_middle(n)`. When that is n-1 (up to batch size 16) the
    set is full: the legs are the pairs and the triples are all
    n*(n-1)*(n-2) ordered distinct ones. Otherwise the set is `capped`: it
    draws, for each middle index, m of its n-1 other rows without
    replacement from the per-batch rng, and keeps every ordered pair of
    them. Every ordered triple is then included with probability
    m*(m-1) / ((n-1)*(n-2)). The pair arrays, whose endpoints a full set
    also uses as its legs, are built once per n and shared read-only.
    """

    other: np.ndarray

    @property
    def n(self) -> int:
        return self.other.shape[0]

    @property
    def legs_per_middle(self) -> int:
        return self.other.shape[1]

    @property
    def pair_index(self) -> np.ndarray:
        return _pairs(self.n)[0]

    @property
    def capped(self) -> bool:
        return self.legs_per_middle < self.n - 1

    @property
    def num_pairs(self) -> int:
        return self.n * (self.n - 1)

    @property
    def num_triples(self) -> int:
        return self.n * self.legs_per_middle * (self.legs_per_middle - 1)

    @classmethod
    def build(cls, n: int, rng=None) -> "TupleSets":
        """Tuple sets for a batch of n; `rng` draws the legs of a capped set.

        `rng` is a Generator or a seed for one; a full set draws nothing and
        makes no Generator.
        """
        n = int(n)
        if n < 0:
            raise ValueError("batch size must be non-negative")
        m = _legs_per_middle(n)
        if m == n - 1:
            return cls(_pairs(n)[1])
        if rng is None:
            raise ValueError(f"a batch of {n} samples its legs and needs an rng")
        rng = np.random.default_rng(rng)
        # A uniform m-subset of 0..n-2 per middle index, shifted past the middle.
        other = np.sort(rng.random((n, n - 1)).argsort(axis=1)[:, :m], axis=1)
        other += other >= np.arange(n)[:, None]
        return cls(other)


@functools.lru_cache(maxsize=8)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only u*n + v of the ordered distinct pairs (u, v) of n, and v as a full set's legs."""
    u, v = np.nonzero(~np.eye(n, dtype=bool))
    index, other = u * n + v, v.reshape(n, max(n - 1, 0))
    index.flags.writeable = other.flags.writeable = False
    return index, other


def _legs_per_middle(n: int) -> int:
    """Legs per middle index of a tuple set of n: all n-1 for n up to 16.

    The largest m at most n-1 with n*m*(m-1) <= TRIPLE_CAP_COUNT, and at
    least 2 from n = 3 on.
    """
    m = n - 1
    while m > 2 and n * m * (m - 1) > TRIPLE_CAP_COUNT:
        m -= 1
    return m


def cross_entropy(logits: Tensor, one_hot: Tensor) -> Tensor:
    """Batch-mean cross-entropy between logits and one-hot label rows."""
    if logits.data.ndim != 2:
        raise ValueError(f"logits must be 2-d, got shape {logits.data.shape}")
    if one_hot.data.shape != logits.data.shape:
        raise ValueError(
            f"labels shape {one_hot.data.shape} does not match logits {logits.data.shape}"
        )
    row_sums = one_hot.data.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-12:
        raise ValueError("each label row must sum to 1")
    log_p = log_softmax_with_temperature(logits, 1.0)
    picked = reduce_sum(mul(log_p, _constant(one_hot.data)), axis=1)
    return mul(reduce_mean(picked), -1.0)


def kl_softened(student_logits: Tensor, teacher_logits: Tensor, t: float) -> Tensor:
    """Batch-mean KL from the teacher's softmax of logits / t to the student's.

    The first argument is the network being updated: it sits in the log
    denominator. The teacher side is computed off the tape, as a constant;
    no gradient reaches it. The value is not rescaled by t**2. The mutual
    term runs at t = 1, the self term at the configured temperature.
    """
    if student_logits.data.shape != teacher_logits.data.shape:
        raise ValueError(
            f"logit shapes differ: {student_logits.data.shape} vs {teacher_logits.data.shape}"
        )
    # An overflowing teacher (logits / t) fails the check of `sub`.
    q, log_q = softmax_rows(teacher_logits.data, t)
    log_p = log_softmax_with_temperature(student_logits, t)
    per_row = reduce_sum(mul(_constant(q), sub(_constant(log_q), log_p)), axis=1)
    return reduce_mean(per_row)


class RelationSide:
    """One embedding's side of the relation term, measured once per tuple set.

    `measure` reads one pairwise_l2 matrix into the distance `potentials`,
    one per ordered pair and normalized by their mean, the `degenerate` flag
    and `valid`, one flag per triple: whether both its legs, read at the
    `other` grid, have a nonzero distance on this side (`pairwise_l2` gives
    rows under COINCIDENCE_EPS apart distance 0). `cosines` adds every
    triple's cosine on first read. A mean pair distance below
    MEAN_DISTANCE_EPS makes the side degenerate, with constant zero
    potentials. All of it stays on the embedding's tape, so one side serves
    as the student, whose loss backpropagates through it, and as the peer,
    whose values are read as constants. Measuring for another tuple set
    rebuilds it.
    """

    def __init__(self, embeddings: Tensor):
        self.embeddings = embeddings
        self.tuples: Optional[TupleSets] = None

    def measure(self, tuples: TupleSets) -> "RelationSide":
        if tuples is self.tuples:
            return self
        e = self.embeddings
        n = e.data.shape[0]
        if tuples.n != n:
            raise ValueError(f"tuple sets built for batch {tuples.n}, embeddings have {n} rows")
        dist = pairwise_l2(e)
        long_leg = np.take_along_axis(dist.data, tuples.other, 1) > 0.0
        # The triples are the off-diagonal cells of the (n, m, m) grid of leg pairs.
        cells = long_leg[:, :, None] & long_leg[:, None, :]
        self.valid = cells[_off_diagonal(n, tuples.legs_per_middle)]
        mean_dist = div(reduce_sum(dist), float(tuples.num_pairs))
        self.degenerate = mean_dist.item() < MEAN_DISTANCE_EPS
        if self.degenerate:
            self.potentials = Tensor(np.zeros(tuples.num_pairs))
        else:
            flat = reshape(dist, (n * n,))
            self.potentials = div(gather(flat, tuples.pair_index), mean_dist)
        self._cosines = None
        self.tuples = tuples
        return self

    def cosines(self) -> Tensor:
        """Cosine at the middle index of every triple, in triple order.

        The (n, m, d) legs e[other] - e[middle] of the tuple set come from one
        `legs` record, and their lengths are computed once. Each middle
        index's cosines come from one Gram matrix of its m unit legs; a leg
        of length 0 gives cosines of 0.
        """
        if self._cosines is None:
            rows = legs(self.embeddings, self.tuples.other)
            lengths = sqrt(reduce_sum(mul(rows, rows), axis=2))
            self._cosines = triple_cosines(rows, lengths)
        return self._cosines


@dataclass
class RelationLoss:
    """Distance and angle penalties between two embedding sets."""

    total: Tensor
    distance: Tensor
    angle: Tensor
    pi_collapses: int = 0
    triples_skipped: int = 0


def relation_distill_loss(
    student: RelationSide | Tensor,
    peer: RelationSide | Tensor,
    weights: LossWeights,
    tuples: TupleSets,
) -> RelationLoss:
    """Mean Huber gap of distance potentials plus beta1 times the angle gap.

    Each side is a RelationSide, measured here on first use, or an embedding
    Tensor, measured for this call alone. Gradients reach only the student:
    the peer's potentials and cosines enter as constants. The value is
    symmetric in the two sides. The sides may differ in width but not in
    row count. The angle gap is the mean over the triples valid on both
    sides; when any is skipped, both sides' cosines narrow to the same kept
    triples. Batches below 3 samples and beta1 = 0 skip the angle term, which
    then reads 0; batches below 2 samples contribute nothing at all.
    """
    student, peer = (
        side if isinstance(side, RelationSide) else RelationSide(side) for side in (student, peer)
    )
    n, n_peer = student.embeddings.data.shape[0], peer.embeddings.data.shape[0]
    if n != n_peer:
        raise ValueError(f"embedding row counts differ: {n} vs {n_peer}")
    if n < 2:
        return RelationLoss(Tensor(0.0), Tensor(0.0), Tensor(0.0))
    student.measure(tuples)
    peer.measure(tuples)
    dd = reduce_mean(huber_penalty(sub(student.potentials, _constant(peer.potentials.data))))
    collapses = int(student.degenerate) + int(peer.degenerate)

    ad = Tensor(0.0)
    # The student's gather backward scatters exact copies of the gradient
    # and exact zeros elsewhere.
    both = student.valid & peer.valid
    used = int(np.count_nonzero(both))
    skipped = tuples.num_triples - used
    if weights.beta1 > 0 and used:
        own, other = student.cosines(), peer.cosines().data
        if skipped:
            keep = np.flatnonzero(both)
            own, other = gather(own, keep), other[keep]
        ad = reduce_mean(huber_penalty(sub(own, _constant(other))))
    total = add(dd, mul(ad, weights.beta1))
    return RelationLoss(total, dd, ad, collapses, skipped)


@dataclass
class TotalLoss:
    """Weighted objective plus raw component values, named by their metrics columns."""

    total: Tensor
    loss_ce: float = 0.0
    loss_kl_mutual: float = 0.0
    loss_dd: float = 0.0
    loss_ad: float = 0.0
    loss_sd: float = 0.0
    pi_collapses: int = 0
    triples_skipped: int = 0


def _relation_side(outputs: ForwardOutput) -> RelationSide:
    """The relation side kept with a forward output, made on first use."""
    if outputs.relation is None:
        outputs.relation = RelationSide(outputs.embedding)
    return outputs.relation


def total_loss(
    outputs: ForwardOutput,
    peer_outputs: Optional[ForwardOutput],
    snapshot_logits: Optional[Tensor],
    one_hot: Tensor,
    weights: LossWeights,
    tuples: Optional[TupleSets] = None,
) -> TotalLoss:
    """alpha * CE + beta * (relation + beta2 * peer KL) + gamma * self-distillation.

    The peer's embedding and logits are constants, so gradients reach only
    the network being updated. Each output keeps its relation side, so an
    output read as the student and as the peer is measured once. Terms with
    a zero coefficient are skipped entirely, not just scaled to zero, so
    degenerate weight settings reduce bit-for-bit to the simpler training
    schemes they imply. The relation term runs if and only if tuple sets are
    given. Component fields report raw (unweighted) values.
    """
    parts = []
    result = TotalLoss(total=Tensor(0.0))
    if weights.alpha > 0:
        ce = cross_entropy(outputs.logits, one_hot)
        parts.append(mul(ce, weights.alpha))
        result.loss_ce = ce.item()
    if weights.beta > 0:
        if peer_outputs is None:
            raise ValueError("peer outputs are required when beta > 0")
        mutual = Tensor(0.0)
        if tuples is not None:
            rel = relation_distill_loss(
                _relation_side(outputs), _relation_side(peer_outputs), weights, tuples
            )
            mutual = rel.total
            result.loss_dd = rel.distance.item()
            result.loss_ad = rel.angle.item()
            result.pi_collapses = rel.pi_collapses
            result.triples_skipped = rel.triples_skipped
        if weights.beta2 > 0:
            kl = kl_softened(outputs.logits, peer_outputs.logits, 1.0)
            result.loss_kl_mutual = kl.item()
            scaled = mul(kl, weights.beta2)
            mutual = scaled if tuples is None else add(mutual, scaled)
        parts.append(mul(mutual, weights.beta))
    if weights.gamma > 0:
        if snapshot_logits is None:
            raise ValueError("snapshot logits are required when gamma > 0")
        sd = kl_softened(outputs.logits, snapshot_logits, weights.temperature)
        parts.append(mul(sd, weights.gamma))
        result.loss_sd = sd.item()
    total = parts[0]
    for part in parts[1:]:
        total = add(total, part)
    result.total = total
    return result
