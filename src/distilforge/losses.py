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
    Tensor,
    _constant,
    add,
    div,
    gather,
    huber_penalty,
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
from .models import ForwardOutput

__all__ = [
    "COINCIDENCE_EPS",
    "MEAN_DISTANCE_EPS",
    "TRIPLE_CAP_BATCH",
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

# Pairs closer than this count as coincident: their distance is treated as 0
# and triples touching them are skipped.
COINCIDENCE_EPS = 1e-8

# Below this mean pair distance the batch is degenerate and the distance
# potentials (and their gradients) are defined as zero.
MEAN_DISTANCE_EPS = 1e-8

# Batches larger than this subsample the ordered-triple set.
TRIPLE_CAP_BATCH = 16
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
        for name in ("alpha", "beta", "gamma", "beta1", "beta2"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and np.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be a finite non-negative number")
        if not (self.alpha > 0 or self.beta > 0 or self.gamma > 0):
            raise ValueError("at least one of alpha, beta, gamma must be positive")
        if not (np.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError("temperature must be positive")


@dataclass(frozen=True)
class TupleSets:
    """Ordered index pairs and triples over one batch.

    Pairs always cover all n*(n-1) ordered distinct pairs, pair (u, v) at row
    u*(n-1) + v - (v > u). Leg row r runs from pair_u[r] to pair_v[r], so the
    n-1 legs that meet at v are the consecutive rows v*(n-1) ... v*(n-1)+n-2,
    in increasing other endpoint. A triple (u, v, w) is stored as the rows of
    its two legs from the middle index: `head` holds (v, u) and `tail` holds
    (v, w). Triples cover all n*(n-1)*(n-2) ordered distinct triples up to
    batch size 16; larger batches use a seeded uniform subsample of 16*15*14
    triples. Full sets depend only on n: each is built once and shared, with
    read-only arrays.
    """

    n: int
    pair_u: np.ndarray
    pair_v: np.ndarray
    head: np.ndarray
    tail: np.ndarray

    @property
    def capped(self) -> bool:
        return self.n > TRIPLE_CAP_BATCH

    @property
    def num_pairs(self) -> int:
        return int(self.pair_u.size)

    @property
    def num_triples(self) -> int:
        return int(self.head.size)

    @classmethod
    def build(cls, n: int, rng: Optional[np.random.Generator] = None) -> "TupleSets":
        """Tuple sets for a batch of n; `rng` subsamples the triples of batches over 16."""
        n = int(n)
        if n < 0:
            raise ValueError("batch size must be non-negative")
        if n <= TRIPLE_CAP_BATCH:
            return cls._full(n)
        if rng is None:
            raise ValueError(
                f"batches larger than {TRIPLE_CAP_BATCH} need an rng to subsample triples"
            )
        chunks = []
        got = 0
        while got < TRIPLE_CAP_COUNT:
            draw = rng.integers(0, n, size=(TRIPLE_CAP_COUNT + TRIPLE_CAP_COUNT // 2, 3))
            ok = (draw[:, 0] != draw[:, 1]) & (draw[:, 0] != draw[:, 2]) & (draw[:, 1] != draw[:, 2])
            draw = draw[ok]
            chunks.append(draw)
            got += draw.shape[0]
        sample = np.concatenate(chunks)[:TRIPLE_CAP_COUNT].astype(np.int64)
        return cls._from_triples(n, sample[:, 0], sample[:, 1], sample[:, 2])

    @classmethod
    @functools.lru_cache(maxsize=TRIPLE_CAP_BATCH + 1)
    def _full(cls, n: int) -> "TupleSets":
        idx = np.arange(n, dtype=np.int64)
        tu, tv, tw = (a.reshape(-1) for a in np.meshgrid(idx, idx, idx, indexing="ij"))
        keep = (tu != tv) & (tu != tw) & (tv != tw)
        sets = cls._from_triples(n, tu[keep], tv[keep], tw[keep])
        for array in (sets.pair_u, sets.pair_v, sets.head, sets.tail):
            array.flags.writeable = False
        return sets

    @classmethod
    def _from_triples(cls, n: int, tu, tv, tw) -> "TupleSets":
        def row(u, v):
            return u * (n - 1) + v - (v > u)

        u = np.repeat(np.arange(n, dtype=np.int64), n)
        v = np.tile(np.arange(n, dtype=np.int64), n)
        keep = u != v
        return cls(n, u[keep], v[keep], row(tv, tu), row(tv, tw))


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
    and `valid`, the triples whose two legs are both at least
    COINCIDENCE_EPS long on this side; `cosines` adds their cosines on first
    read. A mean pair distance below MEAN_DISTANCE_EPS makes the side
    degenerate, with constant zero potentials. All of it stays on the
    embedding's tape, so one side serves as the student, whose loss
    backpropagates through it, and as the peer, whose values are read as
    constants. Measuring for another tuple set rebuilds it.
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
        long_leg = dist.data[tuples.pair_u, tuples.pair_v] >= COINCIDENCE_EPS
        self.valid = long_leg[tuples.head] & long_leg[tuples.tail]
        mean_dist = div(reduce_sum(dist), float(tuples.num_pairs))
        self.degenerate = mean_dist.item() < MEAN_DISTANCE_EPS
        if self.degenerate:
            self.potentials = Tensor(np.zeros(tuples.num_pairs))
        else:
            flat = reshape(dist, (n * n,))
            self.potentials = div(gather(flat, tuples.pair_u * n + tuples.pair_v), mean_dist)
        self._cosines = None
        self.tuples = tuples
        return self

    def cosines(self) -> Tensor:
        """Cosine between the legs head[i] and tail[i] of every valid triple.

        Each ordered pair's leg e[pair_v] - e[pair_u] and its length are computed
        once. A full triple set takes each middle index's cosines from one Gram
        matrix of its n-1 consecutive unit legs; a sampled one gathers the two legs
        per triple, because its at most 16*15*14 triples would fill only a small
        part of the n*(n-1)*(n-1) Gram cells, whose count grows as n**3.
        """
        if self._cosines is None:
            e, t = self.embeddings, self.tuples
            legs = sub(gather(e, t.pair_v), gather(e, t.pair_u))
            lengths = sqrt(reduce_sum(mul(legs, legs), axis=1))
            k = None if t.capped else t.n - 1
            self._cosines = triple_cosines(legs, lengths, t.head[self.valid], t.tail[self.valid], k)
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
    row count. Batches below 3 samples skip the angle term; batches below 2
    samples contribute nothing at all.
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
    # The pair's valid triples are a subset of each side's own; `cosines`
    # holds one value per own valid triple, so each side is narrowed to the
    # pair's by position. The student's gather backward scatters exact
    # copies of the gradient and adds exact zeros elsewhere.
    valid = student.valid & peer.valid
    skipped = int(tuples.num_triples - valid.sum())
    if valid.any():
        own = student.cosines()
        if valid.sum() < student.valid.sum():
            own = gather(own, np.flatnonzero(valid[student.valid]))
        other = peer.cosines().data[np.flatnonzero(valid[peer.valid])]
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
