"""Distillation losses for collaborative two-peer training.

Response-based terms compare softened class distributions: cross-entropy
against one-hot labels, mutual KL against the peer's predictions, and a
temperature-softened KL against a frozen snapshot of the network itself.
Relation-based terms compare batch geometry instead: normalized pairwise
distances over ordered sample pairs, and angle cosines over ordered sample
triples, each penalized with a unit-threshold Huber function.

All losses reduce with the batch mean, so values are comparable across batch
sizes. Teacher-side quantities (the peer and the snapshot) are constants:
gradients only ever flow into the network being updated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import (
    Tensor,
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
    softmax_with_temperature,
    sqrt,
    sub,
)
from .models import ForwardOutput

__all__ = [
    "COINCIDENCE_EPS",
    "MEAN_DISTANCE_EPS",
    "TRIPLE_CAP_BATCH",
    "TRIPLE_CAP_COUNT",
    "LossWeights",
    "TupleSets",
    "RelationLoss",
    "MutualLoss",
    "TotalLoss",
    "cross_entropy",
    "kl_mutual",
    "self_distill_kl",
    "huber",
    "distance_potentials",
    "angle_potentials",
    "relation_distill_loss",
    "mutual_distill_loss",
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

    Pairs always cover all n*(n-1) ordered distinct pairs. Triples cover all
    n*(n-1)*(n-2) ordered distinct triples up to batch size 16; larger
    batches use a seeded uniform subsample of 16*15*14 triples.
    """

    n: int
    pair_u: np.ndarray
    pair_v: np.ndarray
    triple_u: np.ndarray
    triple_v: np.ndarray
    triple_w: np.ndarray
    capped: bool = False

    @property
    def num_pairs(self) -> int:
        return int(self.pair_u.size)

    @property
    def num_triples(self) -> int:
        return int(self.triple_u.size)

    @classmethod
    def build(cls, n: int, rng: Optional[np.random.Generator] = None) -> "TupleSets":
        n = int(n)
        if n < 0:
            raise ValueError("batch size must be non-negative")
        empty = np.zeros(0, dtype=np.int64)
        if n < 2:
            return cls(n, empty, empty, empty, empty, empty)
        u = np.repeat(np.arange(n, dtype=np.int64), n)
        v = np.tile(np.arange(n, dtype=np.int64), n)
        keep = u != v
        pair_u, pair_v = u[keep], v[keep]
        if n <= TRIPLE_CAP_BATCH:
            idx = np.arange(n, dtype=np.int64)
            tu, tv, tw = (a.reshape(-1) for a in np.meshgrid(idx, idx, idx, indexing="ij"))
            keep = (tu != tv) & (tu != tw) & (tv != tw)
            return cls(n, pair_u, pair_v, tu[keep], tv[keep], tw[keep])
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
        return cls(n, pair_u, pair_v, sample[:, 0], sample[:, 1], sample[:, 2], capped=True)


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
    picked = reduce_sum(mul(log_p, Tensor(one_hot.data)), axis=1)
    return mul(reduce_mean(picked), -1.0)


def _kl_softened(student_logits: Tensor, teacher_data: np.ndarray, t: float) -> Tensor:
    teacher = Tensor(teacher_data)
    q = softmax_with_temperature(teacher, t)
    log_q = log_softmax_with_temperature(teacher, t)
    log_p = log_softmax_with_temperature(student_logits, t)
    per_row = reduce_sum(mul(q, sub(log_q, log_p)), axis=1)
    return reduce_mean(per_row)


def kl_mutual(student_logits: Tensor, teacher_logits: Tensor) -> Tensor:
    """Batch-mean KL from the peer's softmax to the student's, temperature 1.

    The first argument is the network being updated: it sits in the log
    denominator. The teacher side is a constant; no gradient reaches it.
    """
    if student_logits.data.shape != teacher_logits.data.shape:
        raise ValueError(
            f"logit shapes differ: {student_logits.data.shape} vs {teacher_logits.data.shape}"
        )
    return _kl_softened(student_logits, teacher_logits.data, 1.0)


def self_distill_kl(student_logits: Tensor, teacher_logits: Tensor, t: float) -> Tensor:
    """Batch-mean KL from a frozen snapshot's softened softmax to the student's.

    Both sides use temperature t; the value is not rescaled by t**2.
    """
    if not (np.isfinite(t) and t > 0):
        raise ValueError("temperature must be positive")
    if student_logits.data.shape != teacher_logits.data.shape:
        raise ValueError(
            f"logit shapes differ: {student_logits.data.shape} vs {teacher_logits.data.shape}"
        )
    return _kl_softened(student_logits, teacher_logits.data, float(t))


def huber(a: float, b: float) -> float:
    """Scalar penalty on a - b: quadratic within unit residual, linear beyond."""
    d = abs(float(a) - float(b))
    if d <= 1.0:
        return 0.5 * d * d
    return d - 0.5


def _distances(embeddings: Tensor, tuples: TupleSets) -> Tensor:
    n = embeddings.data.shape[0]
    if tuples.n != n:
        raise ValueError(f"tuple sets built for batch {tuples.n}, embeddings have {n} rows")
    return pairwise_l2(embeddings)


def _normalized_distances(dist: Tensor, tuples: TupleSets) -> tuple[Tensor, bool]:
    n = tuples.n
    mean_dist = div(reduce_sum(dist), float(tuples.num_pairs))
    if mean_dist.item() < MEAN_DISTANCE_EPS:
        return Tensor(np.zeros(tuples.num_pairs)), True
    flat = reshape(dist, (n * n,))
    return div(gather(flat, tuples.pair_u * n + tuples.pair_v), mean_dist), False


def distance_potentials(embeddings: Tensor, tuples: TupleSets) -> tuple[Tensor, bool]:
    """Pairwise distances normalized by their batch mean, one per ordered pair.

    Returns (potentials, degenerate). When the mean pair distance falls below
    MEAN_DISTANCE_EPS the batch is degenerate: the potentials are constant
    zeros (zero gradient) and the flag is set. Otherwise the potentials mean
    to exactly 1 up to floating point.
    """
    return _normalized_distances(_distances(embeddings, tuples), tuples)


def _triple_mask(dist: np.ndarray, tuples: TupleSets) -> np.ndarray:
    """Triples whose (u, v) and (w, v) legs are both at least COINCIDENCE_EPS long."""
    tv = tuples.triple_v
    return (dist[tuples.triple_u, tv] >= COINCIDENCE_EPS) & (
        dist[tuples.triple_w, tv] >= COINCIDENCE_EPS
    )


def _angle_values(embeddings: Tensor, tuples: TupleSets, mask: np.ndarray) -> Tensor:
    """Cosine at the middle index of each masked triple, from per-pair legs.

    Each ordered pair's leg e[u] - e[v] and its length are computed once; a
    triple (u, v, w) reads its head leg (u, v) and tail leg (w, v) from them.
    Pair (u, v) sits at row u*(n-1) + v - (v > u) of `TupleSets.pair_u`.
    """
    legs = sub(gather(embeddings, tuples.pair_u), gather(embeddings, tuples.pair_v))
    lengths = sqrt(reduce_sum(mul(legs, legs), axis=1))
    tu, tv, tw = tuples.triple_u[mask], tuples.triple_v[mask], tuples.triple_w[mask]
    head = tu * (tuples.n - 1) + tv - (tv > tu)
    tail = tw * (tuples.n - 1) + tv - (tv > tw)
    dots = reduce_sum(mul(gather(legs, head), gather(legs, tail)), axis=1)
    return div(div(dots, gather(lengths, head)), gather(lengths, tail))


def angle_potentials(embeddings: Tensor, tuples: TupleSets) -> tuple[Tensor, np.ndarray]:
    """Cosine of the angle at the middle index of each valid ordered triple.

    Triples whose (u, v) or (w, v) leg is shorter than COINCIDENCE_EPS are
    skipped. Returns (cosines for the valid triples, boolean validity mask
    over all triples in the tuple set).
    """
    if embeddings.data.shape[0] < 3:
        raise ValueError("angle potentials need at least 3 samples")
    valid = _triple_mask(_distances(embeddings, tuples).data, tuples)
    return _angle_values(embeddings, tuples, valid), valid


@dataclass
class RelationLoss:
    """Distance and angle penalties between two embedding sets."""

    total: Tensor
    distance: Tensor
    angle: Tensor
    pi_collapses: int = 0
    triples_skipped: int = 0


def relation_distill_loss(
    emb_a: Tensor, emb_b: Tensor, weights: LossWeights, tuples: TupleSets
) -> RelationLoss:
    """Mean Huber gap of distance potentials plus beta1 times the angle gap.

    The value is symmetric in its embedding arguments. Gradient flow follows
    whatever the caller passes: detach one side to stop its gradients.
    Batches below 3 samples skip the angle term; batches below 2 samples
    contribute nothing at all.
    """
    if emb_a.data.shape != emb_b.data.shape:
        raise ValueError(
            f"embedding shapes differ: {emb_a.data.shape} vs {emb_b.data.shape}"
        )
    if emb_a.data.shape[0] < 2:
        return RelationLoss(Tensor(0.0), Tensor(0.0), Tensor(0.0))
    # One distance matrix per side feeds both the potentials and the triple mask.
    dist_a, dist_b = _distances(emb_a, tuples), _distances(emb_b, tuples)
    pots_a, degenerate_a = _normalized_distances(dist_a, tuples)
    pots_b, degenerate_b = _normalized_distances(dist_b, tuples)
    dd = reduce_mean(huber_penalty(sub(pots_a, pots_b)))
    collapses = int(degenerate_a) + int(degenerate_b)

    skipped = 0
    ad = Tensor(0.0)
    if tuples.num_triples:
        mask = _triple_mask(dist_a.data, tuples) & _triple_mask(dist_b.data, tuples)
        skipped = int(tuples.num_triples - mask.sum())
        if mask.any():
            gap = sub(_angle_values(emb_a, tuples, mask), _angle_values(emb_b, tuples, mask))
            ad = reduce_mean(huber_penalty(gap))
    total = add(dd, mul(ad, weights.beta1))
    return RelationLoss(total, dd, ad, collapses, skipped)


@dataclass
class MutualLoss:
    """Relation penalty plus beta2 times the peer KL, peer side detached."""

    total: Tensor
    kl: Tensor
    relation: RelationLoss


def mutual_distill_loss(
    outputs: ForwardOutput,
    peer_outputs: ForwardOutput,
    weights: LossWeights,
    tuples: Optional[TupleSets],
) -> MutualLoss:
    """Peer-facing loss for the network being updated.

    The peer's embedding and logits are treated as constants, so backward
    passes only reach the updated network's parameters. The relation term
    runs if and only if tuple sets are given.
    """
    if tuples is None:
        rel = RelationLoss(Tensor(0.0), Tensor(0.0), Tensor(0.0))
    else:
        rel = relation_distill_loss(
            outputs.embedding, peer_outputs.embedding.detach(), weights, tuples
        )
    if weights.beta2 > 0:
        kl = kl_mutual(outputs.logits, peer_outputs.logits)
        total = mul(kl, weights.beta2) if tuples is None else add(rel.total, mul(kl, weights.beta2))
    else:
        kl = Tensor(0.0)
        total = rel.total
    return MutualLoss(total, kl, rel)


@dataclass
class TotalLoss:
    """Weighted objective plus raw component values for metrics."""

    total: Tensor
    ce: float = 0.0
    kl_mutual: float = 0.0
    distance: float = 0.0
    angle: float = 0.0
    self_distill: float = 0.0
    pi_collapses: int = 0
    triples_skipped: int = 0


def total_loss(
    outputs: ForwardOutput,
    peer_outputs: Optional[ForwardOutput],
    snapshot_logits: Optional[Tensor],
    one_hot: Tensor,
    weights: LossWeights,
    tuples: Optional[TupleSets] = None,
) -> TotalLoss:
    """alpha * CE + beta * mutual + gamma * self-distillation.

    Terms with a zero coefficient are skipped entirely, not just scaled to
    zero, so degenerate weight settings reduce bit-for-bit to the simpler
    training schemes they imply. The relation term runs if and only if
    tuple sets are given. Component fields report raw (unweighted) values.
    """
    parts = []
    result = TotalLoss(total=Tensor(0.0))
    if weights.alpha > 0:
        ce = cross_entropy(outputs.logits, one_hot)
        parts.append(mul(ce, weights.alpha))
        result.ce = ce.item()
    if weights.beta > 0:
        if peer_outputs is None:
            raise ValueError("peer outputs are required when beta > 0")
        md = mutual_distill_loss(outputs, peer_outputs, weights, tuples)
        parts.append(mul(md.total, weights.beta))
        result.kl_mutual = md.kl.item()
        result.distance = md.relation.distance.item()
        result.angle = md.relation.angle.item()
        result.pi_collapses = md.relation.pi_collapses
        result.triples_skipped = md.relation.triples_skipped
    if weights.gamma > 0:
        if snapshot_logits is None:
            raise ValueError("snapshot logits are required when gamma > 0")
        sd = self_distill_kl(outputs.logits, snapshot_logits, weights.temperature)
        parts.append(mul(sd, weights.gamma))
        result.self_distill = sd.item()
    total = parts[0]
    for part in parts[1:]:
        total = add(total, part)
    result.total = total
    return result
