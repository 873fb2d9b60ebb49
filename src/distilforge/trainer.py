"""Two-stage collaborative training of a pair of peer networks.

Stage 1 trains each peer independently with plain cross-entropy, freezes a
snapshot of each as its self-teacher and returns the snapshot's logits over
the training split as one table, kept from its last evaluation of that
split by `evaluate_top1`. That forwards a split in blocks of 512 rows, so a
table equals the snapshot's whole-split forward only up to 512 rows. Stage 2
takes those tables and trains the peers jointly: for every batch each
network minimizes a weighted sum of cross-entropy, a mutual term against
the other peer (response KL plus distance/angle relation penalties, peer
side held constant) and a softened KL against its own table's rows.
Updates are plain SGD with momentum and weight decay under a step-drop
learning-rate schedule, applied to large parameters in cache-sized blocks.

Everything is deterministic: identical configs, datasets and seeds replay
bit-identical parameter and metric trajectories on the same platform.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence, get_type_hints

import numpy as np

from .autodiff import AutodiffError, Tensor, _all_finite, _constant, backward
from .data import Dataset, batch_iterator
from .losses import LossWeights, TotalLoss, TupleSets, _legs_per_middle, total_loss
from .models import PeerNetwork, _integer, _number

logger = logging.getLogger(__name__)

__all__ = [
    "CSV_HEADER",
    "VARIANTS",
    "UPDATE_ORDERS",
    "TrainingDivergence",
    "TrainConfig",
    "MetricsRecord",
    "variant_weights",
    "sgd_step",
    "lr_at",
    "evaluate_top1",
    "metrics_to_csv",
    "pretrain_stage1",
    "train_stage2",
]

VARIANTS = ("A", "B", "C", "D")
UPDATE_ORDERS = ("sequential", "simultaneous")


class TrainingDivergence(RuntimeError):
    """A run produced non-finite losses or gradients."""


@dataclass(frozen=True)
class TrainConfig:
    """Schedule, optimizer and objective settings for one paired run."""

    stage1_epochs: int = 20
    stage2_epochs: int = 50
    batch_size: int = 128
    lr: float = 0.1
    lr_milestones: tuple = (15, 30, 40)
    lr_factor: float = 0.2
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    variant: str = "A"
    update_order: str = "sequential"

    def __post_init__(self):
        for name in ("stage1_epochs", "stage2_epochs", "batch_size", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("lr", "lr_factor", "momentum", "weight_decay"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        milestones = tuple(_integer("lr_milestones entry", m) for m in self.lr_milestones)
        object.__setattr__(self, "lr_milestones", milestones)
        if self.stage1_epochs < 0:
            raise ValueError("stage1_epochs must be >= 0")
        if self.stage2_epochs < 0:
            raise ValueError("stage2_epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be positive")
        if not (np.isfinite(self.lr_factor) and 0 < self.lr_factor <= 1):
            raise ValueError("lr_factor must be in (0, 1]")
        if not (np.isfinite(self.momentum) and 0 <= self.momentum < 1):
            raise ValueError("momentum must be in [0, 1)")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError("weight_decay must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        ms = self.lr_milestones
        if any(m < 0 for m in ms):
            raise ValueError("lr_milestones must be >= 0")
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError("lr_milestones must be strictly increasing")
        if ms and ms[-1] >= self.stage2_epochs:
            raise ValueError("lr_milestones must lie below stage2_epochs")
        if not isinstance(self.weights, LossWeights):
            raise ValueError("weights must be a LossWeights instance")
        variant_weights(self.weights, self.variant)
        if self.update_order not in UPDATE_ORDERS:
            raise ValueError(f"update_order must be one of {','.join(UPDATE_ORDERS)}")


def variant_weights(weights: LossWeights, variant: str) -> tuple[LossWeights, bool]:
    """Effective weights and relation-term switch for an ablation variant.

    A runs the full objective; B drops the self term; C drops the mutual
    response KL; D drops the relation term (both distance and angle). A
    variant that leaves no term with a positive weight is rejected, since
    it would train on a constant zero loss.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {','.join(VARIANTS)}")
    relation = variant != "D"
    gamma = 0.0 if variant == "B" else weights.gamma
    beta2 = 0.0 if variant == "C" else weights.beta2
    mutual = weights.beta > 0 and (relation or beta2 > 0)
    if not (weights.alpha > 0 or mutual or gamma > 0):
        raise ValueError(f"variant {variant} leaves no loss term with a positive weight")
    return replace(weights, gamma=gamma, beta2=beta2), relation


# Float64 elements per block of a blocked SGD update: a block of the weight,
# velocity, gradient and scratch stays in a core's L2 cache across the five
# passes of the update. The scratch (124 KiB) stays under glibc's default
# 128 KiB mmap threshold, so it comes from the heap and leaves the dynamic
# threshold where it was: a 128 KiB scratch raised the peak RSS of a `run`
# on 2,000 MNIST-shaped rows by about 4 MB.
_SGD_BLOCK = 15872

# Float64 elements of the flat buffer that a net's small parameters step
# as: its gathered gradients and its step fit one block of scratch together.
_FLAT_SIZE = _SGD_BLOCK // 2

# Rows per block of an evaluation forward: a (512, 256) activation is 1 MiB,
# so an evaluation's peak follows the widest layer, not the split's length.
_EVAL_ROWS = 512


def _flat_layout(parameters: dict, velocities: dict) -> tuple[list, list, np.ndarray, np.ndarray]:
    """The flat buffer's (name, slice) members, the other names, and its weights and velocities.

    Taken in order, each parameter joins the flat buffer while it stays
    within `_FLAT_SIZE` elements. When the members' weights and velocities
    are not yet views of one such pair of buffers, in that order, they are
    re-homed: their values are copied there, and each `p.data` and
    `velocities[name]` is rebound to its view, so an array taken before goes
    stale. Any other parameter or velocity that is not C-contiguous gets a
    C-contiguous copy, so every array steps through flat views of itself.
    """
    inside, outside, size = [], [], 0
    for name, p in parameters.items():
        if size + p.data.size <= _FLAT_SIZE:
            inside.append((name, slice(size, size + p.data.size)))
            size += p.data.size
        else:
            outside.append(name)
    flat_w = parameters[inside[0][0]].data.base if inside else np.empty(0)
    flat_v = velocities[inside[0][0]].base if inside else np.empty(0)
    if (
        flat_w is not None and flat_v is not None and flat_w.size == flat_v.size == size
        and all(parameters[n].data.base is flat_w and velocities[n].base is flat_v
                for n, _ in inside)
        and all(parameters[n].data.flags.c_contiguous and velocities[n].flags.c_contiguous
                for n in outside)
    ):
        return inside, outside, flat_w, flat_v
    flat_w, flat_v = np.empty(size), np.empty(size)
    for name, part in inside:
        p = parameters[name]
        w, v = flat_w[part].reshape(p.data.shape), flat_v[part].reshape(p.data.shape)
        w[...], v[...] = p.data, velocities[name]
        p.data, velocities[name] = w, v
    for name in outside:
        parameters[name].data = np.ascontiguousarray(parameters[name].data)
        velocities[name] = np.ascontiguousarray(velocities[name])
    return inside, outside, flat_w, flat_v


def sgd_step(
    parameters: dict,
    velocities: dict,
    lr: float,
    momentum: float,
    weight_decay: float,
) -> None:
    """One SGD update: g' = g + wd*w; v <- momentum*v + g'; w <- w - lr*v.

    `velocities` maps each parameter name to its momentum buffer. Buffers and
    each `p.data` are updated in place, with the formula's float operations
    in its order, so the bits match an out-of-place update. The small
    parameters step as one flat array (see `_flat_layout`, which re-homes
    them on a net's first step with fresh velocities and rebinds their
    `p.data`): their gradients are gathered into the scratch, a missing one
    as -0.0, which adds nothing. Every other parameter runs the same
    operations block by block through one scratch of one block, so each
    block is read from memory once instead of once per operation; a missing
    gradient steps by weight decay alone. Every gradient is checked before
    any parameter or velocity changes, and a non-finite one raises naming
    the first such parameter. A tape recorded before the step reads the new
    weights, so it must not be backpropagated afterwards: the trainer reuses
    a peer's forward output only until that peer steps. Each gradient is
    released (`grad = None`) once the step has applied it, so a net's
    gradients never outlive the step into the evaluations that follow.
    """
    inside, outside, flat_w, flat_v = _flat_layout(parameters, velocities)
    size = flat_w.size
    scratch = np.empty(_SGD_BLOCK if outside else 2 * size)
    # The flat array steps first: the other parameters' blocks reuse its scratch.
    gathered = scratch[size:2 * size]
    for name, part in inside:
        g = parameters[name].grad
        gathered[part] = -0.0 if g is None else g.reshape(-1)
    steps = [(flat_w, flat_v, gathered, [(slice(None), scratch[:size])])]
    for name in outside:
        p = parameters[name]
        w = p.data.reshape(-1)
        steps.append((
            w, velocities[name].reshape(-1), None if p.grad is None else p.grad.reshape(-1),
            [(slice(start, start + _SGD_BLOCK), scratch[:min(_SGD_BLOCK, w.size - start)])
             for start in range(0, w.size, _SGD_BLOCK)],
        ))
    for _, _, g, blocks in steps:
        if g is not None and not all(_all_finite(g[block]) for block, _ in blocks):
            bad = next(name for name, p in parameters.items()
                       if p.grad is not None and not _all_finite(p.grad))
            raise TrainingDivergence(f"non-finite gradient for parameter '{bad}'")
    for w, v, g, blocks in steps:
        for block, out in blocks:
            wb, vb = w[block], v[block]
            step = np.multiply(wb, weight_decay, out=out)
            if g is not None:
                step += g[block]
            vb *= momentum
            vb += step
            np.multiply(vb, lr, out=step)
            wb -= step
    for p in parameters.values():
        p.grad = None


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Learning rate for a stage-2 epoch: lr * factor ** (#milestones <= epoch)."""
    drops = sum(1 for m in config.lr_milestones if m <= epoch)
    return config.lr * config.lr_factor ** drops


def evaluate_top1(net: PeerNetwork, dataset: Dataset) -> tuple[float, np.ndarray]:
    """Top-1 accuracy and the split's logits; argmax ties resolve to the lowest class.

    The split is forwarded in blocks of `_EVAL_ROWS` rows through constant
    views of `net`'s weights, not copies, so no record keeps its inputs: at
    most two activations of one block are alive at once, beside the
    (rows, classes) logits. Each block is an unchecked constant view of the
    split, whose `Dataset` checked its values. A split of at most
    `_EVAL_ROWS` rows is one block, the whole split's array itself, so its
    logits keep the bits of `net.forward`; a larger split's have those of
    `net.forward` on each block, which BLAS may round differently in the
    last bits.
    """
    frozen = PeerNetwork(net.config, {name: Tensor(p.data) for name, p in net.parameters.items()})
    x = dataset.features.data
    logits = np.empty((len(x), net.config.num_classes))
    for start in range(0, len(x), _EVAL_ROWS):
        block = slice(start, start + _EVAL_ROWS)
        logits[block] = frozen.forward(_constant(x[block])).logits.data
    return float((logits.argmax(axis=1) == dataset.labels).mean()), logits


@dataclass
class MetricsRecord:
    """One (epoch, net) row of the training log."""

    epoch: int
    stage: int
    net: int
    lr: float
    loss_total: float
    loss_ce: float
    loss_kl_mutual: float
    loss_dd: float
    loss_ad: float
    loss_sd: float
    train_top1: float
    test_top1: float
    pi_collapses: int
    triples_skipped: int

    def csv_row(self) -> str:
        return ",".join(
            format(getattr(self, name), ".9g") if name in _FLOAT_COLUMNS
            else str(getattr(self, name))
            for name in _COLUMNS
        )


_COLUMNS = [f.name for f in fields(MetricsRecord)]
_FLOAT_COLUMNS = {name for name, kind in get_type_hints(MetricsRecord).items() if kind is float}
CSV_HEADER = ",".join(_COLUMNS)


def metrics_to_csv(records: Sequence[MetricsRecord]) -> str:
    """Render records under the fixed header, floats at 9 significant digits."""
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in records]) + "\n"


# TotalLoss components, each logged as the sample-weighted mean of its column.
_LOSS_TERMS = [f.name for f in fields(TotalLoss) if f.name.startswith("loss_")]


class _EpochStats:
    """Sample-weighted accumulators for one network over one epoch."""

    def __init__(self):
        self.samples = 0
        self.sums = dict.fromkeys(["loss_total", *_LOSS_TERMS], 0.0)
        self.pi_collapses = 0
        self.triples_skipped = 0

    def add(self, batch_size: int, result: TotalLoss) -> None:
        self.samples += batch_size
        self.sums["loss_total"] += result.total.item() * batch_size
        for column in _LOSS_TERMS:
            self.sums[column] += getattr(result, column) * batch_size
        self.pi_collapses += result.pi_collapses
        self.triples_skipped += result.triples_skipped

    def record(
        self, epoch: int, stage: int, net: int, lr: float, train_top1: float, test_top1: float
    ) -> MetricsRecord:
        n = max(self.samples, 1)
        return MetricsRecord(
            epoch=epoch, stage=stage, net=net, lr=lr,
            train_top1=train_top1, test_top1=test_top1,
            **{column: total / n for column, total in self.sums.items()},
            pi_collapses=self.pi_collapses,
            triples_skipped=self.triples_skipped,
        )


def _require_pair(nets) -> None:
    if len(nets) != 2:
        raise ValueError("training expects exactly two peer networks")


def _train_epochs(
    nets: Sequence[PeerNetwork],
    teacher_logits: Optional[Sequence[np.ndarray]],
    train_ds: Dataset,
    test_ds: Dataset,
    config: TrainConfig,
    stage: int,
    weights: LossWeights,
    include_relation: bool,
) -> tuple[list[MetricsRecord], Optional[list[np.ndarray]]]:
    """The stage's epochs, training both peers on `weights`' objective.

    Stage 1 runs `stage1_epochs` epochs at the constant `lr`; stage 2 runs
    `stage2_epochs` epochs, each at the rate `lr_at` gives as it starts.

    Per batch, each peer forms its loss and back-propagates in turn. In
    sequential order it steps at once, so the second peer's loss sees the
    first peer's updated outputs; in simultaneous order both step after both
    backward passes, so both losses see pre-step outputs. A peer's forward
    output, with the relation geometry `total_loss` keeps on it, is reused
    until that peer steps. Each stage starts its velocities at zero, in new
    arrays, so a net's first step of the stage re-homes its small parameters
    into one flat buffer (see `_flat_layout`): a `p.data` array taken
    before then goes stale. `teacher_logits`, when given, holds one
    (rows, classes) table per peer over the training split; each batch's
    self-teacher is that table's rows at the batch's indices. Stage 2's
    shuffling continues stage 1's epoch numbers, so the batch stream never
    repeats across stages. A batch whose tuple set holds no triple logs, at
    debug level, that its angle term is skipped. Divergence in an epoch's
    batches or its evaluation raises `TrainingDivergence` naming the stage
    and epoch.

    Returns (records, each peer's logits over the training split from the
    last epoch's evaluation); the logits are None in stage 2 and when no
    epoch ran.
    """
    epochs = config.stage2_epochs if stage == 2 else config.stage1_epochs
    epoch_offset = config.stage1_epochs if stage == 2 else 0
    need_tuples = weights.beta > 0 and include_relation
    sequential = config.update_order == "sequential"
    velocities = [{name: np.zeros_like(p.data) for name, p in net.parameters.items()}
                  for net in nets]
    records: list[MetricsRecord] = []
    epoch_logits = None
    for epoch in range(epochs):
        lr = lr_at(epoch, config) if stage == 2 else config.lr
        shuffle_epoch = epoch_offset + epoch
        stats = [_EpochStats(), _EpochStats()]
        try:
            batches = batch_iterator(train_ds, config.batch_size, config.seed, shuffle_epoch)
            for batch_index, batch in enumerate(batches):
                b = len(batch)
                tuples = None
                if need_tuples:
                    # A full set (up to batch 16) draws nothing, so it gets no rng.
                    rng = None if _legs_per_middle(b) == b - 1 else np.random.default_rng(
                        [config.seed, shuffle_epoch, batch_index])
                    tuples = TupleSets.build(b, rng=rng)
                    if tuples.num_triples == 0:
                        logger.debug(
                            "stage %d epoch %d batch %d: %d samples, angle term skipped",
                            stage, epoch, batch_index, b,
                        )
                outputs = [None, None]

                def forward(j: int):
                    if outputs[j] is None:
                        outputs[j] = nets[j].forward(batch.features)
                    return outputs[j]

                for k in (0, 1):
                    result = total_loss(
                        forward(k),
                        forward(1 - k) if weights.beta > 0 else None,
                        None if teacher_logits is None
                        else _constant(teacher_logits[k][batch.indices]),
                        batch.one_hot_labels,
                        weights,
                        tuples,
                    )
                    nets[k].zero_grads()
                    backward(result.total)
                    stats[k].add(b, result)
                    if sequential or k == 1:
                        for j in (k,) if sequential else (0, 1):
                            sgd_step(nets[j].parameters, velocities[j], lr, config.momentum,
                                     config.weight_decay)
                            outputs[j] = None
            # Drop the previous epoch's logits first, so no evaluation runs beside
            # them. Only stage 1 keeps them: net 2's stage-2 evaluations run beside
            # no table of net 1.
            epoch_logits = [None, None] if stage == 1 else None
            for k in (0, 1):
                train_top1, logits = evaluate_top1(nets[k], train_ds)
                if stage == 1:
                    epoch_logits[k] = logits
                del logits
                records.append(
                    stats[k].record(
                        epoch=epoch,
                        stage=stage,
                        net=k + 1,
                        lr=lr,
                        train_top1=train_top1,
                        test_top1=evaluate_top1(nets[k], test_ds)[0],
                    )
                )
        except AutodiffError as exc:
            raise TrainingDivergence(f"stage {stage} epoch {epoch}: {exc}") from exc
    return records, epoch_logits


def pretrain_stage1(
    nets: Sequence[PeerNetwork],
    train_ds: Dataset,
    test_ds: Dataset,
    config: TrainConfig,
) -> tuple[list[PeerNetwork], list[np.ndarray], list[MetricsRecord]]:
    """Independent cross-entropy training of both peers, then freeze snapshots.

    Both peers see the same batch sequence; they differ only through their
    initialization. Returns (frozen snapshots, each snapshot's logits table
    over `train_ds`, per-epoch metric records). The tables are the last
    epoch's train-split evaluation, which forwards the snapshot's weights;
    only a stage 1 of zero epochs evaluates each snapshot for them. Either
    way a table has `evaluate_top1`'s bits, which equal `snapshot.forward`'s
    only up to `_EVAL_ROWS` (512) rows.
    """
    _require_pair(nets)
    records, tables = _train_epochs(
        nets, None, train_ds, test_ds, config,
        stage=1,
        weights=LossWeights(alpha=1.0, beta=0.0, gamma=0.0),
        include_relation=False,
    )
    if records:
        first = [r.loss_ce for r in records[:2]]
        final = [r.loss_ce for r in records[-2:]]
        logger.info(
            "stage 1 mean cross-entropy: net1 %.6g -> %.6g, net2 %.6g -> %.6g",
            first[0], final[0], first[1], final[1],
        )
        if any(f >= s for f, s in zip(final, first)) and config.stage1_epochs > 1:
            logger.warning("stage 1 cross-entropy did not decrease within its epoch budget")
    snapshots = [net.snapshot() for net in nets]
    if tables is None:
        tables = [evaluate_top1(s, train_ds)[1] for s in snapshots]
    return snapshots, tables, records


def train_stage2(
    nets: Sequence[PeerNetwork],
    teacher_logits: Optional[Sequence[np.ndarray]],
    train_ds: Dataset,
    test_ds: Dataset,
    config: TrainConfig,
) -> list[MetricsRecord]:
    """Joint training under the configured variant's objective and update order.

    The learning rate follows `lr_at`; batch shuffling continues the stage-1
    epoch numbering. With the self term active, `teacher_logits` holds each
    peer's frozen snapshot's logits over the training split, one
    (rows, classes) table per peer as `pretrain_stage1` returns them, and
    every batch reads the rows at its indices as constants: a table of
    another shape, or one holding a non-finite value, raises ValueError
    before any step. Without the self term (variant B, or `gamma` 0) they
    are ignored and may be None.
    """
    _require_pair(nets)
    weights, include_relation = variant_weights(config.weights, config.variant)
    if weights.gamma <= 0:
        teacher_logits = None
    elif teacher_logits is None or [np.shape(t) for t in teacher_logits] != [
        (len(train_ds), net.config.num_classes) for net in nets
    ]:
        raise ValueError("the self term needs one (rows, classes) teacher_logits table per peer")
    else:
        teacher_logits = [np.asarray(t, dtype=np.float64) for t in teacher_logits]
        if not all(np.isfinite(t).all() for t in teacher_logits):
            raise ValueError("a teacher_logits table holds non-finite values")
    return _train_epochs(
        nets, teacher_logits, train_ds, test_ds, config,
        stage=2,
        weights=weights,
        include_relation=include_relation,
    )[0]
