"""Two-stage collaborative training of a pair of peer networks.

Stage 1 trains each peer independently with plain cross-entropy and freezes
a snapshot of each as its self-teacher. Stage 2 trains the peers jointly:
for every batch each network minimizes a weighted sum of cross-entropy,
a mutual term against the other peer (response KL plus distance/angle
relation penalties, peer side held constant) and a softened KL against its
own frozen snapshot. Updates are plain SGD with momentum and weight decay
under a step-drop learning-rate schedule.

Everything is deterministic: identical configs, datasets and seeds replay
bit-identical parameter and metric trajectories on the same platform.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence, get_type_hints

import numpy as np

from .autodiff import AutodiffError, Tensor, backward
from .data import Dataset, batch_iterator
from .losses import LossWeights, TotalLoss, TupleSets, total_loss
from .models import PeerNetwork, _integer, _number

logger = logging.getLogger(__name__)

__all__ = [
    "CSV_HEADER",
    "VARIANTS",
    "UPDATE_ORDERS",
    "TrainingDivergence",
    "TrainConfig",
    "MetricsRecord",
    "TrainResult",
    "variant_weights",
    "sgd_step",
    "lr_at",
    "evaluate_top1",
    "metrics_to_csv",
    "pretrain_stage1",
    "train_stage2",
    "train_pair",
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


def sgd_step(
    parameters: dict,
    velocities: dict,
    lr: float,
    momentum: float,
    weight_decay: float,
) -> None:
    """One SGD update: g' = g + wd*w; v <- momentum*v + g'; w <- w - lr*v.

    `velocities` maps each parameter name to its momentum buffer. Buffers and
    each `p.data` are updated in place through one scratch array per
    parameter, with the formula's float operations in its order, so the bits
    match an out-of-place update. A missing gradient steps by weight decay
    alone; a non-finite one raises before its parameter or velocity changes.
    A tape recorded before the step reads the new weights, so it must not be
    backpropagated afterwards: the trainer reuses a peer's forward output
    only until that peer steps. Each gradient is released (`grad = None`)
    once its step has applied it, so a net's gradients never outlive the
    step into the evaluations that follow.
    """
    for name, p in parameters.items():
        g = p.grad
        if g is not None and not np.isfinite(g).all():
            raise TrainingDivergence(f"non-finite gradient for parameter '{name}'")
        step = np.multiply(p.data, weight_decay)
        if g is not None:
            step += g
        v = velocities[name]
        v *= momentum
        v += step
        np.multiply(v, lr, out=step)
        p.data -= step
        p.grad = None


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Learning rate for a stage-2 epoch: lr * factor ** (#milestones <= epoch)."""
    drops = sum(1 for m in config.lr_milestones if m <= epoch)
    return config.lr * config.lr_factor ** drops


def evaluate_top1(net: PeerNetwork, dataset: Dataset) -> float:
    """Top-1 accuracy; argmax ties resolve to the lowest class index.

    The split is forwarded through constant views of `net`'s weights, not
    copies, so no record keeps its inputs: at most two activations of the
    split are alive at once, and the logits' bits are those of `net.forward`.
    """
    frozen = PeerNetwork(net.config, {name: Tensor(p.data) for name, p in net.parameters.items()})
    logits = frozen.forward(dataset.features).logits.data
    predictions = logits.argmax(axis=1)
    return float((predictions == dataset.labels).mean())


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
) -> list[MetricsRecord]:
    """The stage's epochs, training both peers on `weights`' objective.

    Stage 1 runs `stage1_epochs` epochs at the constant `lr`; stage 2 runs
    `stage2_epochs` epochs, each at the rate `lr_at` gives as it starts.

    Per batch, each peer forms its loss and back-propagates in turn. In
    sequential order it steps at once, so the second peer's loss sees the
    first peer's updated outputs; in simultaneous order both step after both
    backward passes, so both losses see pre-step outputs. A peer's forward
    output, with the relation geometry `total_loss` keeps on it, is reused
    until that peer steps. `teacher_logits`, when given, holds one
    (rows, classes) table per peer over the training split; each batch's
    self-teacher is that table's rows at the batch's indices. Stage 2's
    shuffling continues stage 1's epoch numbers, so the batch stream never
    repeats across stages. A batch whose tuple set holds no triple logs, at
    debug level, that its angle term is skipped.
    """
    epochs = config.stage2_epochs if stage == 2 else config.stage1_epochs
    epoch_offset = config.stage1_epochs if stage == 2 else 0
    need_tuples = weights.beta > 0 and include_relation
    sequential = config.update_order == "sequential"
    velocities = [{name: np.zeros_like(p.data) for name, p in net.parameters.items()}
                  for net in nets]
    records: list[MetricsRecord] = []
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
                    rng = np.random.default_rng([config.seed, shuffle_epoch, batch_index])
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
                        else Tensor(teacher_logits[k][batch.indices]),
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
        except AutodiffError as exc:
            raise TrainingDivergence(f"stage {stage} epoch {epoch}: {exc}") from exc
        for k in (0, 1):
            records.append(
                stats[k].record(
                    epoch=epoch,
                    stage=stage,
                    net=k + 1,
                    lr=lr,
                    train_top1=evaluate_top1(nets[k], train_ds),
                    test_top1=evaluate_top1(nets[k], test_ds),
                )
            )
    return records


def pretrain_stage1(
    nets: Sequence[PeerNetwork],
    train_ds: Dataset,
    test_ds: Dataset,
    config: TrainConfig,
) -> tuple[list[PeerNetwork], list[MetricsRecord]]:
    """Independent cross-entropy training of both peers, then freeze snapshots.

    Both peers see the same batch sequence; they differ only through their
    initialization. Returns (frozen snapshots, per-epoch metric records).
    """
    _require_pair(nets)
    records = _train_epochs(
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
    return snapshots, records


def train_stage2(
    nets: Sequence[PeerNetwork],
    snapshots: Optional[Sequence[PeerNetwork]],
    train_ds: Dataset,
    test_ds: Dataset,
    config: TrainConfig,
) -> list[MetricsRecord]:
    """Joint training under the configured variant's objective and update order.

    The learning rate follows `lr_at`; batch shuffling continues the stage-1
    epoch numbering. With the self term active, each frozen snapshot's
    logits over the training split are computed once and read per batch.
    """
    _require_pair(nets)
    weights, include_relation = variant_weights(config.weights, config.variant)
    teacher_logits = None
    if weights.gamma > 0:
        if snapshots is None or len(snapshots) != 2:
            raise ValueError("snapshots of both peers are required when the self term is active")
        if config.stage2_epochs:
            teacher_logits = [s.forward(train_ds.features).logits.data for s in snapshots]
    return _train_epochs(
        nets, teacher_logits, train_ds, test_ds, config,
        stage=2,
        weights=weights,
        include_relation=include_relation,
    )


@dataclass
class TrainResult:
    """Trained peers, their stage-1 snapshots and the full metric log."""

    nets: list
    snapshots: list
    records: list


def train_pair(
    nets: Sequence[PeerNetwork],
    train_ds: Dataset,
    test_ds: Dataset,
    config: TrainConfig,
) -> TrainResult:
    """Run stage 1 then stage 2 and collect all metric records."""
    snapshots, stage1_records = pretrain_stage1(nets, train_ds, test_ds, config)
    stage2_records = train_stage2(nets, snapshots, train_ds, test_ds, config)
    return TrainResult(nets=list(nets), snapshots=snapshots, records=stage1_records + stage2_records)
