"""Self-check suite behind the `verify` command.

Two kinds of checks live here. Property checks assert invariants of the
engine and the losses (per-op gradients under random output weights and loss
gradients against central finite differences, softmax normalization, Huber
values, potential normalization, schedule conformance, bit-exact replay).
Oracle checks compare the vectorized loss implementations against independent
scalar double-loop reimplementations written with plain python floats.

The oracles deliberately share no code with the implementations they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .autodiff import (
    Tensor,
    add,
    add_bias,
    backward,
    div,
    gather,
    huber_penalty,
    legs,
    log_softmax_with_temperature,
    matmul,
    mul,
    pairwise_l2,
    reduce_mean,
    reduce_sum,
    relu,
    reshape,
    softmax_rows,
    sqrt,
    sub,
)
from .data import synth_blobs, mean_std_normalize
from .losses import (
    LossWeights,
    RelationSide,
    TupleSets,
    cross_entropy,
    kl_softened,
    relation_distill_loss,
    total_loss,
)
from .models import NetworkConfig, init_network
from .trainer import TrainConfig, lr_at, metrics_to_csv, pretrain_stage1, train_stage2

__all__ = [
    "CheckResult",
    "CHECKS",
    "run_checks",
    "max_param_grad_error",
    "grad_check",
    "op_cases",
    "op_gradient_error",
    "grad_scenario",
    "loss_builders",
    "oracle_cross_entropy",
    "oracle_kl",
    "oracle_huber",
    "oracle_distance_loss",
    "oracle_angle_loss",
    "oracle_relation_loss",
]

GRAD_TOL = 1e-4
FD_STEP = 1e-5


class VerificationFailure(AssertionError):
    """A verify property did not hold."""


def _ensure(condition: bool, message: str) -> None:
    if not condition:
        raise VerificationFailure(message)


# ---------------------------------------------------------------------------
# Scalar double-loop oracles (independent reimplementations).
# ---------------------------------------------------------------------------


def _oracle_log_softmax_row(row: Sequence[float], t: float) -> list[float]:
    scaled = [x / t for x in row]
    m = max(scaled)
    lse = m + math.log(sum(math.exp(x - m) for x in scaled))
    return [x - lse for x in scaled]


def oracle_cross_entropy(logits: np.ndarray, one_hot: np.ndarray) -> float:
    """Batch-mean cross-entropy via per-row scalar arithmetic."""
    total = 0.0
    for row, labels in zip(logits.tolist(), one_hot.tolist()):
        log_p = _oracle_log_softmax_row(row, 1.0)
        total += -sum(y * lp for y, lp in zip(labels, log_p))
    return total / logits.shape[0]


def oracle_kl(student_logits: np.ndarray, teacher_logits: np.ndarray, t: float) -> float:
    """Batch-mean softened KL(teacher || student) via scalar arithmetic."""
    total = 0.0
    for srow, trow in zip(student_logits.tolist(), teacher_logits.tolist()):
        log_p = _oracle_log_softmax_row(srow, t)
        log_q = _oracle_log_softmax_row(trow, t)
        total += sum(math.exp(lq) * (lq - lp) for lq, lp in zip(log_q, log_p))
    return total / student_logits.shape[0]


def _oracle_distance(a: Sequence[float], b: Sequence[float]) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def oracle_huber(a: float, b: float) -> float:
    """Penalty on a - b: quadratic within unit residual, linear beyond."""
    d = abs(a - b)
    return 0.5 * d * d if d <= 1.0 else d - 0.5


def _oracle_potentials(e: np.ndarray, pairs: Sequence[tuple[int, int]]) -> list[float]:
    dists = [_oracle_distance(e[u], e[v]) for u, v in pairs]
    pi = sum(dists) / len(dists)
    if pi < 1e-8:
        return [0.0] * len(pairs)
    return [d / pi for d in dists]


def oracle_distance_loss(emb_a: np.ndarray, emb_b: np.ndarray) -> float:
    """Mean Huber gap of normalized pair distances over all ordered pairs."""
    n = emb_a.shape[0]
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    pots_a = _oracle_potentials(emb_a, pairs)
    pots_b = _oracle_potentials(emb_b, pairs)
    return sum(oracle_huber(a, b) for a, b in zip(pots_a, pots_b)) / len(pairs)


def _oracle_cosine(e: np.ndarray, u: int, v: int, w: int) -> float:
    head = [e[u][i] - e[v][i] for i in range(e.shape[1])]
    tail = [e[w][i] - e[v][i] for i in range(e.shape[1])]
    nh = math.sqrt(sum(x * x for x in head))
    nt = math.sqrt(sum(x * x for x in tail))
    dot = sum(x * y for x, y in zip(head, tail))
    return dot / nh / nt


def oracle_angle_loss(emb_a: np.ndarray, emb_b: np.ndarray) -> float:
    """Mean Huber gap of triple-angle cosines over all ordered triples.

    Triples with a leg shorter than the coincidence cutoff in either
    embedding set are skipped, matching the implementation's convention.
    """
    n = emb_a.shape[0]
    gaps = []
    for u in range(n):
        for v in range(n):
            for w in range(n):
                if u == v or u == w or v == w:
                    continue
                legs = (
                    _oracle_distance(emb_a[u], emb_a[v]),
                    _oracle_distance(emb_a[w], emb_a[v]),
                    _oracle_distance(emb_b[u], emb_b[v]),
                    _oracle_distance(emb_b[w], emb_b[v]),
                )
                if min(legs) < 1e-8:
                    continue
                gaps.append(
                    oracle_huber(_oracle_cosine(emb_a, u, v, w), _oracle_cosine(emb_b, u, v, w))
                )
    if not gaps:
        return 0.0
    return sum(gaps) / len(gaps)


def oracle_relation_loss(emb_a: np.ndarray, emb_b: np.ndarray, beta1: float) -> float:
    return oracle_distance_loss(emb_a, emb_b) + beta1 * oracle_angle_loss(emb_a, emb_b)


# ---------------------------------------------------------------------------
# Parameter-gradient checking against central finite differences.
# ---------------------------------------------------------------------------


def max_param_grad_error(
    build_loss: Callable[[], Tensor], parameters: Iterable[Tensor], h: float = FD_STEP
) -> float:
    """Worst relative gap between tape and central-difference parameter grads.

    ``build_loss`` must re-evaluate the scalar loss from the parameters'
    current values on every call.
    """
    params = list(parameters)
    for p in params:
        p.grad = None
    loss = build_loss()
    backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, grads in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = grads.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            f_plus = build_loss().item()
            flat[i] = original - h
            f_minus = build_loss().item()
            flat[i] = original
            numeric = (f_plus - f_minus) / (2.0 * h)
            err = abs(gflat[i] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """max_param_grad_error of the scalar function ``f`` at a copy of ``x``."""
    probe = Tensor(x.data.copy(), requires_grad=True)
    return max_param_grad_error(lambda: f(probe), [probe])


def op_cases() -> list[tuple[str, Callable[[Tensor], Tensor], Tensor]]:
    """(name, op of one tensor, input): one case per engine op form and tensor operand.

    `triple_cosines` is fed from embeddings through `RelationSide.cosines`,
    for a full triple set of 5 rows and a sampled one of 48 rows, which
    keeps m = 8 of each middle index's 47 other rows. `legs` reads the
    sampled set's legs, where other rows repeat.
    """
    rng = np.random.default_rng(9)

    def draw(low, high, *shape):
        return Tensor(rng.uniform(low, high, shape))

    a, b = draw(-1.0, 1.0, 3, 4), draw(0.5, 1.5, 3, 4)

    def operands(name, op, x, y):
        return [(f"{name}_a", lambda t: op(t, y), x), (f"{name}_b", lambda t: op(x, t), y)]

    def cosines(e, tuples):
        return RelationSide(e).measure(tuples).cosines()

    full, sampled = TupleSets.build(5), TupleSets.build(48, rng)
    return [
        *operands("add", add, a, b),
        *operands("sub", sub, a, b),
        *operands("mul", mul, a, b),
        *operands("div", div, a, b),
        *operands("div_size_one", div, a, draw(0.5, 1.5, 1)),
        *operands("matmul", matmul, a, draw(-1.0, 1.0, 4, 2)),
        *operands("add_bias", add_bias, a, draw(-1.0, 1.0, 4)),
        ("mul_number", lambda t: mul(t, 0.7), a),
        ("div_number", lambda t: div(t, -1.3), a),
        ("reduce_sum", reduce_sum, a),
        ("reduce_sum_axis1", lambda t: reduce_sum(t, axis=1), a),
        ("reduce_mean", reduce_mean, a),
        ("relu", relu, a),
        ("sqrt", sqrt, b),
        ("huber_penalty", huber_penalty, draw(-2.0, 2.0, 3, 4)),
        ("reshape", lambda t: reshape(t, (12,)), a),
        ("gather", lambda t: gather(t, [0, 2, 2, 1]), a),
        ("log_softmax_t1", lambda t: log_softmax_with_temperature(t, 1.0), a),
        ("log_softmax_t3", lambda t: log_softmax_with_temperature(t, 3.0), a),
        ("pairwise_l2", pairwise_l2, draw(-1.0, 1.0, 5, 3)),
        ("triple_cosines_gram", lambda t: cosines(t, full), draw(-1.0, 1.0, 5, 3)),
        ("triple_cosines_sampled", lambda t: cosines(t, sampled), draw(-1.0, 1.0, 48, 3)),
        ("legs", lambda t: legs(t, sampled.other), draw(-1.0, 1.0, 48, 3)),
    ]


def op_gradient_error(op: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """grad_check of sum(op(x) * W), W fixed random weights of op's output shape.

    A plain sum's all-ones upstream gradient hides a backward that swaps two output axes.
    """
    weights = Tensor(np.random.default_rng(0).uniform(-1.0, 1.0, op(x).data.shape))
    return grad_check(lambda t: reduce_sum(mul(op(t), weights)), x)


@dataclass
class GradScenario:
    """Shared fixture for the per-loss gradient checks."""

    x: Tensor
    one_hot: Tensor
    net: object
    peer: object
    snapshot: object
    weights: LossWeights
    tuples: TupleSets


def grad_scenario(seed: int = 123) -> GradScenario:
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-1.0, 1.0, (4, 3)))
    labels = rng.integers(0, 3, size=4)
    one_hot = np.zeros((4, 3))
    one_hot[np.arange(4), labels] = 1.0
    net = init_network(NetworkConfig(3, (5, 4), 3, init_seed=seed))
    peer = init_network(NetworkConfig(3, (6, 4), 3, init_seed=seed + 1))
    snapshot = init_network(NetworkConfig(3, (5, 4), 3, init_seed=seed + 2)).snapshot()
    # Fresh networks have zero biases, which can park a relu preactivation
    # exactly on its kink and break finite differencing. Nudge the biases
    # so the scenario sits at a generic point.
    for network in (net, peer, snapshot):
        for name, param in network.parameters.items():
            if name.startswith("b"):
                param.data += rng.uniform(-0.4, 0.4, param.data.shape)
    return GradScenario(
        x=x,
        one_hot=Tensor(one_hot),
        net=net,
        peer=peer,
        snapshot=snapshot,
        weights=LossWeights(),
        tuples=TupleSets.build(4),
    )


def loss_builders(scn: GradScenario) -> dict[str, Callable[[], Tensor]]:
    """Named builders for every loss whose parameter gradients are checked."""
    w = scn.weights

    def peer_out():
        return scn.peer.forward(scn.x)

    def relation():
        return relation_distill_loss(
            scn.net.forward(scn.x).embedding, peer_out().embedding, w, scn.tuples
        )

    return {
        "cross_entropy": lambda: cross_entropy(scn.net.forward(scn.x).logits, scn.one_hot),
        "mutual_kl": lambda: kl_softened(scn.net.forward(scn.x).logits, peer_out().logits, 1.0),
        "self_distill_kl": lambda: kl_softened(
            scn.net.forward(scn.x).logits, scn.snapshot.forward(scn.x).logits, w.temperature
        ),
        "distance_loss": lambda: relation().distance,
        "angle_loss": lambda: relation().angle,
        "relation_loss": lambda: relation().total,
        "mutual_loss": lambda: total_loss(
            scn.net.forward(scn.x), peer_out(), None, scn.one_hot,
            replace(w, alpha=0.0, gamma=0.0), scn.tuples,
        ).total,
        "total_objective": lambda: total_loss(
            scn.net.forward(scn.x), peer_out(), scn.snapshot.forward(scn.x).logits,
            scn.one_hot, w, scn.tuples,
        ).total,
    }


# ---------------------------------------------------------------------------
# Property checks.
# ---------------------------------------------------------------------------


def check_op_gradients() -> None:
    for name, op, x in op_cases():
        err = op_gradient_error(op, x)
        _ensure(err < GRAD_TOL, f"op '{name}' gradient error {err:.3e}")


def check_op_values() -> None:
    rng = np.random.default_rng(11)
    rows = softmax_rows(rng.uniform(-1e3, 1e3, (5, 7)), 1.0)[0].sum(axis=1)
    _ensure(np.abs(rows - 1.0).max() < 1e-9, "softmax rows do not sum to 1 at logit scale 1e3")
    d = pairwise_l2(Tensor(rng.uniform(-1.0, 1.0, (4, 3)))).data
    _ensure(np.array_equal(d, d.T), "pairwise_l2 is not symmetric")
    _ensure(np.all(np.diag(d) == 0.0), "pairwise_l2 diagonal is not exactly zero")


def check_loss_parameter_gradients() -> None:
    scn = grad_scenario()
    for name, builder in loss_builders(scn).items():
        err = max_param_grad_error(builder, scn.net.parameters.values())
        _ensure(err < GRAD_TOL, f"loss '{name}' parameter gradient error {err:.3e}")


def check_tuple_oracle_equivalence() -> None:
    rng = np.random.default_rng(14)
    weights = LossWeights()
    for n in (3, 4, 5):
        for _ in range(5):
            ea = rng.uniform(-1.0, 1.0, (n, 3))
            eb = rng.uniform(-1.0, 1.0, (n, 3))
            tuples = TupleSets.build(n)
            rel = relation_distill_loss(Tensor(ea), Tensor(eb), weights, tuples)
            dd_gap = abs(rel.distance.item() - oracle_distance_loss(ea, eb))
            ad_gap = abs(rel.angle.item() - oracle_angle_loss(ea, eb))
            _ensure(dd_gap < 1e-10, f"distance loss oracle gap {dd_gap:.3e} at n={n}")
            _ensure(ad_gap < 1e-10, f"angle loss oracle gap {ad_gap:.3e} at n={n}")


def check_response_loss_values() -> None:
    uniform = Tensor(np.zeros((1, 4)))
    labels = Tensor(np.array([[1.0, 0.0, 0.0, 0.0]]))
    gap = abs(cross_entropy(uniform, labels).item() - math.log(4.0))
    _ensure(gap < 1e-12, f"uniform cross-entropy off ln(4) by {gap:.3e}")
    rng = np.random.default_rng(15)
    z = Tensor(rng.uniform(-2.0, 2.0, (3, 5)))
    _ensure(
        abs(kl_softened(z, Tensor(z.data.copy()), 1.0).item()) < 1e-12,
        "mutual KL of identical logits is not zero",
    )
    zb = Tensor(z.data + rng.uniform(0.1, 0.5, (3, 5)))
    _ensure(kl_softened(z, zb, 1.0).item() > 1e-9, "mutual KL of distinct logits is not positive")
    student = np.zeros((1, 2))
    teacher = np.array([[20.0, 0.0]])
    gap = abs(kl_softened(Tensor(student), Tensor(teacher), 1.0).item() - math.log(2.0))
    _ensure(gap < 1e-4, f"near-one-hot teacher KL off ln(2) by {gap:.3e}")


def check_huber_values() -> None:
    def penalty(points):
        """huber_penalty's values at `points` and its backward's slopes there."""
        x = Tensor(np.asarray(points, dtype=np.float64), requires_grad=True)
        out = huber_penalty(x)
        backward(reduce_sum(out))
        return out.data, x.grad

    values, _ = penalty([2.0, 0.5, 0.0])
    _ensure(values.tolist() == [1.5, 0.125, 0.0], f"huber_penalty(2, 0.5, 0) = {values.tolist()}")
    eps = 1e-9
    for seam in (-1.0, 1.0):
        values, slopes = penalty([seam - eps, seam + eps])
        gap = abs(values[1] - values[0])
        _ensure(gap < 1e-8, f"huber_penalty jumps by {gap:.3e} at {seam:g}")
        gap = abs(slopes[1] - slopes[0])
        _ensure(gap < 1e-8, f"huber_penalty backward jumps by {gap:.3e} at {seam:g}")
    grid = np.linspace(-3.0, 3.0, 13)
    values, _ = penalty(grid)
    _ensure(
        values.tolist() == [oracle_huber(float(x), 0.0) for x in grid],
        "huber_penalty disagrees with the scalar oracle",
    )


def check_potential_normalization() -> None:
    rng = np.random.default_rng(16)
    e = Tensor(rng.uniform(-2.0, 2.0, (6, 4)))
    tuples = TupleSets.build(6)
    side = RelationSide(e).measure(tuples)
    _ensure(not side.degenerate, "random batch flagged as degenerate")
    gap = abs(side.potentials.data.mean() - 1.0)
    _ensure(gap < 1e-9, f"mean distance potential off 1 by {gap:.3e}")
    angles = side.cosines()
    _ensure(
        angles.data.min() >= -1.0 - 1e-12 and angles.data.max() <= 1.0 + 1e-12,
        "angle potentials leave [-1, 1]",
    )


def check_relation_invariance() -> None:
    rng = np.random.default_rng(17)
    e = rng.uniform(-1.0, 1.0, (5, 3))
    weights = LossWeights()
    tuples = TupleSets.build(5)
    for lam in (0.5, 2.0, 10.0):
        shifted = lam * e + rng.uniform(-1.0, 1.0, (1, 3))
        val = relation_distill_loss(Tensor(e), Tensor(shifted), weights, tuples).total.item()
        _ensure(
            abs(val) < 1e-9,
            f"relation loss against a scaled+shifted copy is {val:.3e} at scale {lam}",
        )


def check_lr_schedule() -> None:
    config = TrainConfig(
        stage1_epochs=0, stage2_epochs=200, lr=0.1, lr_milestones=(60, 120, 160), lr_factor=0.2
    )
    _ensure(lr_at(0, config) == 0.1, "lr at epoch 0 is not the base rate")
    _ensure(lr_at(59, config) == 0.1, "lr dropped before the first milestone")
    _ensure(lr_at(60, config) == 0.1 * 0.2, "lr at the first milestone is not base*factor")
    _ensure(lr_at(120, config) == 0.1 * 0.2**2, "lr at the second milestone is wrong")
    _ensure(lr_at(161, config) == 0.1 * 0.2**3, "lr past the last milestone is wrong")
    _ensure(abs(lr_at(161, config) - 8e-4) < 1e-15, "lr past the last milestone is far from 8e-4")


def check_determinism_replay() -> None:
    train = synth_blobs(3, 12, 2, 0.5, seed=5)
    test = synth_blobs(3, 6, 2, 0.5, seed=6)
    train, test = mean_std_normalize(train, [test])
    config = TrainConfig(
        stage1_epochs=1,
        stage2_epochs=2,
        batch_size=8,
        lr=0.05,
        lr_milestones=(),
        seed=3,
        weights=LossWeights(),
        variant="A",
    )

    def run():
        nets = [
            init_network(NetworkConfig(2, (8, 4), 3, init_seed=21)),
            init_network(NetworkConfig(2, (8, 4), 3, init_seed=22)),
        ]
        _, tables, records = pretrain_stage1(nets, train, test, config)
        return nets, records + train_stage2(nets, tables, train, test, config)

    (nets_a, records_a), (nets_b, records_b) = run(), run()
    _ensure(
        metrics_to_csv(records_a) == metrics_to_csv(records_b),
        "identical runs produced different metrics",
    )
    for net_a, net_b in zip(nets_a, nets_b):
        for name in net_a.parameters:
            _ensure(
                np.array_equal(net_a.parameters[name].data, net_b.parameters[name].data),
                f"identical runs produced different parameters ({name})",
            )


CHECKS: list[tuple[str, Callable[[], None]]] = [
    ("op_gradients", check_op_gradients),
    ("op_values", check_op_values),
    ("loss_parameter_gradients", check_loss_parameter_gradients),
    ("tuple_oracle_equivalence", check_tuple_oracle_equivalence),
    ("response_loss_values", check_response_loss_values),
    ("huber_values", check_huber_values),
    ("potential_normalization", check_potential_normalization),
    ("relation_invariance", check_relation_invariance),
    ("lr_schedule", check_lr_schedule),
    ("determinism_replay", check_determinism_replay),
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def run_checks() -> list[CheckResult]:
    """Run every check, capturing the first failure message of each."""
    results = []
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # report, never crash the suite
            results.append(CheckResult(name, False, str(exc)))
        else:
            results.append(CheckResult(name, True))
    return results
