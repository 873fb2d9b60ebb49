"""The nine gate checks this package must pass, one test per criterion.

Each test states its tolerance inline. Criterion 8's accuracy ordering is
reported as pass/warn rather than asserted, because on toy data the effect
is not guaranteed to appear; the table structure itself is asserted hard.
"""

import json
import time

import numpy as np
import pytest

from distilforge import cli
from distilforge.autodiff import Tensor, add, backward, huber_penalty, mul
from distilforge.data import batch_iterator, mean_std_normalize, synth_blobs
from distilforge.losses import (
    LossWeights,
    RelationSide,
    TupleSets,
    cross_entropy,
    kl_softened,
    relation_distill_loss,
)
from distilforge.experiments import load_experiment_config, run_experiment
from distilforge.models import NetworkConfig, init_network
from distilforge.trainer import (
    TrainConfig,
    lr_at,
    pretrain_stage1,
    sgd_step,
    train_pair,
)
from distilforge.verification import (
    grad_scenario,
    loss_builders,
    max_param_grad_error,
    oracle_angle_loss,
    oracle_distance_loss,
)


def test_criterion_1_gradient_correctness():
    """Every loss's parameter gradients match central differences < 1e-4."""
    started = time.monotonic()
    scn = grad_scenario()
    worst = {}
    for name, builder in loss_builders(scn).items():
        worst[name] = max_param_grad_error(builder, scn.net.parameters.values(), h=1e-5)
    elapsed = time.monotonic() - started
    for name, err in sorted(worst.items()):
        print(f"criterion 1: {name} worst relative gradient error {err:.3e}")
    print(f"criterion 1: completed in {elapsed:.1f}s")
    assert len(worst) == 8
    for name, err in worst.items():
        assert err < 1e-4, f"{name}: {err:.3e}"
    assert elapsed < 30.0


def test_criterion_2_oracle_equivalence():
    """Vectorized distance/angle losses match the scalar oracle < 1e-10."""
    rng = np.random.default_rng(2024)
    weights = LossWeights()
    worst = 0.0
    for n in (3, 4, 5):
        tuples = TupleSets.build(n)
        for _ in range(20):
            ea = rng.uniform(-2.0, 2.0, (n, 4))
            eb = rng.uniform(-2.0, 2.0, (n, 4))
            rel = relation_distill_loss(Tensor(ea), Tensor(eb), weights, tuples)
            dd_gap = abs(rel.distance.item() - oracle_distance_loss(ea, eb))
            ad_gap = abs(rel.angle.item() - oracle_angle_loss(ea, eb))
            worst = max(worst, dd_gap, ad_gap)
            assert dd_gap < 1e-10
            assert ad_gap < 1e-10
    print(f"criterion 2: worst oracle gap {worst:.3e} over 60 trials")


def test_criterion_3_relational_invariances():
    """Scale/shift invariance < 1e-9; potential mean 1 < 1e-9; cosines in [-1, 1]."""
    rng = np.random.default_rng(31)
    weights = LossWeights()
    for n in (4, 7):
        e = rng.uniform(-1.0, 1.0, (n, 3))
        tuples = TupleSets.build(n)
        for lam in (0.5, 2.0, 10.0):
            shifted = lam * e + rng.uniform(-3.0, 3.0, (1, 3))
            value = relation_distill_loss(
                Tensor(e), Tensor(shifted), weights, tuples
            ).total.item()
            assert abs(value) < 1e-9, f"lambda={lam}: {value:.3e}"
        side = RelationSide(Tensor(e)).measure(tuples)
        assert not side.degenerate
        assert abs(side.potentials.data.mean() - 1.0) < 1e-9
        angles = side.cosines()
        assert side.valid.all()
        assert angles.data.min() >= -1.0 and angles.data.max() <= 1.0
    print("criterion 3: invariances hold at lambda 0.5/2/10, mean potential 1, cosines bounded")


def test_criterion_4_analytic_loss_values():
    """Huber values exact; uniform CE = ln 4 and identical-logit KL = 0 < 1e-12."""
    assert huber_penalty(Tensor(np.array([2.0, 0.5]))).data.tolist() == [1.5, 0.125]
    ce = cross_entropy(Tensor(np.zeros((3, 4))), Tensor(np.eye(4)[:3])).item()
    assert abs(ce - np.log(4.0)) < 1e-12
    z = np.random.default_rng(4).uniform(-2.0, 2.0, (3, 5))
    assert abs(kl_softened(Tensor(z), Tensor(z.copy()), 1.0).item()) < 1e-12
    print("criterion 4: huber_penalty(2, 0.5)=(1.5, 0.125), CE(uniform,4)=ln4, KL(z,z)=0")


def _reduction_fixture():
    train = synth_blobs(3, 8, 2, 0.5, seed=50)
    test = synth_blobs(3, 4, 2, 0.5, seed=51)
    train, test = mean_std_normalize(train, [test])
    return train, test


def _reference_stage2(nets, snapshots, train_ds, config, weights, use_self_term):
    """Per-batch loop mirroring stage 2 with all peer coupling removed.

    Each batch's self-teacher rows come from one full-split forward of each
    snapshot, as in stage 2: a per-batch forward of the snapshot is another
    BLAS shape and may differ in the last bits.
    """
    velocities = [{name: np.zeros_like(p.data) for name, p in net.parameters.items()}
                  for net in nets]
    tables = [s.forward(train_ds.features).logits.data for s in snapshots]
    for epoch in range(config.stage2_epochs):
        lr = lr_at(epoch, config)
        shuffle_epoch = config.stage1_epochs + epoch
        for batch in batch_iterator(train_ds, config.batch_size, config.seed, shuffle_epoch):
            for k in (0, 1):
                logits = nets[k].forward(batch.features).logits
                loss = mul(cross_entropy(logits, batch.one_hot_labels), weights.alpha)
                if use_self_term:
                    snap_logits = Tensor(tables[k][batch.indices])
                    self_term = kl_softened(logits, snap_logits, weights.temperature)
                    loss = add(loss, mul(self_term, weights.gamma))
                nets[k].zero_grads()
                backward(loss)
                sgd_step(
                    nets[k].parameters, velocities[k], lr, config.momentum, config.weight_decay
                )


def _fresh_reduction_pair(hidden):
    return [
        init_network(NetworkConfig(2, hidden, 3, init_seed=60)),
        init_network(NetworkConfig(2, hidden, 3, init_seed=61)),
    ]


@pytest.mark.parametrize(
    "weights, use_self_term, hidden, batch_size, label",
    [
        (LossWeights(alpha=1.0, beta=0.0, gamma=0.0), False, (8, 4), 8,
         "independent cross-entropy"),
        (LossWeights(alpha=0.4, beta=0.0, gamma=0.6), True, (8, 4), 8,
         "self-distillation only"),
        # The demo widths at batch 17, where a per-batch snapshot forward and
        # the full-split one differ in the last bits.
        (LossWeights(alpha=0.4, beta=0.0, gamma=0.6), True, (32, 16), 17,
         "self-distillation only, demo widths at batch 17"),
    ],
    ids=["beta_gamma_zero", "beta_zero", "beta_zero_demo_b17"],
)
def test_criterion_5_degenerate_weight_reductions(
    weights, use_self_term, hidden, batch_size, label
):
    """Zeroed weights reproduce the simpler scheme bit-for-bit over 3 epochs."""
    train, test = _reduction_fixture()
    for horizon in (1, 2, 3):
        config = TrainConfig(
            stage1_epochs=1, stage2_epochs=horizon, batch_size=batch_size, lr=0.05,
            lr_milestones=(), momentum=0.9, weight_decay=5e-4, seed=3,
            weights=weights, variant="A",
        )
        trained = train_pair(_fresh_reduction_pair(hidden), train, test, config)

        reference = _fresh_reduction_pair(hidden)
        snapshots, _ = pretrain_stage1(reference, train, test, config)
        _reference_stage2(reference, snapshots, train, config, weights, use_self_term)

        for net_t, net_r in zip(trained.nets, reference):
            for name in net_t.parameters:
                assert np.array_equal(
                    net_t.parameters[name].data, net_r.parameters[name].data
                ), f"{label}: parameter {name} diverged at epoch horizon {horizon}"
    print(f"criterion 5: {label} trajectory bit-identical over 3 epochs")


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _blobs_config(per_class, test_per_class, hidden, train_overrides, repetitions, spread=0.5,
                  data_seed=7):
    return {
        "dataset": {
            "kind": "blobs", "num_classes": 3, "per_class": per_class,
            "test_per_class": test_per_class, "dim": 2, "spread": spread, "seed": data_seed,
        },
        "network1": {"input_dim": 2, "hidden_dims": hidden, "num_classes": 3, "init_seed": 1},
        "network2": {"input_dim": 2, "hidden_dims": hidden, "num_classes": 3, "init_seed": 2},
        "train": dict(
            {
                "stage1_epochs": 2, "stage2_epochs": 6, "batch_size": 32, "lr": 0.1,
                "lr_milestones": [4], "lr_factor": 0.2, "seed": 0,
            },
            **train_overrides,
        ),
        "seed_repetitions": repetitions,
    }


def test_criterion_6_run_determinism(tmp_path):
    """Two `run` invocations with one config produce byte-identical CSVs."""
    path = _write_config(tmp_path, _blobs_config(8, 4, [8, 4], {}, repetitions=2))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(path), "--out", str(out_a)]) == 0
    assert cli.main(["run", str(path), "--out", str(out_b)]) == 0
    for rep in ("rep0", "rep1"):
        csv_a = (out_a / rep / "metrics.csv").read_bytes()
        csv_b = (out_b / rep / "metrics.csv").read_bytes()
        assert csv_a == csv_b, f"{rep} metrics differ between identical runs"
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    print("criterion 6: repeated runs byte-identical across 2 repetitions")


def test_criterion_7_learning_gate(tmp_path):
    """Full objective stays within 0.5 points of the plain-CE baseline, >= 90%."""
    started = time.monotonic()
    train_overrides = {
        "stage1_epochs": 5, "stage2_epochs": 20, "batch_size": 32, "lr": 0.1,
        "lr_milestones": [10, 15], "lr_factor": 0.2, "seed": 0,
    }
    base_doc = _blobs_config(100, 100, [32, 16], train_overrides, repetitions=3)

    baseline_doc = json.loads(json.dumps(base_doc))
    baseline_doc["train"]["weights"] = {"alpha": 1.0, "beta": 0.0, "gamma": 0.0}

    def pair_mean(doc, out):
        config = load_experiment_config(_write_config(tmp_path, doc, out.name + ".json"))
        summary = run_experiment(config, out_dir=out)
        return (summary["mean_test_top1"]["net1"] + summary["mean_test_top1"]["net2"]) / 2.0

    baseline = pair_mean(baseline_doc, tmp_path / "baseline")
    full = pair_mean(base_doc, tmp_path / "full")
    elapsed = time.monotonic() - started
    print(
        f"criterion 7: baseline {baseline:.4f}, full objective {full:.4f}, "
        f"runtime {elapsed:.1f}s over 3 seeds"
    )
    assert full >= baseline - 0.005, f"full {full:.4f} vs baseline {baseline:.4f}"
    assert full >= 0.90
    assert elapsed < 300.0


def test_criterion_8_ablation_structure(tmp_path):
    """`ablate` emits the 4-variant x 2-net table; ordering is pass/warn only."""
    doc = _blobs_config(
        30, 20, [16, 8],
        {"stage1_epochs": 2, "stage2_epochs": 8, "batch_size": 32, "lr_milestones": [5]},
        repetitions=5, spread=1.0, data_seed=11,
    )
    path = _write_config(tmp_path, doc)
    out = tmp_path / "ablation"
    assert cli.main(["ablate", str(path), "--out", str(out)]) == 0

    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0] == "variant,net,mean_test_top1,stddev_test_top1"
    assert len(lines) == 1 + 8
    cells = [line.split(",") for line in lines[1:]]
    assert [(c[0], c[1]) for c in cells] == [
        (v, n) for v in ("A", "B", "C", "D") for n in ("1", "2")
    ]
    for c in cells:
        assert 0.0 <= float(c[2]) <= 1.0
        assert float(c[3]) >= 0.0

    report = json.loads((out / "ablation_report.json").read_text())
    assert report["status"] in ("pass", "warn")
    ordering = "holds" if report["self_term_removal_largest_drop"] else "does not hold"
    print(
        f"criterion 8: table structure ok over 5 seeds; "
        f"largest-drop ordering {ordering} ({report['status']})"
    )


def test_criterion_9_schedule_conformance():
    """lr_at reproduces the milestone schedule exactly."""
    config = TrainConfig(
        stage2_epochs=200, lr=0.1, lr_milestones=(60, 120, 160), lr_factor=0.2
    )
    for epoch in range(60):
        assert lr_at(epoch, config) == 0.1
    for epoch in range(60, 120):
        assert lr_at(epoch, config) == 0.1 * 0.2
    for epoch in range(120, 160):
        assert lr_at(epoch, config) == 0.1 * 0.2**2
    for epoch in range(160, 200):
        assert lr_at(epoch, config) == 0.1 * 0.2**3
    assert abs(lr_at(60, config) - 0.02) < 1e-15
    assert abs(lr_at(120, config) - 0.004) < 1e-15
    assert abs(lr_at(160, config) - 0.0008) < 1e-15
    print("criterion 9: schedule 0.1 -> 0.02 -> 0.004 -> 0.0008 at 60/120/160 exact")
