"""The traced benchmark run still sees every layer the relation workloads expect.

`benchmarks/run.py --trace 1` fails a workload when a layer it lists as
active records no calls, or an idle one records some. This runs the traced
child on tiny demo-like configs, so an engine or loss change that stops
calling a listed op fails here, in the unit tests, and not only in the
benchmark. Batch 17 makes the relation term subsample (cap) its triples, as
the demo's batch 32 does; the ablation at batch 16 takes every triple, as
the `ablate_small` workload does. Each forward output's relation geometry
comes from one `pairwise_l2` call, reused while the output is: two per
simultaneous batch (one per relation call) and three per sequential one
(net1, net2, then net1 after its step), batches below 2 rows making none.
Variant D at batch 17 has no relation term and must leave every relation
layer idle, as the `wide_idx` workload does; its forward, `matmul` and
log-softmax call counts are pinned by formula, so a frozen snapshot
forwarded or partly forwarded per batch, a snapshot forwarded again after
stage 1's last train-split evaluation (whose logits are its self-teacher
table), or a KL teacher put back on the tape, fails here. The
self-teacher's logits table holds constants that never reach a tape.
Each run's `autodiff.tape_nodes`, the records summed over every backward
tape, is pinned too: a record of constants that lands on a tape, or a
record that goes missing, changes it. A student side's legs are one `legs`
record where a gather, a gather and a sub were three, so each loss that
backpropagates through cosines has two records fewer: 218 - 2 * 2 = 214 for
the demo-like run (two losses on its 17-row batch; the 1-row batch has no
angle term) and 830 - 2 * 6 = 818 for the ablation (two losses on the
16-row batch in each of variants A, B and C). Variant D (172) has no
relation term. With no side degenerate and none narrowed, the only
`gather` left is each measured side's potentials gather, one per
`pairwise_l2` call. `trainer.sgd_step` is pinned at one call per net per
batch, whatever the update order: a step that batched both nets, or split
one net's step, would change what its traced span measures.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import run  # noqa: E402


def traced_run(tmp_path: Path, command: str, train: dict) -> run.Process:
    """The traced child on the demo config at 18 training samples, 1+1 epochs."""
    config = json.loads((ROOT / "configs" / "demo_blobs.json").read_text())
    config.pop("output_dir")
    config["dataset"].update(per_class=6, test_per_class=3)
    config["train"].update(stage1_epochs=1, stage2_epochs=1, lr_milestones=[], **train)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    result_path = tmp_path / "result.json"
    argv = [sys.executable, str(ROOT / "benchmarks" / "child.py"), str(ROOT / "src"),
            str(result_path), "traced", "--", command, str(config_path),
            "--out", str(tmp_path / "out")]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(result_path.read_text())
    return run.Process("traced", launch=result["stages"][0][1] - 1.0, end=result["cli_end"] + 1.0,
                       exit_code=0, stderr="", out=tmp_path / "out", result=result, errors=[])


def sgd_steps(variants: int, batch_size: int) -> int:
    """One step per net per batch, in each stage (1+1 epochs) of each variant."""
    return variants * 2 * math.ceil(18 / batch_size) * (1 + 1)


def test_traced_demo_like_run_keeps_the_layer_contract(tmp_path):
    traced = traced_run(tmp_path, "run", {"batch_size": 17})
    trace = traced.result["trace"]
    assert trace["counters"]["losses.tuple_sets.capped"] > 0
    assert run.layer_activity_errors(traced, run.WORKLOADS["demo_run"]) == []
    # Sequential stage 2 over batches of 17 and 1 rows, one epoch: two
    # relation calls per batch, three geometry passes for the 17-row batch.
    calls = collections.Counter(trace["names"][span[0]] for span in trace["spans"])
    assert calls["losses.relation"] == 2 * 2, calls
    assert calls["autodiff.op.pairwise_l2"] == 3 * 1, calls
    assert calls["autodiff.op.gather"] == calls["autodiff.op.pairwise_l2"], calls
    assert calls["trainer.sgd_step"] == sgd_steps(variants=1, batch_size=17), calls
    assert trace["counters"]["autodiff.tape_nodes"] == 214


def test_traced_full_triple_ablation_keeps_the_layer_contract(tmp_path):
    traced = traced_run(tmp_path, "ablate", {"batch_size": 16, "update_order": "simultaneous"})
    trace = traced.result["trace"]
    assert trace["counters"]["losses.triples_used"] > 0
    assert run.layer_activity_errors(traced, run.WORKLOADS["ablate_small"]) == []
    calls = collections.Counter(trace["names"][span[0]] for span in trace["spans"])
    assert calls["losses.relation"] > 0
    assert calls["autodiff.op.pairwise_l2"] == calls["losses.relation"], calls
    assert calls["autodiff.op.gather"] == calls["autodiff.op.pairwise_l2"], calls
    assert calls["trainer.sgd_step"] == sgd_steps(variants=4, batch_size=16), calls
    assert trace["counters"]["autodiff.tape_nodes"] == 818


def test_traced_variant_d_run_keeps_the_relation_layers_idle(tmp_path):
    traced = traced_run(tmp_path, "run", {"batch_size": 17, "variant": "D"})
    # The wide_idx contract on blob data: synth_blobs runs and load_idx does not.
    contract = dataclasses.replace(
        run.WORKLOADS["wide_idx"],
        active=run._ALWAYS,
        idle=run._RELATION + ("losses.tuple_sets.capped",),
    )
    assert run.layer_activity_errors(traced, contract) == []

    # Forward passes: one per net per stage-1 batch; three per sequential
    # stage-2 batch (net1, net2, then net1 again after its step); train and
    # test evaluation per net per epoch. The summary reads each final net's
    # test accuracy from its last record, so no net is evaluated again.
    # Stage 1 ran, so no frozen snapshot is forwarded: each self-teacher
    # table is the logits of stage 1's last train-split evaluation. The
    # demo nets have 3 layers, one `matmul` each.
    trace = traced.result["trace"]
    calls = collections.Counter(trace["names"][span[0]] for span in trace["spans"])
    batches, epochs1, epochs2, layers = math.ceil(18 / 17), 1, 1, 3
    forwards = 2 * batches * epochs1 + 3 * batches * epochs2 + 2 * 2 * (epochs1 + epochs2)
    assert calls["models.forward"] == forwards, calls
    assert calls["autodiff.op.matmul"] == layers * forwards, calls
    # One loss per net per batch. Each takes a log-softmax for its CE term,
    # and a stage-2 loss one more for the student side of each KL term; the
    # teacher side of a KL term is computed off the tape.
    losses1, losses2 = 2 * batches * epochs1, 2 * batches * epochs2
    assert calls["autodiff.op.log_softmax_with_temperature"] == losses1 + 3 * losses2, calls
    assert calls["trainer.sgd_step"] == sgd_steps(variants=1, batch_size=17), calls
    assert trace["counters"]["autodiff.tape_nodes"] == 172
