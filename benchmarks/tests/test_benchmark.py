"""Self-tests of the benchmark's own arithmetic, generator and metric names.

    python3 -m pytest -q benchmarks/tests

Run from the root of a checkout.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.path.insert(0, str(ROOT / "src"))

import idxgen  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, aggregate, leftovers, replace_everywhere, self_times  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_times_subtract_nested_children():
    spans = [
        [0, 0.0, 10.0, -1],  # root
        [1, 1.0, 4.0, 0],    # child of root
        [2, 2.0, 3.0, 1],    # grandchild
        [1, 5.0, 9.0, 0],    # second child of root, same name
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    totals = aggregate(["root", "a", "b"], spans)
    assert totals["a"] == {"s": 7.0, "self_s": 6.0, "calls": 2}
    assert totals["root"]["self_s"] == 3.0


def test_self_times_merge_overlapping_and_clip_children():
    spans = [[0, 0.0, 10.0, -1], [1, 2.0, 6.0, 0], [1, 4.0, 8.0, 0], [1, 9.0, 12.0, 0]]
    # Covered: [2, 8] merged plus [9, 10] clipped to the parent.
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_records_parents_and_generator_steps():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    batches = tracer.wrap_generator("gen", lambda n: iter(range(n)), "items")
    assert list(batches(3)) == [0, 1, 2]
    names = [tracer.names[nid] for nid, *_ in tracer.spans]
    assert names == ["outer", "inner", "gen", "gen", "gen", "gen"]
    assert [parent for *_, parent in tracer.spans] == [-1, 0, -1, -1, -1, -1]
    assert tracer.counters["items"] == 3
    assert all(end > start for _, start, end, _ in tracer.spans)


def test_replace_everywhere_reaches_every_importing_module():
    def original():
        return "original"

    defining = types.ModuleType("pkg.defining")
    importer = types.ModuleType("pkg.importer")
    defining.fn = original
    importer.fn_alias = original
    importer.other = len
    assert leftovers([original], [defining, importer]) == ["pkg.defining.fn", "pkg.importer.fn_alias"]
    assert replace_everywhere(original, lambda: "wrapped", [defining, importer]) == 2
    assert importer.fn_alias() == "wrapped" and importer.other is len
    assert leftovers([original], [defining, importer]) == []


def test_idx_generator_is_deterministic():
    a_images, a_labels = idxgen.make_split(3, 0, 50)
    b_images, b_labels = idxgen.make_split(3, 0, 50)
    assert np.array_equal(a_images, b_images) and np.array_equal(a_labels, b_labels)
    assert a_images.shape == (50, 28, 28) and a_images.dtype == np.uint8
    assert np.bincount(a_labels, minlength=10).tolist() == [5] * 10
    other, _ = idxgen.make_split(4, 0, 50)
    test_split, _ = idxgen.make_split(3, 1, 50)
    assert not np.array_equal(a_images, other)
    assert not np.array_equal(a_images, test_split)


def test_idx_files_round_trip_through_load_idx(tmp_path):
    from distilforge.data import load_idx

    spec = idxgen.write_dataset(tmp_path, seed=5, train_count=30, test_count=20)
    images, labels = idxgen.make_split(5, 1, 20)
    loaded = load_idx(spec["test_images"], spec["test_labels"])
    assert np.array_equal(loaded.features.data, images.reshape(20, 784) / 255.0)
    assert np.array_equal(loaded.labels, labels)
    assert loaded.num_classes == 10


def test_metric_names_follow_the_grammar():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
    assert not METRIC_NAME.fullmatch("_leading.underscore")
    assert not METRIC_NAME.fullmatch("has space")


def test_benchmark_json_matches_what_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert any(m["name"] == "setup_s" for m in bench["end_to_end"])


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_label(6) == "max"
    assert run.tail_label(20) == "p50"
    assert run.tail_label(100) == "p90"
    assert run.tail_value([1.0, 3.0, 2.0], "max") == 3.0


def test_trimmed_mean_drops_a_tenth_at_each_end():
    assert run.trimmed_mean([5.0, 1.0]) == 3.0
    assert run.trimmed_mean([9.0, 1.0, 2.0]) == 2.0
    assert run.trimmed_mean([1.0, 2.0, 3.0, 4.0, 100.0]) == 3.0
    values = [float(v) for v in range(20)]
    assert run.trimmed_mean(values) == statistics.fmean(values[2:18])


def test_timings_scale_by_the_calibration(tmp_path):
    # The run's median calibration took twice the reference: the host ran at half speed.
    factors = run.scale_factors([(0.2, 0.5), (0.3, 0.6), (0.2, 0.4)])
    assert factors == (run.IMPORT_REFERENCE_S / 0.2, run.WORK_REFERENCE_S / 0.5)
    # 2 s of set-up, 4 + 6 s of stages, 300 samples.
    result = {"stages": [["stage1", 2.0, 6.0, 100], ["stage2", 6.0, 12.0, 200]],
              "peak_rss_mb": 50.0}
    proc = run.Process("plain", launch=0.0, end=14.0, exit_code=0, stderr="", out=tmp_path,
                       result=result, errors=[], top1=1.0)
    metrics, unscaled, lines = run.end_to_end_metrics([proc], [proc], (0.25, 0.5))
    assert metrics["setup_s"] == 0.5 and unscaled["setup_s"] == 2.0
    assert metrics["stage1_s"] == 2.0
    assert metrics["stage2_s"] == 3.0
    assert metrics["total_s"] == 7.0
    assert metrics["train_samples_per_s"] == 60.0 and unscaled["train_samples_per_s"] == 30.0
    assert metrics["peak_rss_mb"] == 50.0 and "peak_rss_mb" not in unscaled
    assert "unscaled trimmed mean 14" in next(line for line in lines if line.startswith("total_s"))


def test_calibration_process_reports_both_intervals(tmp_path):
    import_s, work_s = run.calibrate(tmp_path, 1)
    assert import_s > 0.0 and work_s > 0.0
    assert (tmp_path / "c1.json").is_file()


def test_traced_child_wraps_every_reference(tmp_path):
    config = json.loads((ROOT / "configs" / "demo_blobs.json").read_text())
    config["dataset"].update(per_class=6, test_per_class=3)
    config["train"].update(stage1_epochs=1, stage2_epochs=1, lr_milestones=[], batch_size=8)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    result_path = tmp_path / "result.json"
    argv = [sys.executable, str(ROOT / "benchmarks" / "child.py"), str(ROOT / "src"),
            str(result_path), "traced", "--", "run", str(config_path), "--out", str(tmp_path / "out")]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(result_path.read_text())
    spans = aggregate(result["trace"]["names"], result["trace"]["spans"])
    assert spans["cli.main"]["calls"] == 1
    assert spans["losses.relation"]["calls"] > 0
    assert spans["autodiff.op.gather"]["calls"] > 0
    assert [k for k, *_ in result["stages"]] == ["stage1", "stage2"]
    assert result["trace"]["counters"]["data.batches"] == 2 * 3  # 18 samples, batch 8, 2 epochs
    traced = run.Process("traced", launch=result["stages"][0][1] - 1.0, end=result["cli_end"] + 1.0,
                         exit_code=0, stderr="", out=tmp_path / "out", result=result, errors=[])
    assert set(run.per_layer_metrics(traced, 1.0, 1.0)) == set(run.per_layer_units())
