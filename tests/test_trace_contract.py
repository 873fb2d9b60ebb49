"""The traced benchmark run still sees every layer the demo workload expects.

`benchmarks/run.py --trace 1` fails a workload when a layer it lists as
active records no calls, or an idle one records some. This runs the traced
child on a tiny demo-like config, so an engine or loss change that stops
calling a listed op fails here, in the unit tests, and not only in the
benchmark. Batch 17 makes the relation term subsample (cap) its triples, as
the demo's batch 32 does.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import run  # noqa: E402


def test_traced_demo_like_run_keeps_the_layer_contract(tmp_path):
    config = json.loads((ROOT / "configs" / "demo_blobs.json").read_text())
    config.pop("output_dir")
    config["dataset"].update(per_class=6, test_per_class=3)
    config["train"].update(stage1_epochs=1, stage2_epochs=1, lr_milestones=[], batch_size=17)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    result_path = tmp_path / "result.json"
    argv = [sys.executable, str(ROOT / "benchmarks" / "child.py"), str(ROOT / "src"),
            str(result_path), "traced", "--", "run", str(config_path), "--out", str(tmp_path / "out")]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(result_path.read_text())
    assert result["trace"]["counters"]["losses.tuple_sets.capped"] > 0
    traced = run.Process("traced", launch=result["stages"][0][1] - 1.0, end=result["cli_end"] + 1.0,
                         exit_code=0, stderr="", out=tmp_path / "out", result=result, errors=[])
    assert run.layer_activity_errors(traced, run.WORKLOADS["demo_run"]) == []
