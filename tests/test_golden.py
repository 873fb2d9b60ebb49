"""Golden trajectory gate: three pinned runs must replay exactly.

Each run starts from the shipped `configs/demo_blobs.json` with a few train
fields overridden, and is pinned by its `metrics.csv` and the sha256 of its
four checkpoints under `tests/golden/`. Each checkpoint is also pinned in a
form that depends only on its config and parameter values: the sha256 of
the earlier text encoding, one round-trip decimal per value
(`list_form_digest`), which did not change when the file format did. When
this machine's fingerprint (python, numpy, BLAS name and version, machine)
matches the one recorded with the pins, the outputs must be byte-identical.
Otherwise float arithmetic may legitimately differ in the last bits: loss
columns must then agree within a relative 1e-9 (never tighter than the ninth
significant digit that `metrics.csv` prints), and every other column exactly.

A change that reorders float arithmetic on purpose rewrites the pins with

    PYTHONPATH=src python3 tests/test_golden.py

which prints the largest drift against the old pins, to be reported with
the change.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from distilforge.experiments import load_experiment_config, run_experiment
from distilforge.models import load_checkpoint

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
PINS = GOLDEN / "pins.json"
DEMO_CONFIG = ROOT / "configs" / "demo_blobs.json"

# Train-field overrides of the demo config, one entry per pinned run.
RUNS = {
    "demo": {},
    "variant_d": {"variant": "D"},
    "simultaneous_b16": {
        "batch_size": 16, "update_order": "simultaneous",
        "stage1_epochs": 2, "stage2_epochs": 2, "lr_milestones": [1],
    },
}
CHECKPOINTS = ("net1_stage1.json", "net1_stage2.json", "net2_stage1.json", "net2_stage2.json")
LOSS_COLUMNS = ("loss_total", "loss_ce", "loss_kl_mutual", "loss_dd", "loss_ad", "loss_sd")
REL_TOL = 1e-9


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "machine": platform.machine(),
    }


def list_form_digest(path: Path) -> str:
    """sha256 of the checkpoint at `path` re-encoded as lists of decimals.

    This is the checkpoint layout written before parameters were stored as
    base64 bytes, so it matches the old pins exactly when no value changed.
    """
    net = load_checkpoint(path)
    doc = {
        "config": asdict(net.config),
        "parameters": {
            name: {"shape": list(p.data.shape), "data": p.data.reshape(-1).tolist()}
            for name, p in net.parameters.items()
        },
    }
    return hashlib.sha256((json.dumps(doc, indent=1) + "\n").encode()).hexdigest()


def run_pinned(name: str, work: Path) -> tuple[bytes, dict, dict]:
    """Train run `name` under `work`.

    Returns its metrics.csv bytes, the sha256 of each checkpoint file and
    each checkpoint's `list_form_digest`.
    """
    doc = json.loads(DEMO_CONFIG.read_text())
    doc["train"].update(RUNS[name])
    path = work / f"{name}.json"
    path.write_text(json.dumps(doc))
    out = work / name
    run_experiment(load_experiment_config(path), out_dir=out)
    rep = out / "rep0"
    digests = {c: hashlib.sha256((rep / c).read_bytes()).hexdigest() for c in CHECKPOINTS}
    list_form = {c: list_form_digest(rep / c) for c in CHECKPOINTS}
    return (rep / "metrics.csv").read_bytes(), digests, list_form


@pytest.fixture(scope="module")
def pinned_run(tmp_path_factory):
    """`run_pinned` for a run name, trained once per test module."""
    results = {}

    def get(name: str) -> tuple[bytes, dict, dict]:
        if name not in results:
            results[name] = run_pinned(name, tmp_path_factory.mktemp(name))
        return results[name]

    return get


def _rows(csv: bytes) -> list[dict]:
    header, *lines = csv.decode().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def _tolerance(pinned: float) -> float:
    if pinned == 0.0:
        return 0.0
    last_digit = 10.0 ** (math.floor(math.log10(abs(pinned))) - 8)
    return max(REL_TOL * abs(pinned), last_digit)


def max_loss_drift(got: bytes, pinned: bytes) -> float:
    """Largest relative gap between the loss columns of two metrics.csv files."""
    worst = 0.0
    for g, p in zip(_rows(got), _rows(pinned)):
        for col in LOSS_COLUMNS:
            a, b = float(g[col]), float(p[col])
            if a != b:
                worst = max(worst, abs(a - b) / max(abs(b), np.finfo(float).tiny))
    return worst


def assert_close_trajectory(got: bytes, pinned: bytes) -> None:
    got_rows, pinned_rows = _rows(got), _rows(pinned)
    assert len(got_rows) == len(pinned_rows), "row count differs from the pin"
    for i, (g, p) in enumerate(zip(got_rows, pinned_rows)):
        assert g.keys() == p.keys(), "metrics.csv header differs from the pin"
        for col, pinned_value in p.items():
            if col in LOSS_COLUMNS:
                a, b = float(g[col]), float(pinned_value)
                assert abs(a - b) <= _tolerance(b), f"row {i} {col}: {a!r} vs pinned {b!r}"
            else:
                assert g[col] == pinned_value, f"row {i} {col}: {g[col]} vs pinned {pinned_value}"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_trajectory(name, pinned_run):
    pins = json.loads(PINS.read_text())
    csv, digests, _ = pinned_run(name)
    pinned_csv = (GOLDEN / name / "metrics.csv").read_bytes()
    if pins["fingerprint"] == fingerprint():
        assert csv == pinned_csv, (
            f"{name}: metrics.csv drifted (max loss drift {max_loss_drift(csv, pinned_csv):.3e})"
        )
        assert digests == pins["runs"][name]["checkpoints"], f"{name}: checkpoints drifted"
    else:
        assert_close_trajectory(csv, pinned_csv)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_checkpoint_values_match_list_form_pins(name, pinned_run):
    pins = json.loads(PINS.read_text())
    if pins["fingerprint"] != fingerprint():
        pytest.skip("parameter values are pinned for the recorded fingerprint only")
    _, _, list_form = pinned_run(name)
    assert list_form == pins["runs"][name]["list_form_checkpoints"], (
        f"{name}: checkpoint parameter values drifted"
    )


def test_tolerance_path_on_other_platforms():
    pinned = (GOLDEN / "demo" / "metrics.csv").read_bytes()
    assert_close_trajectory(pinned, pinned)
    header, first, *rest = pinned.decode().splitlines()
    cells = first.split(",")

    def with_cells(**changes) -> bytes:
        row = dict(zip(header.split(","), cells), **changes)
        return "\n".join([header, ",".join(row.values()), *rest]).encode() + b"\n"

    loss = float(cells[4])
    assert_close_trajectory(with_cells(loss_total=repr(loss * (1 + 5e-10))), pinned)
    with pytest.raises(AssertionError, match="loss_total"):
        assert_close_trajectory(with_cells(loss_total=repr(loss * (1 + 1e-7))), pinned)
    with pytest.raises(AssertionError, match="test_top1"):
        assert_close_trajectory(with_cells(test_top1="0.99"), pinned)
    assert max_loss_drift(with_cells(loss_total=repr(loss * 1.5)), pinned) == pytest.approx(0.5)


def regenerate(work: Path) -> None:
    """Rewrite every pin from the current code and print the drift against the old ones."""
    old = json.loads(PINS.read_text()) if PINS.exists() else {"runs": {}}
    pins = {"fingerprint": fingerprint(), "runs": {}}
    for name in sorted(RUNS):
        csv, digests, list_form = run_pinned(name, work)
        target = GOLDEN / name / "metrics.csv"
        if target.exists():
            before = old["runs"].get(name, {})

            def changed(key: str, now: dict) -> int:
                return sum(before.get(key, {}).get(c) != now[c] for c in CHECKPOINTS)

            print(f"{name}: max loss drift {max_loss_drift(csv, target.read_bytes()):.3e}, "
                  f"metrics.csv {'unchanged' if csv == target.read_bytes() else 'changed'}, "
                  f"{changed('checkpoints', digests)} of {len(CHECKPOINTS)} checkpoint files "
                  f"and {changed('list_form_checkpoints', list_form)} parameter sets changed")
        else:
            print(f"{name}: new pin")
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(csv)
        pins["runs"][name] = {
            "train_overrides": RUNS[name], "checkpoints": digests, "list_form_checkpoints": list_form,
        }
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
