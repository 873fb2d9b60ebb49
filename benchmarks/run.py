"""distilforge benchmark: times the real CLI, one fresh process at a time.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It writes the workload's inputs (config,
and for `wide_idx` the IDX files) from `--seed` under `.bench_work/`, runs
one uncounted warm-up import, then starts `distilforge run|ablate` processes
one after another for as long as the next one is expected to end within
`--seconds`, checks every run's outputs and prints each end-to-end metric as
the trimmed mean over the runs (see `trimmed_mean`), with the median and the
highest percentile the sample count supports. With `--trace 1` it also runs
one traced process and prints the per-layer metrics instead. The last line
of standard output is the JSON result.

The host's speed drifts over minutes, so before the first CLI process and
after each one this process also runs `calibration.py`, a fixed piece of work
in a fresh process, and scales the run's end-to-end timings by it: set-up by
how long `import numpy` took, everything else by how long the fixed work took
(see `scale_factors`). The report lines give the unscaled values beside the
scaled ones; per-layer timings are not scaled.

Workloads (why each one was chosen):

- `demo_run`: `run` on configs/demo_blobs.json, the first run every user makes.
  Batch 32 is over the 16-sample triple cap, so the relation term samples its
  triples; that term and tens of thousands of tiny tape ops dominate.
- `wide_idx`: `run` on MNIST-shaped IDX files generated from the seed, hidden
  [256, 64], batch 128, variant D (no relation term). Time goes to matmul,
  the SGD step, evaluation, IDX loading and the ~5.6 MB JSON checkpoints; a
  relation-term change must leave it unchanged.
- `ablate_small`: `ablate` on the demo blobs at batch 16 with simultaneous
  updates. Batch 16 takes the dense all-triples path, and the run covers all
  four variants and the ablation outputs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from child import OPS
from tracing import aggregate, self_times

# Children get the environment as it was, less DISTILFORGE_SEED, which would
# override the generated config's seed.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "DISTILFORGE_SEED"}

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
CALIBRATION = BENCH_DIR / "calibration.py"
DEMO_CONFIG = Path("configs/demo_blobs.json")
WORK_ROOT = Path(".bench_work")

MIN_PROCESSES = 3
PROCESS_TIMEOUT_S = 150.0

# Round values near what a calibration process's `import numpy` and fixed
# work take on the 2-CPU host the baseline was measured on; scaled timings
# read as if the host ran at that speed throughout. Changing them rescales
# every timing against earlier results, so they stay fixed.
IMPORT_REFERENCE_S = 0.2
WORK_REFERENCE_S = 0.25

END_TO_END = {
    "setup_s": "s",
    "stage2_s": "s",
    "total_s": "s",
    "train_samples_per_s": "1/s",
    "test_top1": "ratio",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}
# Printed in the report but left out of the result: on `demo_run` stage 1
# lasts about 45 ms, and at that scale the host's bursts of jitter spread one
# run's value from the next by more than the largest bound allowed (0.25).
# Stage 1 time still counts in train_samples_per_s and total_s, and the
# traced run reports trainer.stage1.s.
REPORT_ONLY = {"stage1_s": "s"}

# Spans whose total seconds and call counts are per-layer metrics.
TIMED_CALLS = (
    "losses.relation", "losses.tuple_sets", "autodiff.backward", "models.forward",
    "models.save_checkpoint", "trainer.sgd_step", "trainer.evaluate_top1",
)
TIMED = (
    "losses.total", "autodiff.tape_build", "autodiff.backprop", "models.init_network",
    "models.snapshot", "trainer.stage1", "trainer.stage2", "data.load_idx", "data.synth_blobs",
    "data.normalize", "data.build_datasets", "data.batch_iterator", "experiments.load_config",
    "experiments.run_experiment", "experiments.metrics_csv",
)
SELF_TIMED = ("trainer.stage2", "experiments.run_experiment")
COUNTERS = (
    "losses.tuple_sets.capped", "losses.triples_used", "losses.triples_skipped",
    "losses.pi_collapses", "autodiff.tape_nodes", "models.checkpoint_bytes", "data.batches",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for name in TIMED_CALLS:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    for op in OPS:
        units[f"autodiff.op.{op}.s"] = "s"
        units[f"autodiff.op.{op}.calls"] = "count"
    for name in TIMED:
        units[f"{name}.s"] = "s"
    for name in SELF_TIMED:
        units[f"{name}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "bytes" if name.endswith("_bytes") else "count"
    units["experiments.output_bytes"] = "bytes"
    units["losses.relation.stage2_share"] = "ratio"
    units["trace.total_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.unattributed_share"] = "ratio"
    return units


# Names that must record calls (active) or none at all (idle) in a traced run.
_ALWAYS = (
    "cli.main", "experiments.load_config", "experiments.run_experiment", "data.build_datasets",
    "data.normalize", "data.batches", "models.init_network", "models.forward",
    "models.snapshot", "models.save_checkpoint", "trainer.stage1", "trainer.stage2",
    "trainer.sgd_step", "trainer.evaluate_top1", "experiments.metrics_csv", "losses.total",
    "autodiff.backward", "autodiff.tape_build", "autodiff.backprop",
) + tuple(f"autodiff.op.{op}" for op in (
    "matmul", "add_bias", "relu", "log_softmax_with_temperature", "add", "sub", "mul",
    "reduce_sum", "reduce_mean",
))
_RELATION = ("losses.relation", "losses.tuple_sets", "losses.triples_used") + tuple(
    f"autodiff.op.{op}" for op in ("pairwise_l2", "gather", "div", "sqrt", "huber_penalty", "reshape")
)


def _seeded_demo(seed: int) -> dict:
    config = json.loads(DEMO_CONFIG.read_text())
    config.pop("output_dir", None)
    config["dataset"]["seed"] += seed
    config["train"]["seed"] += seed
    return config


def demo_run_config(workdir: Path, seed: int) -> dict:
    """The shipped demo config; only its data and training seeds shift by `seed`."""
    return _seeded_demo(seed)


def ablate_small_config(workdir: Path, seed: int) -> dict:
    """The demo blobs at batch 16 with simultaneous updates, in fewer epochs."""
    config = _seeded_demo(seed)
    config["train"].update(
        batch_size=16, update_order="simultaneous", stage1_epochs=2, stage2_epochs=2,
        lr_milestones=[1],
    )
    return config


WIDE_TRAIN, WIDE_TEST = 2000, 500


def wide_idx_config(workdir: Path, seed: int) -> dict:
    """MNIST-shaped IDX data from the seed; two [256, 64] peers, variant D."""
    import idxgen  # numpy: only after main() limited this process's BLAS threads
    dataset = idxgen.write_dataset(workdir / "idx", seed, WIDE_TRAIN, WIDE_TEST)
    network = {"input_dim": idxgen.ROWS * idxgen.COLS, "hidden_dims": [256, 64],
               "num_classes": idxgen.NUM_CLASSES}
    demo = _seeded_demo(seed)
    train = dict(demo["train"], batch_size=128, stage1_epochs=2, stage2_epochs=3,
                 lr_milestones=[2], variant="D")
    return {
        "dataset": dataset,
        "network1": dict(network, init_seed=1),
        "network2": dict(network, init_seed=2),
        "train": train,
        "seed_repetitions": 1,
    }


@dataclass(frozen=True)
class Workload:
    command: str
    make_config: Callable[[Path, int], dict]
    top1_floor: float
    active: tuple
    idle: tuple


WORKLOADS = {
    "demo_run": Workload(
        "run", demo_run_config, 0.9,
        active=_ALWAYS + _RELATION + ("data.synth_blobs", "losses.tuple_sets.capped"),
        idle=("data.load_idx",),
    ),
    "wide_idx": Workload(
        "run", wide_idx_config, 0.5,
        active=_ALWAYS + ("data.load_idx",),
        idle=_RELATION + ("data.synth_blobs", "losses.tuple_sets.capped"),
    ),
    "ablate_small": Workload(
        "ablate", ablate_small_config, 0.9,
        active=_ALWAYS + _RELATION + ("data.synth_blobs",),
        idle=("data.load_idx", "losses.tuple_sets.capped"),
    ),
}


@dataclass
class Process:
    """One CLI process: what it returned, what it timed and what it wrote."""

    mode: str
    launch: float
    end: float
    exit_code: Optional[int]
    stderr: str
    out: Path
    result: Optional[dict]
    errors: list
    digest: Optional[str] = None
    top1: Optional[float] = None

    @property
    def total_s(self) -> float:
        return self.end - self.launch

    def stage_s(self, key: str) -> float:
        return sum(end - start for k, start, end, _ in self.result["stages"] if k == key)

    @property
    def setup_s(self) -> float:
        return min(start for _, start, _, _ in self.result["stages"]) - self.launch

    @property
    def samples_per_s(self) -> float:
        work = sum(w for *_, w in self.result["stages"])
        return work / (self.stage_s("stage1") + self.stage_s("stage2"))


def launch(workdir: Path, index: int, mode: str, cli_args: list) -> Process:
    """Start one child process, wait for it and collect its result file."""
    result_path = workdir / f"p{index}.json"
    out = workdir / f"p{index}-out"
    stdout_path, stderr_path = workdir / f"p{index}.stdout", workdir / f"p{index}.stderr"
    argv = [sys.executable, str(CHILD), str(Path("src").resolve()), str(result_path), mode, "--"]
    argv += cli_args + ["--out", str(out)]
    with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
        start = time.monotonic()
        proc = subprocess.Popen(argv, env=CHILD_ENV, stdout=stdout, stderr=stderr)
        try:
            code = proc.wait(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        end = time.monotonic()
    result = json.loads(result_path.read_text()) if result_path.is_file() else None
    return Process(mode, start, end, code, stderr_path.read_text(errors="replace"), out,
                   result, [])


def calibrate(workdir: Path, index: int) -> tuple[float, float]:
    """(seconds to `import numpy`, seconds of fixed work) of one calibration process."""
    result_path = workdir / f"c{index}.json"
    start = time.monotonic()
    subprocess.run([sys.executable, str(CALIBRATION), str(result_path)], env=CHILD_ENV,
                   stdout=subprocess.DEVNULL, timeout=PROCESS_TIMEOUT_S, check=True)
    marks = json.loads(result_path.read_text())
    return marks["imported"] - start, marks["done"] - marks["imported"]


def scale_factors(calibrations: list) -> tuple[float, float]:
    """(set-up factor, compute factor): each reference over the run's median.

    Set-up is interpreter start and imports, which slow down more than
    compute when the host is busy, so it follows the import time; every other
    timing follows the fixed work.
    """
    imports, works = zip(*calibrations)
    return (IMPORT_REFERENCE_S / statistics.median(imports),
            WORK_REFERENCE_S / statistics.median(works))


def metrics_csv_paths(command: str, out: Path) -> list[Path]:
    if command == "run":
        return [out / "rep0" / "metrics.csv"]
    return [out / f"variant_{v}" / "rep0" / "metrics.csv" for v in "ABCD"]


def read_top1(command: str, out: Path) -> float:
    """Mean final test top-1 over both peers (and over the variants for ablate)."""
    if command == "run":
        means = json.loads((out / "summary.json").read_text())["mean_test_top1"]
        return (means["net1"] + means["net2"]) / 2.0
    report = json.loads((out / "ablation_report.json").read_text())["mean_test_top1"]
    return statistics.fmean(m[net] for m in report.values() for net in ("net1", "net2"))


def check(proc: Process, workload: Workload) -> None:
    """Fill `proc.errors`, `proc.digest` and `proc.top1` from its exit and outputs."""
    if proc.exit_code != 0:
        proc.errors.append(f"exit code {proc.exit_code}")
    if "Traceback" in proc.stderr:
        proc.errors.append("traceback on stderr")
    if proc.result is None or not proc.result.get("stages"):
        proc.errors.append("no stage timings reported")
    if proc.errors:
        return
    digest = hashlib.sha256()
    try:
        for path in metrics_csv_paths(workload.command, proc.out):
            raw = path.read_bytes()
            digest.update(raw)
            rows = list(csv.DictReader(raw.decode().splitlines()))
            if not rows:
                proc.errors.append(f"{path.name}: no rows")
            for row in rows:
                losses = [float(v) for k, v in row.items() if k.startswith("loss_")]
                if not all(math.isfinite(x) for x in losses):
                    proc.errors.append(f"{path.name}: non-finite loss in epoch {row['epoch']}")
                    break
        proc.top1 = read_top1(workload.command, proc.out)
    except (OSError, ValueError, KeyError) as exc:
        proc.errors.append(f"unreadable outputs: {exc}")
        return
    proc.digest = digest.hexdigest()
    if proc.top1 < workload.top1_floor:
        proc.errors.append(f"test top-1 {proc.top1:.4f} below floor {workload.top1_floor}")


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def tail_label(n: int) -> str:
    """The highest percentile with at least ten samples beyond it, or 'max'."""
    if n < 20:
        return "max"
    return f"p{math.floor(100.0 * (1.0 - 10.0 / n))}"


def tail_value(values: list, label: str) -> float:
    if label == "max":
        return max(values)
    p = int(label[1:])
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def trimmed_mean(values: list) -> float:
    """Mean of `values` less the lowest and highest tenth (at least one each).

    The host's jitter comes in bursts that hit one process and miss the next,
    so a run's values often fall in two clusters; a median of ten such values
    jumps between them, while this mean moves by a fraction of the gap for
    each process that changes cluster. Resampled from 145 recorded `demo_run`
    processes into runs of 8 and of 11, its spread over runs was below the
    median's in 10 of 12 cases (set-up, stage 1 and stage 2, in a quiet and a
    busy period) and at most 0.008 above it in the other two.
    """
    ordered = sorted(values)
    cut = max(1, len(ordered) // 10) if len(ordered) >= 3 else 0
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def end_to_end_metrics(procs: list, passed: list, factors: tuple) -> tuple[dict, dict, list]:
    """Trimmed mean of each metric over the passing plain processes, scaled by
    `factors` (see `scale_factors`) and unscaled, plus report lines."""
    setup_factor, factor = factors
    samples = {
        "setup_s": ([p.setup_s for p in passed], setup_factor),
        "stage1_s": ([p.stage_s("stage1") for p in passed], factor),
        "stage2_s": ([p.stage_s("stage2") for p in passed], factor),
        "total_s": ([p.total_s for p in passed], factor),
        "train_samples_per_s": ([p.samples_per_s for p in passed], 1.0 / factor),
        "test_top1": ([p.top1 for p in passed], None),
        "peak_rss_mb": ([p.result["peak_rss_mb"] for p in passed], None),
    }
    metrics, unscaled, lines = {}, {}, []
    for name, (raw, scale) in samples.items():
        values = raw if scale is None else [v * scale for v in raw]
        label = tail_label(len(values))
        metrics[name] = trimmed_mean(values)
        unit = END_TO_END.get(name) or REPORT_ONLY[name]
        line = (
            f"{name:<20} trimmed mean {metrics[name]:.6g} {unit}  "
            f"median {statistics.median(values):.6g}  "
            f"{label} {tail_value(values, label):.6g}  n={len(values)}"
        )
        if scale is not None:
            unscaled[name] = trimmed_mean(raw)
            line += f"  (unscaled trimmed mean {unscaled[name]:.6g})"
        lines.append(line)
    failed = sum(1 for p in procs if p.errors)
    metrics["pass_ratio"] = (len(procs) - failed) / len(procs)
    lines.append(
        f"{'pass_ratio':<20} {metrics['pass_ratio']:.6g}  "
        f"(failed_ratio {failed / len(procs):.6g} = {failed}/{len(procs)} runs)"
    )
    return metrics, unscaled, lines


def per_layer_metrics(traced: Process, plain_total_s: float, factor: float) -> dict:
    """Per-layer metrics of one traced process; see `per_layer_units` for names."""
    trace = traced.result["trace"]
    spans = aggregate(trace["names"], trace["spans"])
    zero = {"s": 0.0, "self_s": 0.0, "calls": 0}
    metrics = {}
    for name in TIMED_CALLS + TIMED:
        metrics[f"{name}.s"] = spans.get(name, zero)["s"]
    for name in TIMED_CALLS:
        metrics[f"{name}.calls"] = spans.get(name, zero)["calls"]
    for op in OPS:
        entry = spans.get(f"autodiff.op.{op}", zero)
        metrics[f"autodiff.op.{op}.s"] = entry["s"]
        metrics[f"autodiff.op.{op}.calls"] = entry["calls"]
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = spans.get(name, zero)["self_s"]
    for name in COUNTERS:
        metrics[name] = trace["counters"].get(name, 0)
    metrics["experiments.output_bytes"] = output_bytes(traced.out)
    stage2 = metrics["trainer.stage2.s"]
    metrics["losses.relation.stage2_share"] = metrics["losses.relation.s"] / stage2
    metrics["trace.total_s"] = traced.total_s
    # `plain_total_s` is scaled by `factor`; compare like with like.
    metrics["trace.overhead_s"] = traced.total_s * factor - plain_total_s
    # Share of the program's time, from launch until `main` returned, that no
    # layer span below the entry point covers: interpreter start, imports and
    # the CLI's own glue.
    root = trace["names"].index("cli.main")
    attributed = sum(
        own for (nid, *_), own in zip(trace["spans"], self_times(trace["spans"])) if nid != root
    )
    program_s = traced.result["cli_end"] - traced.launch
    metrics["trace.unattributed_share"] = (program_s - attributed) / program_s
    return metrics


def layer_activity_errors(traced: Process, workload: Workload) -> list:
    """Names expected active that recorded nothing, and idle ones that recorded work."""
    trace = traced.result["trace"]
    spans = aggregate(trace["names"], trace["spans"])

    def count(name: str) -> int:
        return spans[name]["calls"] if name in spans else trace["counters"].get(name, 0)

    errors = [f"{name} expected active, recorded 0" for name in workload.active if count(name) == 0]
    errors += [f"{name} expected idle, recorded {count(name)}" for name in workload.idle
               if count(name) != 0]
    return errors


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    if not Path(".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def fingerprint(procs: list, workload_name: str, seed: int) -> dict:
    child = next((p.result["fingerprint"] for p in procs if p.result), {})
    return dict(
        child,
        nproc=len(os.sched_getaffinity(0)),
        cpu_count=os.cpu_count(),
        git_commit=git_commit(),
        src_sha256=source_digest(Path("src")),
        workload=workload_name,
        seed=seed,
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    workload = WORKLOADS[name]
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(workload.make_config(workdir, seed), indent=1))
    cli_args = [workload.command, str(config_path)]

    launch(workdir, 0, "warmup", cli_args)
    procs = []
    start = time.monotonic()
    calibrations = [calibrate(workdir, 0)]
    while len(procs) < MIN_PROCESSES or (
        time.monotonic() - start + statistics.fmean(p.total_s for p in procs) <= seconds
    ):
        procs.append(launch(workdir, len(procs) + 1, "plain", cli_args))
        calibrations.append(calibrate(workdir, len(procs)))
    if trace:
        procs.append(launch(workdir, len(procs) + 1, "traced", cli_args))
    factors = scale_factors(calibrations)

    reference = None
    for proc in procs:
        check(proc, workload)
        if proc.digest is not None:
            reference = reference or proc.digest
            if proc.digest != reference:
                proc.errors.append("metrics.csv differs from the first run of this workload")
        if proc.mode == "traced" and not proc.errors:
            proc.errors += layer_activity_errors(proc, workload)
        if proc.mode != "traced":
            shutil.rmtree(proc.out, ignore_errors=True)

    passed = [p for p in procs if not p.errors and p.mode == "plain"]
    failed = sum(1 for p in procs if p.errors)
    print(f"workload {name}  seed {seed}  runs {len(procs)}  failed {failed}")
    for i, proc in enumerate(procs, start=1):
        for error in proc.errors:
            print(f"run {i} ({proc.mode}) failed: {error}")
    metrics: dict = {}
    unscaled: dict = {}
    units = END_TO_END
    if passed:
        e2e, unscaled, lines = end_to_end_metrics(procs, passed, factors)
        for line in lines:
            print(line)
        if trace:
            traced = procs[-1]
            if not traced.errors:
                units = per_layer_units()
                metrics = per_layer_metrics(traced, e2e["total_s"], factors[1])
                for metric, value in metrics.items():
                    print(f"{metric:<44} {value:.6g} {units[metric]}")
        else:
            metrics = {k: v for k, v in e2e.items() if k in END_TO_END}
    imports, works = zip(*calibrations)
    print(json.dumps({
        "fingerprint": fingerprint(procs, name, seed),
        "metrics_csv_sha256": reference,
        "calibration": {"import_s": statistics.median(imports),
                        "work_s": statistics.median(works), "n": len(calibrations)},
        "unscaled": {k: v for k, v in unscaled.items() if k in END_TO_END},
    }))
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(procs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally, so that `launch` kills and reaps its child
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # This process only generates inputs; it must not start BLAS threads that
    # compete with the child being timed.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    missing = [p for p in (Path("src/distilforge/cli.py"), DEMO_CONFIG) if not p.is_file()]
    if missing:
        print(f"error: run from a distilforge checkout; missing {missing[0]}", file=sys.stderr)
        return 2

    workdir = (WORK_ROOT / f"{args.workload}-{os.getpid()}").resolve()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
