"""Repeat the benchmark over several seeds and summarise each metric's spread.

    python3 benchmarks/summarize.py --seeds 1 2 3 4 5 [--out FILE]

Run it from the root of a checkout. For each workload it runs
`benchmarks/run.py` once per seed, one run at a time, with `run_seconds`
from BENCHMARK.json, and reports for every end-to-end metric the median,
the quartiles (`statistics.quantiles(values, n=4)`) and the spread
(Q3 - Q1) / median next to the metric's bound, and records the same for the
unscaled timings and each run's median calibration. It then adds one traced run
per workload with the first seed: its per-layer metrics and each timed
layer's seconds as a share of the traced process's wall time. `--out` writes
the whole summary as JSON, in the shape of a trajectory entry.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads(Path("BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: bool) -> dict:
    argv = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(int(trace)),
    ]
    done = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    fingerprint = json.loads(lines[-2])
    return dict(json.loads(lines[-1]), **fingerprint)


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def spread_table(results: list) -> dict:
    return {
        m["name"]: dict(spread([r["metrics"][m["name"]]["value"] for r in results]),
                        bound=m["bound"], unit=m["unit"])
        for m in BENCHMARK["end_to_end"]
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out")
    args = parser.parse_args()

    summary = {}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        results = [run_once(workload, seed, False) for seed in args.seeds]
        entry = {
            "seeds": args.seeds,
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics_csv_sha256": {str(s): r["metrics_csv_sha256"] for s, r in zip(args.seeds, results)},
            "fingerprint": {k: v for k, v in results[0]["fingerprint"].items() if k != "seed"},
            "end_to_end": spread_table(results),
            "unscaled": {k: spread([r["unscaled"][k] for r in results]) for k in results[0]["unscaled"]},
            "calibration": {k: spread([r["calibration"][k] for r in results])
                            for k in ("import_s", "work_s")},
        }
        print(f"{workload}: {entry['failed']} of {entry['attempted']} runs failed")
        for name, row in entry["end_to_end"].items():
            flag = "" if row["spread"] <= row["bound"] / 3 else "  (above a third of the bound)"
            print(f"  {name:<20} median {row['median']:.6g} {row['unit']:<6} "
                  f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {row['spread']:.4f} "
                  f"bound {row['bound']}{flag}")
        traced = run_once(workload, args.seeds[0], True)
        metrics = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer"] = {
            "seed": args.seeds[0],
            "metrics": metrics,
            "share_of_total": {
                k: v / metrics["trace.total_s"]
                for k, v in metrics.items()
                if traced["metrics"][k]["unit"] == "s" and not k.startswith("trace.")
            },
        }
        summary[workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
