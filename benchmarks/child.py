"""Run one distilforge CLI command in this fresh process and report its timings.

    python3 benchmarks/child.py SRC RESULT_JSON MODE -- CLI_ARGS...

SRC is the checkout's `src` directory and CLI_ARGS go to
`distilforge.cli.main` unchanged. MODE is one of:

- `warmup`: import the package and exit (fills the byte-code and page caches);
- `plain`: wrap only the two training stages, to time them and the set-up
  before the first one;
- `traced`: additionally record a span around every public call into each
  layer (see `install_tracing`).

RESULT_JSON receives the CLI exit code, the stage intervals and the moment
`main` returned on the `time.monotonic` clock (shared with the parent
process), peak RSS, the interpreter and BLAS fingerprint and, when traced,
the spans and counters.
"""

from __future__ import annotations

import ctypes
import inspect
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from tracing import Tracer, leftovers, replace_everywhere

# Forward ops of the tape engine that get a span each in the traced run.
OPS = (
    "matmul", "add_bias", "relu", "pairwise_l2", "gather", "add", "sub", "mul", "div",
    "sqrt", "reduce_sum", "reduce_mean", "huber_penalty", "log_softmax_with_temperature",
    "reshape",
)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def clock_stage(fn, key: str, epochs_field: str, records: list):
    """Wrap a stage function to record [key, start, end, samples x epochs]."""
    signature = inspect.signature(fn)

    def timed(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        work = len(bound["train_ds"]) * getattr(bound["config"], epochs_field)
        start = time.monotonic()
        result = fn(*args, **kwargs)
        records.append([key, start, time.monotonic(), work])
        return result

    return timed


def install_tracing(tracer: Tracer, pkg, modules: list) -> None:
    """Put a span around each layer's public calls, in every namespace holding them.

    Raises RuntimeError if any module still holds an unwrapped original.
    """
    cli, data, experiments, losses, models, trainer, autodiff = (
        pkg.cli, pkg.data, pkg.experiments, pkg.losses, pkg.models, pkg.trainer, pkg.autodiff
    )
    counters = tracer.counters

    def count_checkpoint(result, args, kwargs):
        counters["models.checkpoint_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))

    def count_total(result, args, kwargs):
        counters["losses.pi_collapses"] += result.pi_collapses
        counters["losses.triples_skipped"] += result.triples_skipped

    def count_relation(result, args, kwargs):
        tuples = _arg(args, kwargs, 3, "tuples")
        counters["losses.triples_used"] += tuples.num_triples - result.triples_skipped

    def count_tuple_sets(result, args, kwargs):
        counters["losses.tuple_sets.capped"] += int(result.capped)

    def count_tape(result, args, kwargs):
        counters["autodiff.tape_nodes"] += len(result.nodes)

    functions = [
        (cli.main, "cli.main", None),
        (experiments.load_experiment_config, "experiments.load_config", None),
        (experiments.run_experiment, "experiments.run_experiment", None),
        (experiments.run_ablation, "experiments.run_ablation", None),
        (experiments.build_datasets, "data.build_datasets", None),
        (trainer.metrics_to_csv, "experiments.metrics_csv", None),
        (data.load_idx, "data.load_idx", None),
        (data.synth_blobs, "data.synth_blobs", None),
        (data.mean_std_normalize, "data.normalize", None),
        (models.init_network, "models.init_network", None),
        (models.save_checkpoint, "models.save_checkpoint", count_checkpoint),
        (trainer.pretrain_stage1, "trainer.stage1", None),
        (trainer.train_stage2, "trainer.stage2", None),
        (trainer.sgd_step, "trainer.sgd_step", None),
        (trainer.evaluate_top1, "trainer.evaluate_top1", None),
        (losses.total_loss, "losses.total", count_total),
        (losses.relation_distill_loss, "losses.relation", count_relation),
        (autodiff.backward, "autodiff.backward", None),
    ] + [(getattr(autodiff, op), f"autodiff.op.{op}", None) for op in OPS]
    originals = []
    for fn, name, observe in functions:
        replace_everywhere(fn, tracer.wrap(name, fn, observe), modules)
        originals.append(fn)
    batches = data.batch_iterator
    replace_everywhere(
        batches, tracer.wrap_generator("data.batch_iterator", batches, "data.batches"), modules
    )
    originals.append(batches)

    for cls, attr, name in (
        (models.PeerNetwork, "forward", "models.forward"),
        (models.PeerNetwork, "snapshot", "models.snapshot"),
        (autodiff.Tape, "backprop", "autodiff.backprop"),
    ):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))
    for cls, attr, name, observe in (
        (losses.TupleSets, "build", "losses.tuple_sets", count_tuple_sets),
        (autodiff.Tape, "from_root", "autodiff.tape_build", count_tape),
    ):
        # getattr returns the classmethod bound to the class; keep it bound.
        setattr(cls, attr, staticmethod(tracer.wrap(name, getattr(cls, attr), observe)))

    missed = leftovers(originals, modules)
    if missed:
        raise RuntimeError(f"unwrapped references remain: {', '.join(missed)}")


def blas_fingerprint() -> dict:
    """BLAS name, version and thread count of the numpy this process loaded."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
    }


def main(argv: list[str]) -> int:
    if len(argv) < 5 or argv[4] != "--" or argv[3] not in ("warmup", "plain", "traced"):
        print("usage: child.py SRC RESULT_JSON warmup|plain|traced -- CLI_ARGS...", file=sys.stderr)
        return 64
    src, result_path, mode, cli_args = Path(argv[1]).resolve(), Path(argv[2]), argv[3], argv[5:]
    sys.path.insert(0, str(src))
    import distilforge
    import distilforge.cli

    if Path(distilforge.__file__).resolve().parent != src / "distilforge":
        print(f"distilforge imported from {distilforge.__file__}, not {src}", file=sys.stderr)
        return 65
    if mode == "warmup":
        return 0
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "distilforge"]

    stages: list = []
    trainer = distilforge.trainer
    for fn, key, field in (
        (trainer.pretrain_stage1, "stage1", "stage1_epochs"),
        (trainer.train_stage2, "stage2", "stage2_epochs"),
    ):
        replace_everywhere(fn, clock_stage(fn, key, field, stages), modules)
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        install_tracing(tracer, distilforge, modules)

    code = distilforge.cli.main(cli_args)
    result = {
        "exit_code": code,
        "cli_end": time.monotonic(),
        "stages": stages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": blas_fingerprint(),
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    result_path.write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
