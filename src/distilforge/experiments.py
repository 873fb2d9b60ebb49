"""Experiment orchestration: config parsing, seeded repetitions, outputs.

An experiment config is a single JSON document naming a dataset (IDX files,
a CSV pair, or synthetic blobs), two network architectures, the training
settings and an output directory. Each seed repetition shifts the training
seed and both init seeds by the repetition index, trains a fresh pair and
writes a metrics CSV plus four checkpoints (two nets, two stages). A
summary aggregates final test accuracy; the ablation runner repeats the
experiment under all four objective variants.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import re
import secrets
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from .data import Dataset, load_csv, load_idx, mean_std_normalize, synth_blobs
from .models import NetworkConfig, init_network, save_checkpoint
from .trainer import (
    TrainConfig,
    evaluate_top1,
    metrics_to_csv,
    train_pair,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_experiment_config",
    "build_datasets",
    "run_experiment",
    "run_ablation",
    "ABLATION_CSV_HEADER",
]

ABLATION_CSV_HEADER = "variant,net,mean_test_top1,stddev_test_top1"

_DATASET_KINDS = ("blobs", "idx", "csv")

# Names that `run_experiment` and `run_ablation` write at the top of their
# output directory; an earlier run's entries with these names are replaced.
_RUN_OUTPUTS = re.compile(r"summary\.json|rep[0-9]+")
_ABLATION_OUTPUTS = re.compile(r"ablation\.csv|ablation_report\.json|variant_[ABCD]")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending field."""


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: dict
    network1: NetworkConfig
    network2: NetworkConfig
    train: TrainConfig
    output_dir: Optional[str]
    seed_repetitions: int


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown field '{unknown[0]}'")


def _require_object(raw: dict, key: str) -> dict:
    value = raw.get(key)
    if value is None:
        raise ConfigError(f"{key}: required section is missing")
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: must be a JSON object")
    return value


def _from_json(cls, section, where: str):
    """`cls` built from a JSON object whose keys and value types follow `cls`'s fields.

    Fields without a default are required. `int` and `float` fields take JSON
    numbers (not bools), `str` fields strings, `tuple` fields lists of
    integers and dataclass fields nested objects; ranges are `cls`'s to check.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: must be a JSON object")
    fields = dataclasses.fields(cls)
    _reject_unknown(section, {f.name for f in fields}, where)
    kinds = get_type_hints(cls)
    kwargs = {}
    for f in fields:
        name, kind = f"{where}.{f.name}", kinds[f.name]
        if f.name not in section:
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"{name}: required field is missing")
            continue
        value = section[f.name]
        if kind is int:
            value = _int_field(value, name)
        elif kind is float:
            value = _float_field(value, name)
        elif kind is str:
            if not isinstance(value, str):
                raise ConfigError(f"{name}: must be a string")
        elif kind is tuple:
            if not isinstance(value, list):
                raise ConfigError(f"{name}: must be a list of integers")
            value = tuple(_int_field(v, name) for v in value)
        else:
            value = _from_json(kind, value, name)
        kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_experiment_config(path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"config file cannot be read: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(raw, {f.name for f in dataclasses.fields(ExperimentConfig)}, "config")

    dataset = _require_object(raw, "dataset")
    kind = dataset.get("kind")
    if kind not in _DATASET_KINDS:
        raise ConfigError(f"dataset.kind: must be one of {', '.join(_DATASET_KINDS)}")

    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir: must be a string path")

    return ExperimentConfig(
        dataset=dataset,
        network1=_from_json(NetworkConfig, _require_object(raw, "network1"), "network1"),
        network2=_from_json(NetworkConfig, _require_object(raw, "network2"), "network2"),
        train=_from_json(TrainConfig, _require_object(raw, "train"), "train"),
        output_dir=output_dir,
        seed_repetitions=_int_field(raw.get("seed_repetitions", 1), "seed_repetitions", 1),
    )


def _int_field(value, where: str, minimum: Optional[int] = None) -> int:
    """`value` if it is a JSON integer (not a bool) of at least `minimum`."""
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if not is_int or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{where}: must be an integer{bound}")
    return value


def _float_field(value, where: str) -> float:
    """`value` as a float if it is a JSON number (not a bool) that a float can hold."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"{where}: must be a number")


def build_datasets(spec: dict) -> tuple[Dataset, Dataset]:
    """Materialize (train, test) from a dataset spec and normalize them.

    Both splits must have the same feature width and only finite features,
    before and after normalization. Normalization statistics come from the
    training split only.
    """
    kind = spec.get("kind")
    if kind == "blobs":
        allowed = {"kind", "num_classes", "per_class", "test_per_class", "dim", "spread", "seed"}
        _reject_unknown(spec, allowed, "dataset")
        num_classes = _int_field(spec.get("num_classes"), "dataset.num_classes", 2)
        per_class = _int_field(spec.get("per_class"), "dataset.per_class", 1)
        test_per_class = _int_field(
            spec.get("test_per_class", per_class), "dataset.test_per_class", 1
        )
        dim = _int_field(spec.get("dim"), "dataset.dim", 2)
        seed = _int_field(spec.get("seed"), "dataset.seed", 0)
        spread = _float_field(spec.get("spread", 0.5), "dataset.spread")
        try:
            train = synth_blobs(num_classes, per_class, dim, spread, seed)
            test = synth_blobs(num_classes, test_per_class, dim, spread, seed + 1)
        except ValueError as exc:
            raise ConfigError(f"dataset: {exc}") from exc
    elif kind == "idx":
        allowed = {"kind", "train_images", "train_labels", "test_images", "test_labels"}
        _reject_unknown(spec, allowed, "dataset")
        for key in sorted(allowed - {"kind"}):
            if not isinstance(spec.get(key), str):
                raise ConfigError(f"dataset.{key}: must be a file path")
        try:
            train = load_idx(spec["train_images"], spec["train_labels"])
            test = load_idx(spec["test_images"], spec["test_labels"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"dataset: {exc}") from exc
        num_classes = max(train.num_classes, test.num_classes)
        train.num_classes = test.num_classes = num_classes
    elif kind == "csv":
        allowed = {"kind", "train", "test", "num_classes"}
        _reject_unknown(spec, allowed, "dataset")
        for key in ("train", "test"):
            if not isinstance(spec.get(key), str):
                raise ConfigError(f"dataset.{key}: must be a file path")
        num_classes = spec.get("num_classes")
        if "num_classes" in spec:
            _int_field(num_classes, "dataset.num_classes", 2)
        try:
            train = load_csv(spec["train"], num_classes)
            test = load_csv(spec["test"], num_classes)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"dataset: {exc}") from exc
        shared = max(train.num_classes, test.num_classes)
        train.num_classes = test.num_classes = shared
    else:
        raise ConfigError(f"dataset.kind: must be one of {', '.join(_DATASET_KINDS)}")
    if train.input_dim != test.input_dim:
        raise ConfigError(
            f"dataset: train has {train.input_dim} features, test has {test.input_dim}"
        )
    try:
        (train, test), _ = mean_std_normalize(train, [test])
    except ValueError as exc:
        raise ConfigError(f"dataset: {exc}") from exc
    return train, test


def _check_compatible(config: ExperimentConfig, train_ds: Dataset) -> None:
    for key, net in (("network1", config.network1), ("network2", config.network2)):
        if net.input_dim != train_ds.input_dim:
            raise ConfigError(
                f"{key}.input_dim: {net.input_dim} does not match dataset feature width "
                f"{train_ds.input_dim}"
            )
        if net.num_classes != train_ds.num_classes:
            raise ConfigError(
                f"{key}.num_classes: {net.num_classes} does not match dataset classes "
                f"{train_ds.num_classes}"
            )


def _resolve_out_dir(config: ExperimentConfig, out_dir) -> Path:
    target = out_dir if out_dir is not None else config.output_dir
    if target is None:
        raise ConfigError("output_dir: missing (set it in the config or pass --out)")
    return Path(target)


def _guard_overwrite(out: Path, outputs: re.Pattern, overwrite: bool) -> None:
    if not out.exists():
        return
    if not out.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(out))
    if not overwrite and any(outputs.fullmatch(entry.name) for entry in out.iterdir()):
        raise ConfigError(
            f"output_dir: '{out}' already holds run outputs (pass --overwrite to replace)"
        )


@contextmanager
def _staged_output(out: Path, outputs: re.Pattern):
    """Yield an empty sibling directory of `out` to write the outputs into.

    When the body succeeds, the staging directory is renamed to `out`. If
    `out` already exists, its entries named like `outputs` are replaced by the
    staged ones instead, and `out` itself and its other entries stay. If the
    body raises, the staging directory is removed and `out` is left as it was.
    """
    out.parent.mkdir(parents=True, exist_ok=True)
    # mkdir, not tempfile.mkdtemp: the outputs keep the permissions the umask
    # gives, where mkdtemp would make them private.
    stage = out.parent / f".{out.name}.{secrets.token_hex(6)}"
    stage.mkdir()
    try:
        yield stage
        if out.exists():
            # No output name starts with a dot.
            replaced = stage / ".replaced"
            replaced.mkdir()
            for entry in list(out.iterdir()):
                if outputs.fullmatch(entry.name):
                    os.replace(entry, replaced / entry.name)
            for entry in list(stage.iterdir()):
                if entry != replaced:
                    os.replace(entry, out / entry.name)
        else:
            os.replace(stage, out)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def run_experiment(
    config: ExperimentConfig, out_dir=None, overwrite: bool = False
) -> dict:
    """Train all seed repetitions, write per-rep outputs and a summary.

    Repetition r uses training seed (seed + r) and init seeds
    (init_seed + r) for both networks; the dataset itself is fixed across
    repetitions. Returns the summary dict that is also written to
    summary.json. The outputs are staged and reach `out` only when every
    repetition succeeded; with `overwrite`, an earlier run's `summary.json`
    and `rep<N>` directories are all replaced.
    """
    out = _resolve_out_dir(config, out_dir)
    _guard_overwrite(out, _RUN_OUTPUTS, overwrite)
    train_ds, test_ds = build_datasets(config.dataset)
    _check_compatible(config, train_ds)
    with _staged_output(out, _RUN_OUTPUTS) as stage:
        return _run_repetitions(config, train_ds, test_ds, stage)


def _run_repetitions(
    config: ExperimentConfig, train_ds: Dataset, test_ds: Dataset, out: Path
) -> dict:
    finals: dict[str, list[float]] = {"net1": [], "net2": []}
    for rep in range(config.seed_repetitions):
        rep_dir = out / f"rep{rep}"
        rep_dir.mkdir()
        train_config = dataclasses.replace(config.train, seed=config.train.seed + rep)
        nets = [
            init_network(dataclasses.replace(config.network1, init_seed=config.network1.init_seed + rep)),
            init_network(dataclasses.replace(config.network2, init_seed=config.network2.init_seed + rep)),
        ]
        result = train_pair(nets, train_ds, test_ds, train_config)
        (rep_dir / "metrics.csv").write_text(metrics_to_csv(result.records))
        for k in (0, 1):
            save_checkpoint(result.snapshots[k], rep_dir / f"net{k + 1}_stage1.json")
            save_checkpoint(result.nets[k], rep_dir / f"net{k + 1}_stage2.json")
            finals[f"net{k + 1}"].append(evaluate_top1(result.nets[k], test_ds))

    summary = {
        "seed_repetitions": config.seed_repetitions,
        "final_test_top1": finals,
        "mean_test_top1": {k: float(np.mean(v)) for k, v in finals.items()},
        "stddev_test_top1": {k: float(np.std(v, ddof=0)) for k, v in finals.items()},
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def run_ablation(config: ExperimentConfig, out_dir=None, overwrite: bool = False) -> dict:
    """Run the experiment under all four variants and tabulate the results.

    Writes one sub-directory per variant, an ablation.csv comparison table
    (one row per variant and net) and an ablation_report.json that flags
    whether removing the self term (variant B) cost the most accuracy. Like
    `run_experiment`'s, the outputs reach `out` only when every variant
    succeeded.
    """
    out = _resolve_out_dir(config, out_dir)
    _guard_overwrite(out, _ABLATION_OUTPUTS, overwrite)
    with _staged_output(out, _ABLATION_OUTPUTS) as stage:
        return _run_variants(config, stage)


def _run_variants(config: ExperimentConfig, out: Path) -> dict:
    summaries: dict[str, dict] = {}
    rows = [ABLATION_CSV_HEADER]
    for variant in ("A", "B", "C", "D"):
        vconfig = dataclasses.replace(
            config,
            train=dataclasses.replace(config.train, variant=variant),
            output_dir=None,
        )
        summary = run_experiment(vconfig, out / f"variant_{variant}")
        summaries[variant] = summary
        for net in ("net1", "net2"):
            rows.append(
                ",".join(
                    [
                        variant,
                        net[-1],
                        format(summary["mean_test_top1"][net], ".9g"),
                        format(summary["stddev_test_top1"][net], ".9g"),
                    ]
                )
            )
    (out / "ablation.csv").write_text("\n".join(rows) + "\n")

    def pair_mean(variant: str) -> float:
        s = summaries[variant]["mean_test_top1"]
        return (s["net1"] + s["net2"]) / 2.0

    full = pair_mean("A")
    drops = {v: full - pair_mean(v) for v in ("B", "C", "D")}
    b_largest = drops["B"] >= drops["C"] and drops["B"] >= drops["D"]
    report = {
        "mean_test_top1": {v: summaries[v]["mean_test_top1"] for v in summaries},
        "drop_vs_full": drops,
        "self_term_removal_largest_drop": bool(b_largest),
        "status": "pass" if b_largest else "warn",
    }
    (out / "ablation_report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report
