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
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .data import Dataset, load_csv, load_idx, mean_std_normalize, synth_blobs
from .models import NetworkConfig, init_network, save_checkpoint
from .trainer import (
    VARIANTS,
    TrainConfig,
    evaluate_top1,
    metrics_to_csv,
    pretrain_stage1,
    train_stage2,
    variant_weights,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "BlobsSource",
    "IdxSource",
    "CsvSource",
    "load_experiment_config",
    "build_datasets",
    "run_experiment",
    "run_ablation",
    "ABLATION_CSV_HEADER",
]

ABLATION_CSV_HEADER = "variant,net,mean_test_top1,stddev_test_top1"

# Names that `run_experiment` and `run_ablation` write at the top of their
# output directory; an earlier run's entries with these names are replaced.
_RUN_OUTPUTS = re.compile(r"summary\.json|rep[0-9]+")
_ABLATION_OUTPUTS = re.compile(r"ablation\.csv|ablation_report\.json|variant_[ABCD]")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending field."""


@dataclass(frozen=True)
class BlobsSource:
    """Synthetic ring blobs; the test split is drawn with seed + 1."""

    kind: ClassVar[str] = "blobs"
    num_classes: int = field(metadata={"minimum": 2})
    per_class: int = field(metadata={"minimum": 1})
    dim: int = field(metadata={"minimum": 2})
    seed: int = field(metadata={"minimum": 0})
    test_per_class: int = field(default=None, metadata={"minimum": 1})  # None: per_class
    spread: float = 0.5

    def load(self) -> tuple[Dataset, Dataset]:
        test_per_class = self.per_class if self.test_per_class is None else self.test_per_class
        return (
            synth_blobs(self.num_classes, self.per_class, self.dim, self.spread, self.seed),
            synth_blobs(self.num_classes, test_per_class, self.dim, self.spread, self.seed + 1),
        )


@dataclass(frozen=True)
class IdxSource:
    """An IDX image file and its label file per split."""

    kind: ClassVar[str] = "idx"
    train_images: str
    train_labels: str
    test_images: str
    test_labels: str

    def load(self) -> tuple[Dataset, Dataset]:
        return (
            load_idx(self.train_images, self.train_labels),
            load_idx(self.test_images, self.test_labels),
        )


@dataclass(frozen=True)
class CsvSource:
    """A CSV file per split; without `num_classes` the labels give the class count."""

    kind: ClassVar[str] = "csv"
    train: str
    test: str
    num_classes: int = field(default=None, metadata={"minimum": 2})

    def load(self) -> tuple[Dataset, Dataset]:
        return load_csv(self.train, self.num_classes), load_csv(self.test, self.num_classes)


DatasetSource = Union[BlobsSource, IdxSource, CsvSource]


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSource
    network1: NetworkConfig
    network2: NetworkConfig
    train: TrainConfig
    output_dir: Optional[str] = None
    seed_repetitions: int = field(default=1, metadata={"minimum": 1})


def _from_json(cls, section, where: str):
    """`cls` built from a JSON object whose keys and value types follow `cls`'s fields.

    `where` names the object in messages; the fields of the root, "config",
    are named alone. Fields without a default are required. `int` fields take
    JSON integers (not bools) of at least their `minimum` metadata, `float`
    fields JSON numbers (not bools), `str` fields strings, `Optional[str]`
    fields strings or null, `tuple` fields lists of integers and dataclass
    fields nested objects; a union of dataclasses takes the member whose
    `kind` the object's "kind" names. Other ranges are `cls`'s to check.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: must be a JSON object")
    if get_origin(cls) is Union:
        members = get_args(cls)
        cls = next((m for m in members if m.kind == section.get("kind")), None)
        if cls is None:
            raise ConfigError(f"{where}.kind: must be one of {', '.join(m.kind for m in members)}")
        section = {k: v for k, v in section.items() if k != "kind"}
    fields = dataclasses.fields(cls)
    unknown = sorted(set(section) - {f.name for f in fields})
    if unknown:
        raise ConfigError(f"{where}: unknown field '{unknown[0]}'")
    kinds = get_type_hints(cls)
    prefix = "" if where == "config" else f"{where}."
    kwargs = {}
    for f in fields:
        name, kind = prefix + f.name, kinds[f.name]
        if f.name not in section:
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"{name}: required field is missing")
            continue
        value = section[f.name]
        if kind is int:
            value = _int_field(value, name, f.metadata.get("minimum"))
        elif kind is float:
            value = _float_field(value, name)
        elif kind in (str, Optional[str]):
            if not isinstance(value, str) and (value is not None or kind is str):
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
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file cannot be read: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # A JSONDecodeError, an integer past Python's str -> int digit limit, or deep nesting.
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return _from_json(ExperimentConfig, raw, "config")


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


def build_datasets(source: DatasetSource) -> tuple[Dataset, Dataset]:
    """Load (train, test) from a dataset source and normalize them.

    Both splits must have the same feature width and only finite features,
    before and after normalization, and they share the larger of their class
    counts. Normalization statistics come from the training split only.
    """
    try:
        train, test = source.load()
        # A split may lack the highest labels; both take the larger class count.
        train.num_classes = test.num_classes = max(train.num_classes, test.num_classes)
        if train.input_dim != test.input_dim:
            raise ValueError(f"train has {train.input_dim} features, test has {test.input_dim}")
        train, test = mean_std_normalize(train, [test])
    except (OSError, ValueError) as exc:
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
    body raises, the staging directory and the parent directories of `out`
    that this call made are removed, and `out` is left as it was.
    """
    # Deepest first, so that each is empty once those below it are gone.
    made = [d for d in (out.parent, *out.parent.parents) if not d.exists()]
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        # mkdir, not tempfile.mkdtemp: the outputs keep the permissions the
        # umask gives, where mkdtemp would make them private.
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
    except BaseException:
        for directory in made:
            with suppress(OSError):
                directory.rmdir()
        raise


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
        snapshots, tables, records = pretrain_stage1(nets, train_ds, test_ds, train_config)
        for k in (0, 1):
            save_checkpoint(snapshots[k], rep_dir / f"net{k + 1}_stage1.json")
        # Stage 2 reads no snapshot, nor any table without the self term (variant B).
        del snapshots
        if variant_weights(train_config.weights, train_config.variant)[0].gamma <= 0:
            tables = None
        records += train_stage2(nets, tables, train_ds, test_ds, train_config)
        (rep_dir / "metrics.csv").write_text(metrics_to_csv(records))
        # The last epoch's records hold each final net's test accuracy.
        last = records[-2:]
        for k in (0, 1):
            save_checkpoint(nets[k], rep_dir / f"net{k + 1}_stage2.json")
            finals[f"net{k + 1}"].append(
                last[k].test_top1 if last else evaluate_top1(nets[k], test_ds)[0]
            )

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
    whether removing the self term (variant B) cost the most accuracy. Every
    variant's config, with its objective, is checked before any output. Like
    `run_experiment`'s, the outputs reach `out` only when every variant
    succeeded.
    """
    try:
        trains = [dataclasses.replace(config.train, variant=v) for v in VARIANTS]
    except ValueError as exc:
        raise ConfigError(f"train: {exc}") from exc
    out = _resolve_out_dir(config, out_dir)
    _guard_overwrite(out, _ABLATION_OUTPUTS, overwrite)
    with _staged_output(out, _ABLATION_OUTPUTS) as stage:
        return _run_variants(config, trains, stage)


def _run_variants(config: ExperimentConfig, trains: list[TrainConfig], out: Path) -> dict:
    summaries: dict[str, dict] = {}
    rows = [ABLATION_CSV_HEADER]
    for train in trains:
        variant = train.variant
        vconfig = dataclasses.replace(config, train=train, output_dir=None)
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
