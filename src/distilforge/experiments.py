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
import json
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .data import Dataset, load_csv, load_idx, mean_std_normalize, synth_blobs
from .losses import LossWeights
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

_TOP_FIELDS = {"dataset", "network1", "network2", "train", "output_dir", "seed_repetitions"}
_DATASET_KINDS = ("blobs", "idx", "csv")
_NETWORK_FIELDS = {"input_dim", "hidden_dims", "num_classes", "init_seed", "activation"}
_TRAIN_FIELDS = {
    "stage1_epochs", "stage2_epochs", "batch_size", "lr", "lr_milestones", "lr_factor",
    "momentum", "weight_decay", "seed", "weights", "variant", "update_order",
}
_WEIGHT_FIELDS = {"alpha", "beta", "gamma", "beta1", "beta2", "temperature"}


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


def _network_config(raw: dict, key: str) -> NetworkConfig:
    section = _require_object(raw, key)
    _reject_unknown(section, _NETWORK_FIELDS, key)
    for required in ("input_dim", "hidden_dims", "num_classes", "init_seed"):
        if required not in section:
            raise ConfigError(f"{key}.{required}: required field is missing")
    for name in ("input_dim", "num_classes", "init_seed"):
        _int_field(section[name], f"{key}.{name}")
    try:
        return NetworkConfig(
            input_dim=section["input_dim"],
            hidden_dims=tuple(_int_field(d, f"{key}.hidden_dims") for d in section["hidden_dims"]),
            num_classes=section["num_classes"],
            init_seed=section["init_seed"],
            activation=section.get("activation", "relu"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _loss_weights(section: dict) -> LossWeights:
    _reject_unknown(section, _WEIGHT_FIELDS, "train.weights")
    try:
        return LossWeights(**{k: float(v) for k, v in section.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"train.weights: {exc}") from exc


def _train_config(raw: dict) -> TrainConfig:
    section = _require_object(raw, "train")
    _reject_unknown(section, _TRAIN_FIELDS, "train")
    kwargs = dict(section)
    for name in ("stage1_epochs", "stage2_epochs", "batch_size", "seed"):
        if name in kwargs:
            _int_field(kwargs[name], f"train.{name}")
    if "weights" in kwargs:
        weights = kwargs.pop("weights")
        if not isinstance(weights, dict):
            raise ConfigError("train.weights: must be a JSON object")
        kwargs["weights"] = _loss_weights(weights)
    if "lr_milestones" in kwargs:
        ms = kwargs["lr_milestones"]
        if not isinstance(ms, (list, tuple)):
            raise ConfigError("train.lr_milestones: must be a list of epochs")
        kwargs["lr_milestones"] = tuple(_int_field(m, "train.lr_milestones") for m in ms)
    try:
        return TrainConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"train: {exc}") from exc


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
    _reject_unknown(raw, _TOP_FIELDS, "config")

    dataset = _require_object(raw, "dataset")
    kind = dataset.get("kind")
    if kind not in _DATASET_KINDS:
        raise ConfigError(f"dataset.kind: must be one of {', '.join(_DATASET_KINDS)}")

    reps = raw.get("seed_repetitions", 1)
    if not isinstance(reps, int) or isinstance(reps, bool) or reps < 1:
        raise ConfigError("seed_repetitions: must be an integer >= 1")

    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir: must be a string path")

    return ExperimentConfig(
        dataset=dataset,
        network1=_network_config(raw, "network1"),
        network2=_network_config(raw, "network2"),
        train=_train_config(raw),
        output_dir=output_dir,
        seed_repetitions=reps,
    )


def _int_field(value, where: str, minimum: Optional[int] = None) -> int:
    """`value` if it is a JSON integer (not a bool) of at least `minimum`."""
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if not is_int or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{where}: must be an integer{bound}")
    return value


def build_datasets(spec: dict) -> tuple[Dataset, Dataset]:
    """Materialize (train, test) from a dataset spec and normalize them.

    Both splits must have the same feature width. Normalization statistics
    come from the training split only.
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
        spread = spec.get("spread", 0.5)
        try:
            train = synth_blobs(num_classes, per_class, dim, float(spread), seed)
            test = synth_blobs(num_classes, test_per_class, dim, float(spread), seed + 1)
        except (TypeError, ValueError) as exc:
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
    (train, test), _ = mean_std_normalize(train, [test])
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


def _guard_overwrite(out: Path, markers: tuple, overwrite: bool) -> None:
    if overwrite:
        return
    for marker in markers:
        if (out / marker).exists():
            raise ConfigError(
                f"output_dir: '{out}' already holds run outputs (pass --overwrite to replace)"
            )


def _remove_stale_reps(out: Path, keep: int) -> None:
    for path in out.iterdir():
        match = re.fullmatch(r"rep([0-9]+)", path.name)
        if match and int(match.group(1)) >= keep and path.is_dir():
            shutil.rmtree(path)


def run_experiment(
    config: ExperimentConfig, out_dir=None, overwrite: bool = False
) -> dict:
    """Train all seed repetitions, write per-rep outputs and a summary.

    Repetition r uses training seed (seed + r) and init seeds
    (init_seed + r) for both networks; the dataset itself is fixed across
    repetitions. Returns the summary dict that is also written to
    summary.json. With `overwrite`, `rep<N>` directories left by an earlier
    run with more repetitions are removed.
    """
    out = _resolve_out_dir(config, out_dir)
    _guard_overwrite(out, ("summary.json", "rep0"), overwrite)
    train_ds, test_ds = build_datasets(config.dataset)
    _check_compatible(config, train_ds)
    out.mkdir(parents=True, exist_ok=True)
    if overwrite:
        _remove_stale_reps(out, config.seed_repetitions)

    finals: dict[str, list[float]] = {"net1": [], "net2": []}
    for rep in range(config.seed_repetitions):
        rep_dir = out / f"rep{rep}"
        rep_dir.mkdir(parents=True, exist_ok=True)
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
    whether removing the self term (variant B) cost the most accuracy.
    """
    out = _resolve_out_dir(config, out_dir)
    _guard_overwrite(out, ("ablation.csv", "variant_A"), overwrite)
    out.mkdir(parents=True, exist_ok=True)

    summaries: dict[str, dict] = {}
    rows = [ABLATION_CSV_HEADER]
    for variant in ("A", "B", "C", "D"):
        vconfig = dataclasses.replace(
            config,
            train=dataclasses.replace(config.train, variant=variant),
            output_dir=None,
        )
        summary = run_experiment(vconfig, out / f"variant_{variant}", overwrite=overwrite)
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
