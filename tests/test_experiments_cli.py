"""Experiment configs, orchestration outputs, and the command line."""

import contextlib
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from distilforge import cli
from distilforge import experiments, verification
from distilforge.experiments import (
    ABLATION_CSV_HEADER,
    BlobsSource,
    ConfigError,
    CsvSource,
    IdxSource,
    build_datasets,
    load_experiment_config,
    run_ablation,
    run_experiment,
)
from distilforge.trainer import CSV_HEADER
from distilforge.verification import VerificationFailure


def base_config_dict(**overrides):
    doc = {
        "dataset": {
            "kind": "blobs",
            "num_classes": 3,
            "per_class": 6,
            "test_per_class": 4,
            "dim": 2,
            "spread": 0.5,
            "seed": 7,
        },
        "network1": {"input_dim": 2, "hidden_dims": [8, 4], "num_classes": 3, "init_seed": 1},
        "network2": {"input_dim": 2, "hidden_dims": [8, 4], "num_classes": 3, "init_seed": 2},
        "train": {
            "stage1_epochs": 1,
            "stage2_epochs": 2,
            "batch_size": 16,
            "lr": 0.05,
            "lr_milestones": [],
            "seed": 0,
        },
        "seed_repetitions": 1,
    }
    doc.update(overrides)
    return doc


DEMO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "demo_blobs.json"

# Every integer field of the demo config, as a path of keys and list indices.
DEMO_INT_FIELDS = [
    ("dataset", "num_classes"), ("dataset", "per_class"), ("dataset", "test_per_class"),
    ("dataset", "dim"), ("dataset", "seed"), ("seed_repetitions",),
    ("train", "stage1_epochs"), ("train", "stage2_epochs"), ("train", "batch_size"),
    ("train", "seed"), ("train", "lr_milestones", 0),
] + [
    (net, field) for net in ("network1", "network2")
    for field in ("input_dim", "num_classes", "init_seed")
] + [(net, "hidden_dims", i) for net in ("network1", "network2") for i in (0, 1)]

# Every float field of the demo config.
DEMO_FLOAT_FIELDS = [("dataset", "spread")] + [
    ("train", field) for field in ("lr", "lr_factor", "momentum", "weight_decay")
] + [
    ("train", "weights", field)
    for field in ("alpha", "beta", "gamma", "beta1", "beta2", "temperature")
]

# Every string field of the demo config plus those its defaults leave out;
# run_demo_with sets update_order and activation in the document.
DEMO_STRING_FIELDS = [("train", "variant"), ("train", "update_order")] + [
    (net, "activation") for net in ("network1", "network2")
]

JSON_CONTAINERS = st.one_of(
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)

NOT_A_NUMBER = st.one_of(
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    JSON_CONTAINERS,
    st.integers(min_value=2**1024, max_value=10**400),  # too large for a float
)

NOT_A_STRING = st.one_of(
    st.booleans(), st.integers(), st.floats(allow_nan=False), st.none(), JSON_CONTAINERS
)

# The learning rate, the blob spread and the loss weights, set together to
# values up to 1e308 by the numeric-extremes property.
EXTREME_FIELDS = [("train", "lr"), ("dataset", "spread")] + [
    ("train", "weights", field) for field in ("alpha", "beta", "gamma", "beta1", "beta2")
]

EXTREME_NUMBERS = st.one_of(
    st.floats(min_value=-1e308, max_value=1e308),
    st.integers(-8, 308).map(lambda e: 10.0 ** e),
)

NOT_AN_INTEGER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer()),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
)


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(base_config_dict(**overrides)))
    return path


def run_demo_with(tmp_path, changes):
    """Exit code and stderr lines of `run` on the 1+1-epoch demo config.

    `changes` maps each field to set to its value; the run writes to
    `tmp_path / "out"`.
    """
    doc = json.loads(DEMO_CONFIG.read_text())
    doc["train"].update(
        stage1_epochs=1, stage2_epochs=1, lr_milestones=[0], update_order="sequential"
    )
    for net in ("network1", "network2"):
        doc[net]["activation"] = "relu"
    for field, value in changes.items():
        target = doc
        for key in field[:-1]:
            target = target[key]
        target[field[-1]] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    # --overwrite: an example that wrongly trains must not make the next
    # one fail on the overwrite guard, which is also a config error.
    with contextlib.redirect_stderr(err):
        code = cli.main(["run", str(path), "--out", str(tmp_path / "out"), "--overwrite"])
    return code, err.getvalue().splitlines()


def test_typed_field_lists_cover_demo_config():
    def leaves(node, path=()):
        if isinstance(node, dict):
            items = node.items()
        elif isinstance(node, list):
            items = enumerate(node)
        else:
            return [path]
        return [leaf for key, child in items for leaf in leaves(child, path + (key,))]

    typed = set(DEMO_INT_FIELDS + DEMO_FLOAT_FIELDS + DEMO_STRING_FIELDS)
    untyped = set(leaves(json.loads(DEMO_CONFIG.read_text()))) - typed
    assert untyped == {("dataset", "kind"), ("output_dir",)}


class TestLoadConfig:
    def test_valid_config(self, tmp_path):
        config = load_experiment_config(write_config(tmp_path))
        assert config.network1.hidden_dims == (8, 4)
        assert config.train.stage2_epochs == 2
        assert config.train.lr_milestones == ()
        assert config.seed_repetitions == 1
        assert config.output_dir is None
        assert config.dataset == BlobsSource(
            num_classes=3, per_class=6, test_per_class=4, dim=2, spread=0.5, seed=7
        )

    def test_weights_section(self, tmp_path):
        doc = base_config_dict()
        doc["train"]["weights"] = {"alpha": 0.5, "gamma": 0.0}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        config = load_experiment_config(path)
        assert config.train.weights.alpha == 0.5
        assert config.train.weights.gamma == 0.0
        assert config.train.weights.beta == 0.4

    def test_integer_valued_numbers_become_floats(self, tmp_path):
        doc = base_config_dict()
        doc["train"].update(lr=1, weights={"alpha": 1})
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        config = load_experiment_config(path)
        assert type(config.train.lr) is float and config.train.lr == 1.0
        assert type(config.train.weights.alpha) is float and config.train.weights.alpha == 1.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_experiment_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_experiment_config(path)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(extra=1), "config: unknown field 'extra'"),
            (lambda d: d["network1"].update(depth=3), "network1: unknown field 'depth'"),
            (lambda d: d["train"].update(optimizer="adam"), "train: unknown field"),
            (lambda d: d["train"].update(weights={"delta": 1.0}), "train.weights: unknown"),
            (lambda d: d.pop("network2"), "network2: required field is missing"),
            (lambda d: d["network1"].pop("input_dim"), "network1.input_dim: required"),
            (lambda d: d["network1"].update(input_dim=0), "network1: input_dim"),
            (lambda d: d["train"].update(lr=0.0), "train: lr must be positive"),
            (lambda d: d["train"].update(weights={"alpha": -1.0}), "train.weights:"),
            (lambda d: d["train"].update(lr_milestones=5), "lr_milestones"),
            (lambda d: d["train"].update(lr_milestones=[-5]), "lr_milestones must be >= 0"),
            (lambda d: d["train"].update(lr=True), "train.lr: must be a number"),
            (lambda d: d["train"].update(lr=10**400), "train.lr: must be a number"),
            (lambda d: d["train"].update(momentum="0.9"), "train.momentum: must be a number"),
            (
                lambda d: d["train"].update(weights={"alpha": True}),
                "train.weights.alpha: must be a number",
            ),
            (lambda d: d["train"].update(weights=[1.0]), "train.weights: must be a JSON object"),
            (lambda d: d["train"].update(variant=1), "train.variant: must be a string"),
            (lambda d: d["network1"].update(hidden_dims=8), "network1.hidden_dims: must be a list"),
            (lambda d: d.update(seed_repetitions=0), "seed_repetitions"),
            (lambda d: d.update(output_dir=7), "output_dir"),
            (
                lambda d: d["dataset"].update(test_per_class=None),
                "dataset.test_per_class: must be an integer >= 1",
            ),
            (lambda d: d["dataset"].update(kind="parquet"), "dataset.kind"),
            (lambda d: d.update(dataset="blobs"), "dataset: must be a JSON object"),
        ],
    )
    def test_rejects_bad_configs(self, tmp_path, mutate, message):
        doc = base_config_dict()
        mutate(doc)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=message):
            load_experiment_config(path)


class TestBuildDatasets:
    def test_blobs(self):
        source = BlobsSource(
            num_classes=3, per_class=6, test_per_class=4, dim=2, spread=0.5, seed=7
        )
        train, test = build_datasets(source)
        assert len(train) == 18 and len(test) == 12
        assert train.num_classes == test.num_classes == 3
        np.testing.assert_allclose(train.features.data.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(train.features.data.std(axis=0), 1.0, atol=1e-12)

    def test_blobs_test_split_differs_from_train(self):
        source = BlobsSource(num_classes=3, per_class=6, test_per_class=6, dim=2, seed=7)
        train, test = build_datasets(source)
        assert not np.array_equal(train.features.data, test.features.data)

    def test_blobs_defaults(self):
        train, test = build_datasets(BlobsSource(num_classes=2, per_class=4, dim=2, seed=0))
        assert len(train) == 8 and len(test) == 8

    def test_csv_kind(self, tmp_path):
        train_path = tmp_path / "train.csv"
        test_path = tmp_path / "test.csv"
        train_path.write_text("f0,f1,y\n0.0,1.0,0\n1.0,0.0,1\n2.0,2.0,2\n")
        test_path.write_text("f0,f1,y\n0.5,0.5,1\n")
        train, test = build_datasets(CsvSource(train=str(train_path), test=str(test_path)))
        assert len(train) == 3 and len(test) == 1
        # Class count is shared across splits.
        assert train.num_classes == test.num_classes == 3

    def test_features_that_overflow_when_normalized_rejected(self, tmp_path):
        train_path = tmp_path / "train.csv"
        test_path = tmp_path / "test.csv"
        # Finite training statistics (mean 1, std floored at 1e-8) that blow
        # a test feature past the float range: (1e301 - 1) / 1e-8.
        train_path.write_text("f0,y\n1.0,0\n1.0,1\n1.0,0\n")
        test_path.write_text("f0,y\n1e301,1\n")
        source = CsvSource(train=str(train_path), test=str(test_path))
        with np.errstate(all="ignore"), pytest.raises(
            ConfigError, match="dataset: normalized test: features hold non-finite values"
        ):
            build_datasets(source)

    @pytest.mark.parametrize("value", ["3", 2.5, 1, True, None])
    def test_csv_num_classes_must_be_integer_at_least_2(self, tmp_path, value):
        spec = {"kind": "csv", "train": "a.csv", "test": "b.csv", "num_classes": value}
        with pytest.raises(ConfigError, match="dataset.num_classes: must be an integer >= 2"):
            load_experiment_config(write_config(tmp_path, dataset=spec))

    def test_csv_missing_path(self, tmp_path):
        spec = {"kind": "csv", "train": "x.csv"}
        with pytest.raises(ConfigError, match="^dataset.test: required field is missing$"):
            load_experiment_config(write_config(tmp_path, dataset=spec))

    def test_idx_kind(self, tmp_path):
        from test_data import write_idx

        rng = np.random.default_rng(0)
        ipath, lpath = write_idx(
            tmp_path, rng.integers(0, 256, (6, 2, 2), dtype=np.uint8),
            np.array([0, 1, 2, 0, 1, 2], dtype=np.uint8),
        )
        tipath, tlpath = write_idx(
            tmp_path, rng.integers(0, 256, (2, 2, 2), dtype=np.uint8),
            np.array([0, 1], dtype=np.uint8), prefix="t_",
        )
        train, test = build_datasets(
            IdxSource(
                train_images=str(ipath), train_labels=str(lpath),
                test_images=str(tipath), test_labels=str(tlpath),
            )
        )
        assert train.features.data.shape == (6, 4)
        assert train.num_classes == test.num_classes == 3

    def test_load_errors_become_config_errors(self, tmp_path):
        missing = tmp_path / "missing.csv"
        with pytest.raises(ConfigError, match="dataset:"):
            build_datasets(CsvSource(train=str(missing), test=str(missing)))


class TestRunExperiment:
    def test_outputs_and_summary(self, tmp_path):
        config = load_experiment_config(write_config(tmp_path, seed_repetitions=2))
        out = tmp_path / "out"
        summary = run_experiment(config, out_dir=out)
        for rep in (0, 1):
            rep_dir = out / f"rep{rep}"
            assert (rep_dir / "metrics.csv").exists()
            for name in ("net1_stage1", "net1_stage2", "net2_stage1", "net2_stage2"):
                assert (rep_dir / f"{name}.json").exists()
        written = json.loads((out / "summary.json").read_text())
        assert written == summary
        assert len(summary["final_test_top1"]["net1"]) == 2
        values = summary["final_test_top1"]["net2"]
        assert summary["mean_test_top1"]["net2"] == pytest.approx(np.mean(values))
        assert summary["stddev_test_top1"]["net2"] == pytest.approx(np.std(values, ddof=0))

    def test_metrics_csv_shape(self, tmp_path):
        config = load_experiment_config(write_config(tmp_path))
        out = tmp_path / "out"
        run_experiment(config, out_dir=out)
        lines = (out / "rep0" / "metrics.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        # (1 stage-1 epoch + 2 stage-2 epochs) x 2 nets.
        assert len(lines) == 1 + 6

    def test_repetitions_differ(self, tmp_path):
        config = load_experiment_config(write_config(tmp_path, seed_repetitions=2))
        out = tmp_path / "out"
        run_experiment(config, out_dir=out)
        a = (out / "rep0" / "metrics.csv").read_text()
        b = (out / "rep1" / "metrics.csv").read_text()
        assert a != b

    def test_repeat_run_is_byte_identical(self, tmp_path):
        config = load_experiment_config(write_config(tmp_path))
        first = tmp_path / "first"
        second = tmp_path / "second"
        run_experiment(config, out_dir=first)
        run_experiment(config, out_dir=second)
        assert (first / "rep0" / "metrics.csv").read_bytes() == (
            second / "rep0" / "metrics.csv"
        ).read_bytes()
        assert (first / "summary.json").read_bytes() == (second / "summary.json").read_bytes()

    def test_overwrite_guard(self, tmp_path):
        config = load_experiment_config(write_config(tmp_path))
        out = tmp_path / "out"
        run_experiment(config, out_dir=out)
        with pytest.raises(ConfigError, match="overwrite"):
            run_experiment(config, out_dir=out)
        run_experiment(config, out_dir=out, overwrite=True)

    def test_output_directory_gets_default_permissions(self, tmp_path):
        config = load_experiment_config(write_config(tmp_path))
        reference = tmp_path / "reference"
        reference.mkdir()
        out = tmp_path / "out"
        run_experiment(config, out_dir=out)
        assert out.stat().st_mode == reference.stat().st_mode

    def test_output_dir_required(self, tmp_path):
        config = load_experiment_config(write_config(tmp_path))
        with pytest.raises(ConfigError, match="output_dir: missing"):
            run_experiment(config)

    def test_incompatible_network_rejected(self, tmp_path):
        doc = base_config_dict()
        doc["network1"]["input_dim"] = 5
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        config = load_experiment_config(path)
        with pytest.raises(ConfigError, match="network1.input_dim"):
            run_experiment(config, out_dir=tmp_path / "out")

    def test_class_count_mismatch_rejected(self, tmp_path):
        doc = base_config_dict()
        doc["network2"]["num_classes"] = 4
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        config = load_experiment_config(path)
        with pytest.raises(ConfigError, match="network2.num_classes"):
            run_experiment(config, out_dir=tmp_path / "out")


class TestRunAblation:
    def test_outputs_and_report(self, tmp_path):
        config = load_experiment_config(write_config(tmp_path))
        out = tmp_path / "ablate"
        report = run_ablation(config, out_dir=out)
        for variant in "ABCD":
            assert (out / f"variant_{variant}" / "summary.json").exists()
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == ABLATION_CSV_HEADER
        assert len(lines) == 9
        assert [line.split(",")[0] for line in lines[1:]] == [
            "A", "A", "B", "B", "C", "C", "D", "D"
        ]
        assert set(report["mean_test_top1"]) == {"A", "B", "C", "D"}
        assert set(report["drop_vs_full"]) == {"B", "C", "D"}
        assert report["status"] in ("pass", "warn")
        written = json.loads((out / "ablation_report.json").read_text())
        assert written == report

    def test_overwrite_guard(self, tmp_path):
        config = load_experiment_config(write_config(tmp_path))
        out = tmp_path / "ablate"
        run_ablation(config, out_dir=out)
        with pytest.raises(ConfigError, match="overwrite"):
            run_ablation(config, out_dir=out)
        run_ablation(config, out_dir=out, overwrite=True)


class TestCli:
    def test_run_success(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "net1: mean test top-1" in captured.out
        assert "net2: mean test top-1" in captured.out
        assert (out / "summary.json").exists()

    def test_run_twice_matches_byte_for_byte(self, tmp_path):
        path = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", str(path), "--out", str(out_a)]) == 0
        assert cli.main(["run", str(path), "--out", str(out_b)]) == 0
        assert (out_a / "rep0" / "metrics.csv").read_bytes() == (
            out_b / "rep0" / "metrics.csv"
        ).read_bytes()

    def test_config_errors_exit_1(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert cli.main(["run", str(missing)]) == 1
        assert "error: config:" in capsys.readouterr().err

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(base_config_dict(seed_repetitions=0)))
        assert cli.main(["run", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "seed_repetitions" in capsys.readouterr().err

        assert cli.main(["run", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: config: config file cannot be read")

        not_utf8 = tmp_path / "not_utf8.json"
        not_utf8.write_bytes(b'{"train": \xff}')
        assert cli.main(["run", str(not_utf8)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: config: config file cannot be read: 'utf-8' codec")

        csv_classes = tmp_path / "csv_classes.json"
        csv_classes.write_text(json.dumps(base_config_dict(dataset={
            "kind": "csv", "train": "a.csv", "test": "b.csv", "num_classes": "3"
        })))
        assert cli.main(["run", str(csv_classes), "--out", str(tmp_path / "o")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: config: dataset.num_classes: must be an integer >= 2"], lines

    def test_integer_past_the_digit_limit_exits_1(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        text = json.dumps(base_config_dict(seed_repetitions="HUGE"))
        path.write_text(text.replace('"HUGE"', "9" * 5000))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith(
            "error: config: config is not valid JSON: Exceeds the limit (4300 digits)"
        ), lines
        assert not out.exists()

    def test_nesting_past_the_recursion_limit_exits_1(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            "error: config: config is not valid JSON: maximum recursion depth exceeded"
            " while decoding a JSON array from a unicode string"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, field, value",
        [("dataset", "per_class", 10**15), ("network1", "hidden_dims", [10**15, 4])],
        ids=["per_class", "hidden_width"],
    )
    def test_size_too_large_to_allocate_exits_1(self, tmp_path, capsys, section, field, value):
        # 10**15 rows or columns of float64 need petabytes, past any address
        # space: the allocation fails at once, before anything is written.
        doc = base_config_dict()
        doc[section][field] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: config: Unable to allocate"), lines
        assert not out.exists()

    @pytest.mark.parametrize(
        "dataset, missing",
        [
            ({"kind": "blobs", "num_classes": 3, "per_class": 6, "seed": 7}, "dim"),
            (
                {"kind": "idx", "train_images": "a", "test_images": "b", "test_labels": "c"},
                "train_labels",
            ),
            ({"kind": "csv", "train": "a.csv"}, "test"),
        ],
        ids=["blobs_dim", "idx_train_labels", "csv_test"],
    )
    def test_missing_dataset_field_is_named(self, tmp_path, capsys, dataset, missing):
        path = write_config(tmp_path, dataset=dataset)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config: dataset.{missing}: required field is missing"
        ]
        assert not out.exists()

    def test_null_output_dir_is_unset(self, tmp_path, capsys):
        path = write_config(tmp_path, output_dir=None)
        assert load_experiment_config(path).output_dir is None
        assert cli.main(["run", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: config: output_dir: missing (set it in the config or pass --out)"
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_seed_repetitions_defaults_to_one(self, tmp_path):
        doc = base_config_dict()
        del doc["seed_repetitions"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["rep0", "summary.json"]
        assert json.loads((out / "summary.json").read_text())["seed_repetitions"] == 1

    def test_overwrite_flag(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        assert cli.main(["run", str(path), "--out", str(out)]) == 1
        assert "--overwrite" in capsys.readouterr().err
        assert cli.main(["run", str(path), "--out", str(out), "--overwrite"]) == 0

    @settings(
        max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(field=st.sampled_from(DEMO_INT_FIELDS), value=NOT_AN_INTEGER)
    def test_non_integer_field_exits_1(self, tmp_path, field, value):
        code, lines = run_demo_with(tmp_path, {field: value})
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: config:"), lines

    @settings(
        max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        case=st.one_of(
            st.tuples(st.sampled_from(DEMO_FLOAT_FIELDS), NOT_A_NUMBER),
            st.tuples(st.sampled_from(DEMO_STRING_FIELDS), NOT_A_STRING),
        )
    )
    def test_mistyped_field_exits_1(self, tmp_path, case):
        code, lines = run_demo_with(tmp_path, dict([case]))
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: config:"), lines

    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(changes=st.dictionaries(st.sampled_from(EXTREME_FIELDS), EXTREME_NUMBERS, min_size=1))
    def test_numeric_extremes_exit_cleanly(self, tmp_path, changes):
        out = tmp_path / "out"
        code, lines = run_demo_with(tmp_path, changes)
        assert code in (0, 1, 2)
        assert len(lines) <= 1, lines
        # Only a finished run leaves an output directory, and no run leaves
        # its staging directory.
        left = sorted(p.name for p in tmp_path.iterdir())
        assert left == (["c.json", "out"] if code == 0 else ["c.json"]), (code, lines, left)
        if code == 0:
            shutil.rmtree(out)

    @pytest.mark.parametrize("command", ["run", "ablate"])
    @pytest.mark.parametrize(
        "weights, variant, empty",
        [
            # B drops the self term, the only one left.
            ({"alpha": 0.0, "beta": 0.0, "gamma": 0.6}, "B", "B"),
            # D drops the relation term, and beta2 = 0 the peer KL with it.
            ({"alpha": 0.0, "gamma": 0.0, "beta2": 0.0}, "D", "D"),
        ],
        ids=["no_self_term", "no_mutual_term"],
    )
    def test_variant_with_empty_objective_exits_1(
        self, tmp_path, capsys, command, weights, variant, empty
    ):
        train = dict(base_config_dict()["train"], weights=weights)
        if command == "run":
            train["variant"] = variant
        path = write_config(tmp_path, train=train)
        assert cli.main([command, str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config: train: variant {empty} leaves no loss term with a positive weight"
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_output_error_exits_1(self, tmp_path, capsys, command):
        path = write_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file")
        assert cli.main([command, str(path), "--out", str(blocker)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: output: "), lines

    def test_overwrite_removes_stale_repetitions(self, tmp_path, capsys):
        out = tmp_path / "out"
        two = write_config(tmp_path, name="two.json", seed_repetitions=2)
        assert cli.main(["run", str(two), "--out", str(out)]) == 0
        (out / "rep7").mkdir()
        (out / "rep1x").mkdir()
        (out / "notes").mkdir()
        one = write_config(tmp_path, name="one.json", seed_repetitions=1)
        assert cli.main(["run", str(one), "--out", str(out), "--overwrite"]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["notes", "rep0", "rep1x", "summary.json"]
        assert json.loads((out / "summary.json").read_text())["seed_repetitions"] == 1

    @pytest.mark.parametrize("kind", ["csv", "idx"])
    def test_feature_width_mismatch_exits_1(self, tmp_path, capsys, kind):
        if kind == "csv":
            train, test = tmp_path / "train.csv", tmp_path / "test.csv"
            train.write_text("f0,f1,y\n0.0,1.0,0\n1.0,0.0,1\n2.0,2.0,2\n")
            test.write_text("f0,y\n0.5,1\n")
            dataset = {"kind": "csv", "train": str(train), "test": str(test)}
            widths = (2, 1)
        else:
            from test_data import write_idx

            rng = np.random.default_rng(0)
            ipath, lpath = write_idx(
                tmp_path, rng.integers(0, 256, (6, 1, 2), dtype=np.uint8),
                np.array([0, 1, 2, 0, 1, 2], dtype=np.uint8),
            )
            tipath, tlpath = write_idx(
                tmp_path, rng.integers(0, 256, (2, 3, 3), dtype=np.uint8),
                np.array([0, 1], dtype=np.uint8), prefix="t_",
            )
            dataset = {
                "kind": "idx",
                "train_images": str(ipath), "train_labels": str(lpath),
                "test_images": str(tipath), "test_labels": str(tlpath),
            }
            widths = (2, 9)
        path = write_config(tmp_path, dataset=dataset)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config: dataset: train has {widths[0]} features, test has {widths[1]}"
        ]

    @pytest.mark.parametrize("label", ["inf", "nan", "1e300"])
    def test_csv_label_not_an_int64_exits_1(self, tmp_path, capsys, label):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        train.write_text(f"f0,f1,y\n0.0,1.0,0\n1.0,0.0,{label}\n2.0,2.0,2\n")
        test.write_text("f0,f1,y\n0.5,0.5,1\n")
        dataset = {"kind": "csv", "train": str(train), "test": str(test)}
        path = write_config(tmp_path, dataset=dataset)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config: dataset: {train}:3: label column must hold integers"
        ]
        assert not out.exists()

    def test_csv_not_utf8_exits_1(self, tmp_path, capsys):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        train.write_bytes(b"f0,f1,y\n0.0,1.0,0\n1.0,\xff,1\n2.0,2.0,2\n")
        test.write_text("f0,f1,y\n0.5,0.5,1\n")
        dataset = {"kind": "csv", "train": str(train), "test": str(test)}
        path = write_config(tmp_path, dataset=dataset)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config: dataset: {train}: not UTF-8 text: invalid start byte at byte 22"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("label, num_classes", [(-1, None), (3, 3)])
    def test_csv_label_out_of_range_exits_1(self, tmp_path, capsys, label, num_classes):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        train.write_text(f"f0,f1,y\n0.0,1.0,0\n1.0,0.0,{label}\n2.0,2.0,2\n")
        test.write_text("f0,f1,y\n0.5,0.5,1\n")
        dataset = {"kind": "csv", "train": str(train), "test": str(test)}
        if num_classes is not None:
            dataset["num_classes"] = num_classes
        path = write_config(tmp_path, dataset=dataset)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config: dataset: {train}:3: label {label} outside [0, num_classes)"
        ]

    def test_idx_without_images_exits_1(self, tmp_path, capsys):
        from test_data import write_idx

        ipath, lpath = write_idx(tmp_path, np.zeros((0, 2, 2)), np.zeros(0))
        dataset = {
            "kind": "idx",
            "train_images": str(ipath), "train_labels": str(lpath),
            "test_images": str(ipath), "test_labels": str(lpath),
        }
        path = write_config(tmp_path, dataset=dataset)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config: dataset: {ipath}: header gives 0 images"
        ]

    @pytest.mark.parametrize("case", ["spread", "spread_1e160", "spread_1e200", "csv_nan"])
    def test_non_finite_features_exit_1(self, tmp_path, capsys, case):
        if case == "spread":
            dataset = dict(base_config_dict()["dataset"], spread=1e308)
            reason = "blobs with spread 1e+308: features hold non-finite values"
        elif case.startswith("spread_"):
            # Finite features, but their standard deviation overflows.
            dataset = dict(base_config_dict()["dataset"], spread=float(case[7:]))
            reason = (
                f"normalizing blobs{dataset['num_classes']}: a feature's mean or standard "
                "deviation is not finite"
            )
        else:
            train, test = tmp_path / "train.csv", tmp_path / "test.csv"
            train.write_text("f0,f1,y\n0.0,1.0,0\nnan,0.0,1\n2.0,2.0,2\n")
            test.write_text("f0,f1,y\n0.5,0.5,1\n")
            dataset = {"kind": "csv", "train": str(train), "test": str(test)}
            reason = f"{train}: features hold non-finite values"
        path = write_config(tmp_path, dataset=dataset)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: config: dataset: {reason}"]
        assert not out.exists()

    # A numpy floating-point warning fails the test instead of being collected.
    @pytest.mark.filterwarnings("error")
    def test_divergence_exits_2(self, tmp_path, capsys):
        doc = base_config_dict()
        doc["train"]["lr"] = 1e25
        doc["train"]["stage2_epochs"] = 3
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: divergence:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_failed_overwrite_keeps_previous_outputs(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert cli.main([command, str(write_config(tmp_path)), "--out", str(out)]) == 0
        (out / "notes.txt").write_text("kept")
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        doc = base_config_dict()
        doc["train"]["lr"] = 1e25
        diverging = tmp_path / "diverging.json"
        diverging.write_text(json.dumps(doc))
        assert cli.main([command, str(diverging), "--out", str(out), "--overwrite"]) == 2
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "diverging.json", "out"
        ]

    @pytest.mark.parametrize("failure", ["config", "divergence"])
    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_failure_leaves_out_parents_as_they_were(self, tmp_path, capsys, command, failure):
        doc = base_config_dict()
        if failure == "config":
            missing = str(tmp_path / "missing.csv")
            doc["dataset"] = {"kind": "csv", "train": missing, "test": missing}
        else:
            doc["train"]["lr"] = 1e25
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        (tmp_path / "work").mkdir()
        (tmp_path / "work" / "notes.txt").write_text("kept")
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "work" / "new" / "deep" / "out"
        assert cli.main([command, str(path), "--out", str(out)]) == (
            1 if failure == "config" else 2
        )
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "work" / "notes.txt").read_text() == "kept"

    @pytest.mark.parametrize("command", ["run", "ablate"])
    def test_file_as_out_parent_exits_1_before_training(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(experiments, "train_pair", no_training)
        (tmp_path / "blocker").write_text("a regular file")
        out = tmp_path / "blocker" / "deep" / "out"
        assert cli.main([command, str(write_config(tmp_path)), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: output: "), lines
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.json"]

    def test_existing_directory_without_outputs_keeps_its_entries(
        self, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "out"
        (out / "data").mkdir(parents=True)
        (out / "data" / "notes.txt").write_text("kept")
        inode = out.stat().st_ino
        # The working directory as output: it must stay in place.
        monkeypatch.chdir(out)
        assert cli.main(["run", str(write_config(tmp_path)), "--out", "."]) == 0
        assert out.stat().st_ino == inode
        assert sorted(p.name for p in out.iterdir()) == ["data", "rep0", "summary.json"]
        assert (out / "data" / "notes.txt").read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "out"]

    @pytest.mark.parametrize("update_order", ["sequential", "simultaneous"])
    def test_peers_of_different_widths_train(self, tmp_path, update_order):
        code, err = run_demo_with(tmp_path, {
            ("network2", "hidden_dims"): [8, 4],
            ("train", "variant"): "A",
            ("train", "update_order"): update_order,
        })
        assert code == 0, err
        assert not any("Traceback" in line for line in err), err
        assert (tmp_path / "out" / "rep0" / "metrics.csv").exists()

    def test_ablate_command(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "ablate"
        assert cli.main(["ablate", str(path), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "variant" in captured
        assert "status:" in captured
        assert (out / "ablation.csv").exists()

    def test_seed_env_override(self, tmp_path, monkeypatch):
        path = write_config(tmp_path)
        out_plain = tmp_path / "plain"
        assert cli.main(["run", str(path), "--out", str(out_plain)]) == 0

        monkeypatch.setenv(cli.SEED_ENV_VAR, "5")
        out_env = tmp_path / "env"
        assert cli.main(["run", str(path), "--out", str(out_env)]) == 0
        monkeypatch.delenv(cli.SEED_ENV_VAR)

        explicit = base_config_dict()
        explicit["train"]["seed"] = 5
        epath = tmp_path / "explicit.json"
        epath.write_text(json.dumps(explicit))
        out_explicit = tmp_path / "explicit"
        assert cli.main(["run", str(epath), "--out", str(out_explicit)]) == 0

        env_csv = (out_env / "rep0" / "metrics.csv").read_bytes()
        assert env_csv == (out_explicit / "rep0" / "metrics.csv").read_bytes()
        assert env_csv != (out_plain / "rep0" / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("value", ["abc", "-3", "1_0", " 7 ", "7\n", "+7", "\u0667"])
    def test_bad_seed_env_exits_1(self, tmp_path, monkeypatch, capsys, value):
        path = write_config(tmp_path)
        monkeypatch.setenv(cli.SEED_ENV_VAR, value)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        reason = "non-negative, got -3" if value == "-3" else f"an integer, got {value!r}"
        assert capsys.readouterr().err == f"error: config: DISTILFORGE_SEED must be {reason}\n"

    def test_verify_pass_path(self, monkeypatch, capsys):
        monkeypatch.setattr(verification, "CHECKS", [("stub_ok", lambda: None)])
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "stub_ok" in out and "pass" in out

    def test_verify_failure_exits_3(self, monkeypatch, capsys):
        def failing():
            raise VerificationFailure("synthetic failure")

        monkeypatch.setattr(
            verification, "CHECKS", [("good", lambda: None), ("broken", failing)]
        )
        assert cli.main(["verify"]) == 3
        captured = capsys.readouterr()
        assert "broken" in captured.out and "FAIL" in captured.out
        assert "first failing property: broken" in captured.err
