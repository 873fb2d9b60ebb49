"""Dataset loading, synthesis, normalization, and batching."""

import re
import struct

import numpy as np
import pytest

from distilforge.data import (
    STD_FLOOR,
    Dataset,
    batch_iterator,
    load_csv,
    load_idx,
    mean_std_normalize,
    synth_blobs,
)
from distilforge.autodiff import Tensor


def write_idx(tmp_path, images, labels, image_magic=0x00000803, label_magic=0x00000801,
              promised_count=None, promised_labels=None, prefix=""):
    """Serialize uint8 images (n, rows, cols) and labels (n,) as IDX files."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    ipath = tmp_path / f"{prefix}images.idx"
    lpath = tmp_path / f"{prefix}labels.idx"
    with open(ipath, "wb") as f:
        f.write(struct.pack(">IIII", image_magic, promised_count or n, rows, cols))
        f.write(images.tobytes())
    with open(lpath, "wb") as f:
        f.write(struct.pack(">II", label_magic, promised_labels or labels.size))
        f.write(labels.tobytes())
    return ipath, lpath


class TestDataset:
    def test_len_and_dim(self):
        ds = Dataset(Tensor(np.zeros((4, 3))), np.array([0, 1, 0, 1]), 2)
        assert len(ds) == 4
        assert ds.input_dim == 3

    @pytest.mark.parametrize(
        "features, labels, m, message",
        [
            (np.zeros(3), np.array([0, 1, 0]), 2, "2-d"),
            (np.zeros((0, 3)), np.array([], dtype=int), 2, "at least one"),
            (np.zeros((3, 2)), np.array([0, 1]), 2, "labels"),
            (np.zeros((2, 2)), np.array([0, 1]), 1, "num_classes"),
            (np.zeros((2, 2)), np.array([0, 2]), 2, r"\[0, num_classes\)"),
            (np.zeros((2, 2)), np.array([-1, 0]), 2, r"\[0, num_classes\)"),
        ],
    )
    def test_validation(self, features, labels, m, message):
        with pytest.raises(ValueError, match=message):
            Dataset(Tensor(features), labels, m)


class TestSynthBlobs:
    def test_shapes_and_labels(self):
        ds = synth_blobs(3, 10, 4, 0.5, seed=0)
        assert ds.features.data.shape == (30, 4)
        np.testing.assert_array_equal(ds.labels, np.repeat([0, 1, 2], 10))
        assert ds.num_classes == 3

    def test_deterministic_per_seed(self):
        a = synth_blobs(3, 5, 2, 0.7, seed=9)
        b = synth_blobs(3, 5, 2, 0.7, seed=9)
        c = synth_blobs(3, 5, 2, 0.7, seed=10)
        np.testing.assert_array_equal(a.features.data, b.features.data)
        assert not np.array_equal(a.features.data, c.features.data)

    def test_zero_spread_sits_on_ring_centers(self):
        ds = synth_blobs(4, 2, 3, 0.0, seed=1)
        # Classes at angles 0, 90, 180, 270 degrees on a radius-3 ring.
        expected = np.array(
            [[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [-3.0, 0.0, 0.0], [0.0, -3.0, 0.0]]
        )
        got = ds.features.data.reshape(4, 2, 3)
        for c in range(4):
            np.testing.assert_allclose(got[c], np.tile(expected[c], (2, 1)), atol=1e-12)

    def test_spread_scales_noise(self):
        tight = synth_blobs(2, 50, 2, 0.1, seed=3)
        wide = synth_blobs(2, 50, 2, 2.0, seed=3)
        t = tight.features.data[:50].std(axis=0).mean()
        w = wide.features.data[:50].std(axis=0).mean()
        assert w > 10 * t

    def test_validation(self):
        with pytest.raises(ValueError, match="num_classes"):
            synth_blobs(1, 5, 2, 0.5, seed=0)
        with pytest.raises(ValueError, match="per_class"):
            synth_blobs(2, 0, 2, 0.5, seed=0)
        with pytest.raises(ValueError, match="dim"):
            synth_blobs(2, 5, 1, 0.5, seed=0)
        with pytest.raises(ValueError, match="spread"):
            synth_blobs(2, 5, 2, -1.0, seed=0)


class TestBlobsSeparationRegression:
    """Frozen observations for the 3-class, 100-per-class, spread-0.5 layout.

    Observed once and pinned: at this spread the classes sit far apart
    (minimum cross-class sample distance near 2.8), so even a linear
    softmax probe reaches 100% test accuracy, and the trained peer
    networks reach it too. These bounds guard the generator's geometry
    and determinism rather than any method's advantage.
    """

    @staticmethod
    def _fit_linear_probe(train, test, iters=2000, lr=0.5):
        x, y = train.features.data, train.labels
        onehot = np.eye(train.num_classes)[y]
        w = np.zeros((x.shape[1], train.num_classes))
        b = np.zeros(train.num_classes)
        for _ in range(iters):
            z = x @ w + b
            z -= z.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            g = (p - onehot) / len(x)
            w -= lr * (x.T @ g)
            b -= lr * g.sum(axis=0)

        def acc(ds):
            return float(((ds.features.data @ w + b).argmax(axis=1) == ds.labels).mean())

        return acc(train), acc(test)

    def test_probe_and_network_bounds(self):
        train = synth_blobs(3, 100, 2, 0.5, seed=7)
        test = synth_blobs(3, 100, 2, 0.5, seed=8)
        train, test = mean_std_normalize(train, [test])

        probe_train, probe_test = self._fit_linear_probe(train, test)
        assert probe_train >= 0.99
        assert probe_test >= 0.99

        from distilforge.models import NetworkConfig, init_network
        from distilforge.trainer import TrainConfig, pretrain_stage1, train_stage2

        nets = [
            init_network(NetworkConfig(2, (32, 16), 3, init_seed=1)),
            init_network(NetworkConfig(2, (32, 16), 3, init_seed=2)),
        ]
        config = TrainConfig(
            stage1_epochs=3, stage2_epochs=10, batch_size=32, lr=0.1,
            lr_milestones=(5,), lr_factor=0.2, seed=0,
        )
        _, tables, _ = pretrain_stage1(nets, train, test, config)
        final = [r.test_top1 for r in train_stage2(nets, tables, train, test, config)[-2:]]
        assert all(v >= 0.95 for v in final)

    def test_wider_spread_defeats_linear_probe(self):
        # The same generator leaves the linearly separable regime once the
        # noise overlaps the class gaps; observed 0.9567/0.9133 at spread 1.5.
        train = synth_blobs(3, 100, 2, 1.5, seed=7)
        test = synth_blobs(3, 100, 2, 1.5, seed=8)
        train, test = mean_std_normalize(train, [test])
        probe_train, probe_test = self._fit_linear_probe(train, test)
        assert probe_train < 1.0
        assert probe_test < 1.0


class TestNormalize:
    def test_train_becomes_standard(self):
        ds = synth_blobs(3, 40, 3, 1.5, seed=4)
        (norm,) = mean_std_normalize(ds)
        assert norm.features.data.shape == (120, 3)
        np.testing.assert_allclose(norm.features.data.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(norm.features.data.std(axis=0), 1.0, atol=1e-12)

    def test_train_stats_applied_to_others(self):
        train = Dataset(Tensor(np.array([[0.0], [2.0]])), np.array([0, 1]), 2)
        test = Dataset(Tensor(np.array([[4.0]])), np.array([0]), 2)
        ntrain, ntest = mean_std_normalize(train, [test])
        # mean 1, population std 1: the test point maps to (4 - 1) / 1 = 3,
        # where its own statistics would map it to 0.
        np.testing.assert_array_equal(ntest.features.data, [[3.0]])
        np.testing.assert_array_equal(ntrain.features.data, [[-1.0], [1.0]])

    def test_constant_feature_floored_not_divided_by_zero(self):
        train = Dataset(Tensor(np.array([[5.0, 1.0], [5.0, 3.0]])), np.array([0, 1]), 2)
        test = Dataset(Tensor(np.array([[5.0 + 4e-9, 2.0]])), np.array([0]), 2)
        norm, ntest = mean_std_normalize(train, [test])
        assert np.isfinite(norm.features.data).all()
        np.testing.assert_array_equal(norm.features.data[:, 0], [0.0, 0.0])
        # The std of the constant feature is floored at STD_FLOOR, not 0.
        np.testing.assert_allclose(ntest.features.data[0, 0], 4e-9 / STD_FLOOR, rtol=1e-6)

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_statistics_rejected(self, scale):
        # Finite features whose squares overflow: the std would be inf and
        # every normalized feature 0.
        features = np.array([[scale, 1.0], [-scale, 2.0], [0.5 * scale, 3.0]])
        train = Dataset(Tensor(features), np.array([0, 1, 0]), 2, name="wide")
        with pytest.raises(ValueError, match="normalizing wide: .* not finite"):
            mean_std_normalize(train)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_overflowing_mean_rejected_before_standardizing(self):
        # The column sum overflows, so the mean is inf: the statistics line,
        # not the normalized-feature line of a full-size pass.
        features = np.array([[1e308, 1.0], [1e308, 2.0]])
        train = Dataset(Tensor(features), np.array([0, 1]), 2, name="huge")
        with pytest.raises(
            ValueError,
            match="^normalizing huge: a feature's mean or standard deviation is not finite$",
        ):
            mean_std_normalize(train)

    def test_standardizes_each_split_in_place_with_the_out_of_place_bits(self):
        # Widths around the 64-column statistics blocks: one column, two, one
        # block and one column more, whole blocks, and whole blocks and one.
        rng = np.random.default_rng(6)
        for d in (1, 2, 65, 784, 785):
            raw = [rng.standard_normal((rows, d)) * rng.uniform(0.1, 50.0, d)
                   + rng.uniform(-9.0, 9.0, d) for rows in (300, 70)]
            splits = [Dataset(Tensor(x.copy()), np.zeros(len(x), dtype=int), 2) for x in raw]
            arrays = [ds.features.data for ds in splits]
            returned = mean_std_normalize(splits[0], splits[1:])
            mean, std = raw[0].mean(axis=0), np.maximum(raw[0].std(axis=0), STD_FLOOR)
            for ds, norm, array, x in zip(splits, returned, arrays, raw):
                assert norm is ds and norm.features.data is array
                assert np.array_equal(array, (x - mean) / std), f"width {d}"

    def test_splits_sharing_memory_rejected(self):
        ds = synth_blobs(3, 10, 3, 1.5, seed=6)
        before = ds.features.data.copy()
        half = Dataset(Tensor(ds.features.data[:5]), ds.labels[:5], 3)
        for others in ([ds], [half]):
            with pytest.raises(ValueError, match="^the splits to normalize share feature memory$"):
                mean_std_normalize(ds, others)
        assert np.array_equal(ds.features.data, before)

    def test_labels_and_metadata_survive(self):
        ds = synth_blobs(2, 3, 2, 0.5, seed=5)
        (norm,) = mean_std_normalize(ds)
        np.testing.assert_array_equal(norm.labels, ds.labels)
        assert norm.num_classes == ds.num_classes
        assert norm.name == ds.name


class TestLoadIdx:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        images = rng.integers(0, 256, size=(5, 2, 3), dtype=np.uint8)
        labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
        ipath, lpath = write_idx(tmp_path, images, labels)
        ds = load_idx(ipath, lpath)
        assert ds.features.data.shape == (5, 6)
        assert ds.num_classes == 3
        np.testing.assert_allclose(
            ds.features.data, images.reshape(5, 6).astype(float) / 255.0
        )
        np.testing.assert_array_equal(ds.labels, labels)

    def test_pixel_scaling_extremes(self, tmp_path):
        images = np.array([[[0, 255]]], dtype=np.uint8)
        ipath, lpath = write_idx(tmp_path, images, np.array([1], dtype=np.uint8))
        ds = load_idx(ipath, lpath)
        np.testing.assert_array_equal(ds.features.data, [[0.0, 1.0]])

    def test_bad_image_magic(self, tmp_path):
        ipath, lpath = write_idx(
            tmp_path, np.zeros((1, 2, 2), np.uint8), np.zeros(1, np.uint8),
            image_magic=0x00000804,
        )
        with pytest.raises(ValueError, match="magic"):
            load_idx(ipath, lpath)

    def test_bad_label_magic(self, tmp_path):
        ipath, lpath = write_idx(
            tmp_path, np.zeros((1, 2, 2), np.uint8), np.zeros(1, np.uint8),
            label_magic=0x00000802,
        )
        with pytest.raises(ValueError, match="magic"):
            load_idx(ipath, lpath)

    def test_payload_shorter_than_header_promises(self, tmp_path):
        ipath, lpath = write_idx(
            tmp_path, np.zeros((2, 2, 2), np.uint8), np.zeros(2, np.uint8),
            promised_count=3,
        )
        with pytest.raises(ValueError, match="payload"):
            load_idx(ipath, lpath)

    def test_image_label_count_mismatch(self, tmp_path):
        ipath, _ = write_idx(tmp_path, np.zeros((2, 2, 2), np.uint8), np.zeros(2, np.uint8))
        _, lpath = write_idx(
            tmp_path, np.zeros((3, 2, 2), np.uint8), np.zeros(3, np.uint8), prefix="other_"
        )
        with pytest.raises(ValueError, match="mismatch"):
            load_idx(ipath, lpath)

    def test_truncated_header(self, tmp_path):
        ipath = tmp_path / "short.idx"
        ipath.write_bytes(b"\x00\x00")
        _, lpath = write_idx(tmp_path, np.zeros((1, 1, 1), np.uint8), np.zeros(1, np.uint8))
        with pytest.raises(ValueError, match="truncated"):
            load_idx(ipath, lpath)


class TestLoadCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,f1,label\n0.5,1.5,0\n-1.0,2.0,2\n0.0,0.0,1\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(
            ds.features.data, [[0.5, 1.5], [-1.0, 2.0], [0.0, 0.0]]
        )
        np.testing.assert_array_equal(ds.labels, [0, 2, 1])
        assert ds.num_classes == 3

    def test_explicit_num_classes(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,label\n1.0,0\n2.0,1\n")
        assert load_csv(path, num_classes=5).num_classes == 5

    def test_errors(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="header"):
            load_csv(empty)

        header_only = tmp_path / "header.csv"
        header_only.write_text("f0,label\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(header_only)

        bad_label = tmp_path / "bad_label.csv"
        bad_label.write_text("f0,label\n1.0,0.5\n")
        with pytest.raises(ValueError, match="integers"):
            load_csv(bad_label)

        bad_value = tmp_path / "bad_value.csv"
        bad_value.write_text("f0,label\npotato,1\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(bad_value)

        ragged = tmp_path / "ragged.csv"
        ragged.write_text("f0,f1,label\n1.0,2.0,0\n1.0,1\n")
        with pytest.raises(ValueError, match="inconsistent"):
            load_csv(ragged)

    @pytest.mark.parametrize("row", ["1_5,1", "1.5,1_0"], ids=["feature", "label"])
    def test_digit_group_underscores_rejected(self, tmp_path, row):
        """float() reads "1_5" as 15.0; a CSV cell with an underscore is not a number."""
        path = tmp_path / "data.csv"
        path.write_text(f"f0,label\n1.0,0\n{row}\n")
        message = f"{path}:3: non-numeric value"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_csv(path)

    @pytest.mark.parametrize("label", ["inf", "-inf", "nan", "1e300", "9223372036854775808"])
    def test_label_beyond_int64_rejected(self, tmp_path, label):
        path = tmp_path / "labels.csv"
        path.write_text(f"f0,label\n1.0,0\n2.0,{label}\n")
        message = f"{path}:3: label column must hold integers"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_csv(path)


class TestBatchIterator:
    def test_partitions_every_sample_once(self):
        ds = synth_blobs(3, 7, 2, 0.5, seed=7)  # 21 samples
        batches = list(batch_iterator(ds, 8, shuffle_seed=1, epoch=0))
        assert [len(b) for b in batches] == [8, 8, 5]
        seen = np.concatenate([b.indices for b in batches])
        np.testing.assert_array_equal(np.sort(seen), np.arange(21))

    def test_one_hot_matches_labels(self):
        ds = synth_blobs(3, 4, 2, 0.5, seed=8)
        for batch in batch_iterator(ds, 5, shuffle_seed=2, epoch=1):
            labels = ds.labels[batch.indices]
            np.testing.assert_array_equal(batch.one_hot_labels.data.argmax(axis=1), labels)
            np.testing.assert_array_equal(batch.one_hot_labels.data.sum(axis=1), 1.0)

    def test_features_match_indices(self):
        ds = synth_blobs(2, 6, 3, 0.5, seed=9)
        for batch in batch_iterator(ds, 4, shuffle_seed=3, epoch=2):
            np.testing.assert_array_equal(
                batch.features.data, ds.features.data[batch.indices]
            )

    def test_seed_and_epoch_control_order(self):
        ds = synth_blobs(2, 10, 2, 0.5, seed=10)

        def order(seed, epoch):
            return np.concatenate(
                [b.indices for b in batch_iterator(ds, 6, shuffle_seed=seed, epoch=epoch)]
            )

        np.testing.assert_array_equal(order(4, 0), order(4, 0))
        assert not np.array_equal(order(4, 0), order(4, 1))
        assert not np.array_equal(order(4, 0), order(5, 0))

    def test_batch_size_validated(self):
        ds = synth_blobs(2, 2, 2, 0.5, seed=11)
        with pytest.raises(ValueError, match="batch_size"):
            list(batch_iterator(ds, 0, shuffle_seed=0, epoch=0))
