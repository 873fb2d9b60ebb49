"""Dataset loading, synthesis, normalization and batching.

Supports the big-endian IDX image/label format, simple CSV files with a
header row and an integer label in the last column, and seeded synthetic
gaussian blobs for desk-scale experiments. Batch iteration reshuffles
deterministically from (seed, epoch), so runs replay exactly.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .autodiff import AutodiffError, Tensor

__all__ = [
    "IDX_IMAGES_MAGIC",
    "IDX_LABELS_MAGIC",
    "Dataset",
    "Batch",
    "load_idx",
    "load_csv",
    "synth_blobs",
    "mean_std_normalize",
    "batch_iterator",
]

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# Per-feature standard deviations are floored here so constant features
# normalize to zero instead of dividing by zero.
STD_FLOOR = 1e-8


@dataclass
class Dataset:
    """Feature matrix with integer class labels in [0, num_classes)."""

    features: Tensor
    labels: np.ndarray
    num_classes: int
    name: str = ""

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.data.ndim != 2:
            raise ValueError("features must be a 2-d tensor")
        n = self.features.data.shape[0]
        if n < 1:
            raise ValueError("dataset must hold at least one sample")
        if self.labels.shape != (n,):
            raise ValueError(f"expected {n} labels, got shape {self.labels.shape}")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels must lie in [0, num_classes)")

    def __len__(self) -> int:
        return self.features.data.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.data.shape[1]


@dataclass
class Batch:
    """One mini-batch: features, one-hot labels and source row indices."""

    features: Tensor
    one_hot_labels: Tensor
    indices: np.ndarray

    def __len__(self) -> int:
        return int(self.indices.size)


def _feature_tensor(features: np.ndarray, what: str) -> Tensor:
    """Wrap a feature matrix; non-finite values are bad input, not divergence."""
    try:
        return Tensor(features)
    except AutodiffError:
        # The tensor's own np.isfinite check: no second pass over the data.
        raise ValueError(f"{what}: features hold non-finite values") from None


def _read_exact(f, count: int, path, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise ValueError(f"{path}: truncated IDX file while reading {what}")
    return data


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image file and its label file into a flat float dataset.

    Pixels are scaled from [0, 255] bytes to [0, 1] floats; images flatten to
    rows * cols features. Magic numbers, dimension counts and payload sizes
    are all validated.
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, images_path, "header"))
        if magic != IDX_IMAGES_MAGIC:
            raise ValueError(f"{images_path}: bad image magic 0x{magic:08x}")
        if count == 0:
            raise ValueError(f"{images_path}: header gives 0 images")
        payload = f.read()
    expected = count * rows * cols
    if len(payload) != expected:
        raise ValueError(
            f"{images_path}: payload holds {len(payload)} bytes, header promises {expected}"
        )
    features = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    features = features.reshape(count, rows * cols)

    with open(labels_path, "rb") as f:
        magic, label_count = struct.unpack(">II", _read_exact(f, 8, labels_path, "header"))
        if magic != IDX_LABELS_MAGIC:
            raise ValueError(f"{labels_path}: bad label magic 0x{magic:08x}")
        label_payload = f.read()
    if len(label_payload) != label_count:
        raise ValueError(
            f"{labels_path}: payload holds {len(label_payload)} labels, header promises {label_count}"
        )
    if label_count != count:
        raise ValueError(
            f"image/label count mismatch: {count} images vs {label_count} labels"
        )
    labels = np.frombuffer(label_payload, dtype=np.uint8).astype(np.int64)
    num_classes = max(2, int(labels.max()) + 1)
    return Dataset(Tensor(features), labels, num_classes, name=images_path.stem)


def load_csv(path, num_classes: int | None = None) -> Dataset:
    """Load a CSV with a header row; the last column is the integer label."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file, expected a header row") from None
    feats, labels = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) < 2:
            raise ValueError(f"{path}:{lineno}: need at least one feature and a label")
        try:
            if any("_" in x for x in row):  # float() reads "1_5" as 15.0
                raise ValueError
            values = [float(x) for x in row]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric value") from None
        label = values[-1]
        if not (np.isfinite(label) and abs(label) < 2**63 and label == int(label)):
            raise ValueError(f"{path}:{lineno}: label column must hold integers")
        if label < 0 or (num_classes is not None and label >= num_classes):
            raise ValueError(f"{path}:{lineno}: label {int(label)} outside [0, num_classes)")
        feats.append(values[:-1])
        labels.append(int(label))
    if not feats:
        raise ValueError(f"{path}: no data rows")
    widths = {len(r) for r in feats}
    if len(widths) != 1:
        raise ValueError(f"{path}: rows have inconsistent column counts")
    labels_arr = np.asarray(labels, dtype=np.int64)
    if num_classes is None:
        num_classes = max(2, int(labels_arr.max()) + 1)
    return Dataset(_feature_tensor(np.asarray(feats), str(path)), labels_arr, num_classes,
                   name=path.stem)


def synth_blobs(num_classes: int, per_class: int, dim: int, spread: float, seed: int) -> Dataset:
    """Gaussian blobs, one per class, centered on a radius-3 ring.

    Class c sits at angle 2*pi*c/num_classes in the first two feature
    dimensions; extra dimensions are zero-centered noise. spread is the
    noise standard deviation, so spread=0 collapses every class onto its
    center. Identical arguments always produce identical data.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if not (np.isfinite(spread) and spread >= 0):
        raise ValueError("spread must be a finite non-negative number")
    rng = np.random.default_rng(seed)
    blocks = []
    labels = []
    for c in range(num_classes):
        center = np.zeros(dim)
        angle = 2.0 * np.pi * c / num_classes
        center[0] = 3.0 * np.cos(angle)
        center[1] = 3.0 * np.sin(angle)
        noise = rng.standard_normal((per_class, dim)) * float(spread)
        blocks.append(center + noise)
        labels.extend([c] * per_class)
    features = np.concatenate(blocks, axis=0)
    return Dataset(
        _feature_tensor(features, f"blobs with spread {spread:g}"),
        np.asarray(labels, dtype=np.int64), num_classes, name=f"blobs{num_classes}",
    )


def mean_std_normalize(train: Dataset, others: Sequence[Dataset] = ()) -> list[Dataset]:
    """Standardize per feature using training statistics only.

    Returns [normalized train, normalized others...]. Standard deviations
    are population (not sample) values, floored at STD_FLOOR. Raises
    ValueError if a mean or a standard deviation is not finite, checked
    before any split is standardized, or if a normalized feature is not.
    Each standardized split is one new array; the inputs are left as they are.
    """
    x = train.features.data
    mean = x.mean(axis=0)
    std = np.maximum(x.std(axis=0), STD_FLOOR)
    # An infinite standard deviation alone would pass the feature check
    # below: it maps every value of its feature to 0.
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise ValueError(
            f"normalizing {train.name or 'dataset'}: a feature's mean or standard deviation "
            "is not finite"
        )

    def apply(ds: Dataset) -> Dataset:
        out = ds.features.data - mean
        out /= std
        return Dataset(
            _feature_tensor(out, f"normalized {ds.name or 'dataset'}"),
            ds.labels.copy(),
            ds.num_classes,
            name=ds.name,
        )

    return [apply(train)] + [apply(ds) for ds in others]


def batch_iterator(
    dataset: Dataset, batch_size: int, shuffle_seed: int, epoch: int
) -> Iterator[Batch]:
    """Yield shuffled mini-batches covering every sample exactly once.

    The permutation is a pure function of (shuffle_seed, epoch); a partial
    final batch is kept. Labels come out one-hot encoded.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = len(dataset)
    perm = np.random.default_rng([int(shuffle_seed), int(epoch)]).permutation(n)
    feats = dataset.features.data
    for start in range(0, n, batch_size):
        idx = perm[start : start + batch_size]
        one_hot = np.zeros((idx.size, dataset.num_classes))
        one_hot[np.arange(idx.size), dataset.labels[idx]] = 1.0
        yield Batch(Tensor(feats[idx]), Tensor(one_hot), idx)
