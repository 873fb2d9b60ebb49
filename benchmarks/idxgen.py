"""Seeded MNIST-shaped IDX files for the benchmark's `wide_idx` workload.

Each class has a fixed 28x28 prototype made of 4x4-pixel blocks around mid
grey; a sample is its class prototype plus gaussian pixel noise, clipped to
uint8. Per pixel the class contrast is small against the noise, but over 784
pixels the classes separate: two [256, 64] peers reach about 0.94 test top-1
in the `wide_idx` epochs (chance is 0.1). The files use the IDX magics 0x803 (images) and 0x801
(labels), so `distilforge.data.load_idx` reads them unchanged.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

ROWS = COLS = 28
NUM_CLASSES = 10
IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

BLOCK = 4
CONTRAST = 20.0
NOISE_STD = 64.0


def make_split(seed: int, split: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(images uint8 (count, 28, 28), labels uint8 (count,)) for one split.

    Prototypes depend on `seed` only, so every split of one seed shares them;
    the samples of split 0 (train) and split 1 (test) are drawn independently.
    """
    proto_rng = np.random.default_rng([seed, 0])
    coarse = 128.0 + proto_rng.uniform(
        -CONTRAST, CONTRAST, size=(NUM_CLASSES, ROWS // BLOCK, COLS // BLOCK)
    )
    prototypes = np.kron(coarse, np.ones((BLOCK, BLOCK)))
    rng = np.random.default_rng([seed, 1 + split])
    labels = rng.permutation(np.arange(count) % NUM_CLASSES).astype(np.uint8)
    noisy = prototypes[labels] + rng.normal(0.0, NOISE_STD, size=(count, ROWS, COLS))
    images = np.clip(np.rint(noisy), 0, 255).astype(np.uint8)
    return images, labels


def idx_bytes(images: np.ndarray, labels: np.ndarray) -> tuple[bytes, bytes]:
    """Encode images and labels in the big-endian IDX layout."""
    count, rows, cols = images.shape
    image_file = struct.pack(">IIII", IMAGES_MAGIC, count, rows, cols) + images.tobytes()
    label_file = struct.pack(">II", LABELS_MAGIC, labels.size) + labels.tobytes()
    return image_file, label_file


def write_dataset(directory: Path, seed: int, train_count: int, test_count: int) -> dict:
    """Write train/test IDX pairs into `directory`; return the dataset config section."""
    directory.mkdir(parents=True, exist_ok=True)
    spec = {"kind": "idx"}
    for split, (name, count) in enumerate((("train", train_count), ("test", test_count))):
        image_file, label_file = idx_bytes(*make_split(seed, split, count))
        images_path = directory / f"{name}-images.idx3-ubyte"
        labels_path = directory / f"{name}-labels.idx1-ubyte"
        images_path.write_bytes(image_file)
        labels_path.write_bytes(label_file)
        spec[f"{name}_images"] = str(images_path)
        spec[f"{name}_labels"] = str(labels_path)
    return spec
