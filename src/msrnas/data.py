"""Dataset ingestion and batching: CIFAR-10 binary files, a learnable
synthetic corpus, the deterministic train/val split, and augmentation."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ConfigError, FormatError

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3*32*32 pixel bytes
CIFAR_CLASSES = 10
CIFAR_TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
CIFAR_TEST_FILE = "test_batch.bin"


@dataclass
class Dataset:
    """Images in [0, 1] with integer labels and per-channel train statistics."""

    images: np.ndarray  # (M, 3, H, W) float
    labels: np.ndarray  # (M,) int64
    name: str = "dataset"
    mean: np.ndarray = field(default=None)
    std: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.images.ndim != 4 or self.images.shape[0] != self.labels.shape[0]:
            raise FormatError(
                f"images {self.images.shape} and labels {self.labels.shape} disagree"
            )
        if self.mean is None:
            self.mean = self.images.mean(axis=(0, 2, 3))
        if self.std is None:
            std = self.images.std(axis=(0, 2, 3))
            self.std = np.where(std > 1e-8, std, 1.0)

    def __len__(self):
        return self.images.shape[0]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    def subset(self, indices: np.ndarray, name: str | None = None) -> "Dataset":
        """View onto selected samples; inherits the parent's statistics."""
        return Dataset(
            images=self.images[indices],
            labels=self.labels[indices],
            name=name or self.name,
            mean=self.mean,
            std=self.std,
        )


@dataclass
class SplitSpec:
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must lie strictly between 0 and 1")
        if self.seed < 0:
            raise ConfigError(f"split seed must be non-negative, got {self.seed}")


# CIFAR-10 binary format ------------------------------------------------------


def read_cifar_batch(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse one binary batch into (labels uint8, pixels uint8 (M,3,32,32))."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read CIFAR batch {path}: {exc}") from exc
    if len(raw) % CIFAR_RECORD_BYTES:
        offset = len(raw) - (len(raw) % CIFAR_RECORD_BYTES)
        raise FormatError(
            f"{path}: truncated record at byte offset {offset} "
            f"(file length {len(raw)} not divisible by {CIFAR_RECORD_BYTES})"
        )
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0].copy()
    bad = np.flatnonzero(labels >= CIFAR_CLASSES)
    if bad.size:
        raise FormatError(
            f"{path}: record {bad[0]} (byte offset {bad[0] * CIFAR_RECORD_BYTES}) "
            f"has label {labels[bad[0]]}, expected 0..{CIFAR_CLASSES - 1}"
        )
    pixels = records[:, 1:].reshape(-1, 3, 32, 32).copy()
    return labels, pixels


def load_cifar10(dir_path, dtype=np.float32) -> tuple[Dataset, Dataset]:
    """Load the standard binary batches; stats computed from the train corpus."""
    train_parts = []
    for fname in CIFAR_TRAIN_FILES:
        path = os.path.join(dir_path, fname)
        if not os.path.exists(path):
            raise FormatError(f"missing CIFAR batch file {path}")
        train_parts.append(read_cifar_batch(path))
    labels = np.concatenate([lab for lab, _ in train_parts]).astype(np.int64)
    pixels = np.concatenate([pix for _, pix in train_parts])
    train_images = pixels.astype(dtype) / 255.0
    train = Dataset(images=train_images, labels=labels, name="cifar10-train")
    test_labels, test_pixels = read_cifar_batch(
        os.path.join(dir_path, CIFAR_TEST_FILE)
    )
    test = Dataset(
        images=test_pixels.astype(dtype) / 255.0,
        labels=test_labels.astype(np.int64),
        name="cifar10-test",
        mean=train.mean,
        std=train.std,
    )
    return train, test


# Splitting -------------------------------------------------------------------


def split_train_val(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive, seed-deterministic split with floor(f*M) train."""
    m = len(ds)
    if m < 2:
        raise ArgumentError("cannot split a dataset with fewer than 2 samples")
    order = np.random.Generator(np.random.PCG64(spec.seed)).permutation(m)
    cut = int(spec.train_fraction * m)
    if not 0 < cut < m:
        raise ArgumentError(
            f"train_fraction {spec.train_fraction} splits {m} samples into "
            f"{cut} train and {m - cut} validation; both must be non-empty"
        )
    return (ds.subset(np.sort(order[:cut]), f"{ds.name}-train"),
            ds.subset(np.sort(order[cut:]), f"{ds.name}-val"))


# Synthetic corpus ------------------------------------------------------------


def synth_dataset(classes: int, samples_per_class: int, height: int = 16,
                  width: int = 16, seed: int = 0, noise: float = 0.1,
                  dtype=np.float32) -> Dataset:
    """Class-conditional oriented sinusoid patterns plus noise.

    Each class owns a distinct spatial frequency and orientation; all
    per-sample variation (phase and amplitude jitter, additive noise) scales
    with `noise`, so noise=0 makes within-class images identical. Frequencies
    differ per class, which keeps labels invariant under flips and crops.
    """
    if height < 8 or width < 8:
        raise ArgumentError("synthetic images must be at least 8x8")
    if classes < 2 or samples_per_class < 1:
        raise ArgumentError("need >= 2 classes and >= 1 sample per class")
    rng = np.random.Generator(np.random.PCG64([seed & 0xFFFFFFFF, 0x57AB]))
    ys, xs = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    scale = float(max(height, width))
    images = np.empty((classes * samples_per_class, 3, height, width), dtype=np.float64)
    labels = np.empty(classes * samples_per_class, dtype=np.int64)
    channel_phase = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
    for k in range(classes):
        theta = np.pi * k / classes
        freq = 1.5 + 0.75 * k
        coord = (np.cos(theta) * xs + np.sin(theta) * ys) / scale
        base_angle = 2.0 * np.pi * freq * coord
        for s in range(samples_per_class):
            i = k * samples_per_class + s
            phase = rng.uniform(-2.0, 2.0) * noise
            amp = 0.35 * (1.0 + rng.uniform(-1.0, 1.0) * noise)
            img = 0.5 + amp * np.sin(
                base_angle[None, :, :] + channel_phase[:, None, None] + phase
            )
            img = img + noise * rng.standard_normal((3, height, width))
            images[i] = np.clip(img, 0.0, 1.0)
            labels[i] = k
    return Dataset(images=images.astype(dtype), labels=labels, name="synth")


# Batching and augmentation ---------------------------------------------------


def flip_horizontal(images: np.ndarray) -> np.ndarray:
    """Mirror the width axis; applying it twice restores the input."""
    return images[..., ::-1]


def pad_crop(images: np.ndarray, offsets: np.ndarray, pad: int = 4) -> np.ndarray:
    """Random-crop after zero padding; offsets are (M, 2) in [0, 2*pad]."""
    m, c, h, w = images.shape
    padded = np.zeros((m, c, h + 2 * pad, w + 2 * pad), dtype=images.dtype)
    padded[:, :, pad: pad + h, pad: pad + w] = images
    out = np.empty_like(images)
    for i in range(m):
        oy, ox = offsets[i]
        out[i] = padded[i, :, oy: oy + h, ox: ox + w]
    return out


def batches(ds: Dataset, batch_size: int, shuffle_seed: int | None = None,
            augment: bool = False):
    """Yield normalized (images, labels) covering every sample exactly once.

    The same seed reproduces the same order and augmentation draws;
    shuffle_seed=None keeps dataset order.
    """
    if batch_size < 1:
        raise ArgumentError("batch_size must be at least 1")
    m = len(ds)
    if shuffle_seed is None:
        order = np.arange(m)
        aug_rng = np.random.Generator(np.random.PCG64(0))
    else:
        gen = np.random.Generator(np.random.PCG64(shuffle_seed))
        order = gen.permutation(m)
        aug_rng = gen
    mean = ds.mean.reshape(1, 3, 1, 1).astype(ds.images.dtype)
    std = ds.std.reshape(1, 3, 1, 1).astype(ds.images.dtype)
    for start in range(0, m, batch_size):
        idx = order[start: start + batch_size]
        imgs = ds.images[idx]
        if augment:
            offsets = aug_rng.integers(0, 9, size=(len(idx), 2))
            imgs = pad_crop(imgs, offsets)
            flips = aug_rng.random(len(idx)) < 0.5
            if flips.any():
                imgs = imgs.copy()
                imgs[flips] = flip_horizontal(imgs[flips])
        yield ((imgs - mean) / std).astype(ds.images.dtype), ds.labels[idx]
