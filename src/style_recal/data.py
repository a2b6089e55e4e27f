"""Dataset ingestion and generation.

Covers the 32x32 binary image-batch format (3073-byte records: one label byte
followed by 3072 channel-major pixel bytes), a deterministic synthetic dataset
whose labels are carried entirely by global per-channel statistics, and
training-time pad-crop/flip augmentation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import read_container, write_container

__all__ = [
    "Dataset",
    "SynthStyleSpec",
    "DataError",
    "CIFAR_MEAN",
    "CIFAR_STD",
    "load_cifar10",
    "synth_style",
    "synth_class_targets",
    "augment",
    "save_dataset",
    "load_dataset",
    "iterate_batches",
]

# Standard published per-channel statistics; the ingest normalizes with these.
CIFAR_MEAN = (0.4914, 0.4822, 0.4465)
CIFAR_STD = (0.2470, 0.2435, 0.2616)

_RECORD_BYTES = 3073
_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
_TEST_FILES = ["test_batch.bin"]


class DataError(ValueError):
    """Malformed dataset input."""


@dataclass
class Dataset:
    images: np.ndarray  # (N, C, H, W) float32
    labels: np.ndarray  # (N,) int64 in [0, num_classes)
    split: str
    num_classes: int

    def __post_init__(self):
        if self.labels.ndim != 1:
            raise DataError(f"dataset: labels have shape {self.labels.shape}, not one class id per image")
        if self.images.ndim != 4 or self.images.shape[0] != self.labels.shape[0]:
            raise DataError(f"dataset: images {self.images.shape} vs labels {self.labels.shape}")
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise DataError(f"dataset: labels are {self.labels.dtype}, not integer class ids")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise DataError("dataset: labels out of range")

    def __len__(self) -> int:
        return self.images.shape[0]

    def require_classes(self, num_classes: int) -> None:
        """Raise DataError if the set has more classes than a model's ``num_classes`` outputs."""
        if self.num_classes > num_classes:
            raise DataError(f"the {self.split} set has {self.num_classes} classes, more than the model's {num_classes}")


def _find_batch_dir(path: str | Path) -> Path:
    p = Path(path)
    if (p / _TRAIN_FILES[0]).exists():
        return p
    nested = p / "cifar-10-batches-bin"
    if (nested / _TRAIN_FILES[0]).exists():
        return nested
    raise DataError(f"{path}: no binary batch files found (expected {_TRAIN_FILES[0]} etc.)")


def _parse_records(path: Path) -> tuple[np.ndarray, np.ndarray]:
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0 or raw.size % _RECORD_BYTES != 0:
        raise DataError(f"{path}: size {raw.size} is not a multiple of the {_RECORD_BYTES}-byte record")
    records = raw.reshape(-1, _RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        raise DataError(f"{path}: label byte {labels[bad[0]]} > 9 at record {bad[0]} (offset {bad[0] * _RECORD_BYTES})")
    images = records[:, 1:].reshape(-1, 3, 32, 32)
    return images, labels


def load_cifar10(path: str | Path, split: str = "train", normalize: bool = True) -> Dataset:
    """Load the binary-batch image set from a directory of *_batch files."""
    if split not in ("train", "test"):
        raise DataError(f"unknown split {split!r}")
    directory = _find_batch_dir(path)
    files = _TRAIN_FILES if split == "train" else _TEST_FILES
    parts = []
    for fname in files:
        fpath = directory / fname
        if not fpath.exists():
            raise DataError(f"{directory}: missing batch file {fname}")
        parts.append(_parse_records(fpath))
    images = np.concatenate([p[0] for p in parts]).astype(np.float32) / 255.0
    labels = np.concatenate([p[1] for p in parts])
    if normalize:
        mean = np.asarray(CIFAR_MEAN, dtype=np.float32).reshape(1, 3, 1, 1)
        std = np.asarray(CIFAR_STD, dtype=np.float32).reshape(1, 3, 1, 1)
        images = (images - mean) / std
    return Dataset(images=images, labels=labels, split=split, num_classes=10)


@dataclass(frozen=True)
class SynthStyleSpec:
    """Deterministic style-discriminable dataset: labels live in global stats.

    Every image is smoothed white noise rescaled so that each channel's
    empirical mean and biased standard deviation equal the class target plus
    a bounded per-image jitter (uniform in [-jitter, +jitter]). Spatial
    structure therefore carries no label information, and a nearest-neighbor
    rule on pooled (mean, std) recovers every label as long as class targets
    stay pairwise separated by at least four jitter scales.
    """

    num_classes: int = 4
    per_class: int = 128
    size: int = 16
    channels: int = 3
    # Defaults: equal means and a 0.5-spaced std ladder, so the whole label
    # signal lives in the dispersion statistic.
    class_means: tuple[float, ...] | None = None
    class_stds: tuple[float, ...] | None = None
    jitter: float = 0.08
    seed: int = 0

    def __post_init__(self):
        # size >= 2: a 1x1 channel has std 0, and its rescaled noise would be 0/0.
        for name, least in (("num_classes", 1), ("per_class", 1), ("size", 2), ("channels", 1), ("jitter", 0)):
            if getattr(self, name) < least:
                raise DataError(f"synth spec: {name} must be >= {least}, got {getattr(self, name)}")
        if self.class_means is None:
            object.__setattr__(self, "class_means", tuple(0.0 for _ in range(self.num_classes)))
        if self.class_stds is None:
            object.__setattr__(self, "class_stds", tuple(0.5 + 0.5 * k for k in range(self.num_classes)))
        if len(self.class_means) != self.num_classes or len(self.class_stds) != self.num_classes:
            raise DataError("synth spec: need one (mean, std) target per class")
        if min(self.class_stds) - self.jitter <= 0:
            raise DataError("synth spec: std targets must stay positive under jitter")
        targets = synth_class_targets(self)
        for i in range(self.num_classes):
            for j in range(i + 1, self.num_classes):
                gap = float(np.linalg.norm(targets[i] - targets[j]))
                if gap < 4.0 * self.jitter:
                    raise DataError(
                        f"synth spec: classes {i} and {j} separated by {gap:.3f} < 4 x jitter {self.jitter}"
                    )


def synth_class_targets(spec: SynthStyleSpec) -> np.ndarray:
    """(K, 2) array of per-class (mean, std) targets."""
    return np.stack([np.asarray(spec.class_means), np.asarray(spec.class_stds)], axis=1)


def _box_filter(noise: np.ndarray) -> np.ndarray:
    """3x3 box smoothing with reflect padding, applied per channel."""
    padded = np.pad(noise, ((0, 0), (1, 1), (1, 1)), mode="reflect")
    out = np.zeros_like(noise)
    for di in range(3):
        for dj in range(3):
            out += padded[:, di : di + noise.shape[1], dj : dj + noise.shape[2]]
    return out / 9.0


def synth_style(spec: SynthStyleSpec, split: str = "train") -> Dataset:
    """Generate the synthetic set; identical spec and seed give identical bytes."""
    rng = np.random.default_rng((spec.seed, 0 if split == "train" else 1))
    n = spec.num_classes * spec.per_class
    images = np.empty((n, spec.channels, spec.size, spec.size), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    idx = 0
    for k in range(spec.num_classes):
        for _ in range(spec.per_class):
            noise = _box_filter(rng.standard_normal((spec.channels, spec.size, spec.size)))
            mu = noise.mean(axis=(1, 2), keepdims=True)
            sd = noise.std(axis=(1, 2), keepdims=True)
            target_mu = spec.class_means[k] + rng.uniform(-spec.jitter, spec.jitter)
            target_sd = spec.class_stds[k] + rng.uniform(-spec.jitter, spec.jitter)
            images[idx] = ((noise - mu) / sd * target_sd + target_mu).astype(np.float32)
            labels[idx] = k
            idx += 1
    return Dataset(images=images, labels=labels, split=split, num_classes=spec.num_classes)


def augment(batch: np.ndarray, policy: str, rng: np.random.Generator) -> np.ndarray:
    """Train-time augmentation: 4-pixel zero pad, random crop back, random h-flip."""
    if policy == "none":
        return batch
    if policy != "pad-crop-flip":
        raise DataError(f"unknown augmentation policy {policy!r}")
    n, c, h, w = batch.shape
    padded = np.pad(batch, ((0, 0), (0, 0), (4, 4), (4, 4)))
    out = np.empty_like(batch)
    offsets = rng.integers(0, 9, size=(n, 2))
    flips = rng.random(n) < 0.5
    for i in range(n):
        oy, ox = offsets[i]
        crop = padded[i, :, oy : oy + h, ox : ox + w]
        out[i] = crop[:, :, ::-1] if flips[i] else crop
    return out


def save_dataset(path: str | Path, dataset: Dataset) -> None:
    write_container(
        path,
        {"images": dataset.images.astype(np.float32), "labels": dataset.labels.astype(np.int64)},
        meta={
            "kind": "dataset",
            "split": dataset.split,
            "num_classes": dataset.num_classes,
            "dims": list(dataset.images.shape),
        },
    )


def load_dataset(path: str | Path) -> Dataset:
    entries, meta = read_container(path)
    if meta.get("kind") != "dataset" or "images" not in entries or "labels" not in entries:
        raise DataError(f"{path}: not a dataset container")
    try:
        return Dataset(
            images=entries["images"],
            labels=entries["labels"],
            split=meta.get("split", "train"),
            num_classes=int(meta["num_classes"] if "num_classes" in meta else entries["labels"].max() + 1),
        )
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def resolve_data_path(explicit: str | None) -> str:
    """CLI helper: --data flag wins, then the STYLE_RECAL_DATA environment root."""
    if explicit:
        return explicit
    env = os.environ.get("STYLE_RECAL_DATA")
    if env:
        return env
    raise DataError("no dataset path: pass --data or set STYLE_RECAL_DATA")


def iterate_batches(dataset: Dataset, batch_size: int):
    """(images, labels) batches in dataset order, as views of its arrays."""
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    return ((dataset.images[start : start + batch_size], dataset.labels[start : start + batch_size])
            for start in range(0, len(dataset), batch_size))
