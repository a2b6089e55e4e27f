"""Post-hoc analyses over captured channel gates.

Capture an AnalysisRecord by running an evaluation set through a model in
eval (or folded) mode; every recalibration layer contributes one matrix of
per-image gate vectors. On top of the record: dynamic per-image channel
pruning, Pearson correlation statistics between channel gates, and retrieval
of the images that drive each channel hardest.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .container import read_container, write_container
from .data import Dataset
from .models import ResNet
from .train import eval_hits, evaluate

__all__ = [
    "AnalysisRecord",
    "capture_record",
    "prune_gate_transform",
    "prune_eval",
    "correlation_matrix",
    "sum_squared_corr",
    "top_activated",
    "top_overlap",
    "jaccard_overlap",
    "save_record",
    "load_record",
]


@dataclass
class AnalysisRecord:
    """Per-layer matrices of per-image gate vectors, all over the same image set."""

    gates: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    image_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __post_init__(self):
        rows = {g.shape[0] for g in self.gates.values()}
        if len(rows) > 1:
            raise ValueError(f"analysis record: inconsistent row counts {rows}")
        if self.gates and rows != {len(self.image_ids)}:
            raise ValueError("analysis record: image id count does not match gate rows")

    @property
    def layers(self) -> list[tuple[int, int]]:
        return sorted(self.gates)

    def __len__(self) -> int:
        return len(self.image_ids)


def capture_record(model: ResNet, dataset: Dataset, batch_size: int = 256) -> AnalysisRecord:
    """Eval pass over the set, recording every layer's gate vector per image."""
    if not model.recalib_layers():
        warnings.warn("capture requested on a model without recalibration layers; record is empty")
    chunks: dict[tuple[int, int], list[np.ndarray]] = {}

    def record(stage_idx: int, block_idx: int, g: np.ndarray) -> np.ndarray:
        chunks.setdefault((stage_idx, block_idx), []).append(g.copy())
        return g

    eval_hits(model, dataset, batch_size, gate_transform=record)
    gates = {key: np.concatenate(parts) for key, parts in chunks.items()}
    return AnalysisRecord(gates=gates, image_ids=np.arange(len(dataset), dtype=np.int64))


def prune_gate_transform(stage: int, ratio: float):
    """Gate transform zeroing each image's floor(ratio * C) lowest-gate channels.

    The zeroing is dynamic: thresholds are recomputed from each image's own
    gates. Forcing a gate to zero is equivalent to filling the pruned channel
    with zeros after recalibration.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"prune ratio must be in [0, 1], got {ratio}")

    def transform(stage_idx: int, block_idx: int, g: np.ndarray) -> np.ndarray:
        if stage_idx != stage:
            return g
        count = int(np.floor(ratio * g.shape[1]))
        if count == 0:
            return g
        out = g.copy()
        order = np.argsort(g, axis=1, kind="stable")  # ascending gate value
        rows = np.arange(g.shape[0])[:, None]
        out[rows, order[:, :count]] = 0.0
        return out

    return transform


def prune_eval(model: ResNet, dataset: Dataset, stage: int, ratio: float,
               batch_size: int = 256) -> float:
    """Top-1 accuracy with per-image dynamic pruning applied to one stage."""
    stages_with_recalib = {si for si, _, _ in model.recalib_layers()}
    if stage not in stages_with_recalib:
        raise ValueError(f"stage {stage} has no recalibration layers (recalibrated stages: {sorted(stages_with_recalib)})")
    return evaluate(model, dataset, batch_size, gate_transform=prune_gate_transform(stage, ratio))


def correlation_matrix(record: AnalysisRecord, layer: tuple[int, int]) -> np.ndarray:
    """Pearson correlation across images between every channel pair at a layer.

    Channels with zero gate variance cannot be correlated; every entry
    involving such a channel is 0 by convention (flagged with a warning).
    """
    g = record.gates[layer]
    if g.shape[0] < 2:
        raise ValueError(f"correlation needs >= 2 images, record has {g.shape[0]}")
    g = g.astype(np.float64)
    centered = g - g.mean(axis=0)
    std = centered.std(axis=0)
    constant = std == 0.0
    if constant.any():
        warnings.warn(f"layer {layer}: {int(constant.sum())} constant-gate channels assigned correlation 0")
    denom = np.where(constant, 1.0, std)
    normalized = centered / denom
    corr = normalized.T @ normalized / g.shape[0]
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    return np.clip(corr, -1.0, 1.0)


def sum_squared_corr(record: AnalysisRecord) -> float:
    """Sum over layers of the squared channel-gate correlation coefficients."""
    total = 0.0
    for layer in record.layers:
        corr = correlation_matrix(record, layer)
        total += float((corr * corr).sum())
    return total


def top_activated(record: AnalysisRecord, layer: tuple[int, int], channel: int, k: int) -> np.ndarray:
    """Ids of the k images with the highest gate for a channel, descending.

    Ties break toward the lower image index.
    """
    g = record.gates[layer][:, channel]
    if k > g.shape[0]:
        raise ValueError(f"k={k} exceeds record size {g.shape[0]}")
    order = np.lexsort((record.image_ids, -g))
    return record.image_ids[order[:k]]


def top_overlap(record: AnalysisRecord, layer: tuple[int, int], k: int = 1) -> float:
    """Mean pairwise Jaccard overlap of per-channel top-k image sets.

    Lower values mean channels respond to more diverse images.
    """
    return jaccard_overlap([top_activated(record, layer, c, k) for c in range(record.gates[layer].shape[1])])


def jaccard_overlap(id_lists) -> float:
    """Mean Jaccard overlap over every pair of id sets, in (i, j > i) order; 0 for fewer than two."""
    sets = [set(ids.tolist()) for ids in id_lists]
    total, pairs = 0.0, 0
    for i, a in enumerate(sets):
        for b in sets[i + 1:]:
            total += len(a & b) / len(a | b)
            pairs += 1
    return total / pairs if pairs else 0.0


def save_record(path, record: AnalysisRecord) -> None:
    entries = {f"gates.{si}.{bi}": g for (si, bi), g in record.gates.items()}
    entries["image_ids"] = record.image_ids
    write_container(path, entries, meta={"kind": "analysis_record"})


def load_record(path) -> AnalysisRecord:
    entries, meta = read_container(path)
    if meta.get("kind") != "analysis_record":
        raise ValueError(f"{path}: not an analysis record container")
    gates = {}
    for name, arr in entries.items():
        if name.startswith("gates."):
            _, si, bi = name.split(".")
            gates[(int(si), int(bi))] = arr
    return AnalysisRecord(gates=gates, image_ids=entries["image_ids"])
