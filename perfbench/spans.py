"""In-memory span recorder and the wrappers that feed it.

Spans are recorded from outside the program: ``instrument`` replaces the
public entry points of each ``style_recal`` module with timing wrappers for
the duration of a ``with`` block and restores the originals on exit, so code
outside the block runs unwrapped. Spans nest by call stack (one thread), and
a span's self time is its duration minus the durations of its direct
children.

Training steps have no function of their own, so the recorder opens a
``train.step`` span when ``train()`` fetches a batch from a dataset wrapped by
``TimedImages`` and closes it when ``SGD.step`` returns.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

STEP = "train.step"


@dataclass
class Span:
    name: str
    start: float
    end: float | None = None
    parent: int | None = None
    attrs: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Recorder:
    """Collects spans; ``open``/``close`` keep a stack of the spans in progress."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, attrs=attrs))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        """Close span ``idx`` and any span still open above it on the stack."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            span = self.spans[top]
            span.end = now
            if span.parent is not None:
                self.spans[span.parent].child_time += span.duration
            if top == idx:
                return
        raise RuntimeError(f"span {idx} closed but not open")

    def close_open(self, name: str) -> None:
        """Close the innermost open span if it is called ``name``."""
        if self._stack and self.spans[self._stack[-1]].name == name:
            self.close(self._stack[-1])

    def to_rows(self) -> list[list]:
        """Spans as JSON-ready rows: name, start, end, parent, numeric attributes."""
        return [[s.name, s.start, s.end, s.parent,
                 {k: v for k, v in s.attrs.items() if isinstance(v, (int, float))}] for s in self.spans]


class TimedImages(np.ndarray):
    """Image array whose row fetches start a ``train.step`` span.

    Fetched batches come back as plain arrays, so nothing downstream of the
    fetch sees this subclass.
    """

    recorder: Recorder | None = None

    def __getitem__(self, key):
        rec = TimedImages.recorder
        if rec is None:
            return super().__getitem__(key).view(np.ndarray)
        rec.close_open(STEP)  # a step that never reached SGD.step
        rec.open(STEP)
        idx = rec.open("data.batch_wait")
        out = super().__getitem__(key).view(np.ndarray)
        rec.close(idx)
        return out


def conv_macs(layer, x) -> int:
    n, _, h, w = x.shape
    k, s, p = layer.kernel, layer.stride, layer.padding
    ho = (h + 2 * p - k) // s + 1
    wo = (w + 2 * p - k) // s + 1
    return n * layer.out_channels * layer.in_channels * k * k * ho * wo


def _file_mb(path) -> float:
    try:
        return os.path.getsize(path) / 1e6
    except OSError:
        return 0.0


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Wrap the public entry points of every ``style_recal`` module."""
    from style_recal import analysis, complexity, container, data, layers, models, recalib, tensor
    # The package re-exports the function train(), which shadows the submodule.
    train_mod = importlib.import_module("style_recal.train")

    saved: list[tuple[object, str, object]] = []

    def wrap(owner, attr: str, name: str, attrs=None, after=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = rec.open(name, **(attrs(*args, **kwargs) if attrs else {}))
            try:
                result = original(*args, **kwargs)
            finally:
                rec.close(idx)
                if after is not None:
                    after(idx, *args, **kwargs)
            return result

        saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def close_step(_idx, *args, **kwargs):
        rec.close_open(STEP)

    def read_attrs(path, *a, **k):
        return {"mb": _file_mb(path)}

    def write_after(idx, path, *a, **k):
        rec.spans[idx].attrs["mb"] = _file_mb(path)

    wrap(tensor.Tape, "backward", "tensor.Tape.backward", attrs=lambda tape, loss: {"records": len(tape)})
    wrap(train_mod, "cross_entropy", "tensor.cross_entropy")
    wrap(layers.Conv2d, "forward", "layers.Conv2d.fwd",
         attrs=lambda layer, x: {"macs": conv_macs(layer, x), "shape": x.shape, "layer": layer})
    wrap(layers.BatchNorm, "forward", "layers.BatchNorm.fwd",
         attrs=lambda layer, x: {"shape": x.shape, "layer": layer})
    wrap(layers.Linear, "forward", "layers.Linear.fwd")
    wrap(models, "global_pool", "layers.global_pool")
    wrap(recalib.StylePool, "forward", "recalib.StylePool.fwd")
    wrap(recalib.StyleIntegration, "forward", "recalib.StyleIntegration.fwd")
    wrap(recalib.MlpIntegration, "forward", "recalib.MlpIntegration.fwd")
    wrap(recalib.ChannelRecalib, "forward", "recalib.ChannelRecalib.fwd",
         attrs=lambda layer, x, *a, **k: {"shape": x.shape, "layer": layer})
    wrap(models.BasicBlock, "forward", "models.block")
    wrap(models.BottleneckBlock, "forward", "models.block")
    wrap(models.ResNet, "forward", "models.ResNet.fwd")
    wrap(train_mod, "train", "train.train")
    wrap(train_mod.SGD, "step", "train.SGD.step", after=close_step)
    wrap(train_mod, "save_checkpoint", "train.save_checkpoint")
    wrap(train_mod, "load_checkpoint", "train.load_checkpoint")
    wrap(train_mod, "evaluate", "train.evaluate")
    wrap(train_mod, "augment", "data.augment")
    wrap(data, "load_dataset", "data.load_dataset")
    for mod in (container, data, train_mod, analysis):
        wrap(mod, "read_container", "container.read", attrs=read_attrs)
        wrap(mod, "write_container", "container.write", after=write_after)
    for fn in ("prune_eval", "capture_record", "correlation_matrix", "top_overlap", "save_record", "load_record"):
        wrap(analysis, fn, "analysis." + fn)
    wrap(complexity, "count_flops", "complexity.count_flops")

    TimedImages.recorder = rec
    try:
        yield rec
    finally:
        TimedImages.recorder = None
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
