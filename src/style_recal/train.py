"""SGD training loop with step-wise learning-rate schedules and checkpointing.

Determinism contract: a run is a pure function of (model seed, train config,
dataset). Batch order and augmentation draws are derived statelessly from the
config seed and the step counter, so a run resumed from any logged checkpoint
reproduces the uninterrupted run bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .container import read_container, write_container
from .data import DataError, Dataset, augment, iterate_batches
from .models import ArchitectureConfig, GateTransform, ResNet, build_resnet
from .tensor import Tape, Tensor, cross_entropy, get_default_dtype, settle_runtime, using_dtype

__all__ = [
    "TrainConfig",
    "TrainResult",
    "SGD",
    "lr_at",
    "step_schedule",
    "cifar_recipe",
    "train",
    "evaluate",
    "eval_hits",
    "save_checkpoint",
    "load_checkpoint",
    "load_model",
    "config_hash",
]

_SHUFFLE_TAG = 101
_AUG_TAG = 102


@dataclass
class TrainConfig:
    steps: int = 500
    batch_size: int = 32
    lr: float | None = None  # the schedule's first rate; 0.1 without a schedule
    momentum: float = 0.9
    weight_decay: float = 1e-4
    schedule: list[tuple[int, float]] | None = None  # (step, lr) from step 0, strictly increasing
    seed: int = 0
    augment_policy: str = "none"
    log_every: int = 50
    eval_every: int = 0  # 0 disables mid-run evaluation

    def __post_init__(self):
        for name, least in (("steps", 0), ("batch_size", 2), ("log_every", 1), ("eval_every", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.schedule is None:
            self.schedule = [(0, 0.1 if self.lr is None else self.lr)]
        self.schedule = [(int(s), float(v)) for s, v in self.schedule]
        steps = [s for s, _ in self.schedule]
        if steps != sorted(set(steps)):
            raise ValueError(f"schedule steps must be strictly increasing, got {steps}")
        if steps[0] != 0:
            raise ValueError(f"schedule must start at step 0, got {steps}")
        first = self.schedule[0][1]
        if self.lr is not None and self.lr != first:
            raise ValueError(f"lr {self.lr} disagrees with the schedule's first rate {first}")
        self.lr = first
        if any(v <= 0 for _, v in self.schedule):
            raise ValueError(f"schedule learning rates must be positive, got {[v for _, v in self.schedule]}")
        if self.eval_every % self.log_every != 0:
            raise ValueError(f"eval_every ({self.eval_every}) must be a multiple of log_every ({self.log_every})")

    def trajectory_dict(self) -> dict:
        """Fields that define the parameter trajectory; the stopping horizon and
        logging cadence are excluded so a longer run can resume a shorter one."""
        d = asdict(self)
        for k in ("steps", "log_every", "eval_every"):
            d.pop(k)
        return d


def lr_at(schedule: list[tuple[int, float]], step: int) -> float:
    """Piecewise-constant rate of a schedule from step 0; a boundary's new value applies at that step."""
    if step < 0:
        raise ValueError("step must be >= 0")
    return max((boundary, value) for boundary, value in schedule if boundary <= step)[1]


def step_schedule(initial: float, boundaries: list[int]) -> list[tuple[int, float]]:
    sched = [(0, initial)]
    value = initial
    for b in boundaries:
        value *= 0.1
        sched.append((b, value))
    return sched


def cifar_recipe(seed: int = 0) -> TrainConfig:
    """64k iterations at batch 128; 0.2 divided by 10 at 32k and 48k steps."""
    return TrainConfig(
        steps=64000,
        batch_size=128,
        lr=0.2,
        momentum=0.9,
        weight_decay=1e-4,
        schedule=step_schedule(0.2, [32000, 48000]),
        seed=seed,
        augment_policy="pad-crop-flip",
        log_every=200,
    )


class SGD:
    """Momentum SGD with uniform weight decay over every trainable parameter.

    Update per parameter: g' = grad + wd * param; buf = momentum * buf + g';
    param <- param - lr * buf.
    """

    def __init__(self, named_params: dict, momentum: float = 0.9, weight_decay: float = 0.0):
        self.named_params = dict(named_params)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.buffers = {name: np.zeros_like(p.data) for name, p in self.named_params.items()}

    def zero_grad(self) -> None:
        for p in self.named_params.values():
            p.grad = None

    def step(self, lr: float) -> bool:
        """Apply one update; returns False (no mutation) if any grad is non-finite."""
        grads = {}
        for name, p in self.named_params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.isfinite(g).all():
                return False
            grads[name] = g
        for name, p in self.named_params.items():
            g = grads[name]
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            buf = self.buffers[name]
            buf *= self.momentum
            buf += g
            p.data -= lr * buf
        return True


@dataclass
class TrainResult:
    rows: list[dict] = field(default_factory=list)
    final_step: int = 0
    diverged: bool = False
    aborted_steps: int = 0
    checkpoint_path: Path | None = None
    metrics_path: Path | None = None


def config_hash(model_config: dict, train_config: dict) -> str:
    blob = json.dumps({"arch": model_config, "train": train_config}, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _model_state(model: ResNet, opt: SGD | None) -> dict[str, np.ndarray]:
    entries: dict[str, np.ndarray] = {}
    for name, p in model.named_parameters():
        entries["param." + name] = p.data
    for name, buf in model.named_buffers():
        entries["buffer." + name] = buf
    if opt is not None:
        for name, buf in opt.buffers.items():
            entries["opt." + name] = buf
    return entries


def save_checkpoint(path: str | Path, model: ResNet, opt: SGD | None, step: int, cfg_hash: str) -> None:
    meta = {"kind": "checkpoint", "step": step, "config_hash": cfg_hash, "arch": asdict(model.config)}
    write_container(path, _model_state(model, opt), meta=meta)


def _read_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    entries, meta = read_container(path)
    if meta.get("kind") != "checkpoint":
        raise ValueError(f"{path}: not a checkpoint container")
    return entries, meta


def load_model(path: str | Path) -> ResNet:
    """Build the architecture a checkpoint's meta records, in the dtype of its saved parameters, and
    restore its parameters and buffers."""
    entries, meta = _read_checkpoint(path)
    if "arch" not in meta:
        raise ValueError(f"{path}: checkpoint meta records no architecture; build the model "
                         "and restore it with load_checkpoint")
    dtype = next((v.dtype for k, v in entries.items() if k.startswith("param.")), get_default_dtype())
    with using_dtype(dtype):
        model = build_resnet(ArchitectureConfig.from_dict(meta["arch"]))
    _apply_state(model, None, entries, str(path))
    return model


def load_checkpoint(path: str | Path, model: ResNet, opt: SGD | None = None,
                    expect_hash: str | None = None) -> int:
    """Restore parameters, buffers, and optimizer state in place; returns the step."""
    entries, meta = _read_checkpoint(path)
    if expect_hash is not None and meta.get("config_hash") not in (None, expect_hash):
        raise ValueError(f"{path}: checkpoint config hash {meta.get('config_hash')} != expected {expect_hash}")
    _apply_state(model, opt, entries, str(path))
    return int(meta["step"])


def _apply_state(model: ResNet, opt: SGD | None, entries: dict[str, np.ndarray], source: str) -> None:
    """Copy saved entries into the model's (and the optimizer's) arrays in place.

    Nothing is written unless the key sets, shapes and dtypes match exactly; otherwise a
    ValueError names every missing, unexpected, shape-mismatched and dtype-mismatched entry.
    ``opt.*`` entries take part only when an optimizer is given.
    """
    targets = _model_state(model, opt)
    saved = {k: v for k, v in entries.items() if opt is not None or not k.startswith("opt.")}
    missing = sorted(targets.keys() - saved.keys())
    unexpected = sorted(saved.keys() - targets.keys())
    # Checkpoints written before the container kept ndim 0 store a 0-d array with shape (1,).
    mismatched = [f"{k} {saved[k].shape} vs {v.shape}" for k, v in targets.items()
                  if k in saved and np.atleast_1d(saved[k]).shape != np.atleast_1d(v).shape]
    retyped = [f"{k} {saved[k].dtype} vs {v.dtype}" for k, v in targets.items()
               if k in saved and saved[k].dtype != v.dtype]
    if missing or unexpected or mismatched or retyped:
        raise ValueError(f"{source}: state does not match the model; missing {missing}; "
                         f"unexpected {unexpected}; shape mismatch {mismatched}; dtype mismatch {retyped}")
    for k, v in targets.items():
        v[...] = saved[k]


def eval_hits(model: ResNet, dataset: Dataset, batch_size: int = 256,
              gate_transform: GateTransform | None = None) -> int:
    """Correct top-1 predictions over the full set in eval mode; ``gate_transform`` goes to every forward.

    The one batched eval-mode loop. A label beyond the model's outputs is a miss; an empty set raises DataError.
    Like ``train()``, it settles the runtime first, so each batch reuses the last one's freed pages.
    """
    if len(dataset) == 0:
        raise DataError(f"the {dataset.split} set is empty")
    settle_runtime()
    was_training = model.training
    model.eval()
    correct = 0
    try:
        for images, labels in iterate_batches(dataset, batch_size):
            logits = model(Tensor(images), gate_transform=gate_transform)
            correct += int((logits.data.argmax(axis=1) == labels).sum())
    finally:
        if was_training:
            model.train()
    return correct


def evaluate(model: ResNet, dataset: Dataset, batch_size: int = 256,
             gate_transform: GateTransform | None = None) -> float:
    """Top-1 accuracy of ``eval_hits``; DataError for a set with more classes than the model outputs."""
    dataset.require_classes(model.config.num_classes)
    return eval_hits(model, dataset, batch_size, gate_transform) / len(dataset)


def _check_sets(num_classes: int, dataset: Dataset, batch_size: int, eval_dataset: Dataset | None) -> None:
    """DataError unless a run can use its sets: neither has more classes than the model's outputs,
    the training set holds a batch and the eval set is not empty. ``train`` checks before the first
    step, so a set that cannot be used costs no steps; the CLI checks before it writes anything."""
    dataset.require_classes(num_classes)
    if eval_dataset is not None:
        eval_dataset.require_classes(num_classes)
        if len(eval_dataset) == 0:
            raise DataError(f"the {eval_dataset.split} set is empty")
    if len(dataset) < batch_size:
        raise DataError(f"the {dataset.split} set has {len(dataset)} examples, fewer than the batch size {batch_size}")


def train(model: ResNet, dataset: Dataset, cfg: TrainConfig, out_dir: str | Path | None = None,
          eval_dataset: Dataset | None = None, resume_from: str | Path | None = None,
          stop_when=None) -> TrainResult:
    """Run the loop; logs per-interval metrics and checkpoints at log boundaries.

    ``stop_when``, if given, is called with each logged row and ends the run
    early when it returns True (the history up to that point is unchanged).
    A step whose gradients SGD refuses counts in ``aborted_steps`` and leaves
    the parameters, the momentum and the BN running statistics as they were.
    """
    settle_runtime()
    _check_sets(model.config.num_classes, dataset, cfg.batch_size, eval_dataset)
    n = len(dataset)
    steps_per_epoch = n // cfg.batch_size  # partial trailing batches are dropped

    opt = SGD(dict(model.named_parameters()), momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    chash = config_hash(asdict(model.config), cfg.trajectory_dict())
    start_step = 0
    if resume_from is not None:
        start_step = load_checkpoint(resume_from, model, opt, expect_hash=chash)
    result = TrainResult(final_step=start_step)
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        result.checkpoint_path = out_path / "checkpoint.bin"
        result.metrics_path = out_path / "metrics.csv"

    # Restored on a non-finite loss: the starting state, then the state at each log boundary.
    last_good = {k: v.copy() for k, v in _model_state(model, opt).items()}
    window_loss: list[float] = []
    window_hits = 0
    window_count = 0
    perm = None
    perm_epoch = -1

    model.train()
    for step in range(start_step, cfg.steps):
        epoch, pos = divmod(step, steps_per_epoch)
        if epoch != perm_epoch:
            perm = np.random.default_rng((cfg.seed, _SHUFFLE_TAG, epoch)).permutation(n)
            perm_epoch = epoch
        sel = perm[pos * cfg.batch_size : (pos + 1) * cfg.batch_size]
        images = dataset.images[sel]
        labels = dataset.labels[sel]
        if cfg.augment_policy != "none":
            images = augment(images, cfg.augment_policy, np.random.default_rng((cfg.seed, _AUG_TAG, step)))

        lr = lr_at(cfg.schedule, step)
        opt.zero_grad()
        # The forward moves the BN running statistics; a step SGD refuses puts them back.
        stats = [buf.copy() for _, buf in model.named_buffers()]
        with Tape() as tape:
            logits = model(Tensor(images))
            loss = cross_entropy(logits, labels)
        if not np.isfinite(loss.data).all():
            result.diverged = True
            result.final_step = step
            _apply_state(model, opt, last_good, "last good state")
            break
        tape.backward(loss)
        if not opt.step(lr):
            result.aborted_steps += 1
            for (_, buf), saved in zip(model.named_buffers(), stats):
                buf[...] = saved

        window_loss.append(float(loss.data))
        window_hits += int((logits.data.argmax(axis=1) == labels).sum())
        window_count += len(labels)

        if (step + 1) % cfg.log_every == 0 or step + 1 == cfg.steps:
            row = {
                "step": step + 1,
                "lr": lr,
                "loss": sum(window_loss) / len(window_loss),
                "top1": window_hits / window_count,
            }
            if eval_dataset is not None and cfg.eval_every and (step + 1) % cfg.eval_every == 0:
                row["test_top1"] = evaluate(model, eval_dataset)
            result.rows.append(row)
            window_loss, window_hits, window_count = [], 0, 0
            last_good = {k: v.copy() for k, v in _model_state(model, opt).items()}
            if result.checkpoint_path is not None:
                save_checkpoint(result.checkpoint_path, model, opt, step + 1, chash)
            result.final_step = step + 1
            if stop_when is not None and stop_when(row):
                break

    if result.metrics_path is not None:
        write_metrics_csv(result.metrics_path, result.rows)
    # Every run that steps ends at a log boundary or diverges; one that does not still leaves a checkpoint.
    if result.checkpoint_path is not None and start_step >= cfg.steps:
        save_checkpoint(result.checkpoint_path, model, opt, start_step, chash)
    return result


def write_metrics_csv(path: str | Path, rows: list[dict]) -> None:
    fields = ["step", "lr", "loss", "top1"]
    if any("test_top1" in r for r in rows):
        fields.append("test_top1")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items() if k in fields})
