"""The three benchmark workloads and the sessions that time them.

Every workload runs closed-loop in one process: each step or pass starts when
the previous one ends. The amount of work in a run is a fixed function of
``--seconds`` (through the nominal per-step and per-image costs below, which
were measured on a 2-core Haswell-class Xeon with single-threaded OpenBLAS),
never of elapsed time, so the same seed and ``--seconds`` always do the same
work and end in the same parameters. The program sees only the generated input files.
"""

from __future__ import annotations

import copy
import hashlib
import importlib
import json
import math
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from spans import STEP, Recorder, TimedImages, instrument
from style_recal import analysis, complexity, data, models, tensor

# The package re-exports the function train(), which shadows the submodule.
train_mod = importlib.import_module("style_recal.train")

NUM_CLASSES = 4
SETUP_REPS = 3
PRUNE_STAGE = 1
PRUNE_RATIOS = (0.0, 0.25, 0.5, 0.75, 1.0)
FOLD_CHECK_IMAGES = 32
# Criterion 4 bounds |g_folded - g_eval| by 1e-5; logits get the same bound
# relative to their magnitude.
FOLD_TOL = 1e-5
RECONCILE_TOL = 0.10
# Share of --seconds given to the timed training or analysis work.
WORK_SHARE = 0.6
# Share of --seconds given to the evaluate passes between the log intervals
# of train() on the train-* workloads, or to the train() that makes the analysed checkpoint on
# analyze-srm32, and the fewest passes whose median is reported. The rest
# covers input generation and set-up.
EVAL_SHARE = 0.25
MIN_EVAL_PASSES = 3


@dataclass(frozen=True)
class Plan:
    """Shapes and amounts of work for one run of one workload."""

    workload: str
    recalib: str | None
    size: int
    batch: int
    augment: str
    train_per_class: int
    test_per_class: int
    log_every: int
    warmup_steps: int
    steps: int
    eval_passes: int = 0
    analyze: bool = False
    inject_nonfinite: bool = False

    def fingerprint(self) -> str:
        return hashlib.sha256(json.dumps(asdict(self), sort_keys=True).encode()).hexdigest()[:16]


WORKLOADS = ("train-srm32", "train-plain16", "analyze-srm32")


def make_plan(workload: str, seconds: float, tiny: bool = False, inject_nonfinite: bool = False) -> Plan:
    """Fixed work for a run of about ``seconds``; ``tiny`` shrinks batches and sets for tests."""
    budget = WORK_SHARE * seconds

    def eval_passes(pass_s: float) -> int:
        return MIN_EVAL_PASSES if tiny else max(MIN_EVAL_PASSES, round(EVAL_SHARE * seconds / pass_s))

    if workload == "train-srm32":
        # ~3.1 s per step; page faults on fresh activation buffers slow the
        # first two steps of a process.
        batch = 8 if tiny else 128
        steps = 2 + (2 if tiny else max(3, round(budget / 3.1) - 1))
        return Plan(workload, "srm", 32, batch, "pad-crop-flip", 4 if tiny else 128, 2 if tiny else 32,
                    log_every=1, warmup_steps=2, steps=steps, eval_passes=eval_passes(0.92),  # 128 images
                    inject_nonfinite=inject_nonfinite)
    if workload == "train-plain16":
        batch, log_every = (4, 2) if tiny else (32, 10)
        intervals = 2 if tiny else max(2, round(budget / (0.15 * log_every)))  # ~0.15 s per step
        return Plan(workload, None, 16, batch, "none", 4 if tiny else 128, 2 if tiny else 128,
                    log_every=log_every, warmup_steps=log_every, steps=log_every * (1 + intervals),
                    eval_passes=eval_passes(0.69), inject_nonfinite=inject_nonfinite)  # 512 images
    if workload == "analyze-srm32":
        # The checkpoint comes from a train() at batch 32 (~0.66 s per step);
        # the session makes 3 + len(PRUNE_RATIOS) eval-mode passes at ~7.9 ms
        # per image.
        steps = 4 if tiny else 2 + max(3, round(EVAL_SHARE * seconds / 0.66))
        passes = 3 + len(PRUNE_RATIOS)
        per_class = 4 if tiny else max(16, 8 * round(budget / (passes * 0.0079) / NUM_CLASSES / 8))
        return Plan(workload, "srm", 32, 4 if tiny else 32, "none", 4 if tiny else 32, per_class,
                    log_every=1, warmup_steps=2, steps=steps, analyze=True, inject_nonfinite=inject_nonfinite)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


@dataclass
class Outcome:
    """What one session measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)  # per interval or pass
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def absorb(self, other: "Outcome") -> None:
        """Count another session's operations and failures as this one's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


@dataclass
class Inputs:
    """Generated input files plus the measurements taken while making them."""

    train_path: Path
    test_path: Path
    ckpt_path: Path
    # Only on analyze-srm32: the train() that writes the analysed checkpoint.
    producer_rates: list[float] = field(default_factory=list)
    producer_digest: str = ""
    checks: Outcome = field(default_factory=Outcome)


def model_config(plan: Plan):
    return models.cifar_resnet_config(20, recalib=plan.recalib, num_classes=NUM_CLASSES)


def _train_config(plan: Plan, seed: int) -> train_mod.TrainConfig:
    return train_mod.TrainConfig(steps=plan.steps, batch_size=plan.batch, lr=0.05, momentum=0.9,
                                 weight_decay=1e-4, seed=seed, augment_policy=plan.augment,
                                 log_every=plan.log_every)


def _param_digest(model) -> str:
    h = hashlib.sha256()
    for name, p in model.named_parameters():
        h.update(name.encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()


def _timed_train(plan: Plan, model, dataset, seed: int, out_dir: Path, between=None):
    """Run ``train()``; returns its result and the training images/s of each timed interval.

    ``between(k)``, if given, runs at the end of the k-th log interval; its
    time is left out of the intervals.
    """
    ends: list[float] = []  # when each log interval ended
    starts: list[float] = []  # when the next one started

    def stop_when(_row) -> bool:
        ends.append(time.perf_counter())
        if between is not None:
            between(len(ends) - 1)
        starts.append(time.perf_counter())
        return False

    start = time.perf_counter()
    result = train_mod.train(model, dataset, _train_config(plan, seed), out_dir=out_dir, stop_when=stop_when)
    warm = plan.warmup_steps // plan.log_every
    rates = [plan.batch * plan.log_every / (end - begin) for begin, end in zip(starts[warm - 1:], ends[warm:])]
    if not rates:  # the run stopped early; fall back to its overall rate
        done = max(result.final_step, 1)
        rates = [done * plan.batch / (time.perf_counter() - start)]
    return result, rates


def _check_training(out: Outcome, plan: Plan, result, what: str) -> None:
    """Each step is one operation; aborted, non-finite and never-run steps fail."""
    out.attempted += plan.steps
    bad = result.aborted_steps + (plan.steps - result.final_step if result.diverged else 0)
    bad += sum(not math.isfinite(row["loss"]) for row in result.rows)
    out.failed += bad
    if bad:
        out.failures.append(f"{what}: {result.aborted_steps} aborted steps, diverged={result.diverged} "
                            f"at step {result.final_step} of {plan.steps}")


def generate_inputs(plan: Plan, seed: int, work: Path) -> Inputs:
    """Write the seeded datasets and the checkpoint that set-up loads."""
    work.mkdir(parents=True, exist_ok=True)
    spec = data.SynthStyleSpec(num_classes=NUM_CLASSES, per_class=plan.train_per_class, size=plan.size, seed=seed)
    train_set = data.synth_style(spec, "train")
    if plan.inject_nonfinite:
        train_set.images[0, 0, 0, 0] = np.nan  # the first epoch fetches every image once
    test_spec = data.SynthStyleSpec(num_classes=NUM_CLASSES, per_class=plan.test_per_class, size=plan.size,
                                    seed=seed)
    test_set = data.synth_style(test_spec, "test")
    inputs = Inputs(work / "train.bin", work / "test.bin", work / "checkpoint.bin")
    data.save_dataset(inputs.train_path, train_set)
    data.save_dataset(inputs.test_path, test_set)
    model = models.build_resnet(model_config(plan), seed=seed)
    if plan.analyze:
        # The analysed checkpoint comes from a short seeded train(); its
        # throughput is this workload's train_images_per_s.
        result, rates = _timed_train(plan, model, train_set, seed, work / "producer")
        inputs.ckpt_path = result.checkpoint_path
        inputs.producer_rates, inputs.producer_digest = rates, _param_digest(model)
        _check_training(inputs.checks, plan, result, "checkpoint producer")
    else:
        train_mod.save_checkpoint(inputs.ckpt_path, model, None, 0, "init")
    return inputs


def _set_up(plan: Plan, seed: int, inputs: Inputs, rec: Recorder | None):
    """Load both datasets, build the model and load the checkpoint."""
    idx = rec.open("bench.setup") if rec else None
    start = time.perf_counter()
    train_set = data.load_dataset(inputs.train_path)
    test_set = data.load_dataset(inputs.test_path)
    model = models.build_resnet(model_config(plan), seed=seed)
    train_mod.load_checkpoint(inputs.ckpt_path, model)
    elapsed = time.perf_counter() - start
    if rec:
        rec.close(idx)
    return elapsed, train_set, test_set, model


def run_session(plan: Plan, seed: int, inputs: Inputs, work: Path, rec: Recorder | None = None) -> Outcome:
    """Set up ``SETUP_REPS`` times, then run the timed session on the last set-up."""
    out = Outcome()
    work.mkdir(parents=True, exist_ok=True)
    setups = [_set_up(plan, seed, inputs, rec) for _ in range(SETUP_REPS)]
    out.metrics["load_s"] = statistics.median(s[0] for s in setups)
    _, train_set, test_set, model = setups[-1]
    del setups
    if rec is not None:
        train_set = data.Dataset(images=train_set.images.view(TimedImages), labels=train_set.labels,
                                 split=train_set.split, num_classes=train_set.num_classes)
    idx = rec.open("bench.session") if rec else None
    start = time.perf_counter()
    if plan.analyze:
        _analysis_session(plan, model, test_set, work, out)
    else:
        _train_session(plan, seed, model, train_set, test_set, work, out)
    out.metrics["session_s"] = time.perf_counter() - start - out.metrics.pop("untimed_s", 0.0)
    if rec:
        rec.close(idx)
    if plan.analyze:
        out.samples["train_images_per_s"] = inputs.producer_rates
        out.metrics["train_images_per_s"] = statistics.median(inputs.producer_rates)
        out.digest = hashlib.sha256((inputs.producer_digest + out.digest).encode()).hexdigest()
    return out


def _train_session(plan, seed, model, train_set, test_set, work: Path, out: Outcome) -> None:
    eval_rates = []
    boundaries = plan.steps // plan.log_every

    def eval_pass() -> None:
        # At the training batch: at evaluate's default of 256 the 16x16 passes
        # are memory-bound and about a third slower per image.
        t = time.perf_counter()
        acc = train_mod.evaluate(model, test_set, batch_size=plan.batch)
        eval_rates.append(len(test_set) / (time.perf_counter() - t))
        out.check(0.0 <= acc <= 1.0, f"evaluate: accuracy {acc} outside [0, 1]")

    def eval_passes_at(k: int) -> None:
        # Spread evenly over the log boundaries, so that the passes sample the
        # whole run, as the training intervals do, and not only its end.
        for _ in range(sum(i * boundaries // plan.eval_passes == k for i in range(plan.eval_passes))):
            eval_pass()

    result, rates = _timed_train(plan, model, train_set, seed, work / "run", between=eval_passes_at)
    out.samples["train_images_per_s"] = rates
    out.metrics["train_images_per_s"] = statistics.median(rates)
    _check_training(out, plan, result, "train")
    while len(eval_rates) < plan.eval_passes:  # a run that stopped early skipped boundaries
        eval_pass()
    out.samples["eval_images_per_s"] = eval_rates
    out.metrics["eval_images_per_s"] = statistics.median(eval_rates)
    out.digest = _param_digest(model)


def _analysis_session(plan, model, test_set, work: Path, out: Outcome) -> None:
    images = len(test_set)
    eval_rates = []
    untimed = 0.0

    def timed(fn, *args, **kwargs):
        t = time.perf_counter()
        value = fn(*args, **kwargs)
        eval_rates.append(images / (time.perf_counter() - t))
        return value

    def logits(x, **kwargs):
        nonlocal untimed
        t = time.perf_counter()
        value = model(tensor.Tensor(x), **kwargs).data
        untimed += time.perf_counter() - t
        return value

    model.eval()  # evaluate() would hand the model back in train mode
    check_x = test_set.images[:FOLD_CHECK_IMAGES]
    acc_unfolded = timed(train_mod.evaluate, model, test_set)
    logits_unfolded = logits(check_x)
    folded = model.fold_bn()
    out.check(folded == len(model.recalib_layers()), f"fold_bn folded {folded} layers")
    acc_folded = timed(train_mod.evaluate, model, test_set)
    logits_folded = logits(check_x)
    scale = max(1.0, float(np.abs(logits_unfolded).max()))
    worst = float(np.abs(logits_folded - logits_unfolded).max())
    out.check(worst <= FOLD_TOL * scale, f"fold: max |logit diff| {worst:.3g} > {FOLD_TOL} x {scale:.3g}")

    prune = [timed(analysis.prune_eval, model, test_set, PRUNE_STAGE, r) for r in PRUNE_RATIOS]
    out.check(prune[0] == acc_folded, f"prune ratio 0 accuracy {prune[0]} != unpruned {acc_folded}")
    kept = logits(check_x, gate_transform=analysis.prune_gate_transform(PRUNE_STAGE, 0.0))
    out.check(np.array_equal(kept, logits_folded), "prune ratio 0 changes the logits")
    record = timed(analysis.capture_record, model, test_set)
    out.samples["eval_images_per_s"] = eval_rates
    out.metrics["eval_images_per_s"] = statistics.median(eval_rates)
    out.check(0.0 <= acc_unfolded <= 1.0, f"unfolded accuracy {acc_unfolded}")

    for layer in record.layers:
        corr = analysis.correlation_matrix(record, layer)
        varying = record.gates[layer].std(axis=0) > 0
        diag = np.diag(corr)
        ok = (np.array_equal(corr, corr.T) and bool(np.all(np.abs(corr) <= 1.0))
              and np.allclose(diag[varying], 1.0, rtol=0.0, atol=1e-6)
              and not corr[~varying].any())
        out.check(ok, f"correlation matrix of layer {layer}: not symmetric, unit-diagonal and in [-1, 1]")
        overlap = analysis.top_overlap(record, layer, k=1)
        out.check(0.0 <= overlap <= 1.0, f"top overlap of layer {layer}: {overlap}")
    path = work / "record.bin"
    analysis.save_record(path, record)

    t = time.perf_counter()
    back = analysis.load_record(path)
    same = (back.layers == record.layers and np.array_equal(back.image_ids, record.image_ids)
            and all(np.array_equal(back.gates[k], record.gates[k]) for k in record.layers))
    untimed += time.perf_counter() - t
    out.check(same, "analysis record does not round-trip through load_record")

    h = hashlib.sha256(path.read_bytes())
    h.update(json.dumps([acc_unfolded, acc_folded, prune]).encode())
    out.digest = h.hexdigest()
    out.metrics["untimed_s"] = untimed


# --- traced run ---------------------------------------------------------------

REPLAY_REPS = 3
_REPLAYED = {"layers.Conv2d.fwd": "layers.Conv2d.bwd_s", "layers.BatchNorm.fwd": "layers.BatchNorm.bwd_s",
             "recalib.ChannelRecalib.fwd": "recalib.ChannelRecalib.bwd_s"}


def _replay_backward(calls: list[tuple[str, object, tuple]]) -> dict[str, float]:
    """Backward time of each layer call, replayed at its shape under its own Tape.

    The loss head ``sum(y * G)`` feeds a dense upstream gradient; its own
    backward is timed alone on the same shape and subtracted.
    """
    rng = np.random.default_rng(0)
    totals = {metric: 0.0 for metric in _REPLAYED.values()}
    for name, layer, shape in calls:
        layer = copy.deepcopy(layer)  # train-mode BN forwards update running statistics
        x = tensor.Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
        full, head = [], []
        for _ in range(REPLAY_REPS):
            for p in layer.parameters():
                p.grad = None
            with tensor.Tape() as tape:
                y = layer(x)
                g = tensor.Tensor(rng.standard_normal(y.shape).astype(np.float32))
                loss = tensor.tsum(tensor.mul(y, g))
            t = time.perf_counter()
            tape.backward(loss)
            full.append(time.perf_counter() - t)
            leaf = tensor.Tensor(y.data, requires_grad=True)
            with tensor.Tape() as tape:
                loss = tensor.tsum(tensor.mul(leaf, g))
            t = time.perf_counter()
            tape.backward(loss)
            head.append(time.perf_counter() - t)
            x.grad = None
        totals[_REPLAYED[name]] += max(0.0, statistics.median(full) - statistics.median(head))
    return totals


# Reported metrics that are disjoint self times and together should cover a
# timed step, or (on analyze-srm32) the analysis session.
_LAYER_SELF_TIMES = ("layers.Conv2d.fwd_s", "layers.BatchNorm.fwd_s", "layers.Linear.fwd_s",
                     "recalib.StylePool.fwd_s", "recalib.StyleIntegration.fwd_s", "recalib.ChannelRecalib.self_s",
                     "models.block_glue_s")
_STEP_SELF_TIMES = _LAYER_SELF_TIMES + ("tensor.Tape.backward_s", "train.SGD.step_s", "data.batch_wait_s",
                                        "data.augment_s")
_SESSION_SELF_TIMES = _LAYER_SELF_TIMES + ("analysis.correlation_matrix_s", "analysis.top_overlap_s",
                                           "analysis.save_record_s")


def _enclosing(spans, name: str) -> list[int | None]:
    """For each span, the index of the nearest span called ``name`` among itself and its ancestors."""
    out: list[int | None] = []
    for i, s in enumerate(spans):
        out.append(i if s.name == name else (out[s.parent] if s.parent is not None else None))
    return out


def layer_metrics(plan: Plan, rec: Recorder, traced: Outcome, untraced: Outcome, model_flops: int) -> dict:
    """Per-layer metrics from the spans of one traced session.

    On the train-* workloads layer times are means over the timed steps; on
    analyze-srm32 they are totals over the session.
    """
    spans = rec.spans
    step_of = _enclosing(spans, STEP)
    recalib_of = _enclosing(spans, "recalib.ChannelRecalib.fwd")
    session_of = _enclosing(spans, "bench.session")
    setup_of = _enclosing(spans, "bench.setup")
    train_of = _enclosing(spans, "train.train")

    session = next(i for i, s in enumerate(spans) if s.name == "bench.session")
    steps = [i for i, s in enumerate(spans) if s.name == STEP]
    timed_steps = set() if plan.analyze else set(steps[plan.warmup_steps:])
    scope = session_of if plan.analyze else step_of
    in_scope = ({session} if plan.analyze else timed_steps).__contains__
    per = 1.0 if plan.analyze else 1.0 / max(len(timed_steps), 1)

    def total(name: str, inclusive: bool = False, within=scope, keep=in_scope) -> float:
        return sum((s.duration if inclusive else s.self_time
                    for i, s in enumerate(spans) if s.name == name and keep(within[i])), 0.0)

    m: dict[str, float] = {}
    conv_self = total("layers.Conv2d.fwd")
    conv_macs = sum(s.attrs["macs"] for i, s in enumerate(spans)
                    if s.name == "layers.Conv2d.fwd" and in_scope(scope[i]))
    m["layers.Conv2d.fwd_s"] = conv_self * per
    m["layers.Conv2d.gflop_per_s"] = conv_macs / conv_self / 1e9 if conv_self else 0.0
    for name in ("layers.BatchNorm.fwd", "layers.Linear.fwd", "recalib.StylePool.fwd",
                 "recalib.StyleIntegration.fwd", "tensor.Tape.backward", "train.SGD.step", "data.batch_wait",
                 "data.augment"):
        m[name + "_s"] = total(name) * per
    m["recalib.ChannelRecalib.self_s"] = total("recalib.ChannelRecalib.fwd") * per
    resnet_fwd = total("models.ResNet.fwd", inclusive=True)
    m["models.ResNet.fwd_s"] = resnet_fwd * per
    m["recalib.fwd_share"] = total("recalib.ChannelRecalib.fwd", inclusive=True) / resnet_fwd if resnet_fwd else 0.0
    m["models.block_glue_s"] = total("models.block") * per
    records = [s.attrs["records"] for i, s in enumerate(spans)
               if s.name == "tensor.Tape.backward" and in_scope(scope[i])]
    m["tensor.tape_records"] = float(max(records, default=0))

    step_wall = sum(spans[i].duration for i in timed_steps)
    m["train.step_s"] = step_wall * per
    def present(idx) -> bool:
        return idx is not None

    # Checkpoints are written between steps, so they are spread over all steps.
    m["train.save_checkpoint_s"] = (total("train.save_checkpoint", True, train_of, present) / max(len(steps), 1)
                                    if timed_steps else 0.0)

    in_session = {session}.__contains__
    m["container.write_s"] = total("container.write", True, session_of, in_session)
    m["container.write_mb"] = sum(s.attrs["mb"] for i, s in enumerate(spans)
                                  if s.name == "container.write" and in_session(session_of[i]))
    setups = max(sum(s.name == "bench.setup" for s in spans), 1)
    m["container.read_s"] = total("container.read", True, setup_of, present) / setups
    m["container.read_mb"] = sum(s.attrs["mb"] for i, s in enumerate(spans)
                                 if s.name == "container.read" and setup_of[i] is not None) / setups
    m["data.load_dataset_s"] = total("data.load_dataset", False, setup_of, present) / setups
    for fn in ("prune_eval", "capture_record", "correlation_matrix", "top_overlap", "save_record"):
        m[f"analysis.{fn}_s"] = total("analysis." + fn, True, session_of, in_session)

    calls = []
    if timed_steps:
        last = max(timed_steps)
        calls = [(s.name, s.attrs["layer"], s.attrs["shape"]) for i, s in enumerate(spans)
                 if step_of[i] == last and s.name in _REPLAYED
                 and (s.name == "recalib.ChannelRecalib.fwd" or recalib_of[i] is None)]
    m.update(_replay_backward(calls))

    m["complexity.flops_per_image"] = float(model_flops)
    m["train.achieved_gflop_per_s"] = (3.0 * model_flops * plan.batch / m["train.step_s"] / 1e9
                                       if timed_steps else 0.0)
    # Steady-state time per timed step (or eval pass), traced over untraced;
    # whole-session walls would also count the allocator warming up in the
    # first session of the process.
    rate = "eval_images_per_s" if plan.analyze else "train_images_per_s"
    m["trace_overhead_ratio"] = untraced.metrics[rate] / traced.metrics[rate]
    # Coverage of the reported self times: time spent outside them (the step
    # loop, the loss, the pooling head, unwrapped helpers) lowers the ratio.
    if timed_steps:
        m["trace.reconcile_ratio"] = sum(m[k] for k in _STEP_SELF_TIMES) / m["train.step_s"]
    else:
        m["trace.reconcile_ratio"] = sum(m[k] for k in _SESSION_SELF_TIMES) / spans[session].duration
    return m


def traced_run(plan: Plan, seed: int, inputs: Inputs, work: Path):
    """Untraced then traced session on the same inputs.

    Returns the per-layer metrics, the spans and the traced outcome, which also
    counts the untraced session's operations and failures.
    """
    untraced = run_session(plan, seed, inputs, work / "untraced")
    rec = Recorder()
    with instrument(rec):
        traced = run_session(plan, seed, inputs, work / "traced", rec)
        flops = complexity.count_flops(models.build_resnet(model_config(plan), seed=seed),
                                       (3, plan.size, plan.size)).flops
    metrics = layer_metrics(plan, rec, traced, untraced, flops)
    traced.absorb(untraced)
    traced.check(traced.digest == untraced.digest,
                 f"traced digest {traced.digest[:12]} != untraced {untraced.digest[:12]}")
    if not plan.analyze:
        ratio = metrics["trace.reconcile_ratio"]
        traced.check(ratio >= 1.0 - RECONCILE_TOL,
                     f"per-layer self times cover {ratio:.3f} of traced step wall time (< {1 - RECONCILE_TOL})")
    return metrics, rec, traced

