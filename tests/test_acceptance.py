"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria 9 (full data-scale variant) and 10 (multi-hour training) are
opt-in: they need real 32x32 batch data under STYLE_RECAL_DATA plus
STYLE_RECAL_RUN_SOFT=1 / STYLE_RECAL_RUN_LONG=1 respectively; criterion 9
otherwise runs a synthetic stand-in and reports the comparison. Criteria 7
and 9 run their independent trainings on two spawned processes (``in_workers``).
"""

import functools
import math
import multiprocessing
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from style_recal.analysis import capture_record, prune_eval, prune_gate_transform, sum_squared_corr
from style_recal.cli import main as cli_main
from style_recal.complexity import count_flops, count_params, se_extra_params, srm_extra_params
from style_recal.data import Dataset, SynthStyleSpec, load_cifar10, synth_style
from style_recal.gradcheck import SUITE_TOLERANCE, run_suite
from style_recal.layers import global_pool
from style_recal.models import build_resnet, cifar_resnet_config, imagenet_resnet50_config
from style_recal.recalib import StyleIntegration
from style_recal.tensor import Tensor, relu, using_dtype
from style_recal.train import TrainConfig, cifar_recipe, evaluate, train

SYNTH_SPEC = SynthStyleSpec(seed=3)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def in_workers(fn, calls: list[tuple]) -> list:
    """``[fn(*args) for args in calls]`` on two spawned processes with one BLAS thread each.

    Each call is an independent, deterministic training, so the results are
    those of the serial loop. The children read the BLAS pin from the
    environment they start with, before they import numpy; this process's
    environment is restored as soon as they have started.
    """
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        pool = multiprocessing.get_context("spawn").Pool(2)
    finally:
        for var, value in saved.items():
            if value is None:
                del os.environ[var]
            else:
                os.environ[var] = value
    try:
        return pool.starmap(fn, calls, chunksize=1)
    finally:
        pool.terminate()
        pool.join()


def cifar_root() -> Path | None:
    root = os.environ.get("STYLE_RECAL_DATA")
    if not root:
        return None
    p = Path(root)
    for candidate in (p, p / "cifar-10-batches-bin"):
        if (candidate / "data_batch_1.bin").exists():
            return p
    return None


def test_criterion_1_parameter_reconciliation():
    t0 = time.time()
    stages = imagenet_resnet50_config().stages

    srm_model = build_resnet(imagenet_resnet50_config(recalib="srm"))
    enum_trainable = count_params(srm_model).added_by_recalib
    enum_with_rs = count_params(srm_model, include_running_stats=True).added_by_recalib
    se_model = build_resnet(imagenet_resnet50_config(recalib="se"))
    enum_se = count_params(se_model).added_by_recalib

    ok = (
        enum_trainable == srm_extra_params(stages) == 60416
        and enum_with_rs == srm_extra_params(stages, include_running_stats=True) == 90624
        and enum_se == se_extra_params(stages, 16) == 2530992
    )
    report(1, ok, f"srm +{enum_trainable} / +{enum_with_rs} with running stats, "
                  f"se +{enum_se}; enumeration == closed form, zero tolerance "
                  f"({time.time() - t0:.2f}s)")


def test_criterion_2_flop_reconciliation():
    t0 = time.time()
    base = count_flops(build_resnet(imagenet_resnet50_config()), (3, 224, 224)).flops
    srm = count_flops(build_resnet(imagenet_resnet50_config(recalib="srm")), (3, 224, 224)).flops
    overhead = srm - base
    ok = abs(base - 3.86e9) / 3.86e9 < 0.05 and 0 < overhead <= 0.03e9
    report(2, ok, f"base {base / 1e9:.3f} G (ref 3.86 +-5%), recalib overhead "
                  f"{overhead / 1e9:.4f} G in (0, 0.03] ({time.time() - t0:.2f}s)")


def test_criterion_3_gradient_suite():
    t0 = time.time()
    results = run_suite(seeds=range(10))
    worst_name, worst = max(results.items(), key=lambda kv: kv[1])
    ok = worst < SUITE_TOLERANCE
    report(3, ok, f"{len(results)} checks x 10 seeds, max rel err {worst:.2e} "
                  f"({worst_name}) < 1e-4, {worst / SUITE_TOLERANCE:.2f} of the bound ({time.time() - t0:.1f}s)")


def test_criterion_4_bn_fold_identity():
    t0 = time.time()
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        channels = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        layer = StyleIntegration(channels, d, rng=rng)
        layer.bn.gamma.data = rng.uniform(0.2, 2.0, size=channels).astype(np.float32)
        layer.bn.beta.data = rng.normal(size=channels).astype(np.float32)
        layer.bn.running_mean[...] = rng.normal(size=channels)
        layer.bn.running_var[...] = rng.uniform(0.05, 3.0, size=channels)
        layer.bn.num_batches[...] = 1
        layer.eval()
        t = Tensor(rng.normal(size=(6, channels, d)).astype(np.float32))
        g_eval = layer(t).data
        layer.fold()
        g_folded = layer(t).data
        worst = max(worst, float(np.abs(g_folded - g_eval).max()))
    ok = worst < 1e-5
    report(4, ok, f"100 random integration states: max |g_folded - g_eval| = {worst:.2e} "
                  f"< 1e-5 ({time.time() - t0:.1f}s)")


def test_criterion_5_style_pooling_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(23)
    worst = 0.0
    with using_dtype(np.float64):
        for case in range(50):
            n = int(rng.integers(1, 4))
            c = int(rng.integers(1, 5))
            h = int(rng.integers(1, 7))
            w = int(rng.integers(1, 7))
            x = rng.normal(size=(n, c, h, w))
            if case % 5 == 0:
                x[:, 0] = 3.25  # constant channel: sigma must come out ~0
            xt = Tensor(x, dtype=np.float64)
            for kind in ("avg", "std", "max"):
                got = global_pool(xt, kind).data
                for ni in range(n):
                    for ci in range(c):
                        vals = [x[ni, ci, yi, xi] for yi in range(h) for xi in range(w)]
                        mu = sum(vals) / len(vals)
                        if kind == "avg":
                            want = mu
                        elif kind == "std":
                            want = math.sqrt(sum((v - mu) ** 2 for v in vals) / len(vals) + 1e-12)
                        else:
                            want = max(vals)
                        worst = max(worst, abs(float(got[ni, ci]) - want))
    ok = worst < 1e-6
    report(5, ok, f"50 random shapes x 3 statistics vs scalar loops: max abs diff "
                  f"{worst:.2e} < 1e-6 ({time.time() - t0:.1f}s)")


def test_criterion_6_pruning_limits():
    t0 = time.time()
    test_set = synth_style(SYNTH_SPEC, "test")  # 512 images
    idx = np.random.default_rng(0).permutation(len(test_set))
    data = Dataset(test_set.images[idx], test_set.labels[idx], "test", test_set.num_classes)

    model = build_resnet(cifar_resnet_config(20, recalib="srm", num_classes=4), seed=1)
    train(model, synth_style(SYNTH_SPEC, "train"),
          TrainConfig(steps=30, batch_size=32, lr=0.1, seed=0, log_every=30))
    model.eval()

    plain = evaluate(model, data)
    pruned0 = prune_eval(model, data, stage=0, ratio=0.0)

    # Ratio 1 on the identity-shortcut stage: tensor-level identity per block chain.
    x = Tensor(data.images[:64])
    h = relu(model.stem(x))
    transform = prune_gate_transform(stage=0, ratio=1.0)
    out = h
    for block_idx, block in enumerate(model.stages[0]):
        out = block(out, functools.partial(transform, 0, block_idx))
    max_dev = float(np.abs(out.data - h.data).max())

    ok = pruned0 == plain and max_dev == 0.0
    report(6, ok, f"ratio 0 accuracy {pruned0:.4f} == unpruned {plain:.4f}; ratio 1 "
                  f"identity max dev {max_dev} ({time.time() - t0:.1f}s)")


def _steps_to(rows, threshold):
    for row in rows:
        if row.get("test_top1", 0.0) >= threshold:
            return row["step"]
    return None


def _rows_until(seed, recalib, stop_at, train_set, test_set):
    """Criterion 7's logged rows of one arm, which stops once its test accuracy reaches ``stop_at``."""
    cfg = TrainConfig(steps=500, batch_size=32, lr=0.1, seed=seed, log_every=25, eval_every=25)
    model = build_resnet(cifar_resnet_config(20, recalib=recalib, num_classes=4), seed=seed)
    return train(model, train_set, cfg, eval_dataset=test_set,
                 stop_when=lambda row: row.get("test_top1", 0.0) >= stop_at).rows


def test_criterion_7_synthetic_style_task():
    t0 = time.time()
    train_set = synth_style(SYNTH_SPEC, "train")
    test_set = synth_style(SYNTH_SPEC, "test")
    arms = [(seed, recalib, stop_at) for seed in (0, 1, 2) for recalib, stop_at in (("srm", 0.95), (None, 0.90))]
    rows = in_workers(_rows_until, [arm + (train_set, test_set) for arm in arms])

    reached_95 = 0
    faster_to_90 = 0
    tied_at_90 = 0
    details = []
    for seed in (0, 1, 2):
        outcomes = {recalib: r for (s, recalib, _), r in zip(arms, rows) if s == seed}
        srm_95 = _steps_to(outcomes["srm"], 0.95)
        srm_90 = _steps_to(outcomes["srm"], 0.90)
        base_90 = _steps_to(outcomes[None], 0.90)
        if srm_95 is not None:
            reached_95 += 1
        if srm_90 is not None and (base_90 is None or srm_90 <= base_90):
            faster_to_90 += 1
            tied_at_90 += srm_90 == base_90
        details.append(f"seed{seed}: srm95@{srm_95} srm90@{srm_90} base90@{base_90}")

    ok = reached_95 >= 2 and faster_to_90 >= 2
    report(7, ok, f"95% within 500 steps in {reached_95}/3 seeds; steps-to-90% <= baseline "
                  f"in {faster_to_90}/3 seeds, {tied_at_90} of them tied [{'; '.join(details)}] "
                  f"({time.time() - t0:.0f}s)")


def test_criterion_8_determinism(tmp_path):
    t0 = time.time()
    synth_out = tmp_path / "synth"
    assert cli_main(["synth", "--out", str(synth_out), "--per-class", "16", "--size", "8",
                     "--seed", "2"]) == 0
    runs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = cli_main([
            "train", "--arch", "resnet20", "--recalib", "srm",
            "--data", str(synth_out / "train.bin"), "--out", str(out),
            "--steps", "6", "--batch", "16", "--lr", "0.05", "--log-every", "3",
            "--seed", "5",
        ])
        assert rc == 0
        runs.append(out)
    csv_same = (runs[0] / "metrics.csv").read_bytes() == (runs[1] / "metrics.csv").read_bytes()
    ckpt_same = (runs[0] / "checkpoint.bin").read_bytes() == (runs[1] / "checkpoint.bin").read_bytes()
    ok = csv_same and ckpt_same
    report(8, ok, f"identical seed/config: metrics CSV byte-equal={csv_same}, "
                  f"checkpoint byte-equal={ckpt_same} ({time.time() - t0:.1f}s)")


def _style_probe_set():
    """Continuous-style probe: an 8x8 grid of (mean, std) targets.

    Gate correlation should be measured over diverse inputs; capturing on the
    4-class training distribution quantizes every gate vector to class
    clusters and swamps the decorrelation signal.
    """
    means = [float(v) for v in np.linspace(-0.875, 0.875, 8)]
    stds = [float(v) for v in np.linspace(0.4, 1.8, 8)]
    grid = [(m, s) for m in means for s in stds]
    spec = SynthStyleSpec(
        num_classes=64, per_class=8, size=16,
        class_means=tuple(m for m, _ in grid), class_stds=tuple(s for _, s in grid),
        jitter=0.04, seed=77,
    )
    return synth_style(spec, "test")


def _trained_ssc(recalib, train_set, capture_sets, arch_depth, steps, seed, num_classes):
    """One arm of criterion 9: train, then the sum of squared gate correlations on each capture set."""
    model = build_resnet(cifar_resnet_config(arch_depth, recalib=recalib, num_classes=num_classes), seed=seed)
    cfg = TrainConfig(steps=steps, batch_size=32, lr=0.1, seed=seed, log_every=max(steps // 4, 1))
    train(model, train_set, cfg)
    model.eval()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # saturated-gate notices
        return {name: sum_squared_corr(capture_record(model, ds, batch_size=128)) for name, ds in capture_sets.items()}


def _matched_ssc(train_set, capture_sets, arch_depth, steps, seed, num_classes):
    arms = ("srm", "se:8")
    values = in_workers(_trained_ssc, [(recalib, train_set, capture_sets, arch_depth, steps, seed, num_classes)
                                       for recalib in arms])
    return dict(zip(arms, values))


def test_criterion_9_gate_decorrelation_soft():
    t0 = time.time()
    root = cifar_root()
    if root is not None and os.environ.get("STYLE_RECAL_RUN_SOFT") == "1":
        full_train = load_cifar10(root, "train")
        sub = Dataset(full_train.images[:5000], full_train.labels[:5000], "train", 10)
        test = load_cifar10(root, "test")
        capture_sets = {"val": Dataset(test.images[:1000], test.labels[:1000], "test", 10)}
        values = _matched_ssc(sub, capture_sets, arch_depth=20, steps=8000, seed=0, num_classes=10)
        primary = "val"
        scale = "5k-image 32x32 subset, 8k steps"
    else:
        train_set = synth_style(SYNTH_SPEC, "train")
        capture_sets = {"probe": _style_probe_set(), "class-set": synth_style(SYNTH_SPEC, "test")}
        values = _matched_ssc(train_set, capture_sets, arch_depth=20, steps=200, seed=0, num_classes=4)
        primary = "probe"
        scale = "synthetic stand-in, 200 steps (set STYLE_RECAL_RUN_SOFT=1 with data for full scale)"

    srm_ssc = values["srm"][primary]
    se_ssc = values["se:8"][primary]
    direction_ok = srm_ssc < se_ssc
    if not direction_ok:
        warnings.warn(
            f"soft criterion 9: recalibrator gate correlation direction unexpected "
            f"(srm {srm_ssc:.0f} vs se {se_ssc:.0f}); investigate before release"
        )
    detail = "; ".join(
        f"{name}: srm={values['srm'][name]:.0f} {'<' if values['srm'][name] < values['se:8'][name] else '>='} "
        f"se={values['se:8'][name]:.0f}"
        for name in values["srm"]
    )
    computed = all(np.isfinite(v) and v > 0 for side in values.values() for v in side.values())
    report(9, bool(computed),
           f"soft/directional sum of squared gate correlations [{detail}] ({scale}) "
           f"({time.time() - t0:.0f}s)")


@pytest.mark.skipif(
    os.environ.get("STYLE_RECAL_RUN_LONG") != "1" or cifar_root() is None,
    reason="opt-in long run: needs STYLE_RECAL_RUN_LONG=1 and 32x32 batch data under STYLE_RECAL_DATA",
)
def test_criterion_10_full_cifar_recipe():
    t0 = time.time()
    root = cifar_root()
    train_set = load_cifar10(root, "train")
    test_set = load_cifar10(root, "test")
    accs = {}
    for recalib in ("srm", None):
        cfg = cifar_recipe(seed=0)
        model = build_resnet(cifar_resnet_config(56, recalib=recalib), seed=0)
        train(model, train_set, cfg)
        accs[recalib] = evaluate(model, test_set)
    gain = (accs["srm"] - accs[None]) * 100
    ok = gain >= 0.5
    report(10, ok, f"full 64k-step recipe: srm {accs['srm']:.4f} vs baseline {accs[None]:.4f} "
                   f"(+{gain:.2f} pts, need >= 0.5) ({(time.time() - t0) / 3600:.1f}h)")
