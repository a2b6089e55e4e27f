import collections
import functools
import hashlib
import itertools
import json
import multiprocessing
import random
import sys
import tempfile
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import use_workers
from style_recal import layers, models
from style_recal import tensor as T
from style_recal.analysis import capture_record, prune_eval, prune_gate_transform
from style_recal.complexity import cfc_variant_extra_params, count_params, mlp_variant_extra_params
from style_recal.data import Dataset
from style_recal.layers import BatchNorm, global_pool
from style_recal.models import (
    ArchitectureConfig,
    StageSpec,
    build_resnet,
    cifar_resnet_config,
    imagenet_resnet50_config,
    named_config,
    parse_recalib,
)
from style_recal.recalib import RecalibVariant
from style_recal.tensor import Tape, Tensor, cross_entropy, relu, reshape
from style_recal.train import TrainConfig, load_checkpoint, load_model, save_checkpoint, train


def as_dataset(images: np.ndarray) -> Dataset:
    return Dataset(images, np.zeros(len(images), dtype=np.int64), "test", 1)


def small_cfg(recalib=None, blocks=1, num_classes=4):
    return ArchitectureConfig(
        stages=[StageSpec(blocks, 8, 1), StageSpec(blocks, 16, 2)],
        block_kind="basic",
        recalib=parse_recalib(recalib),
        num_classes=num_classes,
    )



def _captured_gates(model, data) -> np.ndarray:
    return np.concatenate([g for _, g in sorted(capture_record(model, data).gates.items())], axis=1)


ANALYSES = [_captured_gates, functools.partial(prune_eval, stage=0, ratio=0.5)]

class TestConfig:
    def test_depth_formula(self):
        for depth in (20, 56):
            model = build_resnet(cifar_resnet_config(depth))
            # the stem conv, the residual-branch convs and the classifier; projections do not count
            assert 2 + sum(len(block.pairs) for stage in model.stages for block in stage) == depth

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            cifar_resnet_config(21)

    def test_first_stage_must_not_stride(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(stages=[StageSpec(1, 8, 2)])

    def test_later_stages_must_stride(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(stages=[StageSpec(1, 8, 1), StageSpec(1, 16, 1)])

    @pytest.mark.parametrize("stage,fields,named", [
        ({"channels": 16.0}, {}, "channels"),
        ({"blocks": True}, {}, "blocks"),
        ({"stride": "1"}, {}, "stride"),
        ({"blocks": 0}, {}, "blocks"),
        ({}, {"num_classes": "4"}, "num_classes"),
        ({}, {"num_classes": 0}, "num_classes"),
        ({}, {"in_channels": 3.0}, "in_channels"),
        ({}, {"in_channels": 0}, "in_channels"),
        ({}, {"stem_channels": False}, "stem_channels"),
    ])
    def test_integer_fields_are_checked_not_coerced(self, stage, fields, named):
        d = {"stages": [{"blocks": 1, "channels": 16, "stride": 1, **stage}], **fields}
        with pytest.raises(ValueError, match=f"{named} must be an integer >= 1"):
            ArchitectureConfig.from_dict(d)

    def test_json_roundtrip(self):
        cfg = cifar_resnet_config(20, recalib="srm")
        again = ArchitectureConfig.from_json(__import__("json").dumps(asdict(cfg)))
        assert asdict(again) == asdict(cfg)

    def test_named_configs(self):
        assert named_config("resnet56").stages[0].blocks == 9
        assert named_config("resnet50").block_kind == "bottleneck"
        with pytest.raises(ValueError):
            named_config("resnet19")

    def test_parse_recalib_forms(self):
        assert parse_recalib(None) is None
        assert parse_recalib("none") is None
        assert parse_recalib("srm") == RecalibVariant.srm()
        assert parse_recalib("se:8") == RecalibVariant.se(8)
        inline = parse_recalib('{"pooling": ["avg", "max"], "integration": "cfc", "use_bn": true}')
        assert inline == RecalibVariant(pooling=("avg", "max"), integration="cfc", use_bn=True)
        with pytest.raises(ValueError):
            parse_recalib("sexy")
        with pytest.raises(ValueError):
            parse_recalib("{broken json")


class TestStructure:
    def test_srm_resnet56_added_parameter_enumeration(self):
        # 4 * (9*16 + 9*32 + 9*64) = 4032 extra trainable tensors' elements
        base = build_resnet(cifar_resnet_config(56))
        srm = build_resnet(cifar_resnet_config(56, recalib="srm"))
        n_base = sum(p.size for _, p in base.named_parameters())
        n_srm = sum(p.size for _, p in srm.named_parameters())
        assert n_srm - n_base == 4032

    def test_one_recalib_layer_per_block(self):
        model = build_resnet(cifar_resnet_config(20, recalib="srm"))
        assert len(model.recalib_layers()) == 9
        for stage in model.stages:
            for block in stage:
                assert block.recalib is not None

    def test_shortcut_kinds(self):
        model = build_resnet(cifar_resnet_config(20))
        for si, stage in enumerate(model.stages):
            for bi, block in enumerate(stage):
                expect_identity = not (si >= 1 and bi == 0)
                assert (block.proj_conv is None) == expect_identity

    def test_logits_shape(self):
        model = build_resnet(small_cfg(num_classes=7), seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(3, 3, 8, 8)).astype(np.float32))
        model.eval()
        assert model(x).shape == (3, 7)

    def test_eval_forward_pure(self):
        model = build_resnet(small_cfg("srm"), seed=0)
        model.eval()
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 8, 8)).astype(np.float32))
        a = model(x).data.tobytes()
        b = model(x).data.tobytes()
        assert a == b

    def test_imagenet_stem_downsamples(self):
        cfg = imagenet_resnet50_config()
        model = build_resnet(cfg)
        model.eval()
        x = Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32))
        h = model.stem(x)
        assert h.shape == (1, 64, 16, 16)  # /2 conv then /2 pool


class TestCapture:
    def test_capture_count_is_total_blocks(self):
        model = build_resnet(cifar_resnet_config(20, recalib="srm"), seed=0)
        x = np.random.default_rng(2).normal(size=(2, 3, 16, 16)).astype(np.float32)
        record = capture_record(model, as_dataset(x))
        assert len(record.gates) == 9  # sum of blocks over stages
        for (si, bi), g in record.gates.items():
            assert g.shape[0] == 2

    def test_capture_without_recalib_flagged_empty(self):
        model = build_resnet(cifar_resnet_config(20), seed=0)
        x = np.zeros((2, 3, 16, 16), dtype=np.float32)
        with pytest.warns(UserWarning, match="without recalibration"):
            record = capture_record(model, as_dataset(x))
        assert record.gates == {}

    def test_captured_gates_match_direct_invocation(self):
        model = build_resnet(small_cfg("srm"), seed=3).eval()
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        record = capture_record(model, as_dataset(x.data))

        # Recompute by walking the blocks and invoking each recalib layer directly
        # on the intercepted pre-gate branch output.
        h = model.stem(x)
        for si, stage in enumerate(model.stages):
            for bi, block in enumerate(stage):
                branch = block.branch(h)
                g = block.recalib(branch).data
                np.testing.assert_array_equal(record.gates[(si, bi)], g)
                h = block(h)

    @pytest.mark.parametrize("analyse", ANALYSES, ids=["capture", "prune"])
    def test_capture_and_prune_keep_the_mode(self, analyse):
        model = build_resnet(small_cfg("srm"), seed=3)
        data = as_dataset(np.zeros((2, 3, 8, 8), dtype=np.float32))
        for mode in (model.train, model.eval):
            training = mode().training
            analyse(model, data)
            assert model.training == training

    @pytest.mark.parametrize("analyse", ANALYSES, ids=["capture", "prune"])
    def test_training_mode_gives_the_eval_mode_result(self, analyse):
        """From training mode the pass still uses the running statistics and leaves them as they were."""
        model = build_resnet(small_cfg("srm"), seed=3)
        randomize_bn(model, 4)
        data = as_dataset(np.random.default_rng(5).normal(size=(4, 3, 8, 8)).astype(np.float32))
        expected = analyse(model.eval(), data)
        buffers = {k: v.copy() for k, v in model.named_buffers()}
        got = analyse(model.train(), data)
        np.testing.assert_array_equal(got, expected)
        for k, v in model.named_buffers():
            np.testing.assert_array_equal(v, buffers[k], err_msg=k)

    def test_forced_half_gates_equal_halved_branch(self):
        model = build_resnet(small_cfg("srm"), seed=5)
        model.eval()
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        forced = model(x, gate_transform=lambda si, bi, g: np.full_like(g, 0.5)).data

        # Twin computation: same weights, residual branches explicitly scaled by 0.5.
        h = model.stem(x)
        for stage in model.stages:
            for block in stage:
                h = relu(0.5 * block.branch(h) + block.shortcut(h))
        from style_recal.layers import global_pool

        twin = model.classifier(global_pool(h, "avg")).data
        np.testing.assert_allclose(forced, twin, rtol=1e-6, atol=1e-6)


class TestIdentityLimits:
    def test_zero_gates_make_identity_block(self):
        model = build_resnet(small_cfg("srm"), seed=7)
        model.eval()
        rng = np.random.default_rng(8)
        # Stage 0 blocks have identity shortcuts; inputs are post-relu maps.
        h = relu(Tensor(rng.normal(size=(2, 8, 8, 8)).astype(np.float32)))
        block = model.stages[0][0]
        out = block(h, gate_cb=lambda g: np.zeros_like(g))
        np.testing.assert_array_equal(out.data, h.data)

    def test_fold_rewrites_the_layer_for_inference(self, tmp_path):
        model = build_resnet(small_cfg("srm"), seed=9)
        x = Tensor(np.random.default_rng(10).normal(size=(4, 3, 8, 8)).astype(np.float32))
        with Tape():
            model(x)
        save_checkpoint(tmp_path / "unfolded.bin", model, None, 1, "h")
        assert model.fold_bn() == len(model.recalib_layers())
        names = [n for n, _ in model.named_parameters() if ".recalib." in n]
        assert names == [f"stages.{s}.0.recalib.integrate.{p}" for s in (0, 1) for p in ("weight", "bias")]
        assert not any(".recalib." in n for n, _ in model.named_buffers())
        assert all(layer.integrate.bn is None for _, _, layer in model.recalib_layers())
        assert model.fold_bn() == 0
        with pytest.raises(ValueError, match=r"integrate\.bn\.gamma"):  # saved, but no longer in the model
            load_checkpoint(tmp_path / "unfolded.bin", model)


# sha256 of the JSON list [arch, recalib, [[key, shape, dtype], ...]] over the
# parameters ("param.<name>") then buffers ("buffer.<name>") in model order.
# These are the checkpoint keys, so a change here breaks existing checkpoints.
LAYOUT_DIGEST = "213e3821fc6a32f2e39a3060b9323779dd69760587d0093169520326a81d8a54"


def test_parameter_and_buffer_layout_is_pinned():
    rows = []
    for arch, recalib in (("resnet20", "none"), ("resnet20", "srm"), ("resnet20", "se"), ("resnet50", "srm")):
        model = build_resnet(named_config(arch, recalib), seed=0)
        entries = [["param." + n, list(p.data.shape), str(p.data.dtype)] for n, p in model.named_parameters()]
        entries += [["buffer." + n, list(b.shape), str(b.dtype)] for n, b in model.named_buffers()]
        rows.append([arch, recalib, entries])
    assert sum(len(r[2]) for r in rows) == 890
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == LAYOUT_DIGEST


def test_stem_conv_computes_no_image_gradient():
    """The image needs no gradient: the stem's backward skips it and no parameter gradient moves."""
    model = build_resnet(cifar_resnet_config(20, "srm"), seed=0)
    model.train()
    rng = np.random.default_rng(0)
    images = rng.normal(size=(4, 3, 16, 16)).astype(np.float32)
    labels = rng.integers(0, 10, size=4)

    def step(image_grad):
        for p in model.parameters():
            p.grad = None
        x = Tensor(images, requires_grad=image_grad)
        with Tape() as tape:
            loss = cross_entropy(model(x), labels)
        # backward consumes the tape, so the stem's record is taken before it.
        (stem,) = [r for r in tape._records if any(s is model.stem_conv.weight for s in r[1])]
        tape.backward(loss)
        return stem, x, {name: p.grad.copy() for name, p in model.named_parameters()}

    (_, _, backward), x, grads = step(False)
    assert backward(np.ones((4, model.stem_conv.weight.shape[0], 16, 16), dtype=np.float32))[0] is None
    _, x_grad, grads_with_image = step(True)
    assert x_grad.grad is not None
    assert grads.keys() == grads_with_image.keys()
    for name, g in grads.items():
        np.testing.assert_array_equal(g, grads_with_image[name], err_msg=name)


def op_by_op_forward(model, x: Tensor, gate_transform=None) -> Tensor:
    """The model's forward as separate ops: each (conv, BN) pair as conv, BN's own forward and relu,
    and each block's tail as ``mul`` by the ``reshape``d gates, ``add`` and ``relu``."""
    def pair(conv, bn, h, with_relu):
        h = bn(conv(h))
        return relu(h) if with_relu else h

    h = pair(model.stem_conv, model.stem_bn, x, True)
    if model.stem_pool is not None:
        h = model.stem_pool(h)
    for si, stage in enumerate(model.stages):
        for bi, block in enumerate(stage):
            b = h
            for i, (conv, bn) in enumerate(block.pairs, start=1):
                b = pair(conv, bn, b, i < len(block.pairs))
            if block.recalib is not None:
                g = block.recalib(b, functools.partial(gate_transform, si, bi) if gate_transform else None)
                b = b * reshape(g, g.shape + (1, 1))
            shortcut = h if block.proj_conv is None else pair(block.proj_conv, block.proj_bn, h, False)
            h = relu(b + shortcut)
    return model.classifier(global_pool(h, "avg"))


def randomize_bn(model, seed: int) -> None:
    """Running statistics and affine far from their initial values, as after training."""
    rng = np.random.default_rng(seed)
    for m in model.modules():
        if isinstance(m, BatchNorm):
            m.running_mean[...] = rng.normal(0.0, 0.5, m.channels)
            m.running_var[...] = rng.uniform(0.3, 3.0, m.channels)
            m.gamma.data[...] = rng.normal(1.0, 0.5, m.channels)
            m.beta.data[...] = rng.normal(0.0, 0.5, m.channels)
            m.num_batches[...] = 1


def bottleneck_cfg():
    return ArchitectureConfig(stages=[StageSpec(1, 16, 1), StageSpec(2, 32, 2)], block_kind="bottleneck",
                              recalib=parse_recalib("srm"), num_classes=5, stem="imagenet", stem_channels=8)


class TestFusedEvalForward:
    """In eval mode each (conv, BN[, ReLU]) runs as one conv2d with an epilogue; values stay those of the ops."""

    @pytest.mark.parametrize("recalib", ["none", "srm"])
    def test_eval_forward_holds_three_stage_maps(self, recalib):
        """At most a block's input, its inner activation and its branch output, plus conv scratch.

        The tail writes its output map with no temporaries, std pooling
        centres one block at a time, and no frame keeps a stage's input while
        the stage runs: the separate ops held five stage-1 maps at once.
        """
        model = build_resnet(cifar_resnet_config(20, recalib), seed=18).eval()
        x = Tensor(np.random.default_rng(19).normal(size=(64, 3, 32, 32)).astype(np.float32))
        model(x)
        stage_map = 64 * 16 * 32 * 32 * 4  # bytes; the conv slices add about half of one
        tracemalloc.start()
        try:
            model(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * stage_map

    def test_logits_do_not_depend_on_eval_batch(self):
        model = build_resnet(cifar_resnet_config(20, "srm"), seed=6)
        randomize_bn(model, 7)
        images = np.random.default_rng(8).normal(size=(256, 3, 16, 16)).astype(np.float32)
        model.eval()
        whole = model(Tensor(images)).data
        parts = np.concatenate([model(Tensor(images[i : i + 32])).data for i in range(0, 256, 32)])
        np.testing.assert_array_equal(whole, parts)

    @pytest.mark.parametrize("recalib", ["none", "srm"])
    def test_eval_forward_under_tape_records_separate_ops(self, recalib):
        model = build_resnet(cifar_resnet_config(20, recalib), seed=9)
        randomize_bn(model, 10)
        model.eval()
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(4, 3, 16, 16)).astype(np.float32))
        labels = rng.integers(0, 10, size=4)
        runs = []
        for forward in (model, lambda t: op_by_op_forward(model, t)):
            for p in model.parameters():
                p.grad = None
            with Tape() as tape:
                loss = cross_entropy(forward(x), labels)
            records = len(tape)
            tape.backward(loss)
            # Eval-mode BN treats its affine as constant, so gamma and beta get no gradient.
            runs.append((records, loss.data, {n: p.grad for n, p in model.named_parameters() if p.grad is not None}))
        (records, loss, grads), (want_records, want_loss, want_grads) = runs
        # Convs and BNs are separate records in both; each of the 9 block tails is one residual_relu
        # record in place of the oracle's reshape, mul, add and relu (add and relu without gates).
        assert records == want_records - 9 * (3 if recalib == "srm" else 1)
        np.testing.assert_array_equal(loss, want_loss)
        assert grads.keys() == want_grads.keys() and "stem_conv.weight" in grads
        for name, g in want_grads.items():
            if recalib == "none":
                np.testing.assert_array_equal(grads[name], g, err_msg=name)
            else:  # the oracle's mul sums each gate gradient over axes, residual_relu by einsum
                assert np.abs(grads[name] - g).max() <= 1e-5 * np.abs(g).max(), name


def test_recalibration_keeps_no_second_map_after_a_taped_forward():
    """A recorded resnet20 forward at 32x32 keeps, per block, the conv inputs, BN's xhat, the ReLU outputs
    and the block output. The branch map that recalibration pools and gates is kept by no record, as
    batch norm's recompute stands in for it, so srm, se:8 and an mlp+BN variant keep at most 3% more
    bytes than the net without recalibration (about 24% more when each kept that map)."""
    mlp_bn = RecalibVariant(pooling=("avg", "std"), integration="mlp", use_bn=True, se_reduction=4)
    rng = np.random.default_rng(33)
    x = Tensor(rng.normal(size=(32, 3, 32, 32)).astype(np.float32))
    labels = rng.integers(0, 10, size=32)
    kept = {}
    for name, recalib in [("warm-up", None), ("none", None), ("srm", "srm"), ("se:8", "se:8"), ("mlp+bn", mlp_bn)]:
        model = build_resnet(cifar_resnet_config(20, recalib), seed=34)
        tracemalloc.start()
        try:
            with Tape() as tape:
                cross_entropy(model(x), labels)
            kept[name] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tape)
        del tape
    for name in ("srm", "se:8", "mlp+bn"):
        assert kept[name] <= 1.03 * kept["none"], f"{name}: {kept[name] / kept['none']:.3f} of the plain net's bytes"


class CountingPool(ThreadPoolExecutor):
    """The span pool, counting the span loops submitted to it."""

    def __init__(self, workers: int):
        super().__init__(workers, thread_name_prefix="style_recal-spans")
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        return super().submit(fn, *args)


class TestPooledEvalForward:
    """Untaped forwards split their span loops over worker threads."""

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method")
    def test_forked_child_evaluates_after_a_pooled_eval(self, monkeypatch):
        """A child inherits the pool object but not its threads; it must build its own, not wait forever."""
        use_workers(monkeypatch, 2)
        monkeypatch.setattr(T, "_PATCH_BYTES", 1)
        model = build_resnet(small_cfg("srm"), seed=25).eval()
        x = Tensor(np.random.default_rng(26).normal(size=(6, 3, 8, 8)).astype(np.float32))
        want = model(x).data
        assert T._POOL is not None
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=lambda: send.send(model(x).data))
        child.start()
        try:
            assert receive.poll(30), "the forked child's eval did not finish within 30 s"
            got = receive.recv()
        finally:
            child.kill()
            child.join(10)
        assert not child.is_alive()
        np.testing.assert_array_equal(got, want)


class TestPooledTrainStep:
    """Taped forwards and the backwards split their span loops over worker threads."""

    def test_train_runs_equal_the_serial_one(self, monkeypatch, tmp_path):
        rng = np.random.default_rng(29)
        data = Dataset(rng.normal(size=(16, 3, 16, 16)).astype(np.float32), rng.integers(0, 10, size=16), "train", 10)
        cfg = TrainConfig(steps=2, batch_size=8, lr=0.05, log_every=1, eval_every=2, augment_policy="pad-crop-flip")
        runs = []
        for workers in (1, 2):
            use_workers(monkeypatch, workers)
            model = build_resnet(cifar_resnet_config(20, "srm"), seed=30)
            train(model, data, cfg, out_dir=tmp_path / str(workers), eval_dataset=data)
            digest = hashlib.sha256()
            for name, p in model.named_parameters():
                digest.update(name.encode() + p.data.tobytes())
            runs.append((digest.hexdigest(), (tmp_path / str(workers) / "metrics.csv").read_bytes()))
            assert (T._POOL is not None) == (workers > 1)
        assert runs[0] == runs[1]


POOLINGS = [kinds for r in (1, 2, 3) for kinds in itertools.combinations(T.POOL_KINDS, r)]


@st.composite
def small_archs(draw):
    """1-2 stages of 1-2 blocks, either block kind and stem, and no recalibration or any pooling subset
    with cfc or mlp integration, with or without BN; with the image size its stem takes."""
    kind = draw(st.sampled_from(["basic", "bottleneck"]))
    width = 8 if kind == "basic" else 16  # bottleneck channels divide by the expansion of 4
    stages = [StageSpec(draw(st.integers(1, 2)), width << i, 2 if i else 1) for i in range(draw(st.integers(1, 2)))]
    recalib = draw(st.none() | st.builds(RecalibVariant, st.sampled_from(POOLINGS), st.sampled_from(["cfc", "mlp"]),
                                         st.booleans(), st.sampled_from([None, 4])))
    stem = draw(st.sampled_from(["cifar", "imagenet"]))
    size = 16 if stem == "imagenet" else 8
    return ArchitectureConfig(stages, kind, recalib, num_classes=3, stem=stem, stem_channels=4), size


def run_digests(cfg, size, dtype, patch_bytes, workers, blas, sleeps):
    """sha256 of each value of a train step (the loss, every parameter gradient, every BN buffer after the
    step), the eval logits and, with recalibration, the gates that capture_record takes in batches of 3,
    the logits under prune_gate_transform and those of the folded model where fold_bn folds something.
    Also the span loops submitted to the pool and the threads that ran spans."""
    rng = np.random.default_rng(41)
    images = rng.normal(size=(4, 3, size, size)).astype(dtype)
    labels = rng.integers(0, cfg.num_classes, size=4)
    run_spans, delays, threads = T._run_spans, random.Random(workers), set()

    def delayed(spans, run):
        def body(lo, hi):
            if sleeps:  # the spans land on the threads in varied orders
                time.sleep(delays.random() * 1e-4)
            threads.add(threading.get_ident())
            run(lo, hi)

        run_spans(spans, body)

    get_blas, set_blas = T._openblas()
    restore = get_blas() if set_blas else None
    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp, T.using_dtype(dtype):
        mp.setattr(T, "_PATCH_BYTES", patch_bytes)
        use_workers(mp, workers)
        pool = CountingPool(max(workers - 1, 1))
        mp.setattr(T, "_POOL", pool)
        mp.setattr(T, "_run_spans", delayed)
        try:
            if set_blas:
                set_blas(blas)
            sys.setswitchinterval(1e-5)  # switch threads often, so a race inside a span body would show
            model = build_resnet(cfg, seed=42)
            with Tape() as tape:
                loss = cross_entropy(model(Tensor(images)), labels)
            tape.backward(loss)
            out = {"loss": loss.data, **{n: p.grad for n, p in model.named_parameters()},
                   **{n: b.copy() for n, b in model.named_buffers()}, "logits": model.eval()(Tensor(images)).data}
            if gated := model.recalib_layers():
                record = capture_record(model, Dataset(images, labels, "test", cfg.num_classes), batch_size=3)
                out.update({f"gates{layer}": record.gates[layer] for layer in record.layers})
                out["pruned"] = model(Tensor(images), gate_transform=prune_gate_transform(gated[-1][0], 0.5)).data
                if model.fold_bn():
                    out["folded"] = model(Tensor(images)).data
        finally:
            sys.setswitchinterval(interval)
            if set_blas:
                set_blas(restore)
            pool.shutdown()
    digests = {key: hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest() for key, v in out.items()}
    return digests, pool.submitted, len(threads)


@settings(max_examples=60)
@given(case=small_archs(), dtype=st.sampled_from([np.float32, np.float64]),
       patch_bytes=st.sampled_from([1, T._PATCH_BYTES]), workers=st.sampled_from([2, 3]), blas=st.sampled_from([1, 2]),
       sleeps=st.booleans())
# Sleeping threads seldom sit inside span bodies together, so the srm preset, whose std pooling
# and gates have the most body-level scratch, runs without sleeps, where a race inside a body shows.
@example(case=(cifar_resnet_config(20, "srm"), 16), dtype=np.float32, patch_bytes=1, workers=3, blas=2, sleeps=False)
@example(case=(cifar_resnet_config(20, "se:8"), 16), dtype=np.float64, patch_bytes=1, workers=2, blas=1, sleeps=True)
@example(case=(bottleneck_cfg(), 40), dtype=np.float64, patch_bytes=T._PATCH_BYTES, workers=3, blas=2, sleeps=False)
def test_values_do_not_depend_on_the_threads(case, dtype, patch_bytes, workers, blas, sleeps):
    """The determinism contract: every value of a step and of the eval paths has the same bytes on any
    number of span workers, OpenBLAS threads and span-to-thread assignment as on 1 worker and 1 BLAS
    thread, at a given _PATCH_BYTES and dtype, which the contract does not cover."""
    serial, submitted, threads = run_digests(*case, dtype, patch_bytes, 1, 1, False)
    assert submitted == 0 and threads == 1
    pooled, submitted, threads = run_digests(*case, dtype, patch_bytes, workers, blas, sleeps)
    assert pooled == serial
    if patch_bytes == 1:  # one image or row per span: the pool ran spans, and with sleeps every thread did
        assert submitted > 0 and (not sleeps or threads == workers), (submitted, threads)


def to_float64(stage, block, g):
    return g.astype(np.float64)


@settings(max_examples=40)
@given(case=small_archs(), dtype=st.sampled_from([np.float32, np.float64]),
       patch_bytes=st.sampled_from([1, T._PATCH_BYTES]))
@example(case=(cifar_resnet_config(20, "srm"), 16), dtype=np.float32, patch_bytes=1)
@example(case=(cifar_resnet_config(20, "se:8"), 16), dtype=np.float64, patch_bytes=T._PATCH_BYTES)
@example(case=(bottleneck_cfg(), 40), dtype=np.float32, patch_bytes=T._PATCH_BYTES)
def test_model_invariants(case, dtype, patch_bytes):
    """On one thread, for any architecture: the recalibration adds the closed form's parameters; the eval
    forward (every conv with its BN epilogue, each block one residual_relu) equals op_by_op_forward bit for
    bit, as do capture_record's gates and prune_eval's accuracy; save, load_model, save gives the same
    bytes; and fold_bn folds exactly the cfc+BN layers, leaving any other model as it was, and a folded
    model keeps its gates within criterion 4's 1e-5, has the BN-free variant's parameter count and
    restores from its checkpoint with the same logits."""
    cfg, size = case
    variant = cfg.recalib
    images = np.random.default_rng(43).normal(size=(4, 3, size, size)).astype(dtype)
    data, x = as_dataset(images), Tensor(images)
    with pytest.MonkeyPatch.context() as mp, T.using_dtype(dtype), tempfile.TemporaryDirectory() as tmp:
        use_workers(mp, 1)
        mp.setattr(T, "_PATCH_BYTES", patch_bytes)
        model = build_resnet(cfg, seed=3)
        randomize_bn(model, 4)
        model.eval()
        if variant is None:
            extra = 0
        elif variant.integration == "cfc":
            extra = cfc_variant_extra_params(cfg.stages, variant.d, variant.use_bn)
        else:
            extra = mlp_variant_extra_params(cfg.stages, variant.d, variant.se_reduction, variant.use_bn)
        assert count_params(model).added_by_recalib == extra

        epilogues, tails = [], []
        conv2d, residual_relu = T.conv2d, T.residual_relu

        def counting(*args, **kwargs):
            epilogues.append(kwargs.get("scale") is not None)
            return conv2d(*args, **kwargs)

        def counting_tails(b, s, g=None):
            tails.append(g is not None)
            return residual_relu(b, s, g)

        mp.setattr(layers, "conv2d", counting)
        mp.setattr(models, "residual_relu", counting_tails)
        stage = model.recalib_layers()[-1][0] if variant else 0
        for transform in (None, to_float64, prune_gate_transform(stage, 0.5)):  # the pruned oracle logits last
            want = op_by_op_forward(model, x, transform).data
            epilogues.clear()
            tails.clear()
            got = model(x, gate_transform=transform).data
            assert epilogues and all(epilogues)
            assert tails == [variant is not None] * sum(s.blocks for s in cfg.stages)
            assert got.dtype == (np.float64 if variant and transform is to_float64 else dtype)
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
        if variant is not None:
            parts = {}

            def record(si, bi, g):
                parts.setdefault((si, bi), []).append(g.copy())
                return g

            for lo in (0, 3):
                op_by_op_forward(model, Tensor(images[lo : lo + 3]), record)
            gates = capture_record(model, data, batch_size=3).gates
            assert gates.keys() == parts.keys()
            for layer, g in gates.items():
                assert g.tobytes() == np.concatenate(parts[layer]).tobytes(), layer
            # labelled with the oracle's pruned predictions, so only the oracle's pruning scores 1
            labelled = Dataset(images, want.argmax(axis=1), "test", cfg.num_classes)
            assert prune_eval(model, labelled, stage, 0.5, batch_size=4) == 1.0

        saved, again = Path(tmp) / "a.bin", Path(tmp) / "b.bin"
        save_checkpoint(saved, model, None, 1, "h")
        save_checkpoint(again, load_model(saved), None, 1, "h")
        assert again.read_bytes() == saved.read_bytes()

        config, before = model.config, {n: p.data.copy() for n, p in model.named_parameters()}
        foldable = variant is not None and variant.integration == "cfc" and variant.use_bn
        assert model.fold_bn() == (len(model.recalib_layers()) if foldable else 0)
        if not foldable:
            after = dict(model.named_parameters())
            assert model.config is config and after.keys() == before.keys()
            assert all(after[n].data.tobytes() == p.tobytes() for n, p in before.items())
            return
        for layer, g in capture_record(model, data, batch_size=3).gates.items():
            assert np.abs(g - gates[layer]).max() <= 1e-5, layer
        assert count_params(model) == count_params(build_resnet(replace(cfg, recalib=replace(variant, use_bn=False))))
        save_checkpoint(saved, model, None, 1, "h")
        assert load_model(saved).eval()(x).data.tobytes() == model(x).data.tobytes()


MLP_BN = '{"pooling": ["avg", "std", "max"], "integration": "mlp", "use_bn": true}'


@pytest.mark.parametrize("recalib", ["srm", "se:8", MLP_BN], ids=["srm", "se8", "avg-std-max"])
def test_every_map_sized_pass_of_a_train_step_submits_groups(monkeypatch, recalib):
    """A guard against putting a pass back on the calling thread: in one resnet20 train step at 32x32,
    each span body of conv2d, batch_norm_train, relu, style_pool (the head pool's, and SE's avg pooling
    or the avg, std and max pooling), residual_relu and the gradient fan-in sum hands groups to the pool."""
    use_workers(monkeypatch, 2)
    monkeypatch.setattr(T, "_PATCH_BYTES", 1)
    pool = CountingPool(1)
    monkeypatch.setattr(T, "_POOL", pool)
    run_spans = T._run_spans
    submitted = collections.Counter()

    def counting(spans, run):
        before = pool.submitted
        run_spans(spans, run)
        submitted[run.__qualname__.replace(".<locals>.", ".")] += pool.submitted - before

    monkeypatch.setattr(T, "_run_spans", counting)
    rng = np.random.default_rng(31)
    model = build_resnet(cifar_resnet_config(20, recalib), seed=31)
    try:
        with Tape() as tape:
            loss = cross_entropy(model(Tensor(rng.normal(size=(4, 3, 32, 32)).astype(np.float32))),
                                 rng.integers(0, 10, size=4))
        tape.backward(loss)
    finally:
        pool.shutdown()
    assert {name for name, groups in submitted.items() if groups} == {
        "conv2d.forward", "conv2d.backward.slices",
        "batch_norm_train.<lambda>", "batch_norm_train.variances", "batch_norm_train.affine",
        "batch_norm_train.backward.sums", "batch_norm_train.backward.grads",
        "relu.<lambda>", "relu.backward.<lambda>",
        "style_pool.stats", "style_pool.backward.grads",
        "residual_relu.tail", "residual_relu.backward.masked",
        "_sum_grad.<lambda>",
    }


def recorded_ops(tape: Tape) -> list[str]:
    """The op of each record, read from its backward's ``__qualname__`` (``conv2d.<locals>.backward``)."""
    return [backward.__qualname__.split(".")[0] for _, _, backward in tape._records]


def train_step_ops(cfg, size: int) -> list[str]:
    """The ops recorded by one train step."""
    model = build_resnet(cfg, seed=0)
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 3, size, size)).astype(np.float32))
    with Tape() as tape:
        loss = cross_entropy(model(x), rng.integers(0, cfg.num_classes, size=2))
    ops = recorded_ops(tape)
    tape.backward(loss)
    return ops


class TestTapeRecords:
    @pytest.mark.parametrize("recalib,records", [("none", 65), ("srm", 110), ("se:8", 137)])
    def test_resnet20_train_step_records(self, recalib, records):
        ops = train_step_ops(cifar_resnet_config(20, recalib), 8)
        assert len(ops) == records
        assert ops.count("residual_relu") == 9  # one per block

    def test_srm_layer_is_five_records_and_its_block_one_more(self):
        layer = build_resnet(small_cfg("srm"), seed=0).stages[0][0]
        x = Tensor(np.random.default_rng(2).normal(size=(2, 8, 4, 4)).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            layer.recalib(x)
        assert recorded_ops(tape) == ["style_pool", "mul", "tsum", "batch_norm_train", "sigmoid"]
        with Tape() as tape:
            layer(x)
        # two (conv, BN) pairs with a relu between them, the SRM layer, then the block's output
        assert recorded_ops(tape) == ["conv2d", "batch_norm_train", "relu", "conv2d", "batch_norm_train",
                       "style_pool", "mul", "tsum", "batch_norm_train", "sigmoid", "residual_relu"]


def test_every_differentiable_op_has_a_model_caller():
    """The tensor core holds only the ops the models use: each one with a backward is recorded by some step."""
    differentiable = {name for name in T.__all__ if callable(fn := getattr(T, name)) and hasattr(fn, "__code__")
                      and any(getattr(c, "co_name", "").endswith("backward") for c in fn.__code__.co_consts)}
    assert {"conv2d", "residual_relu", "style_pool", "cross_entropy"} <= differentiable
    recorded = set()
    for recalib in ("none", "srm", "se:8", MLP_BN):
        recorded.update(train_step_ops(cifar_resnet_config(20, recalib), 8))
    recorded.update(train_step_ops(bottleneck_cfg(), 40))
    assert differentiable - recorded == set()
