import importlib
import json
import tracemalloc
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from style_recal.container import read_container, write_container
from style_recal.data import DataError, Dataset, SynthStyleSpec, synth_style
from style_recal.models import ArchitectureConfig, StageSpec, build_resnet, cifar_resnet_config, named_config
from style_recal.recalib import RecalibVariant
from style_recal.tensor import Parameter, ShapeError, Tape, Tensor, cross_entropy, settle_runtime, using_dtype
from style_recal.train import (
    SGD,
    TrainConfig,
    cifar_recipe,
    config_hash,
    evaluate,
    load_checkpoint,
    load_model,
    lr_at,
    save_checkpoint,
    step_schedule,
    _model_state,
    train,
    write_metrics_csv,
)

train_module = importlib.import_module("style_recal.train")


def tiny_cfg(recalib="srm"):
    return ArchitectureConfig(
        stages=[StageSpec(1, 8, 1), StageSpec(1, 16, 2)],
        recalib=__import__("style_recal.models", fromlist=["parse_recalib"]).parse_recalib(recalib),
        num_classes=4,
    )


def tiny_data(seed=0, per_class=16):
    return synth_style(SynthStyleSpec(seed=seed, per_class=per_class, size=8))


class TestSgdStep:
    def test_vanilla_step(self):
        p = Parameter(np.array([1.0, 2.0], dtype=np.float32))
        p.grad = np.array([0.5, -0.5], dtype=np.float32)
        opt = SGD({"p": p}, momentum=0.0, weight_decay=0.0)
        assert opt.step(lr=0.1)
        np.testing.assert_allclose(p.data, [0.95, 2.05], rtol=1e-6)

    def test_weight_decay_with_zero_grad(self):
        p = Parameter(np.array([2.0], dtype=np.float32))
        p.grad = np.zeros(1, dtype=np.float32)
        opt = SGD({"p": p}, momentum=0.0, weight_decay=0.1)
        opt.step(lr=0.5)
        # param <- param * (1 - lr * wd)
        np.testing.assert_allclose(p.data, [2.0 * (1 - 0.05)], rtol=1e-6)

    def test_momentum_hand_trace(self):
        # Two steps, momentum 0.9, constant grad 1, lr 0.1:
        # buf1 = 1, delta1 = 0.1; buf2 = 1.9, delta2 = 0.19; total 0.29.
        p = Parameter(np.array([0.0], dtype=np.float32))
        opt = SGD({"p": p}, momentum=0.9, weight_decay=0.0)
        for _ in range(2):
            p.grad = np.ones(1, dtype=np.float32)
            opt.step(lr=0.1)
        np.testing.assert_allclose(p.data, [-0.29], rtol=1e-6)

    def test_nonfinite_grad_aborts_without_mutation(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        p.grad = np.array([np.nan], dtype=np.float32)
        opt = SGD({"p": p})
        assert not opt.step(lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0])

    def test_decay_covers_every_trainable_parameter(self):
        model = build_resnet(tiny_cfg(), seed=0)
        params = dict(model.named_parameters())
        for p in params.values():
            p.data += 1.0  # no zero entries, so an undecayed parameter cannot match
        before = {name: p.data.copy() for name, p in params.items()}
        opt = SGD(params, weight_decay=1e-4)
        for p in params.values():
            p.grad = np.zeros_like(p.data)
        opt.step(lr=0.1)
        for name, p in params.items():
            np.testing.assert_array_equal(p.data, before[name] - 0.1 * (1e-4 * before[name]), err_msg=name)


class TestSchedule:
    def test_cifar_recipe_boundaries(self):
        sched = step_schedule(0.2, [32000, 48000])
        assert lr_at(sched, 0) == 0.2
        assert lr_at(sched, 31999) == 0.2
        assert lr_at(sched, 32000) == pytest.approx(0.02)
        assert lr_at(sched, 48000) == pytest.approx(0.002)
        assert lr_at(sched, 100000) == pytest.approx(0.002)

    def test_epoch_based_decade_drops(self):
        # 0.1 divided by 10 every 30 epochs, at some steps-per-epoch resolution.
        spe = 100
        sched = step_schedule(0.1, [30 * spe, 60 * spe])
        assert lr_at(sched, 29 * spe) == 0.1
        assert lr_at(sched, 30 * spe) == pytest.approx(0.01)
        assert lr_at(sched, 60 * spe) == pytest.approx(0.001)

    def test_single_entry_constant(self):
        assert lr_at([(0, 0.05)], 10**6) == 0.05

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            lr_at([(0, 0.1)], -1)

    def test_nonincreasing_schedule_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(schedule=[(10, 0.1), (5, 0.01)])

    def test_schedule_must_start_at_step_zero(self):
        with pytest.raises(ValueError, match=r"schedule must start at step 0, got \[100\]"):
            TrainConfig(lr=0.5, schedule=[(100, 0.05)])

    def test_lr_is_the_schedules_first_rate(self):
        assert TrainConfig(schedule=[(0, 0.05), (10, 0.005)]).lr == 0.05
        assert TrainConfig(lr=0.05, schedule=[(0, 0.05)]).lr == 0.05
        assert TrainConfig().lr == 0.1 and TrainConfig().schedule == [(0, 0.1)]
        with pytest.raises(ValueError, match=r"lr 0.1 disagrees with the schedule's first rate 0.05"):
            TrainConfig(lr=0.1, schedule=[(0, 0.05)])

    def test_recipe_defaults(self):
        cfg = cifar_recipe()
        assert cfg.steps == 64000 and cfg.batch_size == 128
        assert cfg.momentum == 0.9 and cfg.weight_decay == 1e-4
        assert lr_at(cfg.schedule, 0) == 0.2


class TestTrainLoop:
    def test_zero_lr_leaves_parameters_unchanged(self):
        # Schedules demand positive rates, so exercise the optimizer op directly.
        model = build_resnet(tiny_cfg(), seed=0)
        params = dict(model.named_parameters())
        before = {n: p.data.copy() for n, p in params.items()}
        opt = SGD(params, momentum=0.9, weight_decay=1e-4)
        rng = np.random.default_rng(0)
        for _ in range(5):
            for p in params.values():
                p.grad = rng.normal(size=p.data.shape).astype(p.data.dtype)
            opt.step(lr=0.0)
        for n, p in params.items():
            np.testing.assert_array_equal(p.data, before[n])

    def test_metrics_rows_and_csv(self, tmp_path):
        model = build_resnet(tiny_cfg(), seed=0)
        cfg = TrainConfig(steps=4, batch_size=8, lr=0.01, seed=0, log_every=2)
        result = train(model, tiny_data(), cfg, out_dir=tmp_path)
        assert [r["step"] for r in result.rows] == [2, 4]
        text = (tmp_path / "metrics.csv").read_text().splitlines()
        assert text[0] == "step,lr,loss,top1"
        assert len(text) == 3

    def test_determinism_same_seed_identical_csv(self, tmp_path):
        rows = []
        for run in range(2):
            model = build_resnet(tiny_cfg(), seed=5)
            cfg = TrainConfig(steps=6, batch_size=8, lr=0.05, seed=9, log_every=2,
                              augment_policy="pad-crop-flip")
            out = tmp_path / f"run{run}"
            train(model, tiny_data(), cfg, out_dir=out)
            rows.append((out / "metrics.csv").read_bytes())
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("resume,saved", [(False, [2, 4]), (True, [4])])
    def test_checkpoint_written_once_per_boundary(self, tmp_path, monkeypatch, resume, saved):
        import importlib

        train_mod = importlib.import_module("style_recal.train")
        cfg = TrainConfig(steps=4, batch_size=8, lr=0.01, seed=0, log_every=2)
        resume_from = None
        if resume:  # resumed at the last step, so no step runs
            first = train(build_resnet(tiny_cfg(), seed=0), tiny_data(), cfg, out_dir=tmp_path / "a")
            resume_from = first.checkpoint_path
        calls = []
        real = train_mod.save_checkpoint

        def counting(path, model, opt, step, cfg_hash):
            calls.append(step)
            real(path, model, opt, step, cfg_hash)

        monkeypatch.setattr(train_mod, "save_checkpoint", counting)
        result = train(build_resnet(tiny_cfg(), seed=0), tiny_data(), cfg, out_dir=tmp_path / "b",
                       resume_from=resume_from)
        assert calls == saved
        assert result.final_step == 4 and result.checkpoint_path.exists()

    def test_checkpoint_roundtrip_bitwise(self, tmp_path):
        model = build_resnet(tiny_cfg(), seed=1)
        data = tiny_data()
        cfg = TrainConfig(steps=4, batch_size=8, lr=0.05, seed=0, log_every=2)
        result = train(model, data, cfg, out_dir=tmp_path / "a")
        twin = build_resnet(tiny_cfg(), seed=2)  # different init, then restored
        opt = SGD(dict(twin.named_parameters()))
        step = load_checkpoint(result.checkpoint_path, twin, opt)
        assert step == 4
        save_checkpoint(tmp_path / "b.bin", twin, opt, step,
                        config_hash(asdict(twin.config), cfg.trajectory_dict()))
        assert (tmp_path / "b.bin").read_bytes() == result.checkpoint_path.read_bytes()

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        data = tiny_data()
        cfg_full = TrainConfig(steps=8, batch_size=8, lr=0.05, seed=3, log_every=2)

        full = build_resnet(tiny_cfg(), seed=7)
        res_full = train(full, data, cfg_full, out_dir=tmp_path / "full")

        part = build_resnet(tiny_cfg(), seed=7)
        cfg_half = TrainConfig(steps=4, batch_size=8, lr=0.05, seed=3, log_every=2)
        res_half = train(part, data, cfg_half, out_dir=tmp_path / "half")

        resumed = build_resnet(tiny_cfg(), seed=7)
        res_resumed = train(resumed, data, cfg_full, out_dir=tmp_path / "resumed",
                            resume_from=res_half.checkpoint_path)

        assert res_resumed.rows == res_full.rows[2:]
        assert res_resumed.checkpoint_path.read_bytes() == res_full.checkpoint_path.read_bytes()

    def test_nonfinite_loss_halts_immediately(self):
        model = build_resnet(tiny_cfg(), seed=0)
        model.classifier.bias.data[0] = np.inf  # logits inf -> loss nan at step 0
        cfg = TrainConfig(steps=50, batch_size=8, lr=0.01, seed=0, log_every=1)
        result = train(model, tiny_data(), cfg)
        assert result.diverged
        assert result.final_step == 0
        assert result.rows == []

    def test_divergence_restores_last_logged_state(self, monkeypatch):
        import importlib

        train_mod = importlib.import_module("style_recal.train")
        data = tiny_data()
        # Reference: the state after two clean steps (determinism gives equality).
        ref = build_resnet(tiny_cfg(), seed=0)
        train(ref, data, TrainConfig(steps=2, batch_size=8, lr=0.01, seed=0, log_every=1))
        ref_state = {n: p.data.copy() for n, p in ref.named_parameters()}

        real_ce = train_mod.cross_entropy
        calls = {"n": 0}

        def poisoned(logits, labels):
            calls["n"] += 1
            out = real_ce(logits, labels)
            if calls["n"] > 2:
                out.data = np.asarray(np.nan, dtype=out.data.dtype)
            return out

        monkeypatch.setattr(train_mod, "cross_entropy", poisoned)
        model = build_resnet(tiny_cfg(), seed=0)
        result = train_mod.train(
            model, data, TrainConfig(steps=50, batch_size=8, lr=0.01, seed=0, log_every=1)
        )
        assert result.diverged and result.final_step == 2
        for n, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, ref_state[n])

    def test_divergence_before_first_log_restores_starting_state(self, monkeypatch):
        import importlib

        train_mod = importlib.import_module("style_recal.train")
        fresh = build_resnet(tiny_cfg(), seed=0)
        real_ce = train_mod.cross_entropy
        calls = {"n": 0}

        def poisoned(logits, labels):
            calls["n"] += 1
            out = real_ce(logits, labels)
            if calls["n"] > 2:
                out.data = np.asarray(np.nan, dtype=out.data.dtype)
            return out

        monkeypatch.setattr(train_mod, "cross_entropy", poisoned)
        model = build_resnet(tiny_cfg(), seed=0)
        result = train_mod.train(
            model, tiny_data(), TrainConfig(steps=50, batch_size=8, lr=0.01, seed=0, log_every=10)
        )
        assert result.diverged and result.final_step == 2 and not result.rows
        for (n, p), (_, q) in zip(model.named_parameters(), fresh.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=n)
        for (n, b), (_, c) in zip(model.named_buffers(), fresh.named_buffers()):
            np.testing.assert_array_equal(b, c, err_msg=n)

    def test_nonfinite_grads_abort_steps_but_do_not_halt(self):
        model = build_resnet(tiny_cfg(), seed=0)
        cfg = TrainConfig(steps=5, batch_size=8, lr=1e30, momentum=0.9, weight_decay=0.0,
                          seed=0, log_every=1)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # deliberate overflow
            result = train(model, tiny_data(), cfg)
        assert not result.diverged
        assert result.aborted_steps > 0

    def test_refused_step_leaves_the_bn_statistics_alone(self, monkeypatch):
        model = build_resnet(tiny_cfg(), seed=0)
        before = []  # every buffer, as each step's forward starts
        forward = model.forward

        def recording_forward(*args, **kwargs):
            before.append({name: buf.copy() for name, buf in model.named_buffers()})
            return forward(*args, **kwargs)

        step = SGD.step
        calls = []

        def refusing_step(opt, lr):
            calls.append(lr)
            return False if len(calls) == 2 else step(opt, lr)

        monkeypatch.setattr(model, "forward", recording_forward)
        monkeypatch.setattr(SGD, "step", refusing_step)
        result = train(model, tiny_data(), TrainConfig(steps=3, batch_size=8, lr=0.01, seed=0, log_every=3))
        assert result.aborted_steps == 1 and len(before) == 3
        assert any(not np.array_equal(buf, before[0][name]) for name, buf in before[1].items())
        for name, buf in before[2].items():  # the refused second step's forward left no trace
            np.testing.assert_array_equal(buf, before[1][name], err_msg=name)

    def test_hash_mismatch_rejected(self, tmp_path):
        model = build_resnet(tiny_cfg(), seed=0)
        cfg = TrainConfig(steps=2, batch_size=8, lr=0.01, seed=0, log_every=1)
        result = train(model, tiny_data(), cfg, out_dir=tmp_path)
        other = build_resnet(tiny_cfg(), seed=0)
        with pytest.raises(ValueError, match="hash"):
            load_checkpoint(result.checkpoint_path, other, expect_hash="deadbeef")

    @pytest.mark.parametrize("target", ["none", "se"])
    def test_mismatched_recalib_rejected_with_key_names(self, tmp_path, target):
        save_checkpoint(tmp_path / "srm.bin", build_resnet(tiny_cfg("srm"), seed=0), None, 0, "h")
        other = build_resnet(tiny_cfg(target), seed=1)
        before = {name: p.data.copy() for name, p in other.named_parameters()}
        with pytest.raises(ValueError) as exc:
            load_checkpoint(tmp_path / "srm.bin", other)
        msg = str(exc.value)
        assert "unexpected ['buffer.stages.0.0.recalib.integrate.bn.num_batches'" in msg
        assert "'param.stages.1.0.recalib.integrate.weight'" in msg
        if target == "se":
            assert "missing ['param.stages.0.0.recalib.integrate.fc1.bias'" in msg
        else:
            assert "missing []" in msg
        for name, p in other.named_parameters():  # nothing is written on a mismatch
            np.testing.assert_array_equal(p.data, before[name])

    def test_shape_mismatch_and_optimizer_entries_named(self, tmp_path):
        model = build_resnet(tiny_cfg(), seed=0)
        save_checkpoint(tmp_path / "c.bin", model, None, 0, "h")
        wide = ArchitectureConfig(stages=[StageSpec(1, 8, 1), StageSpec(1, 16, 2)], num_classes=5,
                                  recalib=tiny_cfg().recalib)
        with pytest.raises(ValueError, match=r"shape mismatch \['param.classifier.weight \(16, 4\) vs \(16, 5\)'"):
            load_checkpoint(tmp_path / "c.bin", build_resnet(wide, seed=0))
        # opt.* entries are compared only when an optimizer is passed.
        twin = build_resnet(tiny_cfg(), seed=0)
        with pytest.raises(ValueError, match=r"missing \['opt.classifier.bias'"):
            load_checkpoint(tmp_path / "c.bin", twin, SGD(dict(twin.named_parameters())))

    def test_float64_checkpoint_loads_as_float64_and_not_into_float32(self, tmp_path):
        with using_dtype(np.float64):
            model = build_resnet(tiny_cfg(), seed=0)
        train(model, tiny_data(), TrainConfig(steps=2, batch_size=8, lr=0.05, seed=0, log_every=2), out_dir=tmp_path)
        save_checkpoint(tmp_path / "c.bin", model, None, 2, "h")
        loaded = load_model(tmp_path / "c.bin")
        for (name, p), (_, q) in zip(model.named_parameters(), loaded.named_parameters()):
            assert q.data.dtype == np.float64 and q.data.tobytes() == p.data.tobytes(), name
        narrow = build_resnet(tiny_cfg(), seed=1)
        before = {name: p.data.copy() for name, p in narrow.named_parameters()}
        with pytest.raises(ValueError, match=r"dtype mismatch \['param.stem_conv.weight float64 vs float32'"):
            load_checkpoint(tmp_path / "c.bin", narrow)
        for name, p in narrow.named_parameters():  # nothing is written on a mismatch
            np.testing.assert_array_equal(p.data, before[name])

    def test_evaluate_counts_correctly(self):
        model = build_resnet(tiny_cfg(), seed=0)
        data = tiny_data(per_class=8)
        acc = evaluate(model, data, batch_size=16)
        assert 0.0 <= acc <= 1.0

    def test_more_classes_than_the_model_rejected(self, tmp_path):
        cfg = tiny_cfg()
        cfg.num_classes = 2
        model = build_resnet(cfg, seed=0)
        with pytest.raises(ValueError, match="the train set has 4 classes, more than the model's 2"):
            evaluate(model, tiny_data())
        with pytest.raises(ValueError, match="the train set has 4 classes, more than the model's 2"):
            train(model, tiny_data(), TrainConfig(steps=2, batch_size=8, log_every=1), out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_empty_set_rejected(self):
        empty = Dataset(np.zeros((0, 3, 8, 8), np.float32), np.zeros(0, np.int64), "test", 4)
        with pytest.raises(ValueError, match="the test set is empty"):
            evaluate(build_resnet(tiny_cfg(), seed=0), empty)

    def test_train_set_smaller_than_the_batch_rejected_before_the_first_step(self, tmp_path):
        model = build_resnet(tiny_cfg(), seed=0)
        with pytest.raises(DataError, match="the train set has 8 examples, fewer than the batch size 16"):
            train(model, tiny_data(per_class=2), TrainConfig(steps=2, batch_size=16, log_every=1),
                  out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("eval_set,message", [
        (lambda: synth_style(SynthStyleSpec(per_class=2, size=8), "test"),
         "the test set has 4 classes, more than the model's 2"),
        (lambda: Dataset(np.zeros((0, 3, 8, 8), np.float32), np.zeros(0, np.int64), "test", 2),
         "the test set is empty"),
    ], ids=["too-many-classes", "empty"])
    def test_unusable_eval_set_rejected_before_the_first_step(self, tmp_path, eval_set, message):
        cfg = tiny_cfg()
        cfg.num_classes = 2
        model = build_resnet(cfg, seed=0)
        before = {k: v.copy() for k, v in _model_state(model, None).items()}
        two_classes = synth_style(SynthStyleSpec(num_classes=2, per_class=8, size=8))
        run = TrainConfig(steps=4, batch_size=8, log_every=2, eval_every=2)
        with pytest.raises(DataError, match=message):
            train(model, two_classes, run, out_dir=tmp_path / "run", eval_dataset=eval_set())
        assert not (tmp_path / "run").exists()
        for k, v in _model_state(model, None).items():  # no step ran: parameters and BN statistics as built
            np.testing.assert_array_equal(v, before[k], err_msg=k)

    @pytest.mark.parametrize("fails", ["forward", "gate_transform"])
    def test_a_failing_eval_leaves_the_model_in_training_mode(self, fails):
        model = build_resnet(tiny_cfg(), seed=0)
        data = tiny_data(per_class=2)
        if fails == "forward":  # one image channel where the stem takes three
            data = Dataset(data.images[:, :1], data.labels, data.split, data.num_classes)

        def refuse(stage, block, g):
            raise RuntimeError("gate_transform")

        with pytest.raises(ShapeError if fails == "forward" else RuntimeError):
            evaluate(model, data, gate_transform=refuse if fails == "gate_transform" else None)
        assert model.training

    @pytest.mark.parametrize("run", ["train", "evaluate"])
    def test_the_runtime_is_settled_before_the_first_batch(self, monkeypatch, run):
        """train() and evaluate() settle the runtime (freed memory kept mapped) once, before any forward."""
        events = []
        monkeypatch.setattr(train_module, "settle_runtime", lambda: events.append("settle"))
        model = build_resnet(tiny_cfg(), seed=0)
        forward = model.forward
        monkeypatch.setattr(model, "forward", lambda *a, **k: events.append("forward") or forward(*a, **k))
        if run == "train":
            train(model, tiny_data(per_class=2), TrainConfig(steps=2, batch_size=4, log_every=2))
        else:
            evaluate(model, tiny_data(per_class=2))
        assert events[0] == "settle" and events.count("settle") == 1 and "forward" in events

    def test_fifty_steps_learn_two_class_style_task(self):
        # Mean-separated two-class set; the styled 20-layer net should fit it
        # almost immediately. Median final train accuracy over 3 seeds > 0.9.
        from style_recal.models import cifar_resnet_config

        spec = SynthStyleSpec(
            num_classes=2, per_class=64, size=8,
            class_means=(-1.0, 1.0), class_stds=(0.8, 0.8), jitter=0.05, seed=2,
        )
        data = synth_style(spec)
        finals = []
        for seed in (0, 1, 2):
            model = build_resnet(cifar_resnet_config(20, recalib="srm", num_classes=2), seed=seed)
            train(model, data, TrainConfig(steps=50, batch_size=32, lr=0.1, seed=seed, log_every=50))
            finals.append(evaluate(model, data, batch_size=64))
        assert sorted(finals)[1] > 0.9, finals


# Configs whose architecture a checkpoint's meta must give back as written.
META_ARCHS = {
    **{f"{arch}-{recalib}": named_config(arch, recalib)
       for arch in ("resnet20", "resnet50") for recalib in ("none", "srm", "se", "se:8")},
    "mlp-bn-avg-std-max": ArchitectureConfig(
        stages=[StageSpec(1, 8, 1), StageSpec(1, 16, 2)], num_classes=4, in_channels=1, stem_channels=4,
        recalib=RecalibVariant(pooling=("avg", "std", "max"), integration="mlp", use_bn=True, se_reduction=2)),
    "cfc-max-nobn": ArchitectureConfig(
        stages=[StageSpec(1, 8, 1), StageSpec(1, 16, 2)], num_classes=4,
        recalib=RecalibVariant(pooling=("max",), integration="cfc", use_bn=False)),
}


class TestArchitectureInMeta:
    @pytest.mark.parametrize("name", sorted(META_ARCHS))
    def test_meta_records_the_architecture(self, tmp_path, name):
        cfg = META_ARCHS[name]
        stateless = SimpleNamespace(config=cfg, named_parameters=lambda: [], named_buffers=lambda: [])
        save_checkpoint(tmp_path / "c.bin", stateless, None, 0, "h")
        _, meta = read_container(tmp_path / "c.bin")
        assert meta["arch"] == json.loads(json.dumps(asdict(cfg)))
        assert ArchitectureConfig.from_dict(meta["arch"]) == cfg

    def test_load_model_ignores_optimizer_entries(self, tmp_path):
        model = build_resnet(tiny_cfg(), seed=0)
        result = train(model, tiny_data(), TrainConfig(steps=2, batch_size=8, lr=0.05, seed=0, log_every=2),
                       out_dir=tmp_path)
        loaded = load_model(result.checkpoint_path)
        for (name, p), (_, q) in zip(model.named_parameters(), loaded.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=name)

    def test_checkpoint_with_scalars_stored_as_one_element_loads(self, tmp_path):
        """Checkpoints written while the container stored 0-d arrays as shape (1,) still load."""
        model = build_resnet(tiny_cfg(), seed=0)
        train(model, tiny_data(), TrainConfig(steps=2, batch_size=8, lr=0.05, seed=0, log_every=2), out_dir=tmp_path)
        save_checkpoint(tmp_path / "c.bin", model, None, 2, "h")
        entries, meta = read_container(tmp_path / "c.bin")
        scalars = [k for k, v in entries.items() if v.ndim == 0]
        assert scalars and all(k.endswith(".num_batches") for k in scalars)
        write_container(tmp_path / "old.bin", {k: v.reshape(-1) if v.ndim == 0 else v for k, v in entries.items()},
                        meta)
        loaded = load_model(tmp_path / "old.bin")
        for (name, b), (_, c) in zip(model.named_buffers(), loaded.named_buffers()):
            assert c.shape == b.shape, name
            np.testing.assert_array_equal(c, b, err_msg=name)
        for (name, p), (_, q) in zip(model.named_parameters(), loaded.named_parameters()):
            np.testing.assert_array_equal(q.data, p.data, err_msg=name)

    def test_checkpoint_without_arch_names_the_file(self, tmp_path):
        model = build_resnet(tiny_cfg(), seed=0)
        entries = {"param." + n: p.data for n, p in model.named_parameters()}
        entries.update({"buffer." + n: b for n, b in model.named_buffers()})
        old = tmp_path / "old.bin"
        write_container(old, entries, meta={"kind": "checkpoint", "step": 0, "config_hash": "h"})
        with pytest.raises(ValueError, match=f"{old}: checkpoint meta records no architecture"):
            load_model(old)
        assert load_checkpoint(old, build_resnet(tiny_cfg(), seed=1)) == 0  # a model built by hand still loads


# Digests written by earlier builds into checkpoints and manifests; a change
# here means those checkpoints can no longer be resumed.
@pytest.mark.parametrize("recalib,digest", [
    ("none", "094b736532eaf1912d315b87e13f03a433ba2728da996a40f4a08cbebbb64189"),
    ("srm", "2d9b293c3d94769092d5313dcf6954325affe77aeb8582f554d65f9ac5b076ab"),
    ("se", "c425292b53fe9a6a798aa85cd7942dd5507012952f5450f90fa169ac49971e84"),
    ("se:8", "e11bf57cc1b706aee75a97fa63ab83ea8d334d0ed8597ed7b0c568480a42cce8"),
    ('{"pooling": ["avg", "std"], "integration": "mlp", "use_bn": true, "se_reduction": 4}',
     "cd48c6d95922d0d9329a0afd2cfa82beef900aa51a210c29b86cb3037ea47dad"),
])
def test_config_hash_is_stable(recalib, digest):
    arch = asdict(named_config("resnet20", recalib))
    assert config_hash(arch, cifar_recipe(0).trajectory_dict()) == digest


def test_write_metrics_with_eval_column(tmp_path):
    rows = [{"step": 1, "lr": 0.1, "loss": 0.5, "top1": 0.5, "test_top1": 0.4}]
    write_metrics_csv(tmp_path / "m.csv", rows)
    head = (tmp_path / "m.csv").read_text().splitlines()[0]
    assert head == "step,lr,loss,top1,test_top1"


def test_train_step_memory_peak_is_bounded():
    """A resnet20+SRM step at 32x32, batch 32 allocates at most 320 MiB at its peak.

    Measured with tracemalloc: 419 MiB when every conv kept its whole-batch
    patch matrix until the backward, 234 MiB with batch-sliced lowering.
    """
    model = build_resnet(cifar_resnet_config(20, "srm"), seed=0)
    model.train()
    opt = SGD(dict(model.named_parameters()), momentum=0.9, weight_decay=5e-4)
    rng = np.random.default_rng(0)
    images = rng.normal(size=(32, 3, 32, 32)).astype(np.float32)
    labels = rng.integers(0, 10, size=32)
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = cross_entropy(model(Tensor(images)), labels)
        tape.backward(loss)
        assert opt.step(0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 320 * 2**20, f"train step peak {peak / 2**20:.1f} MiB"


def test_train_step_memory_peak_holds_only_what_the_backward_reads():
    """The same step peaks at most at 110 MiB: the tape frees each activation once its record has run.

    Measured with tracemalloc: 216 MiB when the tape kept every op's input and
    output, and every intermediate its gradient, until the step ended; 74 MiB
    with records that hold only what their backward reads.
    """
    model = build_resnet(cifar_resnet_config(20, "srm"), seed=0)
    model.train()
    opt = SGD(dict(model.named_parameters()), momentum=0.9, weight_decay=5e-4)
    rng = np.random.default_rng(0)
    images = rng.normal(size=(32, 3, 32, 32)).astype(np.float32)
    labels = rng.integers(0, 10, size=32)
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = cross_entropy(model(Tensor(images)), labels)
        tape.backward(loss)
        assert opt.step(0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 110 * 2**20, f"train step peak {peak / 2**20:.1f} MiB"


def test_steady_train_steps_fault_in_few_pages():
    """Steady-state resnet20+SRM train() steps at 32x32, batch 64, each make fewer than 5k minor faults.

    Without settle_runtime's mallopt settings glibc returns the memory the backward
    frees to the kernel, and every step faults it in again.
    """
    if not settle_runtime()["malloc_set"]:
        pytest.skip("the page-fault bound is set for glibc's allocator")
    import resource

    data = synth_style(SynthStyleSpec(num_classes=2, per_class=64, size=32, class_means=(-1.0, 1.0),
                                      class_stds=(0.8, 0.8), jitter=0.05, seed=2))
    model = build_resnet(cifar_resnet_config(20, recalib="srm", num_classes=2), seed=0)
    faults = []

    def after_step(row):
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        return False

    cfg = TrainConfig(steps=6, batch_size=64, lr=0.01, log_every=1, augment_policy="pad-crop-flip")
    assert train(model, data, cfg, stop_when=after_step).final_step == 6
    per_step = np.diff(faults)[2:]  # the first steps fault in the working set
    assert per_step.max() < 5000, f"minor faults per steady step: {per_step.tolist()}"
