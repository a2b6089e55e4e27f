import argparse
import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from style_recal import tensor as T
from style_recal.analysis import capture_record, correlation_matrix, prune_eval
from style_recal.cli import build_parser, main
from style_recal.container import read_container, write_container
from style_recal.data import Dataset, load_dataset, save_dataset
from style_recal.models import ArchitectureConfig, build_resnet
from style_recal.train import evaluate, load_checkpoint, load_model, save_checkpoint


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(["synth", "--out", str(out), "--per-class", "16", "--size", "8", "--seed", "11"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("run")
    rc = main([
        "train",
        "--arch", _tiny_arch_file(tmp_path_factory),
        "--recalib", "srm",
        "--data", str(synth_dir / "train.bin"),
        "--out", str(out),
        "--steps", "4",
        "--batch", "16",
        "--lr", "0.05",
        "--log-every", "2",
        "--seed", "1",
    ])
    assert rc == 0
    return out


_arch_cache = {}


def _tiny_arch_file(tmp_path_factory):
    if "path" not in _arch_cache:
        p = tmp_path_factory.mktemp("arch") / "tiny.json"
        p.write_text(json.dumps({
            "stages": [
                {"blocks": 1, "channels": 8, "stride": 1},
                {"blocks": 1, "channels": 16, "stride": 2},
            ],
            "block_kind": "basic",
            "num_classes": 4,
        }))
        _arch_cache["path"] = str(p)
    return _arch_cache["path"]


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--wat"])
        assert exc.value.code == 2

    def test_unknown_arch_usage_error(self, capsys):
        rc = main(["complexity", "--arch", "resnet19"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_config_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["complexity", "--arch", str(bad)]) == 2

    def test_missing_dataset_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("STYLE_RECAL_DATA", raising=False)
        rc = main(["eval", "--ckpt", str(tmp_path / "no.bin")])
        assert rc == 2

    def test_unknown_arch_key_usage_error(self, tmp_path, capsys):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"stages": [{"blocks": 1, "channels": 8, "stride": 1}], "num_clases": 3}))
        assert main(["complexity", "--arch", str(path)]) == 2
        assert "num_clases" in capsys.readouterr().err

    def test_unknown_recalib_key_usage_error(self, capsys):
        rc = main(["complexity", "--arch", "resnet20", "--recalib", '{"pooling": ["avg"], "use_nb": false}'])
        assert rc == 2
        assert "use_nb" in capsys.readouterr().err

    @pytest.mark.parametrize("stage,fields,named", [
        ({"channels": 16.0}, {}, "channels must be an integer >= 1, got 16.0"),
        ({"blocks": True}, {}, "blocks must be an integer >= 1, got True"),
        ({}, {"num_classes": "4"}, "num_classes must be an integer >= 1, got '4'"),
        ({}, {"num_classes": 0}, "num_classes must be an integer >= 1, got 0"),
        ({}, {"in_channels": 0}, "in_channels must be an integer >= 1, got 0"),
    ])
    def test_non_integer_arch_field_usage_error(self, tmp_path, capsys, stage, fields, named):
        path = tmp_path / "arch.json"
        path.write_text(json.dumps({"stages": [{"blocks": 1, "channels": 8, "stride": 1, **stage}], **fields}))
        assert main(["complexity", "--arch", str(path)]) == 2
        assert named in capsys.readouterr().err


# sha256 of the stdout of `complexity --arch A --recalib R [--running-stats]`.
# The output holds only integers and flops / 1e9, so it is the same on every
# platform; a changed digest means a parameter or FLOP count changed.
COMPLEXITY_DIGESTS = {
    ("resnet20", "none", False): "b27858a15e166c47fba7c2a47fcf0600df64fb70e7332606afa337eab7d37da5",
    ("resnet20", "none", True): "fe767e585f24e9629c41161ad98b3454f875b1c75d31ade54c1c741ea64d44ef",
    ("resnet20", "srm", False): "e1dc7258f066bb14c038501050a28b6a2e51c903dd4c5cb551a55223f2a56fd5",
    ("resnet20", "srm", True): "6260d52b24fed369b1d5615b98d890599547e34c15ec8113dbf30acb4674efbf",
    ("resnet20", "se", False): "ce750dd2e88fd3b53aa498f3f92485766608a8135f582df55bf6c9305d36b81d",
    ("resnet20", "se", True): "303d875dfc4a106162111c685219a415ee33373e80051b360371a6607e599592",
    ("resnet50", "none", False): "c54a92f23d7d81faaad468b044ee25766cb0a0079c5b79692b803d24497559c5",
    ("resnet50", "none", True): "3b375d647366564a315adcce09ac0d76e7d1f7f0adc52932f74c7e2e3e75a8e4",
    ("resnet50", "srm", False): "9aea2194ba1c29ebe7e658810640d4d540e5cec458da089c529e3d1657f4e402",
    ("resnet50", "srm", True): "19d0e6b5ec08a8368ce4a3c4880241c79aafb51365e4a9497df8669b6c2af940",
    ("resnet50", "se", False): "e91269b6cdbbc006e800a2f2c3760a96a97af66e4ed4d3eb89f4239952f4bd9f",
    ("resnet50", "se", True): "81ad89357ac3c06a6b8d2ccfb6c9a740c66e269fd74241c4fa4469ef8ebf312a",
}


class TestComplexityCommand:
    @pytest.mark.parametrize("arch,recalib,running_stats", sorted(COMPLEXITY_DIGESTS))
    def test_output_is_pinned(self, capsys, arch, recalib, running_stats):
        rc = main(["complexity", "--arch", arch, "--recalib", recalib] + ["--running-stats"] * running_stats)
        assert rc == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == COMPLEXITY_DIGESTS[arch, recalib, running_stats]

    def test_srm_resnet50_added_params(self, capsys):
        rc = main(["complexity", "--arch", "resnet50", "--recalib", "srm"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["added_by_recalib"] == 60416
        assert abs(report["gflops"] - 3.86) / 3.86 < 0.05

    def test_running_stats_convention(self, capsys):
        rc = main(["complexity", "--arch", "resnet50", "--recalib", "srm", "--running-stats"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["added_by_recalib"] == 90624

    @pytest.mark.parametrize("size", ["0", "-8"])
    def test_input_size_below_one_usage_error(self, tmp_path, capsys, size):
        out = tmp_path / "out"
        assert main(["complexity", "--arch", "resnet20", "--input-size", size, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"--input-size must be >= 1, got {size}" in captured.err and captured.out == ""
        assert not out.exists()

    def test_writes_report_files(self, tmp_path, capsys):
        rc = main(["complexity", "--arch", "resnet20", "--recalib", "se:8",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "report.txt").exists()
        assert (tmp_path / "manifest.json").exists()


class TestGradcheckCommand:
    def test_exit_zero_and_prints_max_error(self, capsys):
        rc = main(["gradcheck", "--seed", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max relative error" in out

    def test_no_seeds_usage_error(self, capsys):
        assert main(["gradcheck", "--count", "0"]) == 2
        captured = capsys.readouterr()
        assert "--count must be >= 1, got 0" in captured.err and captured.out == ""


class TestSynthCommand:
    def test_outputs_and_manifest(self, synth_dir):
        assert (synth_dir / "train.bin").exists()
        assert (synth_dir / "test.bin").exists()
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["resolved_config"]["spec"]["seed"] == 11

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--out", str(out), "--per-class", "4", "--size", "8"]) == 0
        assert (a / "train.bin").read_bytes() == (b / "train.bin").read_bytes()

    def test_inseparable_spec_usage_error(self, tmp_path):
        rc = main(["synth", "--out", str(tmp_path), "--classes", "2",
                   "--means", "0.0,0.01", "--stds", "1.0,1.0", "--jitter", "0.1"])
        assert rc == 2

    @pytest.mark.parametrize("flag", ["--means", "--stds"])
    def test_unparsable_targets_usage_error(self, tmp_path, capsys, flag):
        assert main(["synth", "--out", str(tmp_path), "--classes", "2", flag, "a,b"]) == 2
        assert f"{flag} 'a,b'" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_unusable_spec_usage_error(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path), "--size", "1"]) == 2
        assert "size must be >= 2, got 1" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()


# Every flag of every subcommand; README.md's "Command line" table lists the same sets.
CLI_FLAGS = {
    "train": {"--seed", "--data", "--batch", "--arch", "--recalib", "--out", "--steps", "--lr", "--schedule",
              "--momentum", "--weight-decay", "--augment", "--log-every", "--eval-every", "--test-data", "--resume"},
    "eval": {"--data", "--batch", "--ckpt", "--split", "--out"},
    "prune": {"--data", "--batch", "--ckpt", "--split", "--stage", "--ratios", "--out"},
    "analyze": {"--data", "--batch", "--ckpt", "--split", "--top-k", "--out"},
    "complexity": {"--arch", "--recalib", "--input-size", "--running-stats", "--out"},
    "gradcheck": {"--seed", "--count"},
    "synth": {"--seed", "--out", "--classes", "--per-class", "--size", "--channels", "--jitter", "--means", "--stds"},
}


def test_cli_surface_is_pinned():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    found = {name: {s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")}
             for name, p in subparsers.choices.items()}
    assert found == CLI_FLAGS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    listed = {m[1]: set(re.findall(r"`(--[a-z-]+)`", m[2]))
              for m in re.finditer(r"^\| `(\w+)` \| (.*) \|$", section, re.MULTILINE)}
    assert listed == CLI_FLAGS


class TestTrainUsageErrors:
    @pytest.mark.parametrize("flags,named", [
        (["--schedule", "100"], "'100'"),
        (["--schedule", "0:abc"], "'abc'"),
        (["--schedule", "5:0.1,2:0.2"], "[5, 2]"),
        (["--eval-every", "3", "--log-every", "2"], "eval_every (3)"),
        (["--log-every", "0"], "log_every must be >= 1, got 0"),
        (["--batch", "0"], "batch_size must be >= 2, got 0"),
        (["--batch", "1"], "batch_size must be >= 2, got 1"),
        (["--batch", "128"], "the train set has 64 examples, fewer than the batch size 128"),
    ])
    def test_bad_value_is_named_and_writes_nothing(self, synth_dir, tmp_path_factory, tmp_path, capsys,
                                                   flags, named):
        out = tmp_path / "run"
        rc = main(["train", "--arch", _tiny_arch_file(tmp_path_factory), "--data", str(synth_dir / "train.bin"),
                   "--out", str(out), "--steps", "2", "--batch", "8", "--log-every", "1"] + flags)
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("flags,named", [
        (["--lr", "0.5", "--schedule", "0:0.05"], "argument --schedule: not allowed with argument --lr"),
    ])
    def test_flags_that_would_override_each_other(self, synth_dir, tmp_path_factory, tmp_path, capsys,
                                                 flags, named):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--arch", _tiny_arch_file(tmp_path_factory), "--data", str(synth_dir / "train.bin"),
                  "--out", str(out), "--steps", "2", "--batch", "8"] + flags)
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_schedule_not_from_step_zero_usage_error(self, synth_dir, tmp_path_factory, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["train", "--arch", _tiny_arch_file(tmp_path_factory), "--data", str(synth_dir / "train.bin"),
                   "--out", str(out), "--steps", "2", "--batch", "8", "--schedule", "100:0.05"])
        assert rc == 2
        assert "schedule must start at step 0, got [100]" in capsys.readouterr().err
        assert not out.exists()


    def test_schedule_run_records_its_first_rate(self, synth_dir, tmp_path_factory, tmp_path):
        out = tmp_path / "run"
        rc = main(["train", "--arch", _tiny_arch_file(tmp_path_factory), "--data", str(synth_dir / "train.bin"),
                   "--out", str(out), "--steps", "2", "--batch", "8", "--log-every", "2", "--schedule", "0:0.05"])
        assert rc == 0
        resolved = json.loads((out / "manifest.json").read_text())["resolved_config"]
        assert resolved["train"]["lr"] == 0.05 and resolved["train"]["schedule"] == [[0, 0.05]]

    def test_missing_resume_usage_error(self, synth_dir, tmp_path_factory, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["train", "--arch", _tiny_arch_file(tmp_path_factory), "--data", str(synth_dir / "train.bin"),
                   "--out", str(out), "--steps", "2", "--batch", "8", "--resume", str(tmp_path / "nope.bin")])
        assert rc == 2
        assert "nope.bin" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_under_other_flags_leaves_the_run_untouched(self, trained_run, synth_dir, tmp_path_factory,
                                                                tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(trained_run, run)
        before = {f.name: f.read_bytes() for f in run.iterdir()}
        rc = main(["train", "--arch", _tiny_arch_file(tmp_path_factory), "--recalib", "se",
                   "--data", str(synth_dir / "train.bin"), "--out", str(run), "--steps", "6", "--batch", "16",
                   "--lr", "0.05", "--log-every", "2", "--seed", "1", "--resume", str(run / "checkpoint.bin")])
        assert rc == 2
        saved = json.loads(before["manifest.json"])["resolved_config"]["config_hash"]
        assert re.search(f"config hash {saved} != expected [0-9a-f]{{64}}", capsys.readouterr().err)
        assert {f.name: f.read_bytes() for f in run.iterdir()} == before

    @pytest.mark.parametrize("relabel,message", [
        (lambda labels: labels.astype(np.float64), "labels are float64, not integer class ids"),
        (lambda labels: labels[:, None], r"labels have shape \(\d+, 1\), not one class id per image"),
    ], ids=["float", "column"])
    def test_malformed_labels_usage_error(self, synth_dir, tmp_path_factory, tmp_path, capsys, relabel, message):
        entries, meta = read_container(synth_dir / "train.bin")
        bad = tmp_path / "bad.bin"
        write_container(bad, dict(entries, labels=relabel(entries["labels"])), meta)
        out = tmp_path / "run"
        rc = main(["train", "--arch", _tiny_arch_file(tmp_path_factory), "--data", str(bad),
                   "--out", str(out), "--steps", "2", "--batch", "8", "--log-every", "1"])
        assert rc == 2
        assert re.search(f"{re.escape(str(bad))}: dataset: {message}", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("train_classes,named", [(4, "train"), (2, "test")])
    def test_more_classes_than_the_model_usage_error(self, synth_dir, two_class, tmp_path, capsys,
                                                     train_classes, named):
        out = tmp_path / "run"
        train_set = synth_dir / "train.bin" if train_classes == 4 else two_class / "synth" / "train.bin"
        rc = main(["train", "--arch", str(two_class / "arch.json"), "--data", str(train_set), "--out", str(out),
                   "--steps", "2", "--batch", "8", "--log-every", "1", "--eval-every", "1",
                   "--test-data", str(synth_dir / "test.bin")])
        assert rc == 2
        assert f"the {named} set has 4 classes, more than the model's 2" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_test_data_usage_error(self, two_class, tmp_path, capsys):
        empty = tmp_path / "empty.bin"
        save_dataset(empty, Dataset(np.zeros((0, 3, 8, 8), np.float32), np.zeros(0, np.int64), "test", 2))
        out = tmp_path / "run"
        rc = main(["train", "--arch", str(two_class / "arch.json"), "--data", str(two_class / "synth" / "train.bin"),
                   "--out", str(out), "--steps", "2", "--batch", "8", "--log-every", "1", "--eval-every", "1",
                   "--test-data", str(empty)])
        assert rc == 2
        assert "the test set is empty" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def two_class(tmp_path_factory):
    """A 2-class SRM architecture file, an untrained checkpoint of it and a 2-class synthetic set."""
    work = tmp_path_factory.mktemp("two_class")
    arch = json.loads(Path(_tiny_arch_file(tmp_path_factory)).read_text())
    srm = {"pooling": ["avg", "std"], "integration": "cfc", "use_bn": True}
    (work / "arch.json").write_text(json.dumps({**arch, "num_classes": 2, "recalib": srm}))
    model = build_resnet(ArchitectureConfig.from_json((work / "arch.json").read_text()))
    save_checkpoint(work / "ckpt.bin", model, None, 0, "h")
    assert main(["synth", "--out", str(work / "synth"), "--classes", "2", "--per-class", "8", "--size", "8"]) == 0
    return work


class TestTrainEvalPipeline:
    def test_train_outputs(self, trained_run):
        assert (trained_run / "metrics.csv").exists()
        assert (trained_run / "checkpoint.bin").exists()
        manifest = json.loads((trained_run / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert "config_hash" in manifest["resolved_config"]
        assert manifest["threads"] == T.settle_runtime()

    def test_eval_checkpoint(self, trained_run, synth_dir, tmp_path_factory, capsys):
        rc = main([
            "eval",
            "--ckpt", str(trained_run / "checkpoint.bin"),
            "--data", str(synth_dir / "test.bin"),
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["top1"] <= 1.0
        assert payload["examples"] == 64

    def test_folded_checkpoint_reads_like_any_other(self, trained_run, synth_dir, tmp_path, capsys):
        model = load_model(trained_run / "checkpoint.bin")
        assert model.fold_bn() == len(model.recalib_layers())
        folded = str(tmp_path / "folded.bin")
        save_checkpoint(folded, model, None, 4, "h")
        test = synth_dir / "test.bin"
        assert main(["eval", "--ckpt", folded, "--data", str(test)]) == 0
        want = {"top1": evaluate(model, load_dataset(test), batch_size=128), "examples": 64, "split": "test"}
        assert capsys.readouterr().out == json.dumps(want) + "\n"
        assert main(["analyze", "--ckpt", folded, "--data", str(test), "--out", str(tmp_path / "analysis")]) == 0
        manifest = json.loads((tmp_path / "analysis" / "manifest.json").read_text())
        assert manifest["resolved_config"]["arch"]["recalib"]["use_bn"] is False
        assert manifest["threads"] == T.settle_runtime()

    def test_prune_csv_row_count(self, trained_run, synth_dir, tmp_path, capsys):
        rc = main([
            "prune",
            "--ckpt", str(trained_run / "checkpoint.bin"),
            "--data", str(synth_dir / "test.bin"),
            "--stage", "0",
            "--ratios", "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "prune.csv").read_text().splitlines()
        assert lines[0] == "ratio,top1"
        assert len(lines) == 12  # header + 11 ratios

    @pytest.mark.parametrize("command,flags,named", [
        ("prune", ["--stage", "0", "--ratios", "1.5"], "--ratios '1.5'"),
        ("prune", ["--stage", "0", "--ratios", "a,0.5"], "--ratios 'a,0.5'"),
        ("prune", ["--stage", "7"], "--stage 7"),
        ("analyze", ["--top-k", "0"], "--top-k must be >= 1, got 0"),
    ])
    def test_unusable_value_usage_error(self, trained_run, synth_dir, tmp_path, capsys, command, flags, named):
        rc = main([
            command,
            "--ckpt", str(trained_run / "checkpoint.bin"),
            "--data", str(synth_dir / "test.bin"),
            "--out", str(tmp_path),
        ] + flags)
        assert rc == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,flags", [("eval", []), ("prune", ["--stage", "0"]), ("analyze", [])])
    @pytest.mark.parametrize("batch", ["0", "-4"])
    def test_batch_below_one_usage_error(self, trained_run, synth_dir, tmp_path, capsys, command, flags, batch):
        rc = main([command, "--ckpt", str(trained_run / "checkpoint.bin"), "--data", str(synth_dir / "test.bin"),
                   "--out", str(tmp_path), "--batch", batch] + flags)
        assert rc == 2
        captured = capsys.readouterr()
        assert f"--batch must be >= 1, got {batch}" in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_analyze_outputs(self, trained_run, synth_dir, tmp_path, capsys):
        rc = main([
            "analyze",
            "--ckpt", str(trained_run / "checkpoint.bin"),
            "--data", str(synth_dir / "test.bin"),
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "record.bin").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "sum_squared_corr" in summary
        assert (tmp_path / "corr_stage0_block0.csv").exists()
        assert (tmp_path / "top_stage0_block0.csv").exists()

    def test_train_determinism_across_invocations(self, synth_dir, tmp_path_factory):
        outs = []
        for name in ("d1", "d2"):
            out = tmp_path_factory.mktemp(name)
            rc = main([
                "train",
                "--arch", _arch_cache["path"],
                "--recalib", "srm",
                "--data", str(synth_dir / "train.bin"),
                "--out", str(out),
                "--steps", "4",
                "--batch", "16",
                "--lr", "0.05",
                "--log-every", "2",
                "--seed", "3",
            ])
            assert rc == 0
            outs.append(out)
        a, b = outs
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()

    def test_resume_matches_direct_run(self, synth_dir, tmp_path_factory):
        common = [
            "--arch", _arch_cache["path"],
            "--recalib", "srm",
            "--data", str(synth_dir / "train.bin"),
            "--batch", "16",
            "--lr", "0.05",
            "--log-every", "2",
            "--seed", "4",
        ]
        full = tmp_path_factory.mktemp("full")
        assert main(["train", *common, "--out", str(full), "--steps", "4"]) == 0
        half = tmp_path_factory.mktemp("half")
        assert main(["train", *common, "--out", str(half), "--steps", "2"]) == 0
        resumed = tmp_path_factory.mktemp("resumed")
        assert main(["train", *common, "--out", str(resumed), "--steps", "4",
                     "--resume", str(half / "checkpoint.bin")]) == 0
        assert (resumed / "checkpoint.bin").read_bytes() == (full / "checkpoint.bin").read_bytes()


@pytest.mark.skipif(T.settle_runtime()["blas"] is None or len(os.sched_getaffinity(0)) < 2,
                    reason="needs numpy's bundled OpenBLAS and two usable CPUs")
def test_train_as_typed_is_pooled_and_equals_the_serial_run(tmp_path, tmp_path_factory):
    """With no BLAS variable set, `train` pins BLAS to 1 thread and runs a span worker per CPU. Its
    checkpoint.bin and metrics.csv equal, byte for byte, those of runs under OPENBLAS_NUM_THREADS=1 (the
    same workers) and OPENBLAS_NUM_THREADS=<cpus> (1 worker). 32x32 maps give each conv several spans."""
    assert main(["synth", "--out", str(tmp_path / "synth"), "--per-class", "8", "--size", "32", "--seed", "3"]) == 0
    cpus = len(os.sched_getaffinity(0))
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(T.__file__).parents[1]), env.get("PYTHONPATH")]))
    runs = {}
    for blas in (None, "1", str(cpus)):
        out = tmp_path / f"run-{blas}"
        done = subprocess.run(
            [sys.executable, "-m", "style_recal", "train", "--arch", _tiny_arch_file(tmp_path_factory),
             "--recalib", "srm", "--data", str(tmp_path / "synth" / "train.bin"), "--out", str(out),
             "--steps", "3", "--batch", "16", "--log-every", "1", "--seed", "1"],
            env=env if blas is None else dict(env, OPENBLAS_NUM_THREADS=blas),
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs[blas] = out
    threads = {blas: json.loads((out / "manifest.json").read_text())["threads"] for blas, out in runs.items()}
    assert threads[None]["blas"] == 1 and threads[None]["blas_pinned"] and threads[None]["span_workers"] == cpus
    assert threads["1"]["span_workers"] == cpus and not threads["1"]["blas_pinned"]
    assert threads[str(cpus)]["blas"] == cpus and threads[str(cpus)]["span_workers"] == 1
    for name in ("checkpoint.bin", "metrics.csv"):
        want = (runs[None] / name).read_bytes()
        assert (runs["1"] / name).read_bytes() == want, name
        assert (runs[str(cpus)] / name).read_bytes() == want, name


class TestUnusableDataset:
    """eval and prune score labels, so a set the model cannot score is a usage error; analyze reads only images."""

    @pytest.mark.parametrize("command,flags", [("eval", []), ("prune", ["--stage", "0"])])
    def test_more_classes_than_the_model_usage_error(self, two_class, synth_dir, tmp_path, capsys, command, flags):
        rc = main([command, "--ckpt", str(two_class / "ckpt.bin"), "--data", str(synth_dir / "test.bin"),
                   "--out", str(tmp_path)] + flags)
        assert rc == 2
        captured = capsys.readouterr()
        assert "the test set has 4 classes, more than the model's 2" in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_analyze_takes_a_set_with_more_classes(self, two_class, synth_dir, tmp_path):
        assert main(["analyze", "--ckpt", str(two_class / "ckpt.bin"), "--data", str(synth_dir / "test.bin"),
                     "--out", str(tmp_path)]) == 0
        assert len(read_container(tmp_path / "record.bin")[0]["image_ids"]) == 64

    @pytest.mark.parametrize("command,flags", [("eval", []), ("prune", ["--stage", "0"]), ("analyze", [])])
    def test_empty_set_usage_error(self, trained_run, tmp_path, capsys, command, flags):
        empty = tmp_path / "empty.bin"
        save_dataset(empty, Dataset(np.zeros((0, 3, 8, 8), np.float32), np.zeros(0, np.int64), "test", 4))
        out = tmp_path / "out"
        rc = main([command, "--ckpt", str(trained_run / "checkpoint.bin"), "--data", str(empty),
                   "--out", str(out)] + flags)
        assert rc == 2
        captured = capsys.readouterr()
        assert "the test set is empty" in captured.err and captured.out == ""
        assert not out.exists()


# A variant with the same parameter shapes as "srm": only the recorded architecture tells them apart.
STD_MAX_VARIANT = {"pooling": ["std", "max"], "integration": "cfc", "use_bn": True}


@pytest.fixture(scope="module")
def variant_run(tmp_path_factory, synth_dir):
    work = tmp_path_factory.mktemp("variant")
    arch = json.loads(Path(_tiny_arch_file(tmp_path_factory)).read_text())
    (work / "arch.json").write_text(json.dumps({**arch, "recalib": STD_MAX_VARIANT}))
    rc = main(["train", "--arch", str(work / "arch.json"), "--data", str(synth_dir / "train.bin"),
               "--out", str(work / "run"), "--steps", "4", "--batch", "16", "--lr", "0.05", "--log-every", "2"])
    assert rc == 0
    return work


class TestModelFromCheckpoint:
    def _by_hand(self, variant_run):
        """The model the checkpoint's architecture file describes, restored with load_checkpoint."""
        model = build_resnet(ArchitectureConfig.from_json((variant_run / "arch.json").read_text()))
        load_checkpoint(variant_run / "run" / "checkpoint.bin", model)
        model.eval()
        return model

    def _run(self, variant_run, synth_dir, command, *flags):
        return main([command, "--ckpt", str(variant_run / "run" / "checkpoint.bin"),
                     "--data", str(synth_dir / "test.bin"), *flags])

    def test_eval_needs_no_model_flags(self, variant_run, synth_dir, capsys):
        assert self._run(variant_run, synth_dir, "eval") == 0
        top1 = json.loads(capsys.readouterr().out)["top1"]
        assert top1 == evaluate(self._by_hand(variant_run), load_dataset(synth_dir / "test.bin"), batch_size=128)

    def test_prune_needs_no_model_flags(self, variant_run, synth_dir, tmp_path, capsys):
        assert self._run(variant_run, synth_dir, "prune", "--stage", "1", "--ratios", "0,0.5,1",
                         "--out", str(tmp_path)) == 0
        dataset = load_dataset(synth_dir / "test.bin")
        want = [["ratio", "top1"]] + [[repr(r), repr(prune_eval(self._by_hand(variant_run), dataset, 1, r,
                                                                batch_size=128))] for r in (0.0, 0.5, 1.0)]
        assert list(csv.reader(open(tmp_path / "prune.csv"))) == want

    def test_analyze_needs_no_model_flags(self, variant_run, synth_dir, tmp_path, capsys):
        assert self._run(variant_run, synth_dir, "analyze", "--out", str(tmp_path)) == 0
        record = capture_record(self._by_hand(variant_run), load_dataset(synth_dir / "test.bin"), batch_size=128)
        gates, _ = read_container(tmp_path / "record.bin")
        for si, bi in record.layers:
            np.testing.assert_array_equal(gates[f"gates.{si}.{bi}"], record.gates[si, bi])
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["sum_squared_corr"] == sum(float((correlation_matrix(record, layer) ** 2).sum())
                                                  for layer in record.layers)

    def test_checkpoint_without_arch_exits_1_naming_the_file(self, variant_run, synth_dir, tmp_path, capsys):
        entries, meta = read_container(variant_run / "run" / "checkpoint.bin")
        del meta["arch"]
        old = tmp_path / "old.bin"
        write_container(old, entries, meta=meta)
        assert main(["eval", "--ckpt", str(old), "--data", str(synth_dir / "test.bin")]) == 1
        assert f"{old}: checkpoint meta records no architecture" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--recalib", "srm"], ["--arch", "resnet20"], ["--seed", "1"],
                                       ["--precision", "f32"]])
    def test_model_flags_are_usage_errors(self, variant_run, synth_dir, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            self._run(variant_run, synth_dir, "eval", *flags)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


class TestSplit:
    """A container's recorded split is the one used; --split chooses only within a binary-batch directory."""

    def test_container_split_is_used_and_reported(self, trained_run, synth_dir, tmp_path, capsys):
        ckpt = trained_run / "checkpoint.bin"
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(synth_dir / "train.bin"), "--out", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["split"] == "train"
        assert payload["top1"] == evaluate(load_model(ckpt), load_dataset(synth_dir / "train.bin"), batch_size=128)
        assert json.loads((tmp_path / "eval.json").read_text()) == payload

    def test_matching_split_accepted(self, trained_run, synth_dir, capsys):
        assert main(["eval", "--ckpt", str(trained_run / "checkpoint.bin"), "--data", str(synth_dir / "test.bin"),
                     "--split", "test"]) == 0
        assert json.loads(capsys.readouterr().out)["split"] == "test"

    @pytest.mark.parametrize("command,flags", [("eval", []), ("prune", ["--stage", "0"]), ("analyze", [])])
    def test_split_disagreeing_with_container_usage_error(self, trained_run, synth_dir, tmp_path, capsys,
                                                         command, flags):
        rc = main([command, "--ckpt", str(trained_run / "checkpoint.bin"), "--data", str(synth_dir / "test.bin"),
                   "--split", "train", "--out", str(tmp_path)] + flags)
        assert rc == 2
        captured = capsys.readouterr()
        assert "--split train disagrees with the dataset's recorded split test" in captured.err
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_batch_directory_reads_split(self, trained_run, tmp_path, capsys):
        rng = np.random.default_rng(0)
        for name, count in [(f"data_batch_{i}.bin", 1) for i in range(1, 6)] + [("test_batch.bin", 3)]:
            records = rng.integers(0, 256, size=(count, 3073), dtype=np.uint8)
            records[:, 0] %= 10
            records.tofile(tmp_path / name)
        arch = load_model(trained_run / "checkpoint.bin").config
        arch.num_classes = 10  # a binary-batch directory holds 10 classes
        ckpt = str(tmp_path / "ten_classes.bin")
        save_checkpoint(ckpt, build_resnet(arch), None, 0, "h")
        assert main(["eval", "--ckpt", ckpt, "--data", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["split"], payload["examples"]) == ("test", 3)
        assert main(["eval", "--ckpt", ckpt, "--data", str(tmp_path), "--split", "train"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["split"], payload["examples"]) == ("train", 5)
