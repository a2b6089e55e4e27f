"""Tests of the benchmark itself, on tiny batches and sets.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(work_dir: Path, workload: str, *extra: str, trace: int = 0, seed: int = 3):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--tiny", "--work-dir", str(work_dir), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170)


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(tmp_path, workload, trace):
    done = bench(tmp_path, workload, trace=trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    lines = done.stdout.splitlines()
    for name, unit in expected.items():
        assert any(line.startswith(f"{workload} {name} ") and line.endswith(f" {unit}") for line in lines), name
    assert any(line.startswith("machine ") for line in lines)
    if trace and workload.startswith("train-"):
        records = result["metrics"]["tensor.tape_records"]["value"]
        assert records == (218 if "srm" in workload else 74)
        assert result["metrics"]["trace.reconcile_ratio"]["value"] >= 0.9


def test_nonfinite_input_batch_raises_error_rate_and_exit_code(tmp_path):
    done = bench(tmp_path, "train-plain16", "--inject-nonfinite")
    assert done.returncode == 1
    result = result_of(done)
    assert result["correct"] is False and result["failed"] >= 1
    assert "FAILED train:" in done.stdout


def test_same_seed_gives_same_digest_and_a_changed_digest_fails(tmp_path):
    assert bench(tmp_path, "analyze-srm32").returncode == 0
    assert bench(tmp_path, "analyze-srm32").returncode == 0
    store = tmp_path / "digests.json"
    known = json.loads(store.read_text())
    store.write_text(json.dumps({key: "0" * 64 for key in known}))
    done = bench(tmp_path, "analyze-srm32")
    assert done.returncode == 1
    assert "differs from an earlier run" in done.stdout


def test_changed_source_gets_a_fresh_digest_key(tmp_path):
    copy = tmp_path / "copy"
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(ROOT / "BENCHMARK.json", copy / "BENCHMARK.json")
    work = tmp_path / "work"

    def run_copy():
        return subprocess.run([sys.executable, str(copy / "perfbench" / "run.py"), "--workload", "train-plain16",
                               "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny", "--work-dir", str(work)],
                              capture_output=True, text=True, timeout=170)

    assert run_copy().returncode == 0
    store = work / "digests.json"
    # A digest recorded for other code must not be held against this code.
    store.write_text(json.dumps({key: "0" * 64 for key in json.loads(store.read_text())}))
    layers = copy / "src" / "style_recal" / "layers.py"
    layers.write_text(layers.read_text() + "\n# changed\n")
    done = run_copy()
    assert done.returncode == 0, done.stdout + done.stderr
    keys = list(json.loads(store.read_text()))
    assert len(keys) == 2
    assert len({key.split(" src=")[1] for key in keys}) == 2


def test_fails_without_a_result_when_the_package_is_missing(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_metric_map_covers_every_benchmark_metric():
    metric_map = json.loads((ROOT / "perfbench" / "metric_map.json").read_text())
    assert set(metric_map["workloads"]) == set(WORKLOADS)
    assert set(metric_map["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(metric_map["end_to_end"])
