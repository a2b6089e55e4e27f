"""Benchmark of the style_recal package: three seeded workloads, one process each.

Run from the repository root:

    python3 perfbench/run.py --workload train-srm32 --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced session (which also runs the untraced session first, to
give the tracing overhead and to compare parameter digests). Each metric is
printed as ``<workload> <metric> <value> <unit>``, then a machine block, then,
as the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit code is 0 only when every output check passed.

The package is imported from ``src/`` next to this directory; the run stops
with exit code 2 when it is missing. BLAS runs on one thread, set before numpy
is imported: on a few shared cores a second BLAS thread makes every GEMM wait
on whichever core the host gives away, and the figures then measure the host's
scheduler more than the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
IMPORT_PROBES = 9
IMPORT_PROBE = "import time; t = time.perf_counter(); import numpy, style_recal; print(time.perf_counter() - t)"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train-srm32", "train-plain16", "analyze-srm32"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", type=Path, default=ROOT / ".perfbench",
                   help="generated inputs, digests of earlier runs, results and spans")
    p.add_argument("--tiny", action="store_true", help="small batches and sets, for testing the benchmark")
    p.add_argument("--inject-nonfinite", action="store_true",
                   help="put a NaN into one training image, for testing the failure path")
    return p.parse_args(argv)


def set_blas_threads() -> int:
    """Pin BLAS to ``BLAS_THREADS`` threads; returns the number of CPUs this process may use."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def blas_threads_in_effect() -> int | None:
    """Ask the OpenBLAS that numpy loaded how many threads it uses."""
    import ctypes
    import numpy as np

    base = Path(np.__file__).parent
    for lib in sorted(base.parent.glob("numpy.libs/*openblas*")) + sorted(base.glob(".libs/*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_block(nproc: int) -> dict:
    import platform

    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads_in_effect(),
    }


def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine, or (0, 0) where /proc/stat is missing."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def import_seconds() -> float:
    """Median wall time of importing numpy and style_recal in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True,
                              check=True, timeout=60)
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def source_fingerprint() -> str:
    """Hash of every source file under ``src/``, so digests compare only runs of the same code."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        rel = path.relative_to(SRC)
        if (not path.is_file() or path.suffix == ".pyc"
                or any(part == "__pycache__" or part.endswith(".egg-info") for part in rel.parts)):
            continue
        h.update(rel.as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class DigestStore:
    """Digests of earlier runs in the same checkout, keyed by workload, seed, plan and source."""

    def __init__(self, path: Path):
        self.path = path
        self.known = json.loads(path.read_text()) if path.exists() else {}

    def agrees(self, key: str, digest: str) -> bool:
        if key not in self.known:
            self.known[key] = digest
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
        return self.known[key] == digest


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = set_blas_threads()
    if not (SRC / "style_recal" / "__init__.py").is_file():
        print(f"error: no style_recal package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as W

    plan = W.make_plan(args.workload, args.seconds, tiny=args.tiny, inject_nonfinite=args.inject_nonfinite)
    machine = machine_block(nproc)
    work_root = args.work_dir.resolve()
    work = work_root / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work_root.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    steal_start, total_start = cpu_times()
    try:
        inputs = W.generate_inputs(plan, args.seed, work)
        if args.trace:
            metrics, rec, outcome = W.traced_run(plan, args.seed, inputs, work)
            (work_root / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(rec.to_rows()))
        else:
            outcome = W.run_session(plan, args.seed, inputs, work / "untraced")
            metrics = {name: outcome.metrics[name] for name in ("train_images_per_s", "eval_images_per_s",
                                                                "session_s")}
            metrics["setup_s"] = import_seconds() + outcome.metrics["load_s"]
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcome.absorb(inputs.checks)
        key = f"{args.workload} seed={args.seed} plan={plan.fingerprint()} src={source_fingerprint()}"
        outcome.check(DigestStore(work_root / "digests.json").agrees(key, outcome.digest),
                      f"digest {outcome.digest[:12]} differs from an earlier run of {key}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    steal_end, total_end = cpu_times()
    # Time the hypervisor gave to other guests: high values mark a run slowed from outside.
    machine["cpu_steal_share"] = (steal_end - steal_start) / max(total_end - total_start, 1)
    units = bench_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for name, unit in units.items():
        print(f"{args.workload} {name} {metrics[name]:.6g} {unit}")
    error_rate = outcome.failed / outcome.attempted
    print(f"{args.workload} error_rate {error_rate:.6g} ({outcome.failed} of {outcome.attempted} operations failed)")
    for failure in outcome.failures:
        print(f"{args.workload} FAILED {failure}")
    print("machine " + json.dumps(machine))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    results = work_root / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        dict(result, machine=machine, failures=outcome.failures, samples=outcome.samples,
             wall_s=time.perf_counter() - start, plan=plan.__dict__), indent=1))
    print(json.dumps(result))
    return 0 if outcome.failed == 0 else 1


def bench_units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
