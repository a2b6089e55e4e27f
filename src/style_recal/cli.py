"""Command-line entry point.

Subcommands: train, eval, prune, analyze, complexity, gradcheck, synth.
Configuration comes from JSON files with flags overriding file values; every
run writes its fully resolved configuration and the threads in effect (a
manifest) next to its outputs.
eval, prune and analyze build the model from the architecture the checkpoint records.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .analysis import capture_record, correlation_matrix, jaccard_overlap, prune_eval, save_record, top_activated
from .complexity import analyze as complexity_analyze, format_table
from .data import (
    DataError,
    Dataset,
    SynthStyleSpec,
    load_cifar10,
    load_dataset,
    resolve_data_path,
    save_dataset,
    synth_style,
)
from .gradcheck import SUITE_TOLERANCE, run_suite
from .models import ArchitectureConfig, ResNet, build_resnet, named_config, parse_recalib
from .tensor import settle_runtime
from .train import TrainConfig, _check_sets, config_hash, evaluate, load_checkpoint, load_model, train

__all__ = ["main", "entry"]


class UsageError(Exception):
    """Bad invocation: unknown name, malformed config, missing input."""


def _load_arch(arch: str, recalib: str | None) -> ArchitectureConfig:
    path = Path(arch)
    if path.exists():
        try:
            cfg = ArchitectureConfig.from_json(path.read_text())
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed architecture config {arch}: {exc}") from exc
    else:
        try:
            cfg = named_config(arch)
        except ValueError as exc:
            raise UsageError(f"--arch {arch!r} is neither a file nor a known preset: {exc}") from exc
    if recalib is not None:
        try:
            cfg.recalib = parse_recalib(recalib)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return cfg


def _load_data(path_flag: str | None, split: str) -> Dataset:
    try:
        path = Path(resolve_data_path(path_flag))
    except DataError as exc:
        raise UsageError(str(exc)) from exc
    if path.is_dir():
        return load_cifar10(path, split=split)
    if not path.exists():
        raise UsageError(f"dataset path {path} does not exist")
    return load_dataset(path)


def _write_manifest(out: Path, command: str, resolved: dict) -> None:
    """The resolved configuration, plus the runtime in effect (``tensor.settle_runtime``'s record)."""
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"command": command, "version": __version__, "resolved_config": resolved,
                "threads": settle_runtime()}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _cmd_train(args) -> int:
    arch = _load_arch(args.arch, args.recalib)
    dataset = _load_data(args.data, "train")
    test_set = _load_data(args.test_data or args.data, "test") if args.eval_every else None
    try:
        schedule = None
        if args.schedule:
            pairs = [s.split(":") for s in args.schedule.split(",")]
            if any(len(p) != 2 for p in pairs):
                raise ValueError(f"--schedule {args.schedule!r} is not a comma list of step:lr")
            schedule = [(int(step), float(lr)) for step, lr in pairs]
        cfg = TrainConfig(
            steps=args.steps,
            batch_size=args.batch,
            lr=args.lr,
            momentum=args.momentum,
            weight_decay=args.weight_decay,
            schedule=schedule,
            seed=args.seed,
            augment_policy=args.augment,
            log_every=args.log_every,
            eval_every=args.eval_every,
        )
    except ValueError as exc:
        raise UsageError(f"train: {exc}") from exc
    _check_sets(arch.num_classes, dataset, cfg.batch_size, test_set)
    chash = config_hash(asdict(arch), cfg.trajectory_dict())
    model = build_resnet(arch, seed=args.seed)
    if args.resume is not None:  # checked before anything is written; train() loads it again with the optimizer
        try:
            load_checkpoint(args.resume, model, expect_hash=chash)
        except (OSError, ValueError) as exc:
            raise UsageError(f"--resume: {exc}") from exc
    out = Path(args.out)
    _write_manifest(out, "train", {"arch": asdict(arch), "train": asdict(cfg), "seed": args.seed, "config_hash": chash})
    result = train(model, dataset, cfg, out_dir=out, eval_dataset=test_set,
                   resume_from=args.resume)
    if result.diverged:
        print(f"diverged at step {result.final_step}; last good checkpoint kept", file=sys.stderr)
        return 1
    final = result.rows[-1] if result.rows else {}
    print(json.dumps({"final_step": result.final_step, **final}))
    return 0


def _restore_model(args) -> tuple[ResNet, Dataset]:
    """The checkpoint's model and the dataset (a container's split wins)."""
    if args.batch < 1:
        raise UsageError(f"--batch must be >= 1, got {args.batch}")
    if not Path(args.ckpt).exists():
        raise UsageError(f"checkpoint {args.ckpt} does not exist")
    dataset = _load_data(args.data, args.split or "test")
    if args.split not in (None, dataset.split):
        raise UsageError(f"--split {args.split} disagrees with the dataset's recorded split {dataset.split}")
    return load_model(args.ckpt), dataset


def _cmd_eval(args) -> int:
    model, dataset = _restore_model(args)
    acc = evaluate(model, dataset, batch_size=args.batch)
    payload = {"top1": acc, "examples": len(dataset), "split": dataset.split}
    print(json.dumps(payload))
    if args.out:
        out = Path(args.out)
        _write_manifest(out, "eval", {"arch": asdict(model.config), "ckpt": args.ckpt})
        (out / "eval.json").write_text(json.dumps(payload, indent=2))
    return 0


def _cmd_prune(args) -> int:
    ratios = _float_list("--ratios", args.ratios)
    if not ratios or not all(0.0 <= r <= 1.0 for r in ratios):
        raise UsageError(f"--ratios {args.ratios!r}: need one or more ratios in [0, 1]")
    model, dataset = _restore_model(args)
    stages = sorted({si for si, _, _ in model.recalib_layers()})
    if args.stage not in stages:
        raise UsageError(f"--stage {args.stage} has no recalibration layers (recalibrated stages: {stages})")
    rows = [(r, prune_eval(model, dataset, args.stage, r, batch_size=args.batch)) for r in ratios]
    out = Path(args.out)
    _write_manifest(out, "prune", {"arch": asdict(model.config), "ckpt": args.ckpt,
                                   "stage": args.stage, "ratios": ratios})
    with open(out / "prune.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ratio", "top1"])
        for r, acc in rows:
            writer.writerow([repr(r), repr(acc)])
    print(json.dumps({"stage": args.stage, "rows": rows}))
    return 0


def _cmd_analyze(args) -> int:
    if args.top_k < 1:
        raise UsageError(f"--top-k must be >= 1, got {args.top_k}")
    model, dataset = _restore_model(args)
    record = capture_record(model, dataset, batch_size=args.batch)
    out = Path(args.out)
    _write_manifest(out, "analyze", {"arch": asdict(model.config), "ckpt": args.ckpt})
    save_record(out / "record.bin", record)
    k = min(args.top_k, len(record))
    summary = {"sum_squared_corr": 0.0, "layers": {}}
    for layer in record.layers:
        si, bi = layer
        corr = correlation_matrix(record, layer)
        with open(out / f"corr_stage{si}_block{bi}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in corr:
                writer.writerow([repr(v) for v in row])
        tops = [top_activated(record, layer, c, k) for c in range(record.gates[layer].shape[1])]
        with open(out / f"top_stage{si}_block{bi}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["channel"] + [f"rank{i}" for i in range(k)])
            for c, ids in enumerate(tops):
                writer.writerow([c] + ids.tolist())
        squared = float((corr * corr).sum())
        summary["sum_squared_corr"] += squared  # sum_squared_corr(record), one matrix per layer
        summary["layers"][f"{si}.{bi}"] = {
            "squared_corr_sum": squared,
            "top1_overlap": jaccard_overlap([ids[:1] for ids in tops]),  # top_overlap(record, layer, k=1)
        }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    print(json.dumps({"sum_squared_corr": summary["sum_squared_corr"]}))
    return 0


def _cmd_complexity(args) -> int:
    arch = _load_arch(args.arch, args.recalib)
    model = build_resnet(arch, seed=0)
    size = args.input_size if args.input_size is not None else 32 if arch.stem == "cifar" else 224
    if size < 1:
        raise UsageError(f"--input-size must be >= 1, got {size}")
    report = complexity_analyze(model, input_shape=(arch.in_channels, size, size),
                                include_running_stats=args.running_stats)
    print(report.to_json())
    if args.out:
        out = Path(args.out)
        _write_manifest(out, "complexity", {"arch": asdict(arch), "input_size": size})
        (out / "report.json").write_text(report.to_json())
        (out / "report.txt").write_text(format_table(report))
    return 0


def _cmd_gradcheck(args) -> int:
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    seeds = range(args.seed, args.seed + args.count)
    results = run_suite(seeds)
    worst = max(results.values())
    for name, err in sorted(results.items()):
        print(f"{name:<22} {err:.3e}")
    print(f"max relative error: {worst:.3e} (tolerance {SUITE_TOLERANCE:.0e})")
    return 0 if worst < SUITE_TOLERANCE else 1


def _float_list(flag: str, text: str | None) -> tuple[float, ...] | None:
    try:
        return tuple(float(v) for v in text.split(",")) if text else None
    except ValueError as exc:
        raise UsageError(f"{flag} {text!r} is not a comma list of numbers") from exc


def _cmd_synth(args) -> int:
    spec = SynthStyleSpec(
        num_classes=args.classes,
        per_class=args.per_class,
        size=args.size,
        channels=args.channels,
        class_means=_float_list("--means", args.means),
        class_stds=_float_list("--stds", args.stds),
        jitter=args.jitter,
        seed=args.seed,
    )
    out = Path(args.out)
    _write_manifest(out, "synth", {"spec": asdict(spec)})
    train_set = synth_style(spec, split="train")
    test_set = synth_style(spec, split="test")
    save_dataset(out / "train.bin", train_set)
    save_dataset(out / "test.bin", test_set)
    print(json.dumps({"train": len(train_set), "test": len(test_set), "out": str(out)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="style-recal",
                                     description="Style-based channel recalibration experiment harness")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def seed(p):
        p.add_argument("--seed", type=int, default=0)

    def data(p):
        p.add_argument("--data", default=None, help="dataset container or binary-batch directory "
                                                    "(default: STYLE_RECAL_DATA)")
        p.add_argument("--batch", type=int, default=128)

    def arch(p):
        p.add_argument("--arch", required=True, help="architecture JSON path or preset name")
        p.add_argument("--recalib", default=None, help="none | srm | se | se:<r> | JSON variant")

    def checkpoint(p):
        data(p)
        p.add_argument("--ckpt", required=True, help="checkpoint; the model is built from the architecture it records")
        p.add_argument("--split", choices=["train", "test"], default=None,
                       help="split of a binary-batch directory (default test); a container records its own")

    def command(name, func, help, *groups):
        p = sub.add_parser(name, help=help)
        for group in groups:
            group(p)
        p.set_defaults(func=func)
        return p

    p = command("train", _cmd_train, "train a model", seed, data, arch)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, required=True)
    rate = p.add_mutually_exclusive_group()
    rate.add_argument("--lr", type=float, default=None, help="constant learning rate (default 0.1)")
    rate.add_argument("--schedule", default=None, help="comma list of step:lr from step 0, e.g. 0:0.2,32000:0.02")
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=1e-4)
    p.add_argument("--augment", choices=["none", "pad-crop-flip"], default="none")
    p.add_argument("--log-every", type=int, default=50)
    p.add_argument("--eval-every", type=int, default=0)
    p.add_argument("--test-data", default=None)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")

    p = command("eval", _cmd_eval, "evaluate a checkpoint", checkpoint)
    p.add_argument("--out", default=None)

    p = command("prune", _cmd_prune, "per-image dynamic channel pruning sweep", checkpoint)
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--ratios", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    p.add_argument("--out", required=True)

    p = command("analyze", _cmd_analyze, "capture gates; correlation and top-activated reports", checkpoint)
    p.add_argument("--top-k", type=int, default=5)
    p.add_argument("--out", required=True)

    p = command("complexity", _cmd_complexity, "parameter and FLOP report", arch)
    p.add_argument("--input-size", type=int, default=None)
    p.add_argument("--running-stats", action="store_true",
                   help="count BN running statistics as parameters")
    p.add_argument("--out", default=None)

    p = command("gradcheck", _cmd_gradcheck, "finite-difference gradient suite", seed)
    p.add_argument("--count", type=int, default=1, help="number of seeds starting at --seed")

    p = command("synth", _cmd_synth, "generate the synthetic style-discriminable dataset", seed)
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--per-class", type=int, default=128)
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--channels", type=int, default=3)
    p.add_argument("--jitter", type=float, default=0.08)
    p.add_argument("--means", default=None, help="comma list, one per class")
    p.add_argument("--stds", default=None, help="comma list, one per class")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    settle_runtime()
    try:
        return args.func(args)
    except (UsageError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
