"""Parameter accounting and analytic FLOP estimation for built models.

Conventions (documented here and in every emitted report):
  - one multiply-accumulate = one FLOP for convolutions and linear layers;
  - pooling, normalization, activations, elementwise adds and the channel
    gate multiply cost one FLOP per output element (per input element for
    reductions);
  - FLOPs are for a single-example forward pass at the given input size;
  - parameter counts are trainable tensors only, unless running statistics
    are explicitly included (then each BN channel adds its mean and var).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .models import ResNet, StageSpec
from .recalib import StyleIntegration

__all__ = [
    "ComplexityReport",
    "count_params",
    "count_flops",
    "analyze",
    "srm_extra_params",
    "se_extra_params",
    "mlp_variant_extra_params",
    "cfc_variant_extra_params",
    "format_table",
]

_RUNNING_STAT_NAMES = ("running_mean", "running_var")


@dataclass
class ComplexityReport:
    total_params: int = 0
    trainable_params: int = 0
    added_by_recalib: int | None = None
    flops: int | None = None
    input_shape: tuple[int, int, int] | None = None
    include_running_stats: bool = False
    per_layer: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "total_params": self.total_params,
            "trainable_params": self.trainable_params,
            "added_by_recalib": self.added_by_recalib,
            "flops": self.flops,
            "gflops": None if self.flops is None else self.flops / 1e9,
            "input_shape": list(self.input_shape) if self.input_shape else None,
            "include_running_stats": self.include_running_stats,
            "conventions": {
                "flop": "1 MAC = 1 FLOP for conv/linear; 1 FLOP per element for pooling, BN, activations, adds, gating",
                "params": "trainable tensors; BN running mean/var added only when include_running_stats",
            },
            "per_layer": self.per_layer,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _param_rows(model: ResNet, include_running_stats: bool) -> dict[str, int]:
    rows: dict[str, int] = {}
    for name, p in model.named_parameters():
        path = name.rsplit(".", 1)[0]
        rows[path] = rows.get(path, 0) + p.size
    if include_running_stats:
        for name, buf in model.named_buffers():
            leaf = name.rsplit(".", 1)[-1]
            if leaf in _RUNNING_STAT_NAMES:
                path = name.rsplit(".", 1)[0]
                rows[path] = rows.get(path, 0) + buf.size
    return rows


def count_params(model: ResNet, include_running_stats: bool = False) -> ComplexityReport:
    """Enumerate named parameters (and optionally BN running statistics).

    ``added_by_recalib`` sums the entries that live under a ``.recalib.``
    module path, so it needs no second, recalibration-free model.
    """
    rows = _param_rows(model, include_running_stats)
    total = sum(rows.values())
    return ComplexityReport(
        total_params=total,
        trainable_params=sum(p.size for _, p in model.named_parameters()),
        added_by_recalib=sum(v for path, v in rows.items() if ".recalib." in path + "."),
        include_running_stats=include_running_stats,
        per_layer=[{"name": k, "params": v} for k, v in rows.items()],
    )


def _conv_out(h: int, k: int, stride: int, padding: int) -> int:
    return (h + 2 * padding - k) // stride + 1


def _conv_flops(cin: int, cout: int, k: int, ho: int, wo: int) -> int:
    return k * k * cin * cout * ho * wo


def _recalib_flops(layer, c: int, h: int, w: int) -> int:
    """Style pooling + integration + gate multiply for one example."""
    d = layer.pool.d
    flops = d * c * h * w  # one FLOP per input element per pooled statistic
    integ = layer.integrate
    if isinstance(integ, StyleIntegration):
        flops += c * d  # d MACs per channel
    else:
        hidden = integ.fc1.out_features
        flops += c * d * hidden + hidden  # fc1 + bias
        flops += hidden  # relu
        flops += hidden * c + c  # fc2 + bias
    if getattr(integ, "bn", None) is not None:
        flops += c
    if isinstance(integ, StyleIntegration) and integ.bias is not None:
        flops += c
    flops += c  # sigmoid
    flops += c * h * w  # gate multiply
    return flops


def count_flops(model: ResNet, input_shape: tuple[int, int, int]) -> ComplexityReport:
    """Analytic FLOP count for a single-example forward at the given (C, H, W)."""
    cin, h, w = input_shape
    cfg = model.config
    if cin != cfg.in_channels:
        raise ValueError(f"input shape {input_shape} does not match model input channels {cfg.in_channels}")
    if h < 1 or w < 1:
        raise ValueError(f"input shape {input_shape} has a non-positive spatial extent")
    rows: list[dict] = []
    total = 0

    def emit(name: str, flops: int):
        nonlocal total
        rows.append({"name": name, "flops": flops})
        total += flops

    stem_ch = cfg.resolved_stem_channels()
    k = model.stem_conv.kernel
    h = _conv_out(h, k, model.stem_conv.stride, model.stem_conv.padding)
    w = _conv_out(w, k, model.stem_conv.stride, model.stem_conv.padding)
    emit("stem_conv", _conv_flops(cin, stem_ch, k, h, w))
    emit("stem_bn", stem_ch * h * w)
    emit("stem_relu", stem_ch * h * w)
    if model.stem_pool is not None:
        mp = model.stem_pool
        h = _conv_out(h, mp.kernel, mp.stride, mp.padding)
        w = _conv_out(w, mp.kernel, mp.stride, mp.padding)
        emit("stem_pool", mp.kernel * mp.kernel * stem_ch * h * w)

    for si, stage in enumerate(model.stages):
        for bi, block in enumerate(stage):
            flops = 0
            for i, (conv, _) in enumerate(block.pairs, start=1):
                h = _conv_out(h, conv.kernel, conv.stride, conv.padding)
                w = _conv_out(w, conv.kernel, conv.stride, conv.padding)
                c = conv.out_channels
                bn_relu = 1 if i == len(block.pairs) else 2  # BN, plus a ReLU between pairs
                flops += _conv_flops(conv.in_channels, c, conv.kernel, h, w) + bn_relu * c * h * w
            if block.recalib is not None:
                flops += _recalib_flops(block.recalib, c, h, w)
            if block.proj_conv is not None:
                p = block.proj_conv
                flops += _conv_flops(p.in_channels, c, p.kernel, h, w) + c * h * w
            flops += 2 * c * h * w  # shortcut add + final relu
            emit(f"stages.{si}.{bi}", flops)

    emit("head_pool", c * h * w)
    emit("classifier", c * cfg.num_classes + cfg.num_classes)

    return ComplexityReport(flops=total, input_shape=tuple(input_shape), per_layer=rows)


def analyze(model: ResNet, input_shape: tuple[int, int, int] | None = None,
            include_running_stats: bool = False) -> ComplexityReport:
    """Combined parameter and FLOP report with a per-layer breakdown."""
    report = count_params(model, include_running_stats)
    if input_shape is not None:
        fl = count_flops(model, input_shape)
        report.flops = fl.flops
        report.input_shape = fl.input_shape
        flop_by_name = {r["name"]: r["flops"] for r in fl.per_layer}
        merged: dict[str, dict] = {}
        for row in report.per_layer:
            top = _fold_name(row["name"])
            merged.setdefault(top, {"name": top, "params": 0, "flops": 0})["params"] += row["params"]
        for name, flops in flop_by_name.items():
            top = _fold_name(name)
            merged.setdefault(top, {"name": top, "params": 0, "flops": 0})["flops"] += flops
        report.per_layer = list(merged.values())
    return report


def _fold_name(name: str) -> str:
    parts = name.split(".")
    if parts[0] == "stages" and len(parts) >= 3:
        return ".".join(parts[:3])
    return parts[0].replace("stem_conv", "stem").replace("stem_bn", "stem").replace(
        "stem_relu", "stem").replace("stem_pool", "stem")


def format_table(report: ComplexityReport) -> str:
    lines = [f"{'layer':<18}{'params':>12}{'flops':>16}"]
    for row in report.per_layer:
        lines.append(f"{row['name']:<18}{row.get('params', 0):>12}{row.get('flops', 0):>16}")
    lines.append(f"{'total':<18}{report.total_params:>12}{report.flops if report.flops else 0:>16}")
    if report.added_by_recalib is not None:
        lines.append(f"added by recalibration: {report.added_by_recalib}")
    return "\n".join(lines)


def srm_extra_params(stages: list[StageSpec], include_running_stats: bool = False) -> int:
    """Canonical style recalibrator: avg+std channel-wise FC with BN (4, or 6 with running stats, per channel)."""
    return cfc_variant_extra_params(stages, d=2, use_bn=True, include_running_stats=include_running_stats)


def se_extra_params(stages: list[StageSpec], reduction: int = 16) -> int:
    """Squeeze-and-excitation: 2/r * sum(N_s * C_s^2) weights plus C_s/r + C_s biases per block."""
    return mlp_variant_extra_params(stages, d=1, reduction=reduction)


def cfc_variant_extra_params(stages: list[StageSpec], d: int, use_bn: bool = True,
                             include_running_stats: bool = False) -> int:
    """Closed form for any channel-wise-FC variant with d style features."""
    per_channel = d + (2 if use_bn else 1)  # weights + (BN affine | bias)
    if use_bn and include_running_stats:
        per_channel += 2
    return per_channel * sum(s.blocks * s.channels for s in stages)


def mlp_variant_extra_params(stages: list[StageSpec], d: int, reduction: int = 16,
                             use_bn: bool = False, include_running_stats: bool = False) -> int:
    """Closed form for MLP-integration variants over d concatenated style features."""
    total = 0
    for s in stages:
        hidden = max(1, (s.channels * d) // reduction)
        per_block = s.channels * d * hidden + hidden + hidden * s.channels + s.channels
        if use_bn:
            per_block += 2 * s.channels
            if include_running_stats:
                per_block += 2 * s.channels
        total += s.blocks * per_block
    return total
