"""Residual network builder with per-block channel recalibration.

Supports the small basic-block nets used for 32x32 inputs (depths 6n+2) and
bottleneck nets with a 7x7-stem for 224x224 inputs. The recalibration layer
sits on the residual branch, after its final batch normalization and before
the shortcut addition. Downsampling bottleneck blocks stride in their first
1x1 convolution, which is the variant consistent with the reference
multiply-accumulate counts for the 224x224 nets.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .layers import BatchNorm, Conv2d, Linear, MaxPool2d, Module, ModuleList, conv_bn, global_pool
from .recalib import ChannelRecalib, RecalibVariant, StyleIntegration
from .tensor import Tensor, residual_relu

__all__ = [
    "StageSpec",
    "ArchitectureConfig",
    "ResidualBlock",
    "BasicBlock",
    "BottleneckBlock",
    "ResNet",
    "build_resnet",
    "cifar_resnet_config",
    "imagenet_resnet50_config",
    "named_config",
    "BOTTLENECK_EXPANSION",
]

BOTTLENECK_EXPANSION = 4

GateTransform = Callable[[int, int, np.ndarray], np.ndarray]


def _require_counts(owner: str, obj, names: tuple[str, ...]) -> None:
    """Reject a field that is not an int >= 1; a bool, 16.0 or "4" is not coerced."""
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"{owner}: {name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class StageSpec:
    blocks: int
    channels: int
    stride: int

    def __post_init__(self):
        _require_counts("stage", self, ("blocks", "channels", "stride"))


@dataclass
class ArchitectureConfig:
    stages: list[StageSpec]
    block_kind: str = "basic"
    recalib: RecalibVariant | None = None
    num_classes: int = 10
    in_channels: int = 3
    stem: str = "cifar"
    stem_channels: int | None = None

    def __post_init__(self):
        if not self.stages:
            raise ValueError("architecture: at least one stage required")
        _require_counts("architecture", self, ("num_classes", "in_channels")
                        + (("stem_channels",) if self.stem_channels is not None else ()))
        if self.stages[0].stride != 1:
            raise ValueError("architecture: first stage must have stride 1")
        if any(s.stride != 2 for s in self.stages[1:]):
            raise ValueError("architecture: stages after the first must have stride 2")
        if self.block_kind not in ("basic", "bottleneck"):
            raise ValueError(f"architecture: unknown block kind {self.block_kind!r}")
        if self.stem not in ("cifar", "imagenet"):
            raise ValueError(f"architecture: unknown stem {self.stem!r}")
        if self.block_kind == "bottleneck" and any(s.channels % BOTTLENECK_EXPANSION for s in self.stages):
            raise ValueError("architecture: bottleneck stage channels must be divisible by the expansion")

    def resolved_stem_channels(self) -> int:
        if self.stem_channels is not None:
            return self.stem_channels
        if self.stem == "imagenet":
            return 64
        c0 = self.stages[0].channels
        return c0 if self.block_kind == "basic" else c0 // BOTTLENECK_EXPANSION

    @staticmethod
    def from_dict(d: dict) -> "ArchitectureConfig":
        return ArchitectureConfig(**{**d, "stages": [StageSpec(**s) for s in d["stages"]],
                                     "recalib": parse_recalib(d.get("recalib"))})

    @staticmethod
    def from_json(text: str) -> "ArchitectureConfig":
        return ArchitectureConfig.from_dict(json.loads(text))


def parse_recalib(spec) -> RecalibVariant | None:
    """Accept None, "none", "srm", "se", "se:<r>", a variant dict, or its JSON."""
    if spec is None or spec == "none":
        return None
    if isinstance(spec, RecalibVariant):
        return spec
    if isinstance(spec, str):
        if spec == "srm":
            return RecalibVariant.srm()
        if spec == "se":
            return RecalibVariant.se()
        if spec.startswith("se:"):
            return RecalibVariant.se(int(spec.split(":", 1)[1]))
        if spec.lstrip().startswith("{"):
            try:
                return RecalibVariant.from_dict(json.loads(spec))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"malformed recalib variant JSON: {exc}") from exc
        raise ValueError(f"unknown recalib spec {spec!r}; expected none|srm|se|se:<r> or a variant object")
    if isinstance(spec, dict):
        return RecalibVariant.from_dict(spec)
    raise ValueError(f"unknown recalib spec {spec!r}")


class ResidualBlock(Module):
    """Residual skeleton: a branch of (conv, BN) pairs with a ReLU between pairs,
    an optional recalibration layer after the last BN, and a shortcut that is the
    identity or a strided 1x1 projection; the sum passes through a final ReLU.

    ``specs`` lists the branch convolutions as (in, out, kernel, stride, padding).
    They are registered as conv1/bn1, conv2/bn2, ..., then recalib, then
    proj_conv/proj_bn, which fixes parameter names and the RNG draw order.
    """

    def __init__(self, specs: list[tuple[int, int, int, int, int]],
                 variant: RecalibVariant | None, rng: np.random.Generator):
        super().__init__()
        self.pairs: list[tuple[Conv2d, BatchNorm]] = []
        for i, (cin, cout, k, stride, padding) in enumerate(specs, start=1):
            conv = Conv2d(cin, cout, k, stride=stride, padding=padding, rng=rng)
            bn = BatchNorm(cout)
            setattr(self, f"conv{i}", conv)
            setattr(self, f"bn{i}", bn)
            self.pairs.append((conv, bn))
        in_channels, channels = specs[0][0], specs[-1][1]
        stride = math.prod(spec[3] for spec in specs)
        self.recalib = ChannelRecalib(channels, variant, rng=rng) if variant is not None else None
        if stride != 1 or in_channels != channels:
            self.proj_conv = Conv2d(in_channels, channels, 1, stride=stride, rng=rng)
            self.proj_bn = BatchNorm(channels)
        else:
            self.proj_conv = None
            self.proj_bn = None

    def branch(self, x: Tensor) -> Tensor:
        h = x
        for i, (conv, bn) in enumerate(self.pairs, start=1):
            h = conv_bn(conv, bn, h, relu=i < len(self.pairs))
        return h

    def shortcut(self, x: Tensor) -> Tensor:
        if self.proj_conv is None:
            return x
        return conv_bn(self.proj_conv, self.proj_bn, x)

    def forward(self, x: Tensor, gate_cb=None) -> Tensor:
        """``relu(branch(x) * gates + shortcut(x))`` as one ``residual_relu`` op in every mode.

        The gates are the recalibration layer's on the branch output, or
        ``gate_cb``'s replacement; a block without the layer has none.
        """
        b = self.branch(x)
        g = self.recalib(b, gate_cb) if self.recalib is not None else None
        return residual_relu(b, self.shortcut(x), g)


class BasicBlock(ResidualBlock):
    """conv3x3 - BN - ReLU - conv3x3 - BN [- recalib], plus shortcut."""

    def __init__(self, in_channels: int, channels: int, stride: int,
                 variant: RecalibVariant | None, rng: np.random.Generator):
        super().__init__([(in_channels, channels, 3, stride, 1), (channels, channels, 3, 1, 1)], variant, rng)


class BottleneckBlock(ResidualBlock):
    """1x1 - 3x3 - 1x1 bottleneck with the stride on the first 1x1."""

    def __init__(self, in_channels: int, channels: int, stride: int,
                 variant: RecalibVariant | None, rng: np.random.Generator):
        width = channels // BOTTLENECK_EXPANSION
        super().__init__([(in_channels, width, 1, stride, 0), (width, width, 3, 1, 1), (width, channels, 1, 1, 0)],
                         variant, rng)


class ResNet(Module):
    def __init__(self, config: ArchitectureConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        stem_ch = config.resolved_stem_channels()
        if config.stem == "cifar":
            self.stem_conv = Conv2d(config.in_channels, stem_ch, 3, stride=1, padding=1, rng=rng)
            self.stem_pool = None
        else:
            self.stem_conv = Conv2d(config.in_channels, stem_ch, 7, stride=2, padding=3, rng=rng)
            self.stem_pool = MaxPool2d(3, stride=2, padding=1)
        self.stem_bn = BatchNorm(stem_ch)

        block_cls = BasicBlock if config.block_kind == "basic" else BottleneckBlock
        self.stages = ModuleList()
        in_ch = stem_ch
        for spec in config.stages:
            blocks = ModuleList()
            for b in range(spec.blocks):
                stride = spec.stride if b == 0 else 1
                blocks.append(block_cls(in_ch, spec.channels, stride, config.recalib, rng))
                in_ch = spec.channels
            self.stages.append(blocks)
        self.classifier = Linear(in_ch, config.num_classes, rng=rng)

    def stem(self, x: Tensor) -> Tensor:
        h = conv_bn(self.stem_conv, self.stem_bn, x, relu=True)
        if self.stem_pool is not None:
            h = self.stem_pool(h)
        return h

    def forward(self, x: Tensor, gate_transform: GateTransform | None = None) -> Tensor:
        """Logits; ``gate_transform(stage, block, gates)`` may read or replace each layer's gates.

        The blocks run in one loop, so no frame holds a stage's input map while the stage runs.
        """
        h = self.stem(x)
        for stage_idx, stage in enumerate(self.stages):
            for block_idx, block in enumerate(stage):
                cb = functools.partial(gate_transform, stage_idx, block_idx) if gate_transform is not None else None
                h = block(h, cb)
        return self.classifier(global_pool(h, "avg"))

    def recalib_layers(self) -> list[tuple[int, int, ChannelRecalib]]:
        out = []
        for si, stage in enumerate(self.stages):
            for bi, block in enumerate(stage):
                if block.recalib is not None:
                    out.append((si, bi, block.recalib))
        return out

    def fold_bn(self) -> int:
        """Fold the BN of every channel-wise recalibration layer that has one; returns the number folded.

        Once layers fold, ``config`` names the BN-free variant they now have,
        so a checkpoint of the folded model restores with ``load_model``.
        """
        folded = 0
        for _, _, layer in self.recalib_layers():
            if isinstance(layer.integrate, StyleIntegration) and layer.integrate.bn is not None:
                layer.integrate.fold()
                folded += 1
        if folded:
            self.config = replace(self.config, recalib=replace(self.config.recalib, use_bn=False))
        return folded


def build_resnet(config: ArchitectureConfig, seed: int = 0) -> ResNet:
    return ResNet(config, np.random.default_rng(seed))


def cifar_resnet_config(depth: int, recalib: RecalibVariant | str | None = None,
                        num_classes: int = 10) -> ArchitectureConfig:
    """Basic-block net of depth 6n+2 on 16/32/64-channel stages."""
    if (depth - 2) % 6 != 0:
        raise ValueError(f"cifar resnet depth must be 6n+2, got {depth}")
    n = (depth - 2) // 6
    return ArchitectureConfig(
        stages=[StageSpec(n, 16, 1), StageSpec(n, 32, 2), StageSpec(n, 64, 2)],
        block_kind="basic",
        recalib=parse_recalib(recalib),
        num_classes=num_classes,
        stem="cifar",
    )


def imagenet_resnet50_config(recalib: RecalibVariant | str | None = None) -> ArchitectureConfig:
    return ArchitectureConfig(
        stages=[
            StageSpec(3, 256, 1),
            StageSpec(4, 512, 2),
            StageSpec(6, 1024, 2),
            StageSpec(3, 2048, 2),
        ],
        block_kind="bottleneck",
        recalib=parse_recalib(recalib),
        num_classes=1000,
        stem="imagenet",
    )


_NAMED = {
    "resnet20": lambda r: cifar_resnet_config(20, r),
    "resnet32": lambda r: cifar_resnet_config(32, r),
    "resnet56": lambda r: cifar_resnet_config(56, r),
    "resnet50": lambda r: imagenet_resnet50_config(r),
}


def named_config(name: str, recalib=None) -> ArchitectureConfig:
    if name not in _NAMED:
        raise ValueError(f"unknown architecture {name!r}; known: {sorted(_NAMED)}")
    return _NAMED[name](recalib)
