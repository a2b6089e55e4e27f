"""Trainable layers: convolution, batch normalization, linear, global pooling.

Modules auto-register parameters, buffers, and child modules on attribute
assignment, so every parameter gets a unique hierarchical name (used by
checkpointing and parameter counting). Batch normalization train-mode forward
mutates its running statistics; everything else is read-only once built.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .tensor import (
    POOL_EPS,
    Parameter,
    ShapeError,
    Tensor,
    _active_tape,
    batch_norm_train,
    conv2d,
    get_default_dtype,
    matmul,
    maxpool2d,
    style_pool,
)
from .tensor import relu as relu_op

__all__ = [
    "Module",
    "ModuleList",
    "Conv2d",
    "BatchNorm",
    "conv_bn",
    "Linear",
    "MaxPool2d",
    "global_pool",
    "BN_EPS",
    "BN_MOMENTUM",
    "POOL_EPS",
]

# Common residual-network BN constants. POOL_EPS, the std-pooling stabilizer,
# lives with style_pool in the tensor module and is re-exported here.
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class Module:
    """Minimal parameter container with hierarchical naming."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "_training", True)

    def __setattr__(self, name, value):
        # Rebinding drops the old registration: ``self.bn = None`` unlists the child's state.
        self._params.pop(name, None)
        self._children.pop(name, None)
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._params.items():
            yield prefix + name, p
        for cname, child in self._children.items():
            yield from child.named_parameters(prefix + cname + ".")

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield prefix + name, self._buffers[name]
        for cname, child in self._children.items():
            yield from child.named_buffers(prefix + cname + ".")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._children.values():
            yield from child.modules()

    def train(self) -> "Module":
        for m in self.modules():
            object.__setattr__(m, "_training", True)
        return self

    def eval(self) -> "Module":
        for m in self.modules():
            object.__setattr__(m, "_training", False)
        return self

    @property
    def training(self) -> bool:
        return self._training

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class ModuleList(Module):
    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for m in modules:
            self.append(m)

    def append(self, module: Module) -> None:
        self._children[str(len(self._items))] = module
        self._items.append(module)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]


def _rng(rng: np.random.Generator | None) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng(0)


class Conv2d(Module):
    """3x3/1x1-style square convolution without bias (bias lives in BN)."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int, stride: int = 1,
                 padding: int = 0, rng: np.random.Generator | None = None):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        # He fan-out init, matching plain residual-network baselines.
        std = math.sqrt(2.0 / (kernel * kernel * out_channels))
        w = _rng(rng).normal(0.0, std, size=(out_channels, in_channels, kernel, kernel))
        self.weight = Parameter(w.astype(get_default_dtype()))

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, stride=self.stride, padding=self.padding)


class BatchNorm(Module):
    """Per-channel batch normalization over (N,) or (N, H, W) reduction axes.

    Train mode uses biased (1/N) batch statistics and updates the running
    estimates as ``new = (1 - m) * old + m * batch`` with ``m = BN_MOMENTUM``; eval mode
    depends only on the running statistics and treats the affine as constant
    (training through an eval-mode forward is not supported).
    """

    def __init__(self, channels: int, eps: float = BN_EPS):
        super().__init__()
        self.channels = channels
        self.eps = eps
        dt = get_default_dtype()
        self.gamma = Parameter(np.ones(channels, dtype=dt))
        self.beta = Parameter(np.zeros(channels, dtype=dt))
        self.register_buffer("running_mean", np.zeros(channels, dtype=dt))
        self.register_buffer("running_var", np.ones(channels, dtype=dt))
        self.register_buffer("num_batches", np.zeros((), dtype=np.int64))

    @property
    def stats_initialized(self) -> bool:
        return int(self.num_batches) > 0

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim not in (2, 4):
            raise ShapeError(f"batchnorm: expected (N, C) or (N, C, H, W), got {x.shape}")
        if x.shape[1] != self.channels:
            raise ShapeError(f"batchnorm: channel extent {x.shape[1]} != {self.channels}")
        if self.training:
            if x.shape[0] < 2:
                raise ShapeError("batchnorm: train mode requires batch size >= 2 (degenerate variance)")
            out, mu, var = batch_norm_train(x, self.gamma, self.beta, self.eps)
            m = BN_MOMENTUM
            self.running_mean[...] = (1 - m) * self.running_mean + m * mu
            self.running_var[...] = (1 - m) * self.running_var + m * var
            self.num_batches[...] += 1
            return out

        scale, shift = self.eval_affine()
        s = (1, self.channels) + (1,) * (x.ndim - 2)
        return x * Tensor(scale.reshape(s)) + Tensor(shift.reshape(s))

    def eval_affine(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-channel (scale, shift) of the eval-mode forward, ``x * scale + shift``."""
        inv = 1.0 / np.sqrt(self.running_var + self.eps)
        scale = self.gamma.data * inv
        return scale, self.beta.data - self.running_mean * scale


def conv_bn(conv: Conv2d, bn: BatchNorm, x: Tensor, relu: bool = False) -> Tensor:
    """``bn(conv(x))``, then a ReLU with ``relu``.

    In eval mode with no active Tape this is one ``conv2d`` call whose
    epilogue applies BN's eval affine and the ReLU to each conv slice before
    its store: the same float ops, so the same values, in fewer passes over
    the output. In train mode, or under a Tape, the modules run as separate
    ops, so BN updates its statistics and the tape records a backward.
    """
    if bn.training or _active_tape() is not None:
        h = bn(conv(x))
        return relu_op(h) if relu else h
    scale, shift = bn.eval_affine()
    return conv2d(x, conv.weight, conv.stride, conv.padding, scale=scale, shift=shift, relu=relu)


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator | None = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        bound = 1.0 / math.sqrt(in_features)
        r = _rng(rng)
        dt = get_default_dtype()
        self.weight = Parameter(r.uniform(-bound, bound, size=(in_features, out_features)).astype(dt))
        self.bias = Parameter(r.uniform(-bound, bound, size=(out_features,)).astype(dt))

    def forward(self, x: Tensor) -> Tensor:
        return matmul(x, self.weight) + self.bias


class MaxPool2d(Module):
    def __init__(self, kernel: int, stride: int, padding: int = 0):
        super().__init__()
        self.kernel = kernel
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return maxpool2d(x, self.kernel, self.stride, self.padding)


def global_pool(x: Tensor, kind: str) -> Tensor:
    """Reduce an NCHW map to per-example per-channel statistics of shape (N, C).

    ``avg`` and ``std`` are the channel-wise mean and biased (1/HW) standard
    deviation; ``max`` is the spatial maximum. std is stabilized as
    sqrt(var + POOL_EPS) so its gradient stays finite on constant channels.
    Delegates to :func:`style_pool` with the single statistic, so it shares
    that op's forward values and hand-written backward (one tape record).
    """
    return style_pool(x, kind)
