"""Channel recalibration layers: style pooling, style integration, and gating.

The canonical style recalibrator pools each channel's spatial activations to
global statistics (mean and standard deviation), maps them through a
channel-wise fully connected layer (one tiny d -> 1 linear map per channel,
no cross-channel weights), normalizes over the batch, and squashes to a
per-channel gate in (0, 1); the residual block rescales the channel by it.

Also provided: the squeeze-and-excitation block (global average pool plus a
bottleneck MLP shared across channels), every pooling/integration ablation
between the two, and the inference-time fold of the batch-norm affine into
the preceding channel-wise layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .layers import BatchNorm, Linear, Module, _rng
from .tensor import (
    POOL_KINDS,
    Parameter,
    ShapeError,
    Tensor,
    _active_tape,
    get_default_dtype,
    relu,
    reshape,
    sigmoid,
    style_pool,
    tsum,
)

__all__ = [
    "RecalibVariant",
    "StylePool",
    "StyleIntegration",
    "MlpIntegration",
    "ChannelRecalib",
    "FoldError",
]

SE_DEFAULT_REDUCTION = 16


class FoldError(RuntimeError):
    """Raised when the BN fold is requested in an invalid state."""


@dataclass(frozen=True)
class RecalibVariant:
    """Configuration of one recalibration layer.

    pooling: subset of {avg, std, max}, kept in canonical [avg, std, max] order.
    integration: "cfc" (channel-wise fully connected) or "mlp" (bottleneck MLP
        over the style features concatenated along the channel axis).
    use_bn: batch-normalize the encoded style features before the sigmoid.
    se_reduction: bottleneck reduction ratio for mlp integration.
    """

    pooling: tuple[str, ...]
    integration: str = "cfc"
    use_bn: bool = True
    se_reduction: int | None = None

    def __post_init__(self):
        if not self.pooling:
            raise ValueError("recalib variant: pooling set must be nonempty")
        unknown = [p for p in self.pooling if p not in POOL_KINDS]
        if unknown:
            raise ValueError(f"recalib variant: unknown pooling kinds {unknown}; expected subset of {POOL_KINDS}")
        if len(set(self.pooling)) != len(self.pooling):
            raise ValueError("recalib variant: duplicate pooling kinds")
        ordered = tuple(p for p in POOL_KINDS if p in self.pooling)
        object.__setattr__(self, "pooling", ordered)
        if self.integration not in ("cfc", "mlp"):
            raise ValueError(f"recalib variant: unknown integration {self.integration!r}")
        if self.integration == "mlp":
            r = self.se_reduction if self.se_reduction is not None else SE_DEFAULT_REDUCTION
            if r < 1:
                raise ValueError(f"recalib variant: reduction ratio must be >= 1, got {r}")
            object.__setattr__(self, "se_reduction", r)

    @property
    def d(self) -> int:
        return len(self.pooling)

    @staticmethod
    def srm() -> "RecalibVariant":
        return RecalibVariant(pooling=("avg", "std"), integration="cfc", use_bn=True)

    @staticmethod
    def se(reduction: int = SE_DEFAULT_REDUCTION) -> "RecalibVariant":
        return RecalibVariant(pooling=("avg",), integration="mlp", use_bn=False, se_reduction=reduction)

    @staticmethod
    def from_dict(d: dict) -> "RecalibVariant":
        return RecalibVariant(**{**d, "pooling": tuple(d["pooling"])})


class StylePool(Module):
    """Pool each channel's spatial activations to its selected statistics.

    Output shape is (N, C, d) with the features in fixed [avg, std, max] order.
    """

    def __init__(self, pooling: Sequence[str]):
        super().__init__()
        if not pooling:
            raise ValueError("style pool: empty pooling set")
        self.pooling = tuple(p for p in POOL_KINDS if p in pooling)

    @property
    def d(self) -> int:
        return len(self.pooling)

    def forward(self, x: Tensor) -> Tensor:
        return style_pool(x, self.pooling)


class StyleIntegration(Module):
    """Channel-wise fully connected encoding, optional BN, sigmoid gate.

    Each channel owns an independent weight vector of length d; encoding is
    a dot product per channel. With BN, the bias is absorbed into the BN
    shift; without it a per-channel bias keeps the layer trainable.
    :meth:`fold` rewrites a BN layer into the BN-free form, so each channel
    reduces to one linear map followed by the sigmoid.
    """

    def __init__(self, channels: int, d: int, use_bn: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.channels = channels
        self.d = d
        bound = 1.0 / math.sqrt(d)
        dt = get_default_dtype()
        self.weight = Parameter(_rng(rng).uniform(-bound, bound, size=(channels, d)).astype(dt))
        self.bn = BatchNorm(channels) if use_bn else None
        self.bias = None if use_bn else Parameter(np.zeros(channels, dtype=dt))

    def forward(self, t: Tensor) -> Tensor:
        if t.ndim != 3 or t.shape[1] != self.channels or t.shape[2] != self.d:
            raise ShapeError(f"style integration: expected (N, {self.channels}, {self.d}), got {t.shape}")
        z = tsum(t * self.weight, axis=2)
        return sigmoid(self.bn(z) if self.bn is not None else z + self.bias)

    def fold(self) -> None:
        """Merge BN's eval-mode affine into the weights and a bias, and drop the BN.

        With (scale, shift) = ``bn.eval_affine()``: w'_c = scale_c * w_c and b'_c = shift_c.
        The folded layer is for inference only: the BN state is gone.
        """
        if self.bn is None:
            raise FoldError("fold: layer has no BN to fold")
        if not self.bn.stats_initialized:
            raise FoldError("fold: running statistics not populated (train first or load a checkpoint)")
        if not np.isfinite(self.bn.running_var).all() or not np.isfinite(self.bn.running_mean).all():
            raise FoldError("fold: running statistics contain non-finite values")
        scale, shift = self.bn.eval_affine()
        self.weight.data = self.weight.data * scale[:, None]
        self.bias = Parameter(shift)
        self.bn = None


class MlpIntegration(Module):
    """Bottleneck two-layer subnetwork over concatenated style features.

    This is the excitation subnetwork of the squeeze-and-excitation block,
    generalized to d style features per channel: the (N, C, d) input is
    flattened along the channel axis and mapped C*d -> hidden -> C with a
    ReLU in between, where hidden = max(1, floor(C*d / reduction)). Both
    linear maps carry biases.
    """

    def __init__(self, channels: int, d: int, reduction: int = SE_DEFAULT_REDUCTION,
                 use_bn: bool = False, rng: np.random.Generator | None = None):
        super().__init__()
        if reduction < 1:
            raise ValueError(f"mlp integration: reduction ratio must be >= 1, got {reduction}")
        self.channels = channels
        self.d = d
        rng = _rng(rng)  # one stream for both maps
        hidden = max(1, (channels * d) // reduction)
        self.fc1 = Linear(channels * d, hidden, rng=rng)
        self.fc2 = Linear(hidden, channels, rng=rng)
        self.bn = BatchNorm(channels) if use_bn else None

    def forward(self, t: Tensor) -> Tensor:
        if t.ndim != 3 or t.shape[1] != self.channels or t.shape[2] != self.d:
            raise ShapeError(f"mlp integration: expected (N, {self.channels}, {self.d}), got {t.shape}")
        n = t.shape[0]
        z = self.fc2(relu(self.fc1(reshape(t, (n, self.channels * self.d)))))
        if self.bn is not None:
            z = self.bn(z)
        return sigmoid(z)


class ChannelRecalib(Module):
    """Full recalibration layer: style pooling -> integration -> per-channel gates."""

    def __init__(self, channels: int, variant: RecalibVariant,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.channels = channels
        self.pool = StylePool(variant.pooling)
        if variant.integration == "cfc":
            self.integrate = StyleIntegration(channels, variant.d, use_bn=variant.use_bn, rng=rng)
        else:
            self.integrate = MlpIntegration(
                channels, variant.d, reduction=variant.se_reduction, use_bn=variant.use_bn, rng=rng
            )

    def forward(self, x: Tensor, gate_cb=None) -> Tensor:
        """The recalibration weights of x: per-example per-channel gates of shape (N, C), each in (0, 1).

        A block applies them with ``residual_relu``; on their own they scale
        x by ``mul(x, reshape(gates, (N, C, 1, 1)))``. ``gate_cb`` maps the
        gate array to replacement gates, which are returned instead. They are
        constants, so a callback is refused where the gates would otherwise
        carry a gradient (an active Tape).
        """
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(f"recalib: expected (N, {self.channels}, H, W), got {x.shape}")
        g = self.integrate(self.pool(x))
        if gate_cb is None:
            return g
        if g.requires_grad and _active_tape() is not None:
            raise RuntimeError("recalib: gate_cb under an active Tape would cut the gate gradient; "
                               "run gate callbacks without a Tape")
        return Tensor(gate_cb(g.data))
