"""Finite-difference verification suite for every differentiable op and layer.

Each case builds float64 inputs from a seeded generator, evaluates a scalar
loss through the op or layer under test, and compares tape gradients against
central differences. Inputs for kinked ops (relu, max) are sampled away from
the kink so the finite difference stays valid.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from . import tensor as T
from .layers import BatchNorm, Conv2d, Linear, global_pool
from .recalib import ChannelRecalib, RecalibVariant
from .tensor import Tensor, using_dtype

__all__ = ["default_checks", "run_suite", "SUITE_TOLERANCE"]

SUITE_TOLERANCE = 1e-4


def _t(rng, *shape, offset: float = 0.0) -> Tensor:
    data = rng.normal(size=shape)
    if offset:
        data = np.sign(data) * (np.abs(data) + offset)
    return Tensor(data, dtype=np.float64)


def _sq_loss(out: Tensor) -> Tensor:
    return T.tsum(out * out)


def _recalibrated(layer: ChannelRecalib, x: Tensor) -> Tensor:
    """x scaled by its recalibration weights, as separate ops."""
    return x * T.reshape(layer(x), (x.shape[0], x.shape[1], 1, 1))


def _weighted_loss(rng: np.random.Generator, shape: tuple[int, ...]):
    """Random linear functional; avoids losses that BN makes input-invariant."""
    r = Tensor(rng.normal(size=shape), dtype=np.float64)

    def loss(out: Tensor) -> Tensor:
        return T.tsum(out * r)

    return loss


def default_checks() -> dict[str, Callable[[np.random.Generator], float]]:
    """Each check by name; a check maps a seeded generator to its relative error."""
    checks: dict[str, Callable[[np.random.Generator], float]] = {}

    def op(name):
        def wrap(fn):
            checks[name] = fn
            return fn

        return wrap

    @op("add")
    def _add(rng):
        a, b = _t(rng, 3, 4), _t(rng, 3, 4)
        return T.grad_check(lambda ts: _sq_loss(ts[0] + ts[1]), [a, b])

    @op("mul")
    def _mul(rng):
        a, b = _t(rng, 2, 3, 4), _t(rng, 3, 4)
        return T.grad_check(lambda ts: T.tsum(ts[0] * ts[1]), [a, b])

    @op("matmul")
    def _matmul(rng):
        a, b = _t(rng, 3, 5), _t(rng, 5, 2)
        return T.grad_check(lambda ts: _sq_loss(T.matmul(ts[0], ts[1])), [a, b])

    @op("relu")
    def _relu(rng):
        x = _t(rng, 3, 4, offset=0.1)
        return T.grad_check(lambda ts: _sq_loss(T.relu(ts[0])), [x])

    @op("sigmoid")
    def _sigmoid(rng):
        x = _t(rng, 3, 4)
        return T.grad_check(lambda ts: T.tsum(T.sigmoid(ts[0])), [x])

    @op("sum")
    def _sum(rng):
        x = _t(rng, 2, 3, 4)
        return T.grad_check(lambda ts: _sq_loss(T.tsum(ts[0], axis=(0, 2))), [x])

    @op("reshape")
    def _reshape(rng):
        x = _t(rng, 2, 6)
        return T.grad_check(lambda ts: _sq_loss(T.reshape(ts[0], (3, 4))), [x])

    @op("residual_relu")
    def _residual_relu(rng):
        b, g = _t(rng, 2, 3, 4, 4), _t(rng, 2, 3)
        # The shortcut keeps every b * g + s at least 0.1 from the ReLU kink.
        s = Tensor(_t(rng, 2, 3, 4, 4, offset=0.1).data - b.data * g.data[:, :, None, None], dtype=np.float64)
        return T.grad_check(lambda ts: _sq_loss(T.residual_relu(*ts)), [b, s, g])

    @op("conv2d")
    def _conv(rng):
        x, w = _t(rng, 2, 3, 5, 5), _t(rng, 4, 3, 3, 3)
        return T.grad_check(lambda ts: _sq_loss(T.conv2d(ts[0], ts[1], stride=2, padding=1)), [x, w])

    @op("conv2d_lowered_grad")  # stride 1 and cout <= cin: the backward lowers the output gradient
    def _conv_lowered(rng):
        x, w = _t(rng, 2, 3, 5, 5), _t(rng, 2, 3, 3, 3)
        return T.grad_check(lambda ts: _sq_loss(T.conv2d(ts[0], ts[1], stride=1, padding=1)), [x, w])

    @op("maxpool2d")
    def _maxpool(rng):
        x = _t(rng, 2, 2, 6, 6)
        return T.grad_check(lambda ts: _sq_loss(T.maxpool2d(ts[0], 3, 2, 1)), [x])

    @op("cross_entropy")
    def _ce(rng):
        x = _t(rng, 4, 5)
        labels = rng.integers(0, 5, size=4)
        return T.grad_check(lambda ts: T.cross_entropy(ts[0], labels), [x])

    @op("global_pool_avg")
    def _gp_avg(rng):
        x = _t(rng, 2, 3, 4, 4)
        return T.grad_check(lambda ts: _sq_loss(global_pool(ts[0], "avg")), [x])

    @op("global_pool_std")
    def _gp_std(rng):
        x = _t(rng, 2, 3, 4, 4)
        return T.grad_check(lambda ts: _sq_loss(global_pool(ts[0], "std")), [x])

    @op("global_pool_max")
    def _gp_max(rng):
        x = _t(rng, 2, 3, 4, 4)
        return T.grad_check(lambda ts: _sq_loss(global_pool(ts[0], "max")), [x])

    @op("style_pool_avg_std")
    def _sp_avg_std(rng):
        x = _t(rng, 2, 3, 4, 4)
        return T.grad_check(lambda ts: _sq_loss(T.style_pool(ts[0], ("avg", "std"))), [x])

    @op("style_pool_avg_std_max")
    def _sp_all(rng):
        x = _t(rng, 2, 3, 4, 4)
        loss = _weighted_loss(rng, (2, 3, 3))
        return T.grad_check(lambda ts: loss(T.style_pool(ts[0], ("avg", "std", "max"))), [x])

    @op("style_pool_max_ties")
    def _sp_max_ties(rng):
        # Finite differences are undefined at a tie, so the tape gradient is
        # compared with the first-argmax routing directly: error 1 if misrouted.
        x = _t(rng, 2, 3, 3, 3)
        x.data[:, :, 1, 2] = x.data[:, :, 2, 0] = x.data.max() + 1.0
        x.requires_grad = True
        x.grad = None
        r = rng.normal(size=(2, 3))
        with T.Tape() as tape:
            loss = T.tsum(T.style_pool(x, "max") * Tensor(r))
        tape.backward(loss)
        want = np.zeros_like(x.data)
        want[:, :, 1, 2] = r
        return float(np.abs(x.grad - want).max() / np.abs(r).max())

    @op("linear_layer")
    def _linear(rng):
        layer = Linear(5, 3, rng=rng)
        x = _t(rng, 4, 5)
        params = [x, layer.weight, layer.bias]
        return T.grad_check(lambda ts: _sq_loss(layer(ts[0])), params)

    @op("conv_layer")
    def _conv_layer(rng):
        layer = Conv2d(3, 4, 3, stride=1, padding=1, rng=rng)
        x = _t(rng, 2, 3, 5, 5)
        return T.grad_check(lambda ts: _sq_loss(layer(ts[0])), [x, layer.weight])

    @op("batchnorm_2d")
    def _bn2(rng):
        layer = BatchNorm(3)
        layer.gamma.data = rng.uniform(0.5, 1.5, size=3)
        layer.beta.data = rng.normal(size=3)
        x = _t(rng, 6, 3)
        loss = _weighted_loss(rng, (6, 3))
        return T.grad_check(lambda ts: loss(layer(ts[0])), [x, layer.gamma, layer.beta])

    @op("batchnorm_4d")
    def _bn4(rng):
        layer = BatchNorm(3)
        layer.gamma.data = rng.uniform(0.5, 1.5, size=3)
        x = _t(rng, 4, 3, 4, 4)
        loss = _weighted_loss(rng, (4, 3, 4, 4))
        return T.grad_check(lambda ts: loss(layer(ts[0])), [x, layer.gamma, layer.beta])

    @op("srm_block")
    def _srm(rng):
        layer = ChannelRecalib(4, RecalibVariant.srm(), rng=rng)
        x = _t(rng, 2, 4, 3, 3)
        loss = _weighted_loss(rng, (2, 4, 3, 3))
        params = [x] + layer.parameters()
        return T.grad_check(lambda ts: loss(_recalibrated(layer, ts[0])), params, eps=1e-4)

    @op("se_block")
    def _se(rng):
        layer = ChannelRecalib(8, RecalibVariant.se(4), rng=rng)
        # Keep hidden units alive for every example: a batch-dead ReLU unit has
        # an exactly-zero bias gradient, which the relative-error metric cannot
        # compare against finite-difference noise.
        layer.integrate.fc1.bias.data += 1.0
        x = _t(rng, 2, 8, 3, 3)
        loss = _weighted_loss(rng, (2, 8, 3, 3))
        params = [x] + layer.parameters()
        return T.grad_check(lambda ts: loss(_recalibrated(layer, ts[0])), params, eps=1e-4)

    @op("mlp_bn_variant")
    def _mlp_bn(rng):
        variant = RecalibVariant(pooling=("avg", "std"), integration="mlp", use_bn=True, se_reduction=4)
        layer = ChannelRecalib(4, variant, rng=rng)
        layer.integrate.fc1.bias.data += 1.0
        x = _t(rng, 2, 4, 3, 3)
        loss = _weighted_loss(rng, (2, 4, 3, 3))
        # The BN after fc2 removes any per-channel constant, so the true gradient
        # of fc2.bias is zero, and so is fc1.bias's with every hidden unit alive.
        # Relative error cannot rate a structural zero against finite-difference
        # noise: the biases are rated by their largest analytic gradient over the
        # largest gradient of the other inputs, the rest by relative error.
        biases = [layer.integrate.fc1.bias, layer.integrate.fc2.bias]
        others = [x] + [p for p in layer.parameters() if all(p is not b for b in biases)]
        for b in biases:
            b.grad = None
        err = T.grad_check(lambda ts: loss(_recalibrated(layer, ts[0])), others, eps=1e-4)
        scale = max(float(np.abs(t.grad).max()) for t in others)
        return max(err, max(float(np.abs(b.grad).max()) for b in biases) / scale)

    @op("cfc_nobn_variant")
    def _cfc_nobn(rng):
        variant = RecalibVariant(pooling=("avg", "std", "max"), integration="cfc", use_bn=False)
        layer = ChannelRecalib(4, variant, rng=rng)
        x = _t(rng, 2, 4, 3, 3)
        loss = _weighted_loss(rng, (2, 4, 3, 3))
        params = [x] + layer.parameters()
        return T.grad_check(lambda ts: loss(_recalibrated(layer, ts[0])), params, eps=1e-4)

    return checks


def run_suite(seeds: Iterable[int] = range(10)) -> dict[str, float]:
    """Max relative error per check across seeds, computed in float64."""
    results: dict[str, float] = {}
    with using_dtype(np.float64):
        for name, run in default_checks().items():
            worst = 0.0
            for seed in seeds:
                err = run(np.random.default_rng(seed))
                if not math.isfinite(err):  # max() would drop a NaN
                    raise T.GradCheckError(f"{name}: non-finite relative error {err!r} at seed {seed}")
                worst = max(worst, err)
            results[name] = worst
    return results
