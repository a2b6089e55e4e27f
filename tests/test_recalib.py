import itertools
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from style_recal import tensor as T
from style_recal.layers import global_pool
from style_recal.recalib import (
    ChannelRecalib,
    FoldError,
    MlpIntegration,
    RecalibVariant,
    StyleIntegration,
    StylePool,
)
from style_recal.tensor import POOL_KINDS, Tape, Tensor, grad_check, using_dtype


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def recalibrated(layer, x: Tensor, gate_cb=None) -> Tensor:
    """x scaled by the (N, C) weights the layer returns."""
    return x * T.reshape(layer(x, gate_cb), x.shape[:2] + (1, 1))


def loop_style_pool(x, pooling):
    """Scalar-loop oracle: (N, C, d) statistics in the given order."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, len(pooling)))
    for ni in range(n):
        for ci in range(c):
            vals = [x[ni, ci, yi, xi] for yi in range(h) for xi in range(w)]
            mu = sum(vals) / len(vals)
            stats = {
                "avg": mu,
                "std": math.sqrt(sum((v - mu) ** 2 for v in vals) / len(vals) + 1e-12),
                "max": max(vals),
            }
            out[ni, ci] = [stats[kind] for kind in pooling]
    return out


def unblocked_style_pool(x, pooling, g):
    """Whole-map oracle, the formulas of style_pool before it pooled in row blocks.

    Returns the (N, C, d) statistics and the input gradient for an output
    gradient ``g``, in x's precision.
    """
    n, c, h, w = x.shape
    m = h * w
    x3 = x.reshape(n, c, m)
    col = {kind: i for i, kind in enumerate(pooling)}
    out = np.empty((n, c, len(pooling)), dtype=x.dtype)
    mu = x3.mean(axis=2)
    if "avg" in col:
        out[..., col["avg"]] = mu
    if "std" in col:
        xc = x3 - mu[..., None]
        sigma = np.sqrt((xc * xc).mean(axis=2) + T.POOL_EPS)
        out[..., col["std"]] = sigma
        gx = x3 - mu[..., None]
        gx *= (g[..., col["std"]] / (m * sigma))[..., None]
        if "avg" in col:
            gx += (g[..., col["avg"]] / m)[..., None]
    else:
        gx = np.broadcast_to((g[..., col["avg"]] / m)[..., None], (n, c, m)).copy()
    if "max" in col:
        idx = x3.argmax(axis=2)
        out[..., col["max"]] = np.take_along_axis(x3, idx[..., None], axis=2)[..., 0]
        gx.reshape(n * c, m)[np.arange(n * c), idx.reshape(-1)] += g[..., col["max"]].reshape(-1)
    return out, gx.reshape(x.shape)


class TestRecalibVariant:
    def test_canonical_srm(self):
        v = RecalibVariant.srm()
        assert v.pooling == ("avg", "std") and v.integration == "cfc" and v.use_bn and v.d == 2

    def test_canonical_se(self):
        v = RecalibVariant.se()
        assert v.pooling == ("avg",) and v.integration == "mlp" and not v.use_bn
        assert v.se_reduction == 16

    def test_pooling_reordered_to_fixed_order(self):
        v = RecalibVariant(pooling=("max", "avg"), integration="cfc")
        assert v.pooling == ("avg", "max")

    def test_empty_pooling_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            RecalibVariant(pooling=())

    def test_bad_reduction_rejected(self):
        with pytest.raises(ValueError, match="reduction"):
            RecalibVariant(pooling=("avg",), integration="mlp", se_reduction=0)

    def test_roundtrip_dict(self):
        v = RecalibVariant(pooling=("avg", "std"), integration="mlp", use_bn=True, se_reduction=8)
        assert RecalibVariant.from_dict(asdict(v)) == v


class TestStylePool:
    def test_constant_channel_avg_std(self):
        pool = StylePool(("avg", "std"))
        t = pool(Tensor(np.full((2, 3, 4, 4), 2.5))).data
        np.testing.assert_allclose(t[..., 0], 2.5)
        assert t[..., 1].max() < 2e-6  # sqrt(POOL_EPS)

    def test_avg_max_pair(self):
        pool = StylePool(("max", "avg"))  # canonical order puts avg first
        x = Tensor(np.array([1.0, 3.0, 1.0, 3.0]).reshape(1, 1, 2, 2))
        t = pool(x).data
        np.testing.assert_allclose(t[0, 0], [2.0, 3.0])

    @pytest.mark.parametrize(
        "pooling", [p for r in (1, 2, 3) for p in itertools.combinations(POOL_KINDS, r)])
    def test_every_subset_matches_scalar_loops(self, pooling):
        rng = np.random.default_rng(len(pooling))
        with using_dtype(np.float64):
            for shape in ((2, 3, 5, 4), (1, 2, 1, 1), (3, 1, 7, 2)):
                x = rng.normal(size=shape)
                x[:, 0, 0] = 3.25  # ties and a partly constant row
                got = StylePool(pooling)(Tensor(x, dtype=np.float64)).data
                assert np.abs(got - loop_style_pool(x, pooling)).max() < 1e-6

    @pytest.mark.parametrize("rows_per_block", [1, 4, None], ids=["one-row", "uneven", "whole"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pooling", [p for r in (1, 2, 3) for p in itertools.combinations(POOL_KINDS, r)
                                         if "avg" in p or "std" in p], ids="-".join)
    def test_blocked_rows_equal_unblocked_formulas(self, monkeypatch, pooling, dtype, rows_per_block):
        """Forward values and input gradient bit for bit, whatever rows a block holds.

        21 rows (N*C) of 30 values: one row per block, blocks of 3 and 4 rows
        (``_PATCH_BYTES`` of 4 rows gives 6 near-equal blocks), and one block.
        """
        rng = np.random.default_rng(len(pooling))
        x = (rng.normal(size=(3, 7, 5, 6)) * 2.0 + 5.0).astype(dtype)
        x[0, 1] = 0.75  # a constant row
        g = rng.normal(size=(3, 7, len(pooling))).astype(dtype)
        if rows_per_block is not None:
            monkeypatch.setattr(T, "_PATCH_BYTES", rows_per_block * 30 * x.itemsize)
        want_out, want_gx = unblocked_style_pool(x, pooling, g)
        with Tape() as tape:
            out = T.style_pool(Tensor(x, requires_grad=True), pooling)
        ((_, _, backward),) = tape._records
        (gx,) = backward(g)
        assert out.dtype == want_out.dtype and gx.dtype == want_gx.dtype
        np.testing.assert_array_equal(out.data, want_out)
        np.testing.assert_array_equal(gx, want_gx)

    def test_matches_global_pool_components(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 4, 5, 5)).astype(np.float32))
        t = StylePool(("avg", "std", "max"))(x).data
        for i, kind in enumerate(("avg", "std", "max")):
            np.testing.assert_array_equal(t[..., i], global_pool(x, kind).data)


class TestStyleIntegration:
    def test_zero_weights_give_half_gates(self):
        layer = StyleIntegration(4, 2)
        layer.weight.data[...] = 0.0
        t = Tensor(np.random.default_rng(0).normal(size=(8, 4, 2)).astype(np.float32))
        g = layer(t).data
        np.testing.assert_allclose(g, 0.5, atol=1e-7)

    def test_saturated_shift(self):
        layer = StyleIntegration(3, 2)
        layer.bn.gamma.data[...] = 0.0
        layer.bn.beta.data[...] = 8.0
        t = Tensor(np.random.default_rng(1).normal(size=(4, 3, 2)).astype(np.float32))
        g = layer(t).data
        np.testing.assert_allclose(g, sigmoid(8.0), rtol=1e-5)

    def test_gate_shape_and_range(self):
        layer = StyleIntegration(5, 2, rng=np.random.default_rng(2))
        t = Tensor(np.random.default_rng(3).normal(size=(6, 5, 2)).astype(np.float32))
        g = layer(t).data
        assert g.shape == (6, 5)
        assert (g > 0).all() and (g < 1).all()

    def test_fold_requires_populated_stats(self):
        layer = StyleIntegration(3, 2)
        with pytest.raises(FoldError, match="running statistics"):
            layer.fold()

    def test_fold_rejects_nonfinite_stats(self):
        layer = StyleIntegration(3, 2)
        layer.bn.num_batches[...] = 1
        layer.bn.running_var[0] = np.inf
        with pytest.raises(FoldError, match="non-finite"):
            layer.fold()


class TestFoldIdentity:
    def test_identity_bn_folds_to_same_weights(self):
        layer = StyleIntegration(3, 2, rng=np.random.default_rng(4))
        layer.bn.eps = 0.0
        layer.bn.num_batches[...] = 1  # running mean 0, var 1 defaults
        weight = layer.weight.data.copy()
        layer.fold()
        np.testing.assert_allclose(layer.weight.data, weight, rtol=1e-7)
        np.testing.assert_allclose(layer.bias.data, 0.0, atol=1e-12)

    def test_zero_gamma_gives_constant_gate(self):
        layer = StyleIntegration(3, 2, rng=np.random.default_rng(5))
        layer.bn.gamma.data[...] = 0.0
        beta = np.array([0.5, -1.0, 2.0], dtype=np.float32)
        layer.bn.beta.data[...] = beta
        layer.bn.num_batches[...] = 1
        layer.fold()
        np.testing.assert_allclose(layer.weight.data, 0.0)
        np.testing.assert_allclose(layer.bias.data, beta)
        t = Tensor(np.random.default_rng(6).normal(size=(4, 3, 2)).astype(np.float32))
        g = layer(t).data
        np.testing.assert_allclose(g, np.broadcast_to(sigmoid(beta), g.shape), rtol=1e-6)

    def test_fold_applies_bn_eval_affine(self):
        rng = np.random.default_rng(9)
        layer = StyleIntegration(64, 2, rng=rng)
        layer.bn.gamma.data = rng.uniform(0.2, 2.0, size=64).astype(np.float32)
        layer.bn.beta.data = rng.normal(size=64).astype(np.float32)
        layer.bn.running_mean[...] = rng.normal(size=64)
        layer.bn.running_var[...] = rng.uniform(0.05, 3.0, size=64)
        layer.bn.num_batches[...] = 1
        scale, shift = layer.bn.eval_affine()
        weight = layer.weight.data.copy()
        layer.fold()
        np.testing.assert_array_equal(layer.weight.data, weight * scale[:, None])
        np.testing.assert_array_equal(layer.bias.data, shift)

    def test_eval_equals_folded_over_random_states(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            layer = StyleIntegration(4, 2, rng=rng)
            layer.bn.gamma.data = rng.uniform(0.2, 2.0, size=4).astype(np.float32)
            layer.bn.beta.data = rng.normal(size=4).astype(np.float32)
            layer.bn.running_mean[...] = rng.normal(size=4)
            layer.bn.running_var[...] = rng.uniform(0.05, 3.0, size=4)
            layer.bn.num_batches[...] = 1
            layer.eval()
            t = Tensor(rng.normal(size=(5, 4, 2)).astype(np.float32))
            g_eval = layer(t).data
            layer.fold()
            g_folded = layer(t).data
            assert np.abs(g_folded - g_eval).max() < 1e-5


class TestChannelRecalib:
    def test_half_gate_halves_input(self):
        layer = ChannelRecalib(3, RecalibVariant.srm(), rng=np.random.default_rng(0))
        layer.integrate.weight.data[...] = 0.0
        x = Tensor(np.random.default_rng(1).normal(size=(4, 3, 5, 5)).astype(np.float32))
        out = recalibrated(layer, x).data
        np.testing.assert_allclose(out, 0.5 * x.data, rtol=1e-5, atol=1e-6)

    def test_zero_gate_zeroes_output(self):
        layer = ChannelRecalib(3, RecalibVariant.srm(), rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(2).normal(size=(2, 3, 4, 4)).astype(np.float32))
        out = recalibrated(layer, x, lambda g: np.zeros_like(g)).data
        assert (out == 0).all()

    def test_gate_cb_under_tape_rejected(self):
        # Replacement gates are constants: under a Tape they would silently cut the gate gradient.
        layer = ChannelRecalib(3, RecalibVariant.srm(), rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(2).normal(size=(2, 3, 4, 4)).astype(np.float32))
        with Tape(), pytest.raises(RuntimeError, match="gate_cb"):
            layer(x, gate_cb=lambda g: g * 0.5)

    def test_forward_under_tape_holds_about_one_map(self):
        """Besides its input, a recorded SRM forward keeps small per-channel arrays only.

        Its output is the (N, C) gates, and style pooling's backward recomputes
        the centred map instead of keeping it, which had made the layer hold
        two maps.
        """
        layer = ChannelRecalib(16, RecalibVariant.srm(), rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(3).normal(size=(16, 16, 32, 32)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = layer(x)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tape) and out.shape == x.shape[:2]
        assert held < 0.1 * x.data.nbytes, f"{held / x.data.nbytes:.2f} maps held"

    def test_recalibrate_matches_loop_broadcast(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        g = rng.uniform(0.1, 0.9, size=(2, 3)).astype(np.float32)
        s = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        out = T.residual_relu(Tensor(x), Tensor(s), Tensor(g)).data
        for n in range(2):
            for c in range(3):
                np.testing.assert_array_equal(out[n, c], np.maximum(x[n, c] * g[n, c] + s[n, c], 0))

    def test_channel_independence_of_cfc_gates(self):
        # Perturbing one channel's map leaves other channels' gates unchanged (eval mode).
        rng = np.random.default_rng(4)
        layer = ChannelRecalib(4, RecalibVariant.srm(), rng=rng)
        layer.integrate.bn.num_batches[...] = 1
        layer.eval()
        x = rng.normal(size=(2, 4, 5, 5)).astype(np.float32)
        g0 = layer(Tensor(x)).data
        x2 = x.copy()
        x2[:, 2] *= 3.7
        g1 = layer(Tensor(x2)).data
        unchanged = [c for c in range(4) if c != 2]
        np.testing.assert_array_equal(g0[:, unchanged], g1[:, unchanged])
        assert not np.allclose(g0[:, 2], g1[:, 2])

    def test_se_gates_couple_channels(self):
        rng = np.random.default_rng(5)
        layer = ChannelRecalib(4, RecalibVariant.se(2), rng=rng)
        layer.eval()
        x = rng.normal(size=(2, 4, 5, 5)).astype(np.float32)
        g0 = layer(Tensor(x)).data
        x2 = x.copy()
        x2[:, 2] += 5.0
        g1 = layer(Tensor(x2)).data
        others = [c for c in range(4) if c != 2]
        assert np.abs(g0[:, others] - g1[:, others]).max() > 1e-6

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=30)
    def test_gate_range_property(self, seed):
        rng = np.random.default_rng(seed)
        layer = ChannelRecalib(3, RecalibVariant.srm(), rng=rng)
        x = Tensor((rng.normal(size=(4, 3, 3, 3)) * 10).astype(np.float32))
        g = layer(x).data
        assert (g > 0).all() and (g < 1).all()

    def test_positive_scale_covariance_of_pooled_features(self):
        rng = np.random.default_rng(6)
        pool = StylePool(("avg", "std"))
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float64)
        for lam in (0.5, 2.0, 17.0):
            t1 = pool(Tensor(lam * x, dtype=np.float64)).data
            t0 = pool(Tensor(x, dtype=np.float64)).data
            np.testing.assert_allclose(t1, lam * t0, rtol=1e-6, atol=1e-6)


class TestSEBlock:
    def test_zero_excitation_gives_half(self):
        layer = ChannelRecalib(4, RecalibVariant.se(2), rng=np.random.default_rng(0))
        layer.integrate.fc1.weight.data[...] = 0.0
        layer.integrate.fc1.bias.data[...] = 0.0
        layer.integrate.fc2.weight.data[...] = 0.0
        layer.integrate.fc2.bias.data[...] = 0.0
        x = Tensor(np.random.default_rng(1).normal(size=(2, 4, 3, 3)).astype(np.float32))
        out = recalibrated(layer, x).data
        np.testing.assert_allclose(out, 0.5 * x.data, rtol=1e-6)

    def test_squeeze_equals_avg_pool(self):
        rng = np.random.default_rng(2)
        layer = ChannelRecalib(4, RecalibVariant.se(2), rng=rng)
        x = Tensor(rng.normal(size=(2, 4, 5, 5)).astype(np.float32))
        t = layer.pool(x).data
        np.testing.assert_array_equal(t[..., 0], global_pool(x, "avg").data)

    def test_matches_independent_composition(self):
        rng = np.random.default_rng(3)
        layer = ChannelRecalib(4, RecalibVariant.se(2), rng=rng)
        x = rng.normal(size=(2, 4, 5, 5)).astype(np.float32)
        out = recalibrated(layer, Tensor(x)).data
        squeeze = x.mean(axis=(2, 3))
        h = np.maximum(squeeze @ layer.integrate.fc1.weight.data + layer.integrate.fc1.bias.data, 0.0)
        z = h @ layer.integrate.fc2.weight.data + layer.integrate.fc2.bias.data
        want = x * sigmoid(z)[:, :, None, None]
        assert np.abs(out - want).max() < 1e-6

    def test_hidden_width_floor(self):
        layer = ChannelRecalib(8, RecalibVariant.se(16))
        assert layer.integrate.fc1.out_features == 1  # max(1, floor(8/16))

    def test_bad_reduction_rejected(self):
        with pytest.raises(ValueError):
            RecalibVariant.se(0)


class TestMakeVariant:
    def test_avg_only_cfc_is_d1(self):
        layer = ChannelRecalib(4, RecalibVariant(pooling=("avg",), integration="cfc"))
        assert isinstance(layer.integrate, StyleIntegration)
        assert layer.integrate.d == 1 and layer.integrate.bn is not None

    def test_canonical_srm_d2(self):
        layer = ChannelRecalib(4, RecalibVariant.srm())
        assert layer.integrate.d == 2 and layer.pool.pooling == ("avg", "std")

    def test_sp_mlp_no_bn(self):
        v = RecalibVariant(pooling=("avg", "std"), integration="mlp", use_bn=False)
        layer = ChannelRecalib(8, v)
        assert isinstance(layer.integrate, MlpIntegration)
        assert layer.integrate.bn is None
        assert layer.integrate.fc1.in_features == 16  # C * d concatenated along channels

    def test_cfc_without_bn_has_bias(self):
        v = RecalibVariant(pooling=("avg", "std"), integration="cfc", use_bn=False)
        layer = ChannelRecalib(4, v)
        assert layer.integrate.bn is None and layer.integrate.bias is not None


class TestBlockGradients:
    def test_srm_block_gradcheck_plain_sum(self):
        # Loss = sum of the recalibrated output, full block in train mode.
        with using_dtype(np.float64):
            worst = 0.0
            for seed in range(3):
                rng = np.random.default_rng(seed)
                layer = ChannelRecalib(4, RecalibVariant.srm(), rng=rng)
                x = Tensor(rng.normal(size=(2, 4, 3, 3)), dtype=np.float64)
                params = [x] + layer.parameters()
                err = grad_check(lambda ts: T.tsum(recalibrated(layer, x)), params, eps=1e-4)
                worst = max(worst, err)
            assert worst < 1e-4

    def test_gates_differentiable_through_tape(self):
        with using_dtype(np.float64):
            rng = np.random.default_rng(0)
            layer = ChannelRecalib(3, RecalibVariant.srm(), rng=rng)
            x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True, dtype=np.float64)
            with Tape() as tape:
                loss = T.tsum(layer(x))
            tape.backward(loss)
            assert x.grad is not None and np.isfinite(x.grad).all()
            assert layer.integrate.weight.grad is not None
