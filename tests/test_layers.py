import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from style_recal.layers import BN_EPS, POOL_EPS, BatchNorm, Conv2d, Linear, Module, global_pool
from style_recal.tensor import ShapeError, Tensor, using_dtype


def loop_batchnorm(x, gamma, beta, eps):
    """Per-channel scalar-loop oracle for train-mode normalization (NCHW)."""
    n, c, h, w = x.shape
    out = np.zeros_like(x)
    for ci in range(c):
        vals = []
        for ni in range(n):
            for yi in range(h):
                for xi in range(w):
                    vals.append(x[ni, ci, yi, xi])
        mu = sum(vals) / len(vals)
        var = sum((v - mu) ** 2 for v in vals) / len(vals)
        for ni in range(n):
            for yi in range(h):
                for xi in range(w):
                    xh = (x[ni, ci, yi, xi] - mu) / math.sqrt(var + eps)
                    out[ni, ci, yi, xi] = gamma[ci] * xh + beta[ci]
    return out


class TestBatchNorm:
    def test_plus_minus_one_batch(self):
        bn = BatchNorm(1)
        x = Tensor(np.array([[1.0], [-1.0]]))
        out = bn(x)
        expected = 1.0 / math.sqrt(1.0 + BN_EPS)
        np.testing.assert_allclose(out.data, [[expected], [-expected]], rtol=1e-6)

    def test_eval_identity_with_unit_stats(self):
        bn = BatchNorm(3, eps=0.0)
        bn.eval()
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3)).astype(np.float32))
        np.testing.assert_allclose(bn(x).data, x.data, rtol=1e-6)

    def test_matches_scalar_loop_oracle(self):
        with using_dtype(np.float64):
            rng = np.random.default_rng(1)
            bn = BatchNorm(3)
            bn.gamma.data = rng.uniform(0.5, 1.5, size=3)
            bn.beta.data = rng.normal(size=3)
            x = rng.normal(size=(4, 3, 2, 2))
            got = bn(Tensor(x, dtype=np.float64)).data
            want = loop_batchnorm(x, bn.gamma.data, bn.beta.data, bn.eps)
            assert np.abs(got - want).max() < 1e-6

    @pytest.mark.parametrize("shape", [(5, 4), (3, 4, 6, 5)])
    def test_eval_is_the_running_stat_affine_bit_for_bit(self, shape):
        rng = np.random.default_rng(4)
        bn = BatchNorm(4)
        bn.gamma.data = rng.uniform(0.5, 1.5, size=4).astype(np.float32)
        bn.beta.data = rng.normal(size=4).astype(np.float32)
        bn.running_mean[...] = rng.normal(size=4)
        bn.running_var[...] = rng.uniform(0.2, 3.0, size=4)
        bn.eval()
        x = rng.normal(size=shape).astype(np.float32)
        scale = bn.gamma.data * (1 / np.sqrt(bn.running_var + bn.eps))
        shift = bn.beta.data - bn.running_mean * scale
        s = (1, 4) + (1,) * (len(shape) - 2)
        want = x * scale.reshape(s) + shift.reshape(s)
        got = bn(Tensor(x)).data
        assert got.dtype == np.float32 and want.dtype == np.float32
        assert np.array_equal(got, want)

    def test_train_batch_of_one_rejected(self):
        bn = BatchNorm(2)
        with pytest.raises(ShapeError, match="batch size"):
            bn(Tensor(np.zeros((1, 2))))

    def test_eval_ignores_batch_composition(self):
        bn = BatchNorm(2)
        bn(Tensor(np.random.default_rng(0).normal(size=(8, 2)).astype(np.float32)))
        bn.eval()
        a = np.array([[1.0, 2.0]], dtype=np.float32)
        alone = bn(Tensor(a)).data
        with_others = bn(Tensor(np.vstack([a, np.full((5, 2), 9.0, dtype=np.float32)]))).data[:1]
        np.testing.assert_array_equal(alone, with_others)

    def test_train_output_stats_match_affine(self):
        rng = np.random.default_rng(2)
        bn = BatchNorm(3)
        bn.gamma.data = np.array([0.5, -1.2, 2.0], dtype=np.float32)
        bn.beta.data = np.array([1.0, 0.0, -3.0], dtype=np.float32)
        x = Tensor(rng.normal(2.0, 3.0, size=(16, 3, 5, 5)).astype(np.float32))
        out = bn(x).data
        mean = out.mean(axis=(0, 2, 3))
        std = out.std(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, bn.beta.data, atol=1e-5)
        np.testing.assert_allclose(std, np.abs(bn.gamma.data), atol=1e-5)

    def test_running_stats_ema(self):
        bn = BatchNorm(1)
        x = np.array([[2.0], [4.0]], dtype=np.float32)
        bn(Tensor(x))
        # new = 0.9 * old + 0.1 * batch; batch mean 3, biased var 1
        np.testing.assert_allclose(bn.running_mean, [0.3], rtol=1e-6)
        np.testing.assert_allclose(bn.running_var, [0.9 * 1.0 + 0.1 * 1.0], rtol=1e-6)
        assert bn.stats_initialized

    def test_variance_nonnegative_buffer(self):
        rng = np.random.default_rng(3)
        bn = BatchNorm(4)
        for _ in range(5):
            bn(Tensor(rng.normal(size=(8, 4)).astype(np.float32)))
        assert (bn.running_var >= 0).all()


class TestGlobalPool:
    def test_constant_channel(self):
        x = Tensor(np.full((2, 3, 4, 4), 5.0))
        np.testing.assert_allclose(global_pool(x, "avg").data, 5.0)
        assert global_pool(x, "std").data.max() <= math.sqrt(POOL_EPS) + 1e-12
        np.testing.assert_allclose(global_pool(x, "max").data, 5.0)

    def test_two_value_channel(self):
        # values {1, 3} in equal proportion: mean 2, biased std 1
        x = Tensor(np.array([1.0, 3.0, 1.0, 3.0]).reshape(1, 1, 2, 2))
        np.testing.assert_allclose(global_pool(x, "avg").data, 2.0)
        np.testing.assert_allclose(global_pool(x, "std").data, 1.0, rtol=1e-6)
        np.testing.assert_allclose(global_pool(x, "max").data, 3.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            global_pool(Tensor(np.zeros((1, 1, 2, 2))), "median")

    def test_max_ge_avg(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(4, 6, 3, 3)).astype(np.float32))
        assert (global_pool(x, "max").data >= global_pool(x, "avg").data).all()

    @given(lam=st.floats(min_value=0.01, max_value=100.0), seed=st.integers(0, 2**16))
    @settings(max_examples=40)
    def test_positive_scale_equivariance(self, lam, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float64)
        base_avg = global_pool(Tensor(x, dtype=np.float64), "avg").data
        base_std = global_pool(Tensor(x, dtype=np.float64), "std").data
        scaled_avg = global_pool(Tensor(lam * x, dtype=np.float64), "avg").data
        scaled_std = global_pool(Tensor(lam * x, dtype=np.float64), "std").data
        np.testing.assert_allclose(scaled_avg, lam * base_avg, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(scaled_std, lam * base_std, rtol=1e-6, atol=1e-6)


class TestModuleSystem:
    def test_hierarchical_names_unique(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.conv = Conv2d(3, 4, 3)
                self.head = Linear(4, 2)

        names = [n for n, _ in Net().named_parameters()]
        assert names == ["conv.weight", "head.weight", "head.bias"]
        assert len(names) == len(set(names))

    def test_train_eval_propagates(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.bn = BatchNorm(2)

        net = Net()
        assert net.bn.training
        net.eval()
        assert not net.bn.training
        net.train()
        assert net.bn.training

    def test_buffers_enumerated(self):
        bn = BatchNorm(4)
        names = dict(bn.named_buffers())
        assert set(names) == {"running_mean", "running_var", "num_batches"}

    def test_rebinding_a_name_drops_its_registration(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.head = Linear(4, 2)
                self.bn = BatchNorm(2)

        net = Net()
        net.bn = None
        net.head = Conv2d(1, 1, 1)
        assert [n for n, _ in net.named_parameters()] == ["head.weight"]
        assert list(net.named_buffers()) == []
        assert len(list(net.modules())) == 2
