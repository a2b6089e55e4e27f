import contextlib
import ctypes
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LAST_FIRST, OWNED, use_workers
from style_recal import tensor as T
from style_recal.tensor import GradCheckError, ShapeError, Tape, Tensor, grad_check, using_dtype


def naive_conv2d(x, w, stride=1, padding=0):
    """Direct quadruple-loop convolution oracle, deliberately obvious."""
    n, cin, h, wid = x.shape
    cout, _, k, _ = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wid + 2 * padding - k) // stride + 1
    out = np.zeros((n, cout, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for oc in range(cout):
            for oy in range(ho):
                for ox in range(wo):
                    acc = 0.0
                    for ic in range(cin):
                        for ky in range(k):
                            for kx in range(k):
                                acc += x[ni, ic, oy * stride + ky, ox * stride + kx] * w[oc, ic, ky, kx]
                    out[ni, oc, oy, ox] = acc
    return out


def naive_im2col(x, k, stride=1, padding=0):
    """Direct-indexing patch matrix: row (c, i, j), column (n, y, x) holds xpad[n, c, i + stride*y, j + stride*x]."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    cols = np.empty((c * k * k, n * ho * wo), dtype=x.dtype)
    for ci in range(c):
        for i in range(k):
            for j in range(k):
                for ni in range(n):
                    for oy in range(ho):
                        for ox in range(wo):
                            cols[(ci * k + i) * k + j, (ni * ho + oy) * wo + ox] = (
                                xp[ni, ci, i + stride * oy, j + stride * ox])
    return cols


def naive_conv2d_weight_grad(x, g, k, stride=1, padding=0):
    """Direct-sum weight gradient: gW[o, c, i, j] = sum over n, y, x of g[n, o, y, x] * xpad[n, c, i + stride*y, j + stride*x]."""
    n, cout, ho, wo = g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    gw = np.zeros((cout, x.shape[1], k, k), dtype=x.dtype)
    for o in range(cout):
        for c in range(x.shape[1]):
            for i in range(k):
                for j in range(k):
                    gw[o, c, i, j] = np.sum(g[:, o] * xp[:, c, i : i + stride * ho : stride, j : j + stride * wo : stride])
    return gw


# (1,1,0) .. (7,1,3): stride-1 correlation path; (3,2,1), (1,2,0), (7,2,3): strided
# scatter path; (3,1,3): padding >= k falls back to the scatter at stride 1.
CONV_CASES = [
    (1, 1, 0), (3, 1, 0), (3, 1, 1), (3, 1, 2), (5, 1, 2), (7, 1, 3),
    (3, 2, 1), (1, 2, 0), (7, 2, 3), (3, 1, 3),
]


class TestIm2col:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_matches_direct_indexing(self, k, stride):
        rng = np.random.default_rng(k * 10 + stride)
        x = rng.normal(size=(3, 2, 9, 7)).astype(np.float32)
        for padding in range(k + 1):
            want = naive_im2col(x, k, stride, padding)
            ho = (9 + 2 * padding - k) // stride + 1
            wo = (7 + 2 * padding - k) // stride + 1
            assert want.shape == (2 * k * k, 3 * ho * wo)
            for arr in (x, np.asfortranarray(x)):
                np.testing.assert_array_equal(T._im2col(arr, k, stride, padding), want)
            # One scratch serving slices of 2, 1 and 3 images, the last larger than the buffers.
            scratch = {}
            for images in (2, 1, 3):
                got = T._im2col(x[:images], k, stride, padding, scratch)
                np.testing.assert_array_equal(got, want[:, : images * ho * wo])


class TestConv2d:
    def test_all_ones_center_and_corners(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, w, stride=1, padding=1)
        assert out.data[0, 0, 1, 1] == 9.0
        for cy, cx in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            assert out.data[0, 0, cy, cx] == 4.0

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 1, 4, 4)).astype(np.float32))
        w = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        out = T.conv2d(x, w)
        np.testing.assert_array_equal(out.data, x.data)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_naive_loop_oracle(self, stride, padding):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 5, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        got = T.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
        want = naive_conv2d(x, w, stride=stride, padding=padding)
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-12)
        assert rel.max() < 1e-6

    @pytest.mark.parametrize("k,stride,padding", CONV_CASES)
    def test_gradients_match_finite_differences(self, k, stride, padding):
        with using_dtype(np.float64):
            rng = np.random.default_rng(k * 100 + stride * 10 + padding)
            x = Tensor(rng.normal(size=(2, 2, 6, 5)), dtype=np.float64)
            w = Tensor(rng.normal(size=(3, 2, k, k)), dtype=np.float64)
            err = grad_check(
                lambda ts: T.tsum(T.mul(T.conv2d(ts[0], ts[1], stride, padding),
                                        T.conv2d(ts[0], ts[1], stride, padding))),
                [x, w],
                eps=1e-5,
            )
            assert err < 1e-4

    @pytest.mark.parametrize("k,stride,padding", CONV_CASES)
    def test_gradients_match_finite_differences_cout_le_cin(self, k, stride, padding):
        """Fewer output than input channels: stride-1 cases take both gradients from the output gradient's patches."""
        with using_dtype(np.float64):
            rng = np.random.default_rng(k * 100 + stride * 10 + padding)
            x = Tensor(rng.normal(size=(2, 3, 6, 5)), dtype=np.float64)
            w = Tensor(rng.normal(size=(2, 3, k, k)), dtype=np.float64)
            err = grad_check(
                lambda ts: T.tsum(T.mul(T.conv2d(ts[0], ts[1], stride, padding),
                                        T.conv2d(ts[0], ts[1], stride, padding))),
                [x, w],
                eps=1e-5,
            )
            assert err < 1e-4

    @pytest.mark.parametrize("cin,cout", [(2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("k,stride,padding", CONV_CASES)
    def test_weight_gradient_matches_direct_sum(self, cin, cout, k, stride, padding):
        rng = np.random.default_rng(k * 100 + stride * 10 + padding + cin)
        x = Tensor(rng.normal(size=(2, cin, 6, 5)), dtype=np.float64)
        w = Tensor(rng.normal(size=(cout, cin, k, k)), dtype=np.float64, requires_grad=True)
        with Tape() as tape:
            out = T.conv2d(x, w, stride, padding)
        g = rng.normal(size=out.shape)
        ((_, _, backward),) = tape._records
        _, gw = backward(g)
        want = naive_conv2d_weight_grad(x.data, g, k, stride, padding)
        assert np.abs(gw - want).max() <= 1e-12 * np.abs(want).max()

    def test_shape_mismatch_names_both_shapes(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((3, 5, 3, 3)))
        with pytest.raises(ShapeError, match=r"\(1, 2, 4, 4\).*\(3, 5, 3, 3\)"):
            T.conv2d(x, w)

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))

    def test_input_without_grad_gets_no_gradient(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        with Tape() as tape:
            out = T.conv2d(x, w, 1, 1)
        ((_, _, backward),) = tape._records
        gx, gw = backward(np.ones_like(out.data))
        assert gx is None
        assert gw.shape == w.shape


class TestConvEpilogue:
    """conv2d's scale/shift/relu epilogue against the separate ops it replaces."""

    @staticmethod
    def _operands(seed, cin=4, cout=6, k=3, size=7):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5, cin, size, size)).astype(np.float32)
        w = rng.normal(size=(cout, cin, k, k)).astype(np.float32)
        scale = rng.normal(size=cout).astype(np.float32)
        shift = rng.normal(size=cout).astype(np.float32)
        return x, w, scale, shift

    @pytest.mark.parametrize("k,stride,padding", CONV_CASES)
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("images", [5, 2])
    def test_equals_mul_add_relu(self, monkeypatch, k, stride, padding, relu, images):
        x, w, scale, shift = self._operands(k * 10 + stride + padding)
        ho = (7 + 2 * padding - k) // stride + 1
        wo = (7 + 2 * padding - k) // stride + 1
        monkeypatch.setattr(T, "_PATCH_BYTES", images * 4 * k * k * ho * wo * 4)  # images 2: slices of 1, 2, 2
        y = T.conv2d(Tensor(x), Tensor(w), stride, padding)
        want = T.add(T.mul(y, Tensor(scale.reshape(1, -1, 1, 1))), Tensor(shift.reshape(1, -1, 1, 1)))
        want = T.relu(want) if relu else want
        got = T.conv2d(Tensor(x), Tensor(w), stride, padding, scale=scale, shift=shift, relu=relu)
        np.testing.assert_array_equal(got.data, want.data)

    def test_raises_under_tape_when_an_input_needs_a_gradient(self):
        x, w, scale, shift = self._operands(0)
        for x_grad, w_grad in ((True, False), (False, True)):
            xt, wt = Tensor(x, requires_grad=x_grad), Tensor(w, requires_grad=w_grad)
            with Tape(), pytest.raises(RuntimeError, match="no backward"):
                T.conv2d(xt, wt, 1, 1, scale=scale, shift=shift)
            with Tape(), pytest.raises(RuntimeError, match="no backward"):
                T.conv2d(xt, wt, 1, 1, relu=True)
        with Tape() as tape:  # nothing to differentiate: nothing recorded
            T.conv2d(Tensor(x), Tensor(w), 1, 1, scale=scale, shift=shift, relu=True)
        assert len(tape) == 0
        T.conv2d(Tensor(x), Tensor(w, requires_grad=True), 1, 1, scale=scale, shift=shift)  # no tape


class TestSlicedConv2d:
    """conv2d with ``_PATCH_BYTES`` shrunk so that a batch of 5 lowers as slices of 1, 2 and 2 images.

    Bit-identity with the one-slice result is asserted on model-sized operands
    (the gemm of an image's patches then rounds the same whatever the slice
    width); on the tiny oracle shapes the gemm's rounding depends on the matrix
    width, so those compare against the loop oracle and finite differences.
    """

    @staticmethod
    def _split(monkeypatch, x, w, stride, padding, images=2):
        """Budget ``images`` images' patch matrices; return the batch sizes the forward lowers."""
        k = w.shape[2]
        ho = (x.shape[2] + 2 * padding - k) // stride + 1
        wo = (x.shape[3] + 2 * padding - k) // stride + 1
        monkeypatch.setattr(T, "_PATCH_BYTES", images * w.shape[1] * k * k * ho * wo * x.itemsize)
        lowered = []
        im2col = T._im2col

        def counting(a, *args):
            lowered.append(a.shape[0])
            return im2col(a, *args)

        monkeypatch.setattr(T, "_im2col", counting)
        T.conv2d(Tensor(x), Tensor(w), stride, padding)
        monkeypatch.setattr(T, "_im2col", im2col)
        return lowered

    @staticmethod
    def _step(x, w, stride, padding):
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        with Tape() as tape:
            out = T.conv2d(xt, wt, stride, padding)
            loss = T.tsum(T.mul(out, out))
        tape.backward(loss)
        return out.data, xt.grad, wt.grad

    # Stem, strided 3x3, 1x1 projection, padding >= k, last stage; then fewer output
    # than input channels at 3x3, 1x1 and 5x5.
    @pytest.mark.parametrize("cin,cout,k,stride,padding,size", [
        (3, 16, 3, 1, 1, 32), (16, 32, 3, 2, 1, 32), (16, 32, 1, 2, 0, 32),
        (16, 16, 3, 1, 3, 16), (64, 64, 3, 1, 1, 8),
        (32, 16, 3, 1, 1, 16), (32, 16, 1, 1, 0, 16), (32, 16, 5, 1, 2, 16),
    ])
    def test_matches_one_slice(self, monkeypatch, cin, cout, k, stride, padding, size):
        rng = np.random.default_rng(cin + k + stride + padding)
        x = rng.normal(size=(5, cin, size, size))
        w = rng.normal(size=(cout, cin, k, k))
        assert self._split(monkeypatch, x, w, stride, padding, images=5) == [5]
        out_whole, gx_whole, gw_whole = self._step(x, w, stride, padding)
        assert self._split(monkeypatch, x, w, stride, padding) == [1, 2, 2]
        out, gx, gw = self._step(x, w, stride, padding)
        np.testing.assert_array_equal(out, out_whole)
        np.testing.assert_array_equal(gx, gx_whole)
        # The weight gradient sums per-slice terms: same value, re-associated.
        assert np.abs(gw - gw_whole).max() <= 1e-12 * np.abs(gw_whole).max()

    @pytest.mark.parametrize("k,stride,padding", CONV_CASES)
    def test_forward_matches_naive_loop_oracle(self, monkeypatch, k, stride, padding):
        rng = np.random.default_rng(k * 100 + stride * 10 + padding)
        x, w = rng.normal(size=(5, 2, 6, 5)), rng.normal(size=(3, 2, k, k))
        assert self._split(monkeypatch, x, w, stride, padding) == [1, 2, 2]
        got = T.conv2d(Tensor(x), Tensor(w), stride, padding).data
        want = naive_conv2d(x, w, stride=stride, padding=padding)
        assert (np.abs(got - want) / np.maximum(np.abs(want), 1e-12)).max() < 1e-6

    @pytest.mark.parametrize("k,stride,padding", CONV_CASES)
    def test_gradients_match_finite_differences(self, monkeypatch, k, stride, padding):
        rng = np.random.default_rng(k * 100 + stride * 10 + padding)
        x, w = rng.normal(size=(5, 2, 6, 5)), rng.normal(size=(3, 2, k, k))
        assert self._split(monkeypatch, x, w, stride, padding) == [1, 2, 2]
        with using_dtype(np.float64):
            err = grad_check(
                lambda ts: T.tsum(T.mul(T.conv2d(ts[0], ts[1], stride, padding),
                                        T.conv2d(ts[0], ts[1], stride, padding))),
                [Tensor(x), Tensor(w)],
                eps=1e-5,
            )
        assert err < 1e-4

    @pytest.mark.parametrize("k,stride,padding", CONV_CASES)
    def test_gradients_match_finite_differences_cout_le_cin(self, monkeypatch, k, stride, padding):
        rng = np.random.default_rng(k * 100 + stride * 10 + padding)
        x, w = rng.normal(size=(5, 3, 6, 5)), rng.normal(size=(2, 3, k, k))
        assert self._split(monkeypatch, x, w, stride, padding) == [1, 2, 2]
        with using_dtype(np.float64):
            err = grad_check(
                lambda ts: T.tsum(T.mul(T.conv2d(ts[0], ts[1], stride, padding),
                                        T.conv2d(ts[0], ts[1], stride, padding))),
                [Tensor(x), Tensor(w)],
                eps=1e-5,
            )
        assert err < 1e-4

    # The forward lowers each slice's input. With cout <= cin the backward lowers each
    # slice's output gradient; with cout > cin (the stem) it lowers each slice's input
    # again and scatters the image gradient, so the image gradient adds no lowering.
    @pytest.mark.parametrize("cin,cout,image_grad,lowerings", [
        (16, 16, True, 2 * 3), (16, 16, False, 2 * 3), (32, 16, True, 2 * 3),
        (3, 16, False, 2 * 3), (3, 16, True, 2 * 3),
    ])
    def test_lowerings_per_train_step(self, monkeypatch, cin, cout, image_grad, lowerings):
        rng = np.random.default_rng(cin + cout)
        x = rng.normal(size=(5, cin, 8, 8)).astype(np.float32)
        w = rng.normal(size=(cout, cin, 3, 3)).astype(np.float32)
        assert self._split(monkeypatch, x, w, 1, 1) == [1, 2, 2]
        im2col, calls = T._im2col, []

        def counting(a, *args):
            calls.append(a.shape[0])
            return im2col(a, *args)

        monkeypatch.setattr(T, "_im2col", counting)
        xt, wt = Tensor(x, requires_grad=image_grad), Tensor(w, requires_grad=True)
        with Tape() as tape:
            out = T.conv2d(xt, wt, 1, 1)
            loss = T.tsum(T.mul(out, out))
        tape.backward(loss)
        assert len(calls) == lowerings

    @pytest.mark.parametrize("cin,cout", [(16, 16), (3, 16)])
    def test_weight_gradient_ignores_image_grad(self, monkeypatch, cin, cout):
        rng = np.random.default_rng(cin * cout)
        x = rng.normal(size=(5, cin, 8, 8)).astype(np.float32)
        w = rng.normal(size=(cout, cin, 3, 3)).astype(np.float32)
        assert self._split(monkeypatch, x, w, 1, 1) == [1, 2, 2]
        grads = []
        for image_grad in (True, False):
            xt, wt = Tensor(x, requires_grad=image_grad), Tensor(w, requires_grad=True)
            with Tape() as tape:
                out = T.conv2d(xt, wt, 1, 1)
                loss = T.tsum(T.mul(out, out))
            tape.backward(loss)
            grads.append(wt.grad)
        np.testing.assert_array_equal(grads[0], grads[1])

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("cin,cout", [(16, 16), (3, 16)])
    def test_weight_gradient_sums_the_slices_last_first(self, monkeypatch, workers, cin, cout):
        """The serial order, (t[3:5] + t[1:3]) + t[0:1], whatever threads computed the slice terms."""
        rng = np.random.default_rng(cin + cout + workers)
        x = rng.normal(size=(5, cin, 8, 8)).astype(np.float32)
        w = rng.normal(size=(cout, cin, 3, 3)).astype(np.float32)
        c = rng.normal(size=(5, cout, 8, 8)).astype(np.float32)  # the output gradient, exactly

        def weight_grad(a, b):
            wt = Tensor(w, requires_grad=True)
            with Tape() as tape:
                loss = T.tsum(T.mul(T.conv2d(Tensor(x[a:b]), wt, 1, 1), Tensor(c[a:b])))
            tape.backward(loss)
            return wt.grad

        assert self._split(monkeypatch, x, w, 1, 1) == [1, 2, 2]
        use_workers(monkeypatch, workers)
        np.testing.assert_array_equal(weight_grad(0, 5), (weight_grad(3, 5) + weight_grad(1, 3)) + weight_grad(0, 1))


class TestElementwiseAndReductions:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(Tensor(np.zeros(3))).data[0] == 0.5

    def test_sigmoid_stable_in_tails(self):
        out = T.sigmoid(Tensor(np.array([-1000.0, 1000.0])))
        assert np.isfinite(out.data).all()
        assert out.data[0] == 0.0 and out.data[1] == 1.0

    def test_channel_broadcast_multiply_matches_scalar_loop(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 4, 4))
        vec = np.array([1.0, 0.0, 2.0])
        got = (Tensor(x) * Tensor(vec.reshape(1, 3, 1, 1))).data
        for n in range(2):
            for c in range(3):
                for i in range(4):
                    for j in range(4):
                        assert got[n, c, i, j] == x[n, c, i, j] * vec[c]
        assert (got[:, 1] == 0).all()

    def test_non_broadcastable_rejected(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_residual_relu_zeroes_and_doubles(self):
        x = Tensor(np.ones((1, 3, 2, 2)))
        g = Tensor(np.array([[1.0, 0.0, 2.0]]))
        out = T.residual_relu(x, Tensor(np.zeros((1, 3, 2, 2))), g).data
        assert (out[0, 0] == 1).all() and (out[0, 1] == 0).all() and (out[0, 2] == 2).all()


class TestResidualRelu:
    @pytest.mark.parametrize("gated", [False, True])
    def test_values_and_gradients_equal_the_separate_ops(self, gated):
        rng = np.random.default_rng(0)
        b, s = (rng.normal(size=(3, 4, 5, 5)).astype(np.float32) for _ in range(2))
        g = rng.uniform(0.1, 0.9, size=(3, 4)).astype(np.float32) if gated else None
        r = Tensor(rng.normal(size=(3, 4, 5, 5)).astype(np.float32))
        runs = []
        for fused in (True, False):
            bt, st = Tensor(b, requires_grad=True), Tensor(s, requires_grad=True)
            gt = Tensor(g, requires_grad=True) if gated else None
            with Tape() as tape:
                if fused:
                    out = T.residual_relu(bt, st, gt)
                else:
                    out = T.relu((bt * T.reshape(gt, (3, 4, 1, 1)) if gated else bt) + st)
                loss = T.tsum(out * r)
            tape.backward(loss)
            runs.append((out.data, bt.grad, st.grad, gt.grad if gated else None))
        (out, gb, gs, gg), (want, want_b, want_s, want_g) = runs
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(gb, want_b)
        np.testing.assert_array_equal(gs, want_s)
        if gated:  # the separate ops sum the gate gradient by axes, the op by einsum
            np.testing.assert_allclose(gg, want_g, rtol=1e-5)

    @pytest.mark.parametrize("workers", [1, 2, 3, LAST_FIRST, OWNED])
    @pytest.mark.parametrize("gates", [None, np.float32, np.float64], ids=["plain", "gated", "float64-gates"])
    def test_image_blocks_equal_the_whole_map(self, monkeypatch, short_switches, gates, workers):
        """One image per span on 1-3 workers or last span first: the output and the three gradients are the
        whole-map expressions'."""
        use_workers(monkeypatch, workers)
        monkeypatch.setattr(T, "_PATCH_BYTES", 1)
        rng = np.random.default_rng(27)
        b, s = (rng.normal(size=(6, 4, 16, 16)).astype(np.float32) for _ in range(2))
        g = None if gates is None else rng.uniform(0.1, 0.9, size=(6, 4)).astype(gates)
        bt, st = Tensor(b, requires_grad=True), Tensor(s, requires_grad=True)
        with Tape() as tape:
            out = T.residual_relu(bt, st, None if g is None else Tensor(g, requires_grad=True))
        ((_, _, backward),) = tape._records
        r = rng.normal(size=out.shape).astype(out.dtype)
        want = np.fmax(b + s if g is None else b * g[:, :, None, None] + s, 0)
        m = r * (want > 0)
        wants = [m, m] if g is None else [m * g[:, :, None, None], m, np.einsum("nchw,nchw->nc", m, b)]
        got = backward(r)
        assert out.data.dtype == want.dtype and out.data.tobytes() == want.tobytes()
        assert len(got) == len(wants)
        for got_grad, want_grad in zip(got, wants):
            assert got_grad.dtype == want_grad.dtype and got_grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("gated", [False, True])
    def test_backward_keeps_the_branch_only_with_gates(self, gated):
        rng = np.random.default_rng(1)
        b = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        s = Tensor(rng.normal(size=(2, 3, 4, 4)))
        g = Tensor(rng.uniform(size=(2, 3)), requires_grad=True) if gated else None
        with Tape() as tape:
            T.residual_relu(b, s, g)
        ((_, _, backward),) = tape._records
        held = [cell.cell_contents for cell in backward.__closure__]
        assert any(h is b.data for h in held) == gated

    def test_mismatched_shapes_rejected(self):
        b = Tensor(np.zeros((2, 3, 4, 4)))
        with pytest.raises(ShapeError, match="gates"):
            T.residual_relu(b, b, Tensor(np.zeros((2, 4))))
        with pytest.raises(ShapeError, match="shortcut"):
            T.residual_relu(b, Tensor(np.zeros((2, 3, 2, 2))))


class TestStylePool:
    @pytest.mark.parametrize("mean", [1e3, 1e4])
    def test_float32_std_stable_when_mean_dominates(self, mean):
        # |mean| >> std: E[x^2] - mu^2 cancels in float32; the centred two-pass form must not.
        rng = np.random.default_rng(12)
        x = (mean + 0.1 * rng.standard_normal((4, 3, 16, 16))).astype(np.float32)
        got = T.style_pool(Tensor(x), "std").data
        x64 = x.astype(np.float64)
        xc = x64 - x64.mean(axis=(2, 3), keepdims=True)
        want = np.sqrt((xc * xc).mean(axis=(2, 3)) + T.POOL_EPS)
        assert got.dtype == np.float32
        assert np.abs(got / want - 1.0).max() < 1e-3

    def test_feature_order_follows_kinds(self):
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 4, 4)))
        both = T.style_pool(x, ("max", "avg")).data
        np.testing.assert_array_equal(both[..., 0], T.style_pool(x, "max").data)
        np.testing.assert_array_equal(both[..., 1], T.style_pool(x, "avg").data)

    @pytest.mark.parametrize("workers", [1, 2, 3, LAST_FIRST, OWNED])
    @pytest.mark.parametrize("kinds", [k for r in (1, 2, 3) for k in itertools.combinations(T.POOL_KINDS, r)], ids="-".join)
    def test_row_blocks_equal_the_whole_map(self, monkeypatch, short_switches, kinds, workers):
        """One row per span on 1-3 workers or last span first: the features and the input gradient are the
        one-block call's bytes."""
        rng = np.random.default_rng(28)
        x = rng.normal(size=(4, 6, 32, 32)).astype(np.float32)
        g = rng.normal(size=(4, 6, len(kinds))).astype(np.float32)
        runs = []
        for n, patch in ((1, T._PATCH_BYTES), (workers, 1)):
            use_workers(monkeypatch, n)
            monkeypatch.setattr(T, "_PATCH_BYTES", patch)
            with Tape() as tape:
                out = T.style_pool(Tensor(x, requires_grad=True), kinds)
            ((_, _, backward),) = tape._records
            (gx,) = backward(g)
            runs.append((out.data.tobytes(), gx.tobytes()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("kinds", ["avg", "max", ("avg", "max")], ids=str)
    def test_backward_keeps_no_map_without_std(self, kinds):
        """avg's backward reads only the gradient, and max's the argmax of each row: pooling a taped
        intermediate leaves it to no record."""
        leaf = Tensor(np.random.default_rng(5).normal(size=(8, 16, 16, 16)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = T.style_pool(T.mul(leaf, 2.0), kinds)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tape) == 2 and out.shape[:2] == leaf.shape[:2]
        assert held < 0.1 * leaf.data.nbytes, f"{held / leaf.data.nbytes:.2f} maps held"

    @pytest.mark.parametrize("kinds", [(), ("avg", "avg"), ("median",), "median"])
    def test_bad_kinds_rejected(self, kinds):
        with pytest.raises(ValueError, match="style_pool"):
            T.style_pool(Tensor(np.zeros((1, 1, 2, 2))), kinds)

    def test_non_nchw_rejected(self):
        with pytest.raises(ShapeError, match="NCHW"):
            T.style_pool(Tensor(np.zeros((2, 3))), ("avg",))


class TestReluOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_where(self, dtype):
        sub, tiny = np.finfo(dtype).smallest_subnormal, np.finfo(dtype).tiny
        x = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, sub, -sub, 3 * sub, tiny, -tiny, 1.5, -2.5],
                     dtype=dtype)
        want = np.where(x > 0, x, 0)
        x_t = Tensor(x.copy(), requires_grad=True)
        with Tape() as tape:
            out = T.relu(x_t)
            loss = T.tsum(T.mul(out, Tensor(np.arange(1, x.size + 1, dtype=dtype))))
        assert out.data.dtype == want.dtype
        assert out.data.tobytes() == want.tobytes()  # NaN -> 0 and -0.0 -> +0.0, like where
        tape.backward(loss)
        np.testing.assert_array_equal(x_t.grad, np.arange(1, x.size + 1, dtype=dtype) * (x > 0))

    @pytest.mark.parametrize("workers", [1, 2, 3, LAST_FIRST, OWNED])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(6, 4, 16, 16), (13,), ()])
    def test_blocks_of_leading_indices_equal_the_whole_map(self, monkeypatch, short_switches, shape, dtype, workers):
        """Every byte is the whole map's, the +0.0 a -0.0 input gives included."""
        use_workers(monkeypatch, workers)
        monkeypatch.setattr(T, "_PATCH_BYTES", 1)  # one leading index per span
        rng = np.random.default_rng(26)
        x, r = (rng.normal(size=shape).astype(dtype) for _ in range(2))
        x.reshape(-1)[:2] = [np.nan, -0.0][: x.size]
        x_t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = T.relu(x_t)
            loss = T.tsum(T.mul(out, Tensor(r)))
        tape.backward(loss)
        want = np.where(x > 0, x, 0).astype(dtype)
        assert out.data.shape == want.shape and out.data.dtype == want.dtype
        assert out.data.tobytes() == want.tobytes()
        assert x_t.grad.tobytes() == np.asarray(r * (want > 0)).tobytes()

    @pytest.mark.parametrize("patch_bytes", [1, T._PATCH_BYTES])
    @pytest.mark.parametrize("length", [1, 8, 9, 17])
    @pytest.mark.parametrize("op", ["relu", "residual_relu", "conv2d_epilogue"])
    def test_a_negative_zero_map_gives_positive_zeros(self, monkeypatch, op, length, patch_bytes):
        """numpy's float64 fmax(-0.0, 0) signs the zero by the element's lane in its loop; each ReLU gives
        +0.0 bytes whatever the map's and the span's length."""
        monkeypatch.setattr(T, "_PATCH_BYTES", patch_bytes)
        neg = np.full((2, 1, 1, length), -0.0)
        if op == "relu":
            out = T.relu(Tensor(neg))
        elif op == "residual_relu":
            out = T.residual_relu(Tensor(neg), Tensor(neg))  # -0.0 + -0.0 is -0.0
        else:  # 0 * -1 + -0.0 is -0.0
            out = T.conv2d(Tensor(np.zeros_like(neg)), Tensor(np.ones((1, 1, 1, 1))), scale=np.array([-1.0]),
                           shift=np.array([-0.0]), relu=True)
        assert out.data.tobytes() == np.zeros_like(neg).tobytes()


def _batch_norm_oracle(x, gamma, beta, axes, eps):
    """The direct batch-norm formulas: forward, and backward through g * gamma."""
    stat_shape = tuple(1 if ax in axes else x.shape[ax] for ax in range(x.ndim))
    mu = x.mean(axis=axes, keepdims=True)
    diff = x - mu
    var = (diff * diff).mean(axis=axes, keepdims=True)
    sigma = np.sqrt(var + eps)
    xhat = diff / sigma
    gb = gamma.reshape(stat_shape)
    out = xhat * gb + beta.reshape(stat_shape)

    def backward(g):
        gxh = g * gb
        mean_gxh = gxh.mean(axis=axes, keepdims=True)
        mean_gxh_xhat = (gxh * xhat).mean(axis=axes, keepdims=True)
        gx = (gxh - mean_gxh - xhat * mean_gxh_xhat) / sigma
        return gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return out, mu.reshape(-1), var.reshape(-1), backward


def _batch_norm_backward_whole_map(x, gamma, g, axes, eps):
    """The batch-norm gradients from whole-map expressions, each channel sum one numpy reduction."""
    stat_shape = tuple(1 if ax in axes else x.shape[ax] for ax in range(x.ndim))
    m = x.size // x.shape[1]
    xhat = x - x.mean(axis=axes, keepdims=True)
    sigma = np.sqrt((xhat * xhat).mean(axis=axes, keepdims=True) + eps)
    xhat /= sigma
    ggamma = (g * xhat).sum(axis=axes, keepdims=True)
    gbeta = g.sum(axis=axes, keepdims=True)
    gx = g - xhat * (ggamma / m)
    gx -= gbeta / m
    gx *= gamma.reshape(stat_shape) / sigma
    return gx, ggamma.reshape(-1), gbeta.reshape(-1)


# Shapes whose image blocks go through the span workers, one with images of over 500 values, so
# that numpy drops the GIL inside each block and the threads run at once.
POOLED_BN_SHAPES = [((8, 5, 6, 6), (0, 2, 3)), ((16, 7), (0,)), ((6, 4, 16, 16), (0, 2, 3))]


class TestBatchNormOracle:
    @pytest.mark.parametrize("shape,axes", [((8, 5, 6, 6), (0, 2, 3)), ((16, 7), (0,))])
    def test_forward_bit_identical_float32(self, shape, axes):
        self.check_forward(shape, axes)

    @pytest.mark.parametrize("images", [1, 3])
    @pytest.mark.parametrize("workers", [1, 2, 3, OWNED])
    @pytest.mark.parametrize("shape,axes", POOLED_BN_SHAPES)
    def test_image_blocks_forward_bit_identical_float32(self, monkeypatch, short_switches, shape, axes, workers,
                                                        images):
        use_workers(monkeypatch, workers)
        monkeypatch.setattr(T, "_PATCH_BYTES", images * math.prod(shape[1:]) * 4)  # about `images` per span
        self.check_forward(shape, axes)

    @staticmethod
    def check_forward(shape, axes):
        rng = np.random.default_rng(21)
        x = (rng.normal(size=shape) * 3 + 1).astype(np.float32)
        gamma = rng.normal(size=shape[1]).astype(np.float32)
        beta = rng.normal(size=shape[1]).astype(np.float32)
        out, mu, var = T.batch_norm_train(Tensor(x), Tensor(gamma), Tensor(beta), 1e-5)
        want_out, want_mu, want_var, _ = _batch_norm_oracle(x, gamma, beta, axes, 1e-5)
        assert out.data.tobytes() == want_out.tobytes()
        assert mu.tobytes() == want_mu.tobytes()
        assert var.tobytes() == want_var.tobytes()

    @pytest.mark.parametrize("shape,axes", [((8, 5, 6, 6), (0, 2, 3)), ((16, 7), (0,))])
    def test_backward_matches_direct_formula_float64(self, shape, axes):
        rng = np.random.default_rng(22)
        x = rng.normal(size=shape) * 3 + 1
        gamma = rng.normal(size=shape[1])
        beta = rng.normal(size=shape[1])
        g = rng.normal(size=shape)
        ts = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
        with Tape() as tape:
            out, _, _ = T.batch_norm_train(*ts, 1e-5)
            loss = T.tsum(T.mul(out, Tensor(g)))
        tape.backward(loss)
        _, _, _, backward = _batch_norm_oracle(x, gamma, beta, axes, 1e-5)
        for got, want in zip([t.grad for t in ts], backward(g)):
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    @pytest.mark.parametrize("workers,images", [(1, None), (1, 1), (2, 1), (3, 1), (1, 3), (3, 3), (OWNED, 1)],
                             ids=["whole", "1-worker", "2-workers", "3-workers",
                                  "1-worker-3-images", "3-workers-3-images", "owned"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,axes", POOLED_BN_SHAPES)
    def test_backward_bit_identical_to_the_whole_map_sums(self, monkeypatch, short_switches, shape, axes, dtype,
                                                          workers, images):
        use_workers(monkeypatch, workers)
        if images:  # about that many images per span
            monkeypatch.setattr(T, "_PATCH_BYTES", images * math.prod(shape[1:]) * np.dtype(dtype).itemsize)
        rng = np.random.default_rng(23)
        x, g = ((rng.normal(size=shape) * 3 + 1).astype(dtype) for _ in range(2))
        gamma, beta = (rng.normal(size=shape[1]).astype(dtype) for _ in range(2))
        ts = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
        with Tape() as tape:
            out, _, _ = T.batch_norm_train(*ts, 1e-5)
            loss = T.tsum(T.mul(out, Tensor(g)))
        tape.backward(loss)
        for got, want in zip([t.grad for t in ts], _batch_norm_backward_whole_map(x, gamma, g, axes, 1e-5)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_channel_map_within_rounding_and_the_same_in_any_blocks(self, monkeypatch, short_switches, dtype):
        """numpy sums a one-channel map over (0, 2, 3) as one pairwise run, not as rows added over n, so
        there the op equals the whole-map formulas within rounding only; its values still do not depend
        on the blocks or the workers."""
        whole = T._PATCH_BYTES
        rng = np.random.default_rng(25)
        x, g = ((rng.normal(size=(9, 1, 12, 12)) * 3 + 1).astype(dtype) for _ in range(2))
        gamma, beta = (rng.normal(size=1).astype(dtype) for _ in range(2))
        runs = []
        for workers, patch in [(1, whole), (1, 1), (3, 1)]:
            use_workers(monkeypatch, workers)
            monkeypatch.setattr(T, "_PATCH_BYTES", patch)
            ts = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
            with Tape() as tape:
                out, mu, var = T.batch_norm_train(*ts, 1e-5)
                loss = T.tsum(T.mul(out, Tensor(g)))
            tape.backward(loss)
            runs.append([out.data, mu, var] + [t.grad for t in ts])
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                assert got.tobytes() == want.tobytes()
        want_out, want_mu, want_var, _ = _batch_norm_oracle(x, gamma, beta, (0, 2, 3), 1e-5)
        wants = [want_out, want_mu, want_var, *_batch_norm_backward_whole_map(x, gamma, g, (0, 2, 3), 1e-5)]
        rtol = 1e-5 if dtype == np.float32 else 1e-13
        for got, want in zip(runs[0], wants):
            np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


class TestBatchNormRemat:
    """``batch_norm_train``'s output carries a recompute of any block of its planes, with the output's bytes,
    and the ops that would keep the output for their backward read that instead."""

    @settings(max_examples=80)
    @given(n=st.integers(2, 5), c=st.integers(1, 6), planes=st.sampled_from([(), (1, 1), (3, 5), (8, 8)]),
           dtype=st.sampled_from([np.float32, np.float64]), patch_bytes=st.sampled_from([1, T._PATCH_BYTES]),
           data=st.data())
    def test_any_planes_equal_the_output_bytes(self, n, c, planes, dtype, patch_bytes, data):
        rng = np.random.default_rng(30)
        x = (rng.normal(size=(n, c, *planes)) * 3 + 1).astype(dtype)
        gamma, beta = (rng.normal(size=c).astype(dtype) for _ in range(2))
        lo = data.draw(st.integers(0, n * c - 1))
        hi = data.draw(st.integers(lo + 1, n * c))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "_PATCH_BYTES", patch_bytes)
            out, _, _ = T.batch_norm_train(Tensor(x), Tensor(gamma), Tensor(beta), 1e-5)
        want = out.data.reshape(n * c, -1)[lo:hi]
        got = out.remat(lo, hi)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        into = np.full(want.shape, np.nan, dtype)
        assert out.remat(lo, hi, into) is into and into.tobytes() == want.tobytes()

    @pytest.mark.parametrize("workers", [1, 3, LAST_FIRST, OWNED])
    @pytest.mark.parametrize("patch_bytes", [1, T._PATCH_BYTES])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gated_tail_and_std_pooling_give_the_kept_maps_bytes(self, monkeypatch, short_switches, dtype,
                                                                  patch_bytes, workers):
        """An SRM block's tail on a BN output: every gradient has the bytes it has when the ops keep the map."""
        use_workers(monkeypatch, workers)
        monkeypatch.setattr(T, "_PATCH_BYTES", patch_bytes)
        rng = np.random.default_rng(31)
        x, s, r = ((rng.normal(size=(6, 4, 8, 8)) * 3 + 1).astype(dtype) for _ in range(3))
        gamma, beta = (rng.normal(size=4).astype(dtype) for _ in range(2))
        w = rng.normal(size=(4, 2)).astype(dtype)
        runs = []
        for keep in (False, True):
            ts = [Tensor(a, requires_grad=True) for a in (x, gamma, beta, s)]
            with Tape() as tape:
                y, _, _ = T.batch_norm_train(*ts[:3], 1e-5)
                if keep:
                    y.remat = None  # the ops then keep the map itself
                gates = T.sigmoid(T.tsum(T.mul(T.style_pool(y, ("avg", "std")), Tensor(w)), axis=2))
                out = T.residual_relu(y, ts[3], gates)
                loss = T.tsum(T.mul(out, Tensor(r)))
            tape.backward(loss)
            runs.append([out.data.tobytes()] + [t.grad.tobytes() for t in ts])
        assert runs[0] == runs[1]

    def test_gated_tail_and_std_pooling_keep_no_bn_output(self):
        """Recorded, BN keeps its xhat and the tail its output; the BN output that std pooling and the gated
        tail read is kept by neither."""
        rng = np.random.default_rng(32)
        x, s = (Tensor(rng.normal(size=(8, 16, 16, 16)).astype(np.float32), requires_grad=True) for _ in range(2))
        gamma, beta = (Tensor(rng.normal(size=16).astype(np.float32), requires_grad=True) for _ in range(2))
        tracemalloc.start()
        try:
            with Tape() as tape:
                y, _, _ = T.batch_norm_train(x, gamma, beta, 1e-5)
                out = T.residual_relu(y, s, T.sigmoid(T.tsum(T.style_pool(y, ("avg", "std")), axis=2)))
                del y
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tape) == 5 and out.shape == x.shape
        assert held < 2.1 * x.data.nbytes, f"{held / x.data.nbytes:.2f} maps held"


class TestChannelSumOrder:
    """``batch_norm_train`` sums its channels per image block and adds the blocks' rows over n; its values
    equal the whole-map formulas only because numpy sums a C-contiguous map over (0, 2, 3) the same way:
    each (n, c) row pairwise, then the rows over n. A numpy whose reduction differs fails here. A map of
    one channel and planes of more than one value is the exception (``test_one_channel_map...``)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(16, 7), (8, 5, 3, 3), (128, 64, 8, 8), (32, 16, 16, 16), (8, 16, 32, 32),
                                       (3, 4, 56, 56), (2, 3, 224, 224), (300, 2, 1, 1), (300, 1, 1, 1), (300, 1)])
    def test_map_sum_is_row_sums_added_over_images(self, shape, dtype):
        x = (np.random.default_rng(24).normal(size=shape) * 3 + 1).astype(dtype)
        n, c = shape[:2]
        axes = (0,) + tuple(range(2, x.ndim))
        rows = x.reshape(n, c, -1).sum(axis=2)
        want = x.sum(axis=axes)
        assert rows.sum(axis=0).tobytes() == want.tobytes()
        assert (rows.sum(axis=0) / (x.size // c)).tobytes() == x.mean(axis=axes).tobytes()
        if c > 1:  # then that fold is the rows added one image after the other (one channel's is pairwise)
            fold = rows[0]
            for row in rows[1:]:
                fold = fold + row
            assert fold.tobytes() == want.tobytes()


class TestTape:
    @pytest.mark.parametrize("workers", [1, 2, 3, OWNED])
    @pytest.mark.parametrize("shape,dtypes,broadcast", [
        ((6, 4, 16, 16), (np.float32, np.float32), False), ((6, 4, 16, 16), (np.float32, np.float64), False),
        ((6, 4, 16, 16), (np.float32, np.float32), True), ((300,), (np.float64, np.float64), False),
        ((), (np.float32, np.float32), False)], ids=["float32", "mixed", "broadcast", "1-d", "0-d"])
    def test_fan_in_sum_in_blocks_equals_the_whole_sum(self, monkeypatch, short_switches, shape, dtypes, broadcast,
                                                       workers):
        use_workers(monkeypatch, workers)
        monkeypatch.setattr(T, "_PATCH_BYTES", 1)  # one leading index per span
        rng = np.random.default_rng(28)
        held, grad = (rng.normal(size=shape).astype(dt) for dt in dtypes)
        if broadcast:  # as tsum's backward hands it on
            grad = np.broadcast_to(grad.reshape(-1)[:1].reshape((1,) * len(shape)), shape)
        got = T._sum_grad(held, grad, held.dtype)
        want = np.asarray(held + grad)
        assert got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_fanout_accumulates(self):
        with using_dtype(np.float64):
            x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
            with Tape() as tape:
                f = T.tsum(x * x)
                g = T.tsum(3.0 * x)
                loss = f + g
            tape.backward(loss)
            np.testing.assert_allclose(x.grad, 2 * x.data + 3.0)

    def test_grad_of_product_sum_is_other_operand(self):
        with using_dtype(np.float64):
            x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
            y = Tensor(np.array([4.0, 5.0, 6.0]), requires_grad=True)
            with Tape() as tape:
                loss = T.tsum(x * y)
            tape.backward(loss)
            np.testing.assert_array_equal(x.grad, y.data)
            np.testing.assert_array_equal(y.grad, x.data)

    def test_backward_requires_scalar(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with Tape() as tape:
            y = x + 1.0
        with pytest.raises(ShapeError):
            tape.backward(y)

    def test_no_tape_no_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        assert y.requires_grad
        tape = Tape()
        with tape:
            pass
        assert len(tape) == 0

    def test_backward_consumes_the_tape_and_grads_only_leaves(self):
        with using_dtype(np.float64):
            x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
            w = Tensor(np.array([0.5, 3.0]), requires_grad=True)
            with Tape() as tape:
                h = T.relu(x * w)
                y = h + x
                loss = T.tsum(y * y)
            tape.backward(loss)
            assert len(tape) == 0
            assert h.grad is None and y.grad is None and loss.grad is None
            np.testing.assert_allclose(x.grad, 2 * y.data * (w.data * (h.data > 0) + 1))
            np.testing.assert_allclose(w.grad, 2 * y.data * x.data * (h.data > 0))

    def test_second_backward_raises(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with Tape() as tape:
            loss = T.tsum(x * x)
        tape.backward(loss)
        with pytest.raises(RuntimeError, match="already replayed"):
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    def test_tensor_made_under_another_tape_is_a_leaf(self):
        with using_dtype(np.float64):
            x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
            with Tape() as first:
                h = x * 3.0
                s = T.tsum(h)
            with Tape() as second:
                loss = T.tsum(h * h)
            second.backward(loss)
            np.testing.assert_array_equal(h.grad, 2 * h.data)
            assert x.grad is None
            # h's gradient on the second tape is its leaf gradient, not an input to the first tape's replay.
            first.backward(s)
            np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_constant_input_is_not_kept_by_the_tape(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            c = Tensor(np.full((2, 3), 2.0))
            alive = weakref.ref(c.data)
            loss = T.tsum(x + c)
            del c
        assert alive() is None
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_forward_bit_identical_across_runs(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)

        def run():
            out = T.conv2d(Tensor(x), Tensor(w), stride=1, padding=1)
            out = T.relu(out)
            return T.style_pool(out, "avg").data.tobytes()

        assert run() == run()


class TestGradCheck:
    def test_sigmoid_gradient_quarter_at_zero(self):
        with using_dtype(np.float64):
            x = Tensor(np.zeros(1), dtype=np.float64)
            err = grad_check(lambda ts: T.tsum(T.sigmoid(ts[0])), [x])
            assert err < 1e-7
            assert abs(x.grad[0] - 0.25) < 1e-12

    def test_rejects_float32_inputs(self):
        x = Tensor(np.zeros(1, dtype=np.float32))
        with pytest.raises(ValueError, match="float64"):
            grad_check(lambda ts: T.tsum(ts[0]), [x])

    def test_rejects_nonpositive_eps(self):
        x = Tensor(np.zeros(1), dtype=np.float64)
        with pytest.raises(ValueError):
            grad_check(lambda ts: T.tsum(ts[0]), [x], eps=0.0)

    def test_nonfinite_loss_aborts(self):
        x = Tensor(np.zeros(1), dtype=np.float64)

        def fn(ts):
            return T.tsum(ts[0] * Tensor(np.array([np.nan])))

        with pytest.raises(GradCheckError):
            grad_check(fn, [x])

    def test_nan_gradient_fails_the_check(self, monkeypatch):
        x = Tensor(np.arange(1.0, 4.0), dtype=np.float64)
        real = Tape.backward

        def nan_backward(tape, loss):
            real(tape, loss)
            x.grad = np.full_like(x.data, np.nan)

        monkeypatch.setattr(Tape, "backward", nan_backward)
        with pytest.raises(GradCheckError, match="input 0, element 0"):
            grad_check(lambda ts: T.tsum(ts[0] * ts[0]), [x])

    @pytest.mark.parametrize("seed", range(10))
    def test_conv_via_finite_differences(self, seed):
        with using_dtype(np.float64):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.normal(size=(2, 2, 4, 4)), dtype=np.float64)
            w = Tensor(rng.normal(size=(3, 2, 3, 3)), dtype=np.float64)
            err = grad_check(
                lambda ts: T.tsum(T.mul(T.conv2d(ts[0], ts[1], 1, 1), T.conv2d(ts[0], ts[1], 1, 1))),
                [x, w],
                eps=1e-5,
            )
            assert err < 1e-4


class TestDtypeModes:
    def test_default_dtype_switch(self):
        with using_dtype(np.float64):
            assert Tensor([1.0]).data.dtype == np.float64
        assert Tensor([1.0]).data.dtype == np.float32

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError):
            with using_dtype(np.int32):
                pass

    def test_tensor_invariant_size(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.size == 24 and t.shape == (2, 3, 4)

    def test_zero_extent_rejected(self):
        with pytest.raises(ShapeError, match="extents"):
            Tensor(np.zeros((2, 0, 3)))


@pytest.fixture
def short_switches():
    """Switch threads often, so that a thread writing another span's rows or scratch would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


class TestRunSpans:
    SPANS = [(i, i + 1) for i in range(7)]

    @pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
    def test_each_span_runs_once_each_thread_in_span_order(self, monkeypatch, short_switches, taped):
        use_workers(monkeypatch, 3)
        spans = [(i, i + 1) for i in range(500)]
        seen = []
        with Tape() if taped else contextlib.nullcontext():
            T._run_spans(spans, lambda lo, hi: seen.append((threading.get_ident(), (lo, hi))))
        assert sorted(span for _, span in seen) == spans
        for ident in {ident for ident, _ in seen}:  # each thread takes the next free span, so in increasing order
            mine = [span for thread, span in seen if thread == ident]
            assert mine == sorted(mine)

    def test_returns_only_once_no_span_still_runs(self, monkeypatch):
        """A pool thread's span sleeps before it marks itself finished; the caller's span waits until a pool
        thread has taken one, so the call cannot return before one of those slow spans ends."""
        use_workers(monkeypatch, 3)
        caller, taken, finished = threading.get_ident(), threading.Event(), []

        def run(lo, hi):
            if threading.get_ident() == caller:
                assert taken.wait(10), "no pool thread took a span"
            else:
                taken.set()
                time.sleep(0.1)
            finished.append(lo)

        T._run_spans(self.SPANS[:4], run)
        assert sorted(finished) == [0, 1, 2, 3]

    @pytest.mark.parametrize("why", ["one worker", "one span"])
    def test_serial_on_the_calling_thread(self, monkeypatch, why):
        use_workers(monkeypatch, 1 if why == "one worker" else 2)
        spans = self.SPANS[:1] if why == "one span" else self.SPANS
        seen = []
        T._run_spans(spans, lambda lo, hi: seen.append((threading.get_ident(), (lo, hi))))
        assert seen == [(threading.get_ident(), span) for span in spans]
        assert T._POOL is None

    @staticmethod
    def check_stopped(taken, finished, failing):
        """``taken`` holds (thread, index) per started span: a thread that raised took no more, every span
        below the lowest failing one finished, and no started span was still running when the call raised."""
        for ident in {ident for ident, _ in taken}:
            mine = [i for thread, i in taken if thread == ident]
            assert not set(mine[:-1]) & set(failing), mine
        assert set(range(min(failing))) <= set(finished)
        assert {i for _, i in taken} == set(finished) | ({i for _, i in taken} & set(failing))

    @pytest.mark.parametrize("failing", [(0,), (1,), (1, 2), (5, 3)], ids=["first", "second", "two", "two-late"])
    def test_lowest_failing_span_raises_once_every_thread_stopped(self, monkeypatch, failing):
        use_workers(monkeypatch, 3)
        taken, finished = [], []

        def run(lo, hi):
            taken.append((threading.get_ident(), lo))
            time.sleep(0.01 * (len(self.SPANS) - lo))  # a later span fails first
            if lo in failing:
                raise ValueError(f"span {lo}")
            finished.append(lo)

        with pytest.raises(ValueError, match=f"span {min(failing)}"):
            T._run_spans(self.SPANS, run)
        self.check_stopped(taken, finished, failing)

    @pytest.mark.parametrize("lower_g", [True, False], ids=["output-gradient", "input"])
    @pytest.mark.parametrize("failing", [(0,), (1,), (1, 2), (5, 3)], ids=["first", "second", "two", "two-late"])
    def test_conv_backward_raises_the_lowest_failing_slice_once_every_thread_stopped(self, monkeypatch, lower_g,
                                                                                     failing):
        """Image i of the input and of the output gradient holds i + 1, so the patched _im2col knows its slice."""
        use_workers(monkeypatch, 3)
        monkeypatch.setattr(T, "_PATCH_BYTES", 1)  # one slice per image
        marks = np.arange(1, 7, dtype=np.float32)[:, None, None, None]
        x = Tensor(np.broadcast_to(marks, (6, 2, 5, 5)).copy(), requires_grad=True)
        w = Tensor(np.ones((2 if lower_g else 3, 2, 3, 3), np.float32), requires_grad=True)
        im2col = T._im2col
        taken, finished = [], []

        def patched(arr, *args):
            index = int(arr.flat[0]) - 1
            taken.append((threading.get_ident(), index))
            time.sleep(0.01 * (6 - index))  # a later slice fails first
            if index in failing:
                raise ValueError(f"slice {index}")
            cols = im2col(arr, *args)
            finished.append(index)
            return cols

        with Tape() as tape:
            y = T.conv2d(x, w, padding=1)
            loss = T.tsum(T.mul(y, Tensor(np.broadcast_to(marks, y.shape).copy())))
        monkeypatch.setattr(T, "_im2col", patched)
        with pytest.raises(ValueError, match=f"slice {min(failing)}"):
            tape.backward(loss)
        self.check_stopped(taken, finished, failing)

    @pytest.mark.parametrize("lower_g", [True, False], ids=["output-gradient", "input"])
    def test_conv_keeps_one_scratch_per_thread(self, monkeypatch, short_switches, lower_g):
        """In one conv forward and one conv backward, every _im2col call on a thread gets that thread's one
        scratch dict, and no two threads, nor the two passes, share one."""
        use_workers(monkeypatch, 3)
        monkeypatch.setattr(T, "_PATCH_BYTES", 1)  # one slice per image
        rng = np.random.default_rng(40)
        x = Tensor(rng.normal(size=(6, 2, 5, 5)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(2 if lower_g else 3, 2, 3, 3)).astype(np.float32), requires_grad=True)
        im2col = T._im2col
        calls = []

        def patched(arr, k, stride, padding, scratch):
            calls.append((threading.get_ident(), scratch))
            time.sleep(0.01)  # so that the pool threads take spans too
            return im2col(arr, k, stride, padding, scratch)

        monkeypatch.setattr(T, "_im2col", patched)
        with Tape() as tape:
            loss = T.tsum(T.conv2d(x, w, padding=1))
        forward = calls[:]
        calls.clear()
        tape.backward(loss)
        owners = []
        for seen in (forward, calls):
            assert len(seen) == 6
            mine = {}
            for ident, scratch in seen:
                assert mine.setdefault(ident, scratch) is scratch
            assert threading.get_ident() in mine and len(mine) >= 2
            owners.extend(mine.values())
        assert len({id(scratch) for scratch in owners}) == len(owners)

    @pytest.mark.parametrize("cpus,env,loaded,blas,pinned,workers", [
        (2, {}, 2, 1, True, 2),  # numpy's OpenBLAS at one thread per CPU is pinned to 1
        (2, {"OPENBLAS_NUM_THREADS": "2"}, 2, 2, False, 1),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 1, 1, False, 2),
        (2, {"GOTO_NUM_THREADS": "3"}, 3, 3, False, 1),
        (2, {"OMP_NUM_THREADS": "2"}, 2, 2, False, 1),
        (2, {"OPENBLAS_NUM_THREADS": ""}, 2, 1, True, 2),  # an empty variable sets nothing
        (4, {"OPENBLAS_NUM_THREADS": "2"}, 2, 2, False, 2),
        (3, {"OPENBLAS_NUM_THREADS": "2"}, 2, 2, False, 1),
        (2, {}, None, None, False, 1),  # another BLAS
    ])
    @pytest.mark.parametrize("libc", ["glibc 2.36", None])
    def test_runtime_record(self, monkeypatch, tmp_path, cpus, env, loaded, blas, pinned, workers, libc):
        """The BLAS pin, the worker count and the malloc settings, against a stand-in numpy OpenBLAS."""
        (tmp_path / "numpy.libs").mkdir()
        (tmp_path / "numpy.libs" / "libscipy_openblas64_-stand-in.so").touch()
        monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        threads, handle, cdll = [loaded], SimpleNamespace(), ctypes.CDLL
        if loaded is not None:
            handle.scipy_openblas_get_num_threads64_ = lambda: threads[0]
            handle.scipy_openblas_set_num_threads64_ = lambda n: threads.__setitem__(0, n)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: cdll(name) if name is None else handle)
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "confstr", lambda name: libc, raising=False)
        record = T.settle_runtime.__wrapped__()
        assert record == {"blas": blas, "blas_pinned": pinned, "malloc_set": libc is not None, "span_workers": workers}
        assert threads == [blas]

    @pytest.mark.skipif(T.settle_runtime()["blas"] is None or len(os.sched_getaffinity(0)) < 2,
                        reason="needs numpy's bundled OpenBLAS and two usable CPUs")
    @pytest.mark.parametrize("var,value", [(None, None), ("OPENBLAS_NUM_THREADS", "cpus"),
                                           ("OMP_NUM_THREADS", "cpus"), ("OPENBLAS_NUM_THREADS", "1")])
    def test_nothing_starts_before_a_forward_that_can_use_the_pool(self, var, value):
        """Import starts no thread, imports no executor, settles nothing and leaves OpenBLAS's threads as
        they are; a forward pins BLAS to 1 thread unless a variable sets it, and starts the pool with it."""
        probe = "\n".join([
            "import ctypes, pathlib, sys, threading",
            "import numpy as np",
            "from style_recal import tensor as T",
            "base = pathlib.Path(np.__file__).parent",
            "lib = ctypes.CDLL(str((sorted(base.parent.glob('numpy.libs/*openblas*'))",
            "                       + sorted(base.glob('.libs/*openblas*')))[0]))",
            "blas = next(getattr(lib, s) for s in ('scipy_openblas_get_num_threads64_', 'scipy_openblas_get_num_threads',",
            "            'openblas_get_num_threads64_', 'openblas_get_num_threads') if hasattr(lib, s))",
            "print(threading.active_count(), 'concurrent.futures' in sys.modules,",
            "      T.settle_runtime.cache_info().currsize, blas())",
            "T._PATCH_BYTES = 1",
            "T.conv2d(T.Tensor(np.ones((4, 2, 5, 5), np.float32)), T.Tensor(np.ones((3, 2, 3, 3), np.float32)))",
            "record = T.settle_runtime()",
            "print(blas(), record['blas'], record['blas_pinned'], record['span_workers'], T._POOL is not None)",
        ])
        cpus = len(os.sched_getaffinity(0))
        src = str(Path(T.__file__).parents[1])
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        loaded = threads = cpus
        if var is not None:
            env[var] = str(cpus) if value == "cpus" else value
            loaded = threads = int(env[var])
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        if var is None:
            threads = 1
        assert done.stdout.splitlines() == [f"1 False 0 {loaded}",
                                            f"{threads} {threads} {var is None} {cpus // threads} {threads < cpus}"]
