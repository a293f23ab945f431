import gc
import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazeintent import model
from gazeintent.errors import ShapeError
from gazeintent.numerics import adam
from gazeintent.numerics import (
    AdamState,
    Tape,
    Tensor,
    adam_step,
    backward,
    collect_grads,
    concat,
    conv1d,
    finite_difference_check,
    layer_norm,
    linear,
    merge_heads,
    mse_loss,
    scaled_dot_attention,
    softmax_lastaxis,
    split_heads,
    weighted_cross_entropy,
    zero_grads,
)


def t64(a, requires_grad=False):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=requires_grad)


# float32 is the training precision, float64 the checking precision
GRAD_TOLERANCES = [(np.float32, 1e-3), (np.float64, 1e-5)]


def leaves(seed, dtype, *shapes):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=s).astype(dtype), requires_grad=True) for s in shapes]


def probe_gradcheck(op, inputs, dtype):
    """Worst finite-difference error of sum(op(*inputs) * probe) over inputs."""
    probe = Tensor(np.random.default_rng(99).normal(size=op(*inputs).shape).astype(dtype))
    return finite_difference_check(lambda: (op(*inputs) * probe).sum(), inputs,
                                   n_coords=100, rng=np.random.default_rng(1))


def value_and_grads(op, inputs, seed=7):
    """op's output and the gradients of sum(output * probe) for each input."""
    for t in inputs:
        t.grad = None
    with Tape() as tape:
        out = op(*inputs)
        probe = np.random.default_rng(seed).normal(size=out.shape)
        loss = (out * Tensor(probe)).sum()
    backward(loss, tape, params=inputs)
    return out.data, [t.grad for t in inputs]


def assert_matches_reference(op, reference, inputs, atol=1e-12):
    got, got_grads = value_and_grads(op, inputs)
    want, want_grads = value_and_grads(reference, inputs)
    np.testing.assert_allclose(got, want, atol=atol, rtol=0)
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_allclose(g, w, atol=atol, rtol=0)


# composite references built from the Tensor's own taped ops


def conv1d_reference(x, w, b):
    B, c_in, T = x.shape
    c_out, _, K = w.shape
    pad = (K - 1) // 2
    zeros = Tensor(np.zeros((B, c_in, pad)))
    xp = concat([zeros, x, zeros], axis=2) if pad else x
    out = b.reshape(c_out, 1)
    for k in range(K):
        out = out + w[:, :, k] @ xp[:, :, k:k + T]
    return out


def conv1d_per_tap(x, w, b):
    """conv1d as one tape op whose im2col matrix is filled one tap at a
    time, zeroing each tap's out-of-range rows: the same matrix, GEMMs and
    col2im order as the strided gather, so every bit must agree."""
    B, c_in, T = x.shape
    c_out, _, K = w.shape
    pad = (K - 1) // 2
    taps = []
    for k in range(K):
        lo = min(T, max(0, pad - k))
        taps.append((k, lo, max(lo, min(T, T + pad - k))))
    xt = x.data.transpose(0, 2, 1)
    cols = np.empty((B, T, K, c_in), dtype=x.dtype)
    for k, lo, hi in taps:
        cols[:, :lo, k] = 0.0
        cols[:, hi:, k] = 0.0
        cols[:, lo:hi, k] = xt[:, lo + k - pad:hi + k - pad]
    cols = cols.reshape(B * T, K * c_in)
    wm = w.data.transpose(0, 2, 1).reshape(c_out, K * c_in)
    out = cols @ wm.T
    out += b.data

    def backward(g):
        g2 = g.transpose(0, 2, 1).reshape(B * T, c_out)
        gcols = (g2 @ wm).reshape(B, T, K, c_in)
        gxt = gcols[:, :, pad].copy()
        for k, lo, hi in taps:
            if k != pad:
                gxt[:, lo + k - pad:hi + k - pad] += gcols[:, lo:hi, k]
        gw = np.ascontiguousarray((g2.T @ cols).reshape(c_out, K, c_in).transpose(0, 2, 1))
        return [gxt.transpose(0, 2, 1), gw, np.einsum("ni->i", g2)]

    return Tensor._result(out.reshape(B, T, c_out).transpose(0, 2, 1), (x, w, b), backward)


def assert_same_bits(op, reference, inputs):
    """op and reference give bit-identical outputs and input gradients
    (under a probe of the inputs' own dtype)."""
    probe = np.random.default_rng(3).normal(size=op(*inputs).shape).astype(inputs[0].dtype)
    results = []
    for fn in (op, reference):
        for t in inputs:
            t.grad = None
        with Tape() as tape:
            out = fn(*inputs)
            loss = (out * Tensor(probe)).sum()
        backward(loss, tape, params=inputs)
        results.append([out.data] + [t.grad for t in inputs])
    for got, want in zip(*results):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def power(x, exponent):
    """Elementwise power with a constant exponent, as one tape op."""
    xd = x.data
    return Tensor._result(xd ** exponent, (x,), lambda g: [g * exponent * xd ** (exponent - 1.0)])


def layer_norm_reference(x, gamma, beta, eps=1e-5):
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = power((xc * xc).mean(axis=-1, keepdims=True) + eps, -0.5)
    return xc * inv * gamma + beta


def attention_reference(q, k, v):
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(q.shape[-1]))
    return softmax_lastaxis(scores) @ v


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = Tensor(np.eye(2, dtype=np.float32)) @ a
        np.testing.assert_allclose(out.data, a.data)

    def test_hand_case(self):
        out = Tensor([[1.0, 2.0], [3.0, 4.0]]) @ Tensor([[5.0], [6.0]])
        np.testing.assert_allclose(out.data, [[17.0], [39.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(7, 5))
        b = rng.normal(size=(5, 3))
        expected = np.zeros((7, 3))
        for i in range(7):
            for j in range(3):
                for k in range(5):
                    expected[i, j] += a[i, k] * b[k, j]
        out = t64(a) @ t64(b)
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))


class TestConv1d:
    def test_identity_kernel(self):
        x = Tensor([[[1.0, 2.0, 3.0, 4.0]]])
        k = Tensor(np.array([[[0.0, 1.0, 0.0]]], dtype=np.float32))
        out = conv1d(x, k, Tensor([0.0]))
        np.testing.assert_allclose(out.data, x.data)

    def test_box_kernel_zero_pad(self):
        x = Tensor([[[1.0, 2.0, 3.0]]])
        k = Tensor(np.ones((1, 1, 3), dtype=np.float32))
        out = conv1d(x, k, Tensor([0.0]))
        np.testing.assert_allclose(out.data, [[[3.0, 6.0, 5.0]]])

    def test_against_sliding_window_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 24))
        w = rng.normal(size=(3, 2, 3))
        b = rng.normal(size=3)
        xp = np.pad(x, ((0, 0), (1, 1)))
        expected = np.zeros((3, 24))
        for o in range(3):
            for t in range(24):
                expected[o, t] = (w[o] * xp[:, t:t + 3]).sum() + b[o]
        out = conv1d(t64(x[None]), t64(w), t64(b))
        np.testing.assert_allclose(out.data, expected[None], atol=1e-6)

    def test_preserves_length(self):
        for T in (1, 5, 24):
            out = conv1d(Tensor(np.zeros((1, 2, T))), Tensor(np.zeros((4, 2, 3))),
                         Tensor(np.zeros(4)))
            assert out.shape == (1, 4, T)

    def test_empty_input_rejected(self):
        with pytest.raises(ShapeError):
            conv1d(Tensor(np.zeros((1, 2, 0))), Tensor(np.zeros((4, 2, 3))),
                   Tensor(np.zeros(4)))

    @pytest.mark.parametrize("dtype,tol", GRAD_TOLERANCES)
    @pytest.mark.parametrize("K", [1, 3, 5])
    @pytest.mark.parametrize("T", [1, 2, 9])
    def test_gradient(self, K, T, dtype, tol):
        x, w, b = leaves(K * 10 + T, dtype, (2, 3, T), (4, 3, K), (4,))
        assert probe_gradcheck(conv1d, [x, w, b], dtype) <= tol

    @pytest.mark.parametrize("dtype,tol", GRAD_TOLERANCES)
    @pytest.mark.parametrize("K", [1, 5])
    def test_squeezed_input_gradient(self, K, dtype, tol):
        # a (C_in, T) input gets its batch axis from the caller; the gradient
        # still reaches the squeezed leaf through the reshape
        def squeezed_conv1d(x, w, b):
            return conv1d(x.reshape(1, *x.shape), w, b).reshape(w.shape[0], x.shape[1])

        x, w, b = leaves(K, dtype, (3, 6), (2, 3, K), (2,))
        assert squeezed_conv1d(x, w, b).shape == (2, 6)
        assert probe_gradcheck(squeezed_conv1d, [x, w, b], dtype) <= tol

    def test_unbatched_input_rejected(self):
        with pytest.raises(ShapeError, match=r"expects \(B,C_in,T\).*\(3, 6\)"):
            conv1d(Tensor(np.zeros((3, 6))), Tensor(np.zeros((2, 3, 1))), Tensor(np.zeros(2)))

    @pytest.mark.parametrize("K,T", [(1, 5), (3, 1), (3, 24), (5, 2), (7, 3)])
    def test_matches_composite_reference(self, K, T):
        x, w, b = leaves(K + T, np.float64, (3, 2, T), (4, 2, K), (4,))
        assert_matches_reference(conv1d, conv1d_reference, [x, w, b])


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("K,T", [(K, T) for K in (1, 3, 5)
                                     for T in sorted({1, 2, K - 1, 24}) if T >= 1])
    def test_strided_gather_matches_per_tap_loop_bitwise(self, K, T, B, dtype):
        x, w, b = leaves(K * 100 + T * 10 + B, dtype, (B, 3, T), (4, 3, K), (4,))
        assert_same_bits(conv1d, conv1d_per_tap, [x, w, b])


class TestLinear:
    def test_hand_case(self):
        out = linear(t64([[1.0, 2.0]]), t64([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]]),
                     t64([0.5, 0.0, -1.0]))
        np.testing.assert_array_equal(out.data, [[1.5, 2.0, 7.0]])

    @pytest.mark.parametrize("dtype,tol", GRAD_TOLERANCES)
    @pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
    def test_gradient(self, shape, dtype, tol):
        x, w, b = leaves(len(shape), dtype, shape, (4, 6), (6,))
        assert probe_gradcheck(linear, [x, w, b], dtype) <= tol

    @pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4), (3, 1, 4)])
    def test_matches_composite_reference(self, shape):
        x, w, b = leaves(3, np.float64, shape, (4, 6), (6,))
        assert_matches_reference(linear, lambda x, w, b: x @ w + b, [x, w, b])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            linear(t64(np.zeros((2, 3))), t64(np.zeros((4, 5))), t64(np.zeros(5)))
        with pytest.raises(ShapeError):
            linear(t64(np.zeros((2, 4))), t64(np.zeros((4, 5))), t64(np.zeros(4)))


class TestSoftmax:
    def test_uniform(self):
        out = softmax_lastaxis(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)

    def test_closed_form(self):
        out = softmax_lastaxis(t64([0.0, math.log(2.0)]))
        np.testing.assert_allclose(out.data, [1 / 3, 2 / 3], atol=1e-9)

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=8),
           st.floats(-50, 50))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, xs, c):
        x = t64(xs)
        np.testing.assert_allclose(softmax_lastaxis(x + c).data,
                                   softmax_lastaxis(x).data, atol=1e-6)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_row_stochastic(self, xs):
        out = softmax_lastaxis(t64(xs)).data
        assert (out >= 0).all()
        assert abs(out.sum() - 1.0) < 1e-6


class TestLayerNorm:
    def test_constant_slice(self):
        out = layer_norm(t64([5.0, 5.0, 5.0]), t64([1, 1, 1]), t64([0, 0, 0]))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_two_point_closed_form(self):
        out = layer_norm(t64([1.0, 3.0]), t64([1.0, 1.0]), t64([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-4)

    def test_standardizes(self):
        rng = np.random.default_rng(2)
        x = t64(rng.normal(size=(5, 16)))
        out = layer_norm(x, t64(np.ones(16)), t64(np.zeros(16))).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        x = t64(rng.normal(size=(3, 8)), requires_grad=True)
        g = t64(rng.normal(size=8), requires_grad=True)
        b = t64(rng.normal(size=8), requires_grad=True)
        weights = t64(rng.normal(size=(3, 8)))
        err = finite_difference_check(
            lambda: (layer_norm(x, g, b) * weights).sum(), [x, g, b])
        assert err <= 1e-4

    @pytest.mark.parametrize("dtype,tol", GRAD_TOLERANCES)
    @pytest.mark.parametrize("shape", [(16,), (3, 16), (2, 3, 8)])
    def test_gradient_at_training_and_checking_precision(self, shape, dtype, tol):
        x, g, b = leaves(len(shape), dtype, shape, shape[-1:], shape[-1:])
        assert probe_gradcheck(layer_norm, [x, g, b], dtype) <= tol

    @pytest.mark.parametrize("shape", [(1,), (4, 16), (2, 3, 8)])
    def test_matches_composite_reference(self, shape):
        x, g, b = leaves(5, np.float64, shape, shape[-1:], shape[-1:])
        assert_matches_reference(layer_norm, layer_norm_reference, [x, g, b])

    def test_affine_shape_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm(t64(np.zeros((2, 4))), t64(np.ones(3)), t64(np.zeros(3)))


class TestAttention:
    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(4)
        q = t64(rng.normal(size=(3, 4)))
        k = t64(np.tile(rng.normal(size=(1, 4)), (5, 1)))
        v = t64(rng.normal(size=(5, 4)))
        out = scaled_dot_attention(q, k, v).data
        np.testing.assert_allclose(out, np.tile(v.data.mean(axis=0), (3, 1)), atol=1e-6)

    def test_saturated_softmax_selects_key(self):
        d = 4
        q = t64(np.ones((1, d)) * 50.0)
        k = np.zeros((3, d))
        k[1] = 1.0  # dot product 200 vs 0
        v = t64(np.arange(12.0).reshape(3, 4))
        out = scaled_dot_attention(q, t64(k), v).data
        np.testing.assert_allclose(out[0], v.data[1], atol=1e-4)

    def test_against_two_step_oracle(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(3, 4))
        k = rng.normal(size=(3, 4))
        v = rng.normal(size=(3, 4))
        scores = q @ k.T / math.sqrt(4)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        expected = (e / e.sum(axis=-1, keepdims=True)) @ v
        out = scaled_dot_attention(t64(q), t64(k), t64(v)).data
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_rows_in_convex_hull(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=(4, 2))
        out = scaled_dot_attention(t64(rng.normal(size=(6, 3))),
                                   t64(rng.normal(size=(4, 3))), t64(v)).data
        assert (out.min(axis=0) >= v.min(axis=0) - 1e-9).all()
        assert (out.max(axis=0) <= v.max(axis=0) + 1e-9).all()

    def test_zero_dim_rejected(self):
        with pytest.raises(ShapeError):
            scaled_dot_attention(Tensor(np.zeros((2, 0))), Tensor(np.zeros((2, 0))),
                                 Tensor(np.zeros((2, 0))))

    # (query, key/value) shapes: batched heads, a cross block with a different
    # query length, and the one-row query of the model's last layer
    HEAD_SHAPES = {"cross": ((2, 3, 5, 4), (2, 3, 7, 4)),
                   "one_row": ((2, 3, 1, 4), (2, 3, 6, 4))}

    @pytest.mark.parametrize("dtype,tol", GRAD_TOLERANCES)
    def test_self_attention_gradient(self, dtype, tol):
        # one tensor as query, key and value: the three gradients accumulate
        (x,) = leaves(0, dtype, (2, 3, 5, 4))
        assert probe_gradcheck(lambda x: scaled_dot_attention(x, x, x), [x], dtype) <= tol

    @pytest.mark.parametrize("dtype,tol", GRAD_TOLERANCES)
    @pytest.mark.parametrize("case", sorted(HEAD_SHAPES))
    def test_gradient(self, case, dtype, tol):
        q_shape, kv_shape = self.HEAD_SHAPES[case]
        q, k, v = leaves(1, dtype, q_shape, kv_shape, kv_shape)
        assert probe_gradcheck(scaled_dot_attention, [q, k, v], dtype) <= tol

    @pytest.mark.parametrize("case", sorted(HEAD_SHAPES))
    def test_matches_composite_reference(self, case):
        q_shape, kv_shape = self.HEAD_SHAPES[case]
        q, k, v = leaves(2, np.float64, q_shape, kv_shape, kv_shape)
        assert_matches_reference(scaled_dot_attention, attention_reference, [q, k, v])
        (x,) = leaves(3, np.float64, kv_shape)
        assert_matches_reference(lambda x: scaled_dot_attention(x, x, x),
                                 lambda x: attention_reference(x, x, x), [x])


class TestHeads:
    """Attention heads split and merged as one tape op each."""

    @pytest.mark.parametrize("dtype,tol", GRAD_TOLERANCES)
    def test_split_gradient(self, dtype, tol):
        x, = leaves(11, dtype, (2, 5, 12))
        assert probe_gradcheck(lambda x: split_heads(x, 3), [x], dtype) <= tol

    @pytest.mark.parametrize("dtype,tol", GRAD_TOLERANCES)
    def test_merge_gradient(self, dtype, tol):
        h, = leaves(12, dtype, (2, 3, 5, 4))
        assert probe_gradcheck(merge_heads, [h], dtype) <= tol

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_split_matches_reshape_swapaxes_bitwise(self, dtype):
        x, = leaves(13, dtype, (2, 5, 12))
        assert split_heads(x, 3).shape == (2, 3, 5, 4)
        assert split_heads(x, 3).data.flags.c_contiguous
        assert_same_bits(lambda x: split_heads(x, 3),
                         lambda x: x.reshape(2, 5, 3, 4).swapaxes(1, 2), [x])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_merge_matches_swapaxes_reshape_bitwise(self, dtype):
        h, = leaves(14, dtype, (2, 3, 5, 4))
        assert merge_heads(h).shape == (2, 5, 12)
        assert_same_bits(merge_heads, lambda h: h.swapaxes(1, 2).reshape(2, 5, 12), [h])

    def test_merge_inverts_split(self):
        x, = leaves(15, np.float32, (1, 24, 64))
        np.testing.assert_array_equal(merge_heads(split_heads(x, 4)).data, x.data)


class TestSumGradients:
    """`+` and `-` compute no gradient for a parent that requires none."""

    def _grads(self, op, a, b):
        """(a.grad, b.grad) after a backward of op(a, b) seeded with ones,
        checking that each recorded op returns a gradient exactly for the
        parents that have somewhere to take it."""
        a.grad = b.grad = None
        with Tape() as tape:
            out = op(a, b)
        for node in tape._nodes:
            def checked(g, fn=node.backward, targets=node.targets):
                grads = fn(g)
                assert [pg is None for pg in grads] == [t is None for t in targets]
                return grads
            node.backward = checked
        tape.backward(out, np.ones(out.shape, dtype=out.dtype))
        return a.grad, b.grad

    def test_add_skips_constant_parent(self):
        h, = leaves(16, np.float32, (3, 24, 8))
        pos = Tensor(np.ones((24, 8), np.float32))
        gh, gpos = self._grads(lambda a, b: a + b, h, pos)
        assert gh.shape == (3, 24, 8) and gpos is None
        gpos, gh = self._grads(lambda a, b: a + b, pos, h)
        assert gpos is None and gh.shape == (3, 24, 8)

    def test_sub_skips_constant_parent(self):
        pred, = leaves(17, np.float32, (4, 2))
        target = Tensor(np.zeros((4, 2), np.float32))
        gp, gt = self._grads(lambda a, b: a - b, pred, target)
        np.testing.assert_array_equal(gp, np.ones((4, 2)))
        assert gt is None
        gt, gp = self._grads(lambda a, b: a - b, target, pred)
        assert gt is None
        np.testing.assert_array_equal(gp, -np.ones((4, 2)))

    def test_both_parents_still_get_gradients(self):
        a, b = leaves(18, np.float64, (3, 4), (4,))
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            assert finite_difference_check(lambda: (op(a, b) * op(a, b)).sum(), [a, b],
                                            n_coords=16) <= 1e-5


class TestLosses:
    def test_mse_zero_on_equal(self):
        x = t64([1.0, 2.0, 3.0])
        assert mse_loss(x, x).item() == 0.0

    def test_mse_hand_case(self):
        assert mse_loss(t64([1.0, 2.0]), t64([0.0, 0.0])).item() == pytest.approx(2.5)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(t64([1.0]), t64([1.0, 2.0]))

    def test_mse_gradient(self):
        rng = np.random.default_rng(7)
        pred = t64(rng.normal(size=6), requires_grad=True)
        target = t64(rng.normal(size=6))
        err = finite_difference_check(lambda: mse_loss(pred, target), [pred])
        assert err <= 1e-4
        # analytic form 2(pred - target)/n
        pred.grad = None
        with Tape() as tape:
            loss = mse_loss(pred, target)
        backward(loss, tape)
        np.testing.assert_allclose(pred.grad, 2 * (pred.data - target.data) / 6, atol=1e-9)

    def test_wce_equal_weights_is_mean_ce(self):
        rng = np.random.default_rng(8)
        logits = t64(rng.normal(size=(5, 2)))
        labels = np.array([0, 1, 0, 1, 1])
        loss = weighted_cross_entropy(logits, labels, t64([1.0, 1.0])).item()
        p = np.exp(logits.data)
        p /= p.sum(axis=-1, keepdims=True)
        expected = -np.log(p[np.arange(5), labels]).mean()
        assert loss == pytest.approx(expected, rel=1e-9)

    def test_wce_near_perfect(self):
        logits = t64([[25.0, 0.0], [0.0, 25.0]])
        loss = weighted_cross_entropy(logits, np.array([0, 1]), t64([1.0, 3.0])).item()
        assert loss < 1e-6

    def test_wce_closed_form(self):
        # uniform logits, weights (0.625, 2.5): loss reduces to ln 2
        logits = t64(np.zeros((2, 2)))
        loss = weighted_cross_entropy(logits, np.array([0, 1]), t64([0.625, 2.5])).item()
        assert loss == pytest.approx(math.log(2.0), rel=1e-9)

    def test_wce_bad_label(self):
        with pytest.raises(ValueError):
            weighted_cross_entropy(t64(np.zeros((1, 2))), np.array([2]), t64([1.0, 1.0]))


class TestGetitem:
    def test_basic_index_gradient_lands_on_selected_elements(self):
        p = t64(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        with Tape() as tape:
            loss = (p[:, -1:, 1:3] * 2.0).sum() + p[1, 0, ...].sum()
        backward(loss, tape)
        want = np.zeros((2, 3, 4))
        want[:, -1:, 1:3] = 2.0
        want[1, 0] += 1.0
        np.testing.assert_array_equal(p.grad, want)

    def test_duplicated_fancy_index_accumulates(self):
        p = t64([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            loss = (p[np.array([0, 2, 0, 0])] * t64([1.0, 10.0, 100.0, 1000.0])).sum()
        backward(loss, tape)
        np.testing.assert_array_equal(p.grad, [1101.0, 0.0, 10.0])


class TestBackward:
    def test_sum_gives_ones(self):
        p = t64(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = p.sum()
        backward(loss, tape)
        np.testing.assert_array_equal(p.grad, np.ones((2, 3)))

    def test_quadratic(self):
        p = t64([1.0, -2.0], requires_grad=True)
        with Tape() as tape:
            loss = (p * p).sum()
        backward(loss, tape)
        np.testing.assert_allclose(p.grad, [2.0, -4.0])

    def test_unreachable_param_gets_zero(self):
        p = t64([1.0], requires_grad=True)
        q = t64([2.0], requires_grad=True)
        with Tape() as tape:
            loss = p.sum()
        backward(loss, tape, params=[p, q])
        np.testing.assert_array_equal(q.grad, [0.0])

    def test_non_scalar_loss_rejected(self):
        p = t64([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = p * 2.0
        with pytest.raises(ShapeError):
            tape.backward(loss)

    def test_reused_tape_rejected(self):
        p = t64([1.0], requires_grad=True)
        with Tape() as tape:
            loss = p.sum()
        tape.backward(loss)
        with pytest.raises(RuntimeError):
            tape.backward(loss)


class TestAdam:
    def test_decay_only_step(self):
        p = {"p": Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)}
        state = AdamState.for_params(p)
        adam_step(p, {"p": np.zeros(1, dtype=np.float32)}, state)
        assert p["p"].data[0] == pytest.approx(1.0 - 3e-4 * 0.01, rel=1e-6)

    def test_first_step_magnitude(self, monkeypatch):
        monkeypatch.setattr(adam, "WEIGHT_DECAY", 0.0)
        p = {"p": Tensor(np.zeros(4), dtype=np.float64, requires_grad=True)}
        state = AdamState.for_params(p)
        adam_step(p, {"p": np.ones(4)}, state)
        np.testing.assert_allclose(-p["p"].data, 3e-4, rtol=1e-4)

    def test_identity_without_decay_or_grad(self, monkeypatch):
        monkeypatch.setattr(adam, "WEIGHT_DECAY", 0.0)
        p = {"p": Tensor(np.array([2.5, -1.0]), dtype=np.float64, requires_grad=True)}
        state = AdamState.for_params(p)
        adam_step(p, {"p": np.zeros(2)}, state)
        np.testing.assert_array_equal(p["p"].data, [2.5, -1.0])

    def test_step_counter_increments(self):
        p = {"p": Tensor(np.zeros(1), dtype=np.float64, requires_grad=True)}
        state = AdamState.for_params(p)
        for expected in (1, 2, 3):
            adam_step(p, {"p": np.ones(1)}, state)
            assert state.t == expected

    def test_trajectory_matches_scalar_oracle(self):
        # independent scalar AdamW on f(p) = sum(p^2)
        lr, b1, b2, eps, wd = 3e-4, 0.9, 0.999, 1e-8, 0.01
        ref = np.array([1.0, -0.5, 2.0])
        m = np.zeros(3)
        v = np.zeros(3)
        for t in range(1, 101):
            g = 2 * ref
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1 ** t)
            vh = v / (1 - b2 ** t)
            ref = ref - lr * (mh / (np.sqrt(vh) + eps) + wd * ref)

        p = {"p": Tensor(np.array([1.0, -0.5, 2.0]), dtype=np.float64,
                         requires_grad=True)}
        state = AdamState.for_params(p)
        for _ in range(100):
            adam_step(p, {"p": 2 * p["p"].data}, state)
        np.testing.assert_allclose(p["p"].data, ref, atol=1e-6)


class TestReproducibility:
    def test_forward_backward_bit_identical(self):
        def run():
            rng = np.random.default_rng(42)
            p = Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
            x = Tensor(rng.normal(size=(2, 4)).astype(np.float32))
            with Tape() as tape:
                loss = mse_loss(softmax_lastaxis(x @ p), Tensor(np.full((2, 4), 0.25,
                                                                        dtype=np.float32)))
            backward(loss, tape)
            return loss.item(), p.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)


def classifier_step(b: int):
    """A taped default-model classifier step on a B=b batch: (trainable
    params, forward returning (loss, tape), one full training step)."""
    params = model.init_params(model.ModelConfig(), 0, head_kind=model.CLASSIFIER_HEAD)
    rng = np.random.default_rng(5)
    batch = {k: rng.normal(size=(b, 2, 24)).astype(np.float32)
             for k in params.config.streams}
    labels = rng.integers(0, 2, size=b)
    weights = Tensor(np.array([1.0, 1.5]))
    trainable = {k: params.tensors[k] for k in params.learnable_names()}
    state = AdamState.for_params(trainable)

    def forward():
        with Tape() as tape:
            loss = weighted_cross_entropy(model.forward(params, batch), labels, weights)
        return loss, tape

    def full_step():
        zero_grads(trainable.values())
        loss, tape = forward()
        backward(loss, tape, params=trainable.values())
        adam_step(trainable, collect_grads(trainable), state)

    return trainable, forward, full_step


# minor faults of 5 warm steps after 3 warm-up steps, in a fresh interpreter
# prints the minor faults of each of 5 warm steps; when one reaches the
# bound, also each step's ru_minflt and program break (sbrk(0)) on stderr,
# which tells heap growth from pages the kernel took back from a kept heap
WARM_FAULTS_RUN = textwrap.dedent("""
    import ctypes, resource, sys
    from test_numerics import classifier_step
    sbrk = ctypes.CDLL(None).sbrk
    sbrk.argtypes, sbrk.restype = [ctypes.c_ssize_t], ctypes.c_void_p
    full_step = classifier_step(int(sys.argv[1]))[2]
    for _ in range(3):
        full_step()
    marks = [(resource.getrusage(resource.RUSAGE_SELF).ru_minflt, sbrk(0))]
    for _ in range(5):
        full_step()
        marks.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt, sbrk(0)))
    faults = [b[0] - a[0] for a, b in zip(marks, marks[1:])]
    print(*faults)
    if max(faults) >= int(sys.argv[2]):
        for k, (minflt, brk) in enumerate(marks):
            print(f"after step {3 + k}: ru_minflt {minflt}, sbrk(0) {brk:#x}", file=sys.stderr)
""")
WARM_FAULT_BOUND = 100


class TestTapeMemory:
    """What a taped default-model classifier step holds (numpy allocations
    traced with tracemalloc), and the pages it faults in once warm."""

    B = 64

    @pytest.fixture(scope="class")
    def step(self):
        return classifier_step(self.B)

    def test_step_keeps_only_what_backward_reads(self, step):
        trainable, forward, full_step = step
        full_step()
        zero_grads(trainable.values())
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss, tape = forward()
            retained = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            backward(loss, tape, params=trainable.values())
            held, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        mb = 2 ** 20
        assert retained <= 21 * mb
        assert peak <= 1.1 * retained
        # `loss` is still referenced; the leaves' grads are 0.9 MB
        assert np.isfinite(loss.item()) and held <= 2 * mb
        assert all(p.grad is not None for p in trainable.values())

    @pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                        reason="the kept heap is a glibc mallopt setting")
    def test_warm_steps_fault_in_no_pages(self):
        # a fresh interpreter, so that the faults do not depend on which
        # tests ran before and how they left the heap's free lists
        tests = Path(__file__).resolve().parent
        path = [str(tests), str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run([sys.executable, "-c", WARM_FAULTS_RUN, str(self.B),
                               str(WARM_FAULT_BOUND)],
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        faults = [int(f) for f in proc.stdout.split()]
        assert len(faults) == 5 and max(faults) < WARM_FAULT_BOUND, (faults, proc.stderr)

    def test_output_read_by_no_backward_is_freed_in_forward(self):
        x, y, w, b = leaves(3, np.float32, (8, 5, 16), (8, 5, 16), (16, 4), (4,))
        g = Tensor(np.ones(16, np.float32), requires_grad=True)
        beta = Tensor(np.zeros(16, np.float32))
        with Tape() as tape:
            s = x + y                      # layer_norm keeps its own normalized copy
            summed = weakref.ref(s.data)
            n = layer_norm(s, g, beta)
            del s
            h = n * 2.0                    # linear reads its input for w's gradient
            read = weakref.ref(h.data)
            out = linear(h, w, b)
            del n, h
            loss = (out * out).sum()
        assert summed() is None
        assert read() is not None
        backward(loss, tape)
        assert read() is None              # backward dropped the op that read it
        assert all(t.grad is not None for t in (x, y, w, b, g))
        assert beta.grad is None and out.grad is None and loss.grad is None

    def test_conv_and_relu_keep_each_activation_once(self):
        x, w1, b1, w2, b2 = leaves(6, np.float32, (4, 8, 24), (8, 8, 3), (8,), (8, 8, 3), (8,))
        with Tape() as tape:
            h = conv1d(x, w1, b1)
            conv_out = weakref.ref(h.data.base)
            r = h.relu()
            relu_out = weakref.ref(r.data)
            del h
            loss = conv1d(r, w2, b2).sum()
        # what each backward reads: no im2col matrix (3x its input) and no relu mask
        kept = [c.cell_contents for node in tape._nodes for c in node.backward.__closure__ or ()
                if isinstance(c.cell_contents, np.ndarray)]
        relu_kept = [c.cell_contents for c in tape._nodes[1].backward.__closure__
                     if isinstance(c.cell_contents, np.ndarray)]
        assert conv_out() is None          # read by no backward
        assert max(a.nbytes for a in kept) <= x.data.nbytes
        assert not any(a.dtype == bool for a in kept)
        assert len(relu_kept) == 1 and relu_kept[0] is r.data
        del r, kept, relu_kept
        assert relu_out() is not None      # the second conv and the relu read it
        backward(loss, tape)
        assert relu_out() is None
        assert all(t.grad is not None for t in (x, w1, b1, w2, b2))

    @pytest.mark.parametrize("mode,head", [("gaze_plus_comp", model.CLASSIFIER_HEAD),
                                           ("mouse_gaze_comp", model.VELOCITY_HEAD)])
    @pytest.mark.parametrize("b", [256, 38, 1])
    def test_step_matches_ops_that_keep_im2col_and_mask_bitwise(self, monkeypatch, mode,
                                                                  head, b):
        def relu_keeping_mask(x):
            data = np.maximum(x.data, 0)
            mask = data > 0
            return Tensor._result(data, (x,), lambda g: [g * mask])

        params = model.init_params(model.ModelConfig(input_mode=mode), 0, head_kind=head)
        rng = np.random.default_rng(5)
        batch = {k: rng.normal(size=(b, 2, 24)).astype(np.float32)
                 for k in params.config.streams}
        labels, target = rng.integers(0, 2, size=b), rng.normal(size=(b, 2))
        trainable = [params.tensors[k] for k in params.learnable_names()]

        def step():
            zero_grads(trainable)
            with Tape() as tape:
                out = model.forward(params, batch)
                if head == model.CLASSIFIER_HEAD:
                    loss = weighted_cross_entropy(out, labels, Tensor(np.array([1.0, 1.5])))
                else:
                    loss = mse_loss(out, Tensor(target.astype(np.float32)))
            backward(loss, tape, params=trainable)
            return [loss.data.tobytes()] + [t.grad.tobytes() for t in trainable]

        got = step()
        monkeypatch.setattr(model, "conv1d", conv1d_per_tap)
        monkeypatch.setattr(Tensor, "relu", relu_keeping_mask)
        assert got == step()

    def test_untaped_ops_record_nothing(self):
        x, w, b = leaves(4, np.float32, (3, 4), (4, 2), (2,))
        out = linear(x, w, b).relu()
        assert out._node is None and not out.requires_grad
