import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exmvit import tensor as T
from exmvit.layers import HEADS, ConvNormAct, MultiHeadAttention
from exmvit.tensor import NumericError, ShapeError, Tensor

from chains import (
    chained_attend,
    chained_batch_norm,
    chained_conv_act,
    chained_cross_entropy,
    chained_fold,
    chained_global_avg_pool,
    chained_layer_norm,
    chained_linear,
    chained_unfold,
    div,
    matmul,
    reshape,
    silu,
    softmax,
)


def naive_conv2d(x, w, b, stride, padding):
    """Six-loop cross-correlation oracle (groups=1)."""
    bsz, cin, h, ww = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (ww + 2 * padding - kw) // stride + 1
    out = np.zeros((bsz, cout, ho, wo), dtype=np.float64)
    for n in range(bsz):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[n, ci, i * stride + u, j * stride + v] * w[co, ci, u, v]
                    out[n, co, i, j] = acc + (b[co] if b is not None else 0.0)
    return out


class TestConv2d:
    def test_all_ones_sums_kernel(self):
        x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        out = T.conv2d(x, w)
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 9.0

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 1, 5, 7)).astype(np.float32))
        w = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        out = T.conv2d(x, w)
        np.testing.assert_array_equal(out.data, x.data)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1)
        assert out.shape == (1, 3, 3, 3)
        expected = naive_conv2d(x, w, b, stride=2, padding=1)
        np.testing.assert_allclose(out.data, expected, atol=1e-5)

    def test_depthwise_equals_per_channel_oracle(self):
        rng = np.random.default_rng(2)
        c = 4
        x = rng.normal(size=(2, c, 6, 6)).astype(np.float32)
        w = rng.normal(size=(c, 1, 3, 3)).astype(np.float32)
        out = T.conv2d(Tensor(x), Tensor(w), stride=1, padding=1, groups=c)
        for ch in range(c):
            expected = naive_conv2d(x[:, ch : ch + 1], w[ch : ch + 1], None, 1, 1)
            np.testing.assert_allclose(out.data[:, ch : ch + 1], expected, atol=1e-5)

    def test_shape_errors(self):
        x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((2, 2, 3, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            T.conv2d(x, w)
        with pytest.raises(ShapeError):
            T.conv2d(x, Tensor(np.zeros((2, 3, 9, 9), dtype=np.float32)))


class TestLinear:
    def test_identity(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        out = T.linear(x, Tensor(np.eye(3, dtype=np.float32)), Tensor(np.zeros(3, dtype=np.float32)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_case(self):
        x = Tensor(np.array([[1.0, 2.0]], dtype=np.float32))
        w = Tensor(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.float32))
        out = T.linear(x, w, Tensor(np.zeros(2, dtype=np.float32)))
        np.testing.assert_array_equal(out.data, [[3.0, 2.0]])

    def test_matches_naive_matmul(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 640)).astype(np.float32)
        w = rng.normal(size=(1000, 640)).astype(np.float32) * 0.05
        b = rng.normal(size=1000).astype(np.float32)
        out = T.linear(Tensor(x), Tensor(w), Tensor(b))
        expected = np.empty((4, 1000))
        for i in range(4):
            for j in range(1000):
                expected[i, j] = np.dot(x[i].astype(np.float64), w[j].astype(np.float64)) + b[j]
        np.testing.assert_allclose(out.data, expected, atol=1e-4)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 4))), Tensor(np.zeros(2)))


class TestNorms:
    def test_batch_norm_passthrough_when_standardized(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 3, 5, 5)).astype(np.float32)
        x -= x.mean(axis=(0, 2, 3), keepdims=True)
        x /= x.std(axis=(0, 2, 3), keepdims=True)
        out = T.batch_norm(
            Tensor(x),
            Tensor(np.ones(3, dtype=np.float32)),
            Tensor(np.zeros(3, dtype=np.float32)),
            np.zeros(3, dtype=np.float32),
            np.ones(3, dtype=np.float32),
        )
        np.testing.assert_allclose(out.data, x / np.sqrt(1.0 + T.NORM_EPS), atol=1e-5)

    def test_batch_norm_constant_input_zeros(self):
        x = np.full((2, 3, 4, 4), 7.0, dtype=np.float32)
        out = T.batch_norm(
            Tensor(x),
            Tensor(np.ones(3, dtype=np.float32)),
            Tensor(np.zeros(3, dtype=np.float32)),
            np.zeros(3, dtype=np.float32),
            np.ones(3, dtype=np.float32),
        )
        np.testing.assert_allclose(out.data, 0.0, atol=1e-4)

    def test_batch_norm_statistics(self):
        rng = np.random.default_rng(5)
        x = rng.normal(2.0, 3.0, size=(16, 4, 8, 8)).astype(np.float32)
        out = T.batch_norm(
            Tensor(x),
            Tensor(np.ones(4, dtype=np.float32)),
            Tensor(np.zeros(4, dtype=np.float32)),
            np.zeros(4, dtype=np.float32),
            np.ones(4, dtype=np.float32),
        )
        var = x.var(axis=(0, 2, 3))
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
        expected_var = var / (var + T.NORM_EPS)
        np.testing.assert_allclose(out.data.var(axis=(0, 2, 3)), expected_var, atol=1e-6)

    @pytest.mark.parametrize("act", [False, True])
    def test_batch_norm_nan_input_leaves_running_stats(self, act):
        x = np.random.default_rng(6).normal(size=(2, 3, 4, 4)).astype(np.float32)
        x[1, 2, 3, 0] = np.nan
        running_mean = np.full(3, 0.25, dtype=np.float32)
        running_var = np.full(3, 0.75, dtype=np.float32)
        with pytest.raises(NumericError):
            T.batch_norm(
                Tensor(x),
                Tensor(np.ones(3, dtype=np.float32)),
                Tensor(np.zeros(3, dtype=np.float32)),
                running_mean,
                running_var,
                act=act,
            )
        assert np.array_equal(running_mean, np.full(3, 0.25, dtype=np.float32))
        assert np.array_equal(running_var, np.full(3, 0.75, dtype=np.float32))

    def test_layer_norm_single_dim_is_zero(self):
        x = Tensor(np.array([[3.0], [5.0]], dtype=np.float32))
        out = T.layer_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-2)

    def test_layer_norm_hand_case(self):
        x = Tensor(np.array([[1.0, 3.0]], dtype=np.float32))
        out = T.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]] / np.sqrt(1.0 + T.NORM_EPS), atol=1e-6)

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(1.0, 2.0, size=(5, 64)).astype(np.float32))
        out = T.layer_norm(x, Tensor(np.ones(64)), Tensor(np.zeros(64)))
        var = x.data.var(axis=-1)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.data.var(axis=-1), var / (var + T.NORM_EPS), atol=1e-6)


class TestActivations:
    def test_silu_zero(self):
        assert silu(Tensor(np.array([0.0], dtype=np.float32))).item() == 0.0
        # exp(-a) overflows float32 below about -88: the result is -0, with no warning
        very_negative = Tensor(np.array([-100.0, -200.0, -1000.0], dtype=np.float32))
        assert np.array_equal(silu(very_negative).data, np.zeros(3))

    def test_silu_one(self):
        out = silu(Tensor(np.array([1.0], dtype=np.float64)))
        np.testing.assert_allclose(out.item(), 1.0 / (1.0 + np.exp(-1.0)), rtol=1e-12)


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(Tensor(np.array([0.0, 0.0], dtype=np.float32)))
        np.testing.assert_array_equal(out.data, [0.5, 0.5])

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 5)).astype(np.float32)
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_direct_evaluation(self):
        x = np.array([1.0, 2.0, 3.0])
        out = softmax(Tensor(x))
        expected = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(out.data, expected, atol=1e-6)
        assert abs(out.data.sum() - 1.0) < 1e-6

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_to_one(self, seed, cols):
        x = np.random.default_rng(seed).normal(0, 5, size=(4, cols)).astype(np.float32)
        out = softmax(Tensor(x)).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
        assert (out > 0).all() and (out < 1.0 + 1e-6).all()


class TestPatches:
    def test_unit_patch_is_reshape(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        seq = T.unfold_patches(Tensor(x), 1, 1)
        assert seq.shape == (2, 16, 3)
        back = T.fold_patches(seq, 1, 1, x.shape)
        np.testing.assert_array_equal(back.data, x)

    def test_two_by_two_enumeration(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32))
        seq = T.unfold_patches(x, 2, 2)
        assert seq.shape == (4, 1, 1)
        np.testing.assert_array_equal(seq.data.reshape(4), [1.0, 2.0, 3.0, 4.0])

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 4]),
        st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_bitwise(self, seed, ph, pw):
        x = np.random.default_rng(seed).normal(size=(2, 8, 16, 16)).astype(np.float32)
        seq = T.unfold_patches(Tensor(x), ph, pw)
        back = T.fold_patches(seq, ph, pw, x.shape)
        assert np.array_equal(back.data, x)

    def test_indivisible_rejected(self):
        with pytest.raises(ShapeError):
            T.unfold_patches(Tensor(np.zeros((1, 1, 5, 4), dtype=np.float32)), 2, 2)


class TestGlobalAvgPool:
    def test_constant(self):
        out = T.global_avg_pool(Tensor(np.full((2, 3, 4, 4), 1.5, dtype=np.float32)))
        np.testing.assert_array_equal(out.data, np.full((2, 3), 1.5))

    def test_mean(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32))
        assert T.global_avg_pool(x).item() == 2.5

    def test_unit_spatial_is_squeeze(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 5, 1, 1)).astype(np.float32)
        out = T.global_avg_pool(Tensor(x))
        np.testing.assert_array_equal(out.data, x[:, :, 0, 0])


class TestConcatChannels:
    def test_single_part_identity(self):
        x = Tensor(np.array([[1.0, 2.0]], dtype=np.float32))
        np.testing.assert_array_equal(T.concat([x], axis=1).data, x.data)

    def test_order(self):
        a = Tensor(np.array([[1.0, 2.0]], dtype=np.float32))
        b = Tensor(np.array([[3.0]], dtype=np.float32))
        np.testing.assert_array_equal(T.concat([a, b], axis=1).data, [[1.0, 2.0, 3.0]])

    def test_paper_widths(self):
        parts = [Tensor(np.zeros((2, w), dtype=np.float32)) for w in (32, 128, 480)]
        assert T.concat(parts, axis=1).shape == (2, 640)

    def test_errors(self):
        with pytest.raises(ShapeError):
            T.concat([], axis=1)
        with pytest.raises(ShapeError, match="part 1"):
            T.concat(
                [Tensor(np.zeros((1, 2), dtype=np.float32)), Tensor(np.zeros((2, 2), dtype=np.float32))],
                axis=1,
            )
        with pytest.raises(ShapeError):
            T.concat(
                [Tensor(np.zeros((1, 2), dtype=np.float32)), Tensor(np.zeros((1, 2, 1), dtype=np.float32))],
                axis=1,
            )


class TestAttention:
    """``MultiHeadAttention`` with its weights (and, where named, biases) set."""

    def _attention(self, rng, d, biases=False):
        attn = MultiHeadAttention(d)
        for p in attn.parameters():
            if p.ndim == 2 or biases:
                p.data[...] = rng.normal(size=p.shape).astype(np.float32) * 0.3
        return attn

    def test_single_token_weight_is_one(self):
        rng = np.random.default_rng(10)
        d = 8
        attn = self._attention(rng, d, biases=True)
        x = rng.normal(size=(1, 1, d)).astype(np.float32)
        out = attn(Tensor(x))
        # with one token the softmax weight is exactly 1, so q/k are irrelevant
        expected = (x[0] @ attn.wv.data.T + attn.bv.data) @ attn.wo.data.T + attn.bo.data
        np.testing.assert_allclose(out.data[0], expected, atol=1e-5)

    def test_zero_input_zero_output(self):
        attn = self._attention(np.random.default_rng(11), 8)
        out = attn(Tensor(np.zeros((2, 3, 8), dtype=np.float32)))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_matches_naive_per_head_oracle(self):
        rng = np.random.default_rng(12)
        b, t, d, h = 1, 3, 8, HEADS
        assert h == 4
        hd = d // h
        attn = self._attention(rng, d, biases=True)
        x = rng.normal(size=(b, t, d)).astype(np.float32)
        out = attn(Tensor(x))

        q, k, v = (x[0] @ getattr(attn, f"w{n}").data.T + getattr(attn, f"b{n}").data for n in "qkv")
        merged = np.zeros((t, d))
        for head in range(h):
            sl = slice(head * hd, (head + 1) * hd)
            scores = q[:, sl] @ k[:, sl].T / np.sqrt(hd)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            att = e / e.sum(axis=-1, keepdims=True)
            merged[:, sl] = att @ v[:, sl]
        expected = merged @ attn.wo.data.T + attn.bo.data
        np.testing.assert_allclose(out.data[0], expected, atol=1e-5)

    def test_head_divisibility(self):
        with pytest.raises(ShapeError, match="not divisible"):
            MultiHeadAttention(HEADS + 2)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        T.tsum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_half_square_gradient_is_input(self):
        x = Tensor(np.arange(5, dtype=np.float32), requires_grad=True)
        loss = T.mul(T.tsum(T.mul(x, x)), Tensor(np.float32(0.5)))
        loss.backward()
        np.testing.assert_allclose(x.grad, x.data, atol=1e-6)

    def test_backward_requires_scalar(self):
        x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(ShapeError):
            x.backward()

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        x0 = rng.normal(size=(2, 3)).astype(np.float64)
        w0 = rng.normal(size=(3, 3)).astype(np.float64)

        def loss_of(xv):
            x = Tensor(xv, requires_grad=True)
            w = Tensor(w0)
            y = silu(matmul(x, w))
            return T.tsum(T.mul(softmax(y), y)), x

        loss, x = loss_of(x0)
        loss.backward()
        h = 1e-6
        for idx in np.ndindex(x0.shape):
            up = x0.copy()
            up[idx] += h
            down = x0.copy()
            down[idx] -= h
            numeric = (loss_of(up)[0].item() - loss_of(down)[0].item()) / (2 * h)
            analytic = x.grad[idx]
            assert abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8) < 1e-3


class TestNumericGuards:
    def test_non_finite_is_an_error(self):
        x = Tensor(np.array([1.0], dtype=np.float32))
        with pytest.raises(NumericError):
            div(x, Tensor(np.array([0.0], dtype=np.float32)))

    def test_determinism(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(2, 4, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 4, 3, 3)).astype(np.float32)
        a = T.conv2d(Tensor(x), Tensor(w), padding=1).data
        b = T.conv2d(Tensor(x), Tensor(w), padding=1).data
        assert np.array_equal(a, b)


class TestNoGrad:
    def test_nests_and_restores_after_exception(self):
        a = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                inner = T.add(a, a)
            outer = T.add(a, a)
        for out in (inner, outer):
            assert out._parents == () and not out.requires_grad
        assert T.add(a, a)._parents == (a, a)
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("inside no_grad")
        after = T.add(a, a)
        assert after.requires_grad and after._parents == (a, a)


class TestEvalBatchNorm:
    """Eval batch norm as the per-channel scale and shift an eval ConvNormAct
    folds into its conv."""

    @staticmethod
    def operands(rng, dtype):
        x = rng.normal(size=(2, 3, 4, 4)).astype(dtype)
        gamma = rng.uniform(0.5, 1.5, 3).astype(dtype)
        beta = rng.normal(0.0, 0.5, 3).astype(dtype)
        mean = rng.normal(0.0, 0.5, 3).astype(dtype)
        var = rng.uniform(0.5, 2.0, 3).astype(dtype)
        return x, gamma, beta, mean, var

    def test_matches_normalize_then_affine(self):
        x, gamma, beta, mean, var = self.operands(np.random.default_rng(20), np.float32)
        # an identity 1x1 conv, so the block's output is x * scale + shift
        block = ConvNormAct(3, 3, 1, act=False).eval()
        block.conv.weight.data[:] = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1)
        norm = block.norm
        norm.gamma.data[:], norm.beta.data[:] = gamma, beta
        norm.running_mean[:], norm.running_var[:] = mean, var
        out = block(Tensor(x))
        c = (1, 3, 1, 1)
        expected = (x - mean.reshape(c)) / np.sqrt(var.reshape(c) + 1e-5) * gamma.reshape(
            c
        ) + beta.reshape(c)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-6)


class TestBackwardConsumesGraph:
    def test_intermediates_released_leaf_keeps_grad(self):
        x = Tensor(np.arange(1.0, 5.0), requires_grad=True)
        hidden = T.mul(x, x)
        loss = T.tsum(T.mul(hidden, x))  # sum of x^3
        loss.backward()
        for node in (hidden, loss):
            assert node.grad is None and node._parents == () and node._backward is None
        np.testing.assert_allclose(x.grad, 3.0 * x.data**2)


class TestBitwiseTrims:
    """The in-place forms give the same bits as the expressions they replaced."""

    @staticmethod
    def values(dtype=np.float32):
        return np.random.default_rng(30).normal(0.0, 3.0, size=(4, 5, 6)).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_silu_forward_and_backward(self, dtype):
        a = self.values(dtype)
        g = np.random.default_rng(31).normal(size=a.shape).astype(dtype)
        x = Tensor(a, requires_grad=True)
        out = silu(x)
        T.tsum(T.mul(out, Tensor(g))).backward()
        sig = 1.0 / (1.0 + np.exp(-a))
        assert np.array_equal(out.data, a * sig)
        assert np.array_equal(x.grad, g * (sig + a * sig * (1.0 - sig)))

    def test_softmax_forward(self):
        a = self.values()
        e = np.exp(a - a.max(axis=-1, keepdims=True))
        assert np.array_equal(softmax(Tensor(a)).data, e / e.sum(axis=-1, keepdims=True))

    def test_unpadded_conv_matches_padded_form(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(2, 6, 5, 7)).astype(np.float32)
        w = rng.normal(size=(4, 6, 1, 1)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        padded = np.pad(x, ((0, 0), (0, 0), (0, 0), (0, 0)))
        old = np.matmul(w.reshape(1, 4, 6), padded.reshape(2, 1, 6, 35)).reshape(2, 4, 5, 7)
        old = old + b.reshape(1, 4, 1, 1)
        assert np.array_equal(T.conv2d(Tensor(x), Tensor(w), Tensor(b)).data, old)


class TestTrainBatchNorm:
    @staticmethod
    def operands(dtype, seed=40):
        rng = np.random.default_rng(seed)
        x = rng.normal(1.5, 2.0, size=(3, 4, 5, 5)).astype(dtype)
        gamma = rng.uniform(0.5, 1.5, 4).astype(dtype)
        beta = rng.normal(0.0, 0.5, 4).astype(dtype)
        weights = rng.normal(size=x.shape).astype(dtype)
        return x, gamma, beta, weights

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_op_bitwise_equal_to_chain(self, dtype):
        x, gamma, beta, _ = self.operands(dtype)
        stats = [np.zeros(4, dtype=np.float32), np.ones(4, dtype=np.float32)]
        chain_stats = [s.copy() for s in stats]
        out = T.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), *stats)
        chain = chained_batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), *chain_stats)
        assert out.dtype == dtype
        assert np.array_equal(out.data, chain.data)
        for mine, theirs in zip(stats, chain_stats):
            assert np.array_equal(mine, theirs)

    def test_records_one_node(self):
        x, gamma, beta, _ = self.operands(np.float32)
        leaves = [Tensor(v, requires_grad=True) for v in (x, gamma, beta)]
        out = T.batch_norm(*leaves, np.zeros(4), np.ones(4))
        assert out._parents == tuple(leaves)

    def assert_gradients_match(self, fused, chain):
        x, gamma, beta, weights = self.operands(np.float32)
        grads = []
        for norm in (fused, chain):
            leaves = [Tensor(v, requires_grad=True) for v in (x, gamma, beta)]
            out = norm(*leaves, np.zeros(4, dtype=np.float32), np.ones(4, dtype=np.float32))
            T.tsum(T.mul(T.mul(out, out), Tensor(weights))).backward()
            grads.append([leaf.grad for leaf in leaves])
        for mine, theirs in zip(*grads):
            np.testing.assert_allclose(mine, theirs, rtol=1e-4, atol=1e-5)

    def test_gradients_match_chain(self):
        self.assert_gradients_match(T.batch_norm, chained_batch_norm)

    @pytest.mark.parametrize("x_requires_grad", [True, False])
    def test_gradients_match_finite_differences(self, x_requires_grad):
        self.assert_finite_differences(x_requires_grad, act=False)

    def assert_finite_differences(self, x_requires_grad, act):
        x0, gamma0, beta0, weights = self.operands(np.float64, seed=41)
        operands = [x0, gamma0, beta0]

        def loss_of(x, gamma, beta):
            leaves = [
                Tensor(x, requires_grad=x_requires_grad),
                Tensor(gamma, requires_grad=True),
                Tensor(beta, requires_grad=True),
            ]
            out = T.batch_norm(*leaves, np.zeros(4), np.ones(4), act=act)
            return T.tsum(T.mul(T.mul(out, out), Tensor(weights))), leaves

        loss, leaves = loss_of(*operands)
        loss.backward()
        if not x_requires_grad:
            assert leaves[0].grad is None
        h = 1e-6
        for which, leaf in enumerate(leaves):
            if not leaf.requires_grad:
                continue
            for idx in np.ndindex(leaf.shape):
                up = [v.copy() for v in operands]
                down = [v.copy() for v in operands]
                up[which][idx] += h
                down[which][idx] -= h
                numeric = (loss_of(*up)[0].item() - loss_of(*down)[0].item()) / (2 * h)
                analytic = leaf.grad[idx]
                assert abs(analytic - numeric) <= 1e-6 * max(abs(numeric), 1.0), (which, idx)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_act_bitwise_equal_to_silu_of_chain(self, dtype):
        x, gamma, beta, _ = self.operands(dtype)
        stats = [np.zeros(4, dtype=np.float32), np.ones(4, dtype=np.float32)]
        chain_stats = [s.copy() for s in stats]
        out = T.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), *stats, act=True)
        chain = silu(chained_batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), *chain_stats))
        assert out.dtype == dtype
        assert np.array_equal(out.data, chain.data)
        for mine, theirs in zip(stats, chain_stats):
            assert np.array_equal(mine, theirs)

    def test_act_records_one_node(self):
        x, gamma, beta, _ = self.operands(np.float32)
        leaves = [Tensor(v, requires_grad=True) for v in (x, gamma, beta)]
        out = T.batch_norm(*leaves, np.zeros(4), np.ones(4), act=True)
        assert out._parents == tuple(leaves)

    def test_act_gradients_match_silu_of_chain(self):
        def fused(*args):
            return T.batch_norm(*args, act=True)

        def chain(*args):
            return silu(chained_batch_norm(*args))

        self.assert_gradients_match(fused, chain)

    @pytest.mark.parametrize("x_requires_grad", [True, False])
    def test_act_gradients_match_finite_differences(self, x_requires_grad):
        self.assert_finite_differences(x_requires_grad, act=True)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_act_backward_rebuilds_the_forwards_sigmoid(self, monkeypatch, dtype):
        # the closure keeps no sigmoid; the backward's has the forward's bits
        # and is built in the buffer of its pre-activation
        sigmoids, in_place = [], []

        def recording(a, out=None, sigmoid=T._sigmoid):
            in_place.append(out is a)
            sig = sigmoid(a, out=out)
            sigmoids.append(sig.copy())
            return sig

        monkeypatch.setattr(T, "_sigmoid", recording)
        x, gamma, beta, weights = self.operands(dtype)
        leaves = [Tensor(v, requires_grad=True) for v in (x, gamma, beta)]
        out = T.batch_norm(*leaves, np.zeros(4), np.ones(4), act=True)
        cells = dict(zip(out._backward.__code__.co_freevars, out._backward.__closure__))
        assert "sig" not in cells["grad"].cell_contents.__code__.co_freevars
        assert len(sigmoids) == 1
        T.tsum(T.mul(out, Tensor(weights))).backward()
        assert len(sigmoids) == 2 and in_place == [False, True]
        assert sigmoids[1].dtype == dtype and np.array_equal(sigmoids[0], sigmoids[1])

    def test_act_nan_input_raises(self):
        x, gamma, beta, _ = self.operands(np.float32)
        x[2, 3, 4, 4] = np.nan
        with pytest.raises(NumericError, match="batch_norm"):
            T.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), np.zeros(4), np.ones(4), act=True)


def conv_grads_reference(x, w, r, stride, padding, groups):
    """float64 gradients of sum(r * conv2d(x, w)) by direct accumulation."""
    x, w, r = (v.astype(np.float64) for v in (x, w, r))
    _, _, h, width = x.shape
    cout, cin_g, kh, kw = w.shape
    ho, wo = r.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for co in range(cout):
        group = co // (cout // groups)
        for ci in range(cin_g):
            c = group * cin_g + ci
            for u in range(kh):
                for v in range(kw):
                    rows = slice(u, u + stride * ho, stride)
                    cols = slice(v, v + stride * wo, stride)
                    gw[co, ci, u, v] = (r[:, co] * xp[:, c, rows, cols]).sum()
                    gxp[:, c, rows, cols] += r[:, co] * w[co, ci, u, v]
    return gxp[:, :, padding : padding + h, padding : padding + width], gw


class TestConv2dBackward:
    """The recorded conv (flat-row columns cut from phase planes, the
    stride-1 input gradient as one GEMM) against direct float64
    accumulation. The default map is 7 x 5: odd, and not divisible by
    stride 2 or 3."""

    # (cin, cout, groups): depthwise, one output channel per group of two, dense
    KINDS = {"depthwise": (4, 4, 4), "grouped": (4, 2, 2), "dense": (3, 5, 1)}
    STRIDES, PADDINGS = [1, 2, 3], [0, 1, 2]

    @classmethod
    def operands(cls, kind, kernel, size, dtype, x_grad=True, seed=50):
        cin, cout, groups = cls.KINDS[kind]
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, cin) + size).astype(dtype), requires_grad=x_grad)
        w = rng.normal(size=(cout, cin // groups, kernel, kernel)).astype(dtype)
        b = rng.normal(size=cout).astype(dtype)
        return x, Tensor(w, requires_grad=True), Tensor(b, requires_grad=True), groups, rng

    @classmethod
    def check(cls, kind, kernel, stride, padding, size=(7, 5), dtype=np.float32, x_grad=True):
        x, w, b, groups, rng = cls.operands(kind, kernel, size, dtype, x_grad)
        out = T.conv2d(x, w, b, stride=stride, padding=padding, groups=groups)
        r = rng.normal(size=out.shape).astype(dtype)
        T.tsum(T.mul(out, Tensor(r))).backward()
        gx, gw = conv_grads_reference(x.data, w.data, r, stride, padding, groups)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        if x_grad:
            assert x.grad.dtype == dtype
            np.testing.assert_allclose(x.grad, gx, rtol=tol, atol=tol)
        else:
            assert x.grad is None
        assert w.grad.dtype == dtype
        np.testing.assert_allclose(w.grad, gw, rtol=tol, atol=tol)
        np.testing.assert_allclose(b.grad, r.astype(np.float64).sum(axis=(0, 2, 3)), rtol=tol)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("padding", PADDINGS)
    def test_gradients_match_float64_reference(self, kind, stride, padding):
        self.check(kind, 3, stride, padding)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("kernel", [1, 5])
    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("padding", PADDINGS)
    def test_kernels_one_and_five_match_float64_reference(self, kind, kernel, stride, padding):
        # kernel 1 covers a 1x1 conv at stride 2 and 3, and padding wider than
        # the kernel; kernel 5 without padding spans the map's whole width
        self.check(kind, kernel, stride, padding)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize(
        "size, kernel, stride, padding",
        [((3, 3), 3, 1, 0), ((1, 1), 3, 2, 1), ((2, 3), 5, 1, 2), ((4, 4), 5, 3, 1), ((1, 1), 1, 2, 0)],
    )
    def test_map_no_bigger_than_the_kernel(self, kind, size, kernel, stride, padding):
        self.check(kind, kernel, stride, padding, size=size)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("stride", [1, 2])
    def test_float64_operands(self, kind, stride):
        self.check(kind, 3, stride, 1, dtype=np.float64)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_constant_input_at_stride_one(self, kind):
        self.check(kind, 3, 1, 1, x_grad=False)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("padding", PADDINGS)
    def test_recorded_forward_matches_naive_oracle(self, kind, kernel, stride, padding):
        x, w, b, groups, _ = self.operands(kind, kernel, (7, 5), np.float32, seed=53)
        out = T.conv2d(x, w, b, stride=stride, padding=padding, groups=groups)
        assert out._parents  # recorded
        cin_g, cout_g = x.shape[1] // groups, w.shape[0] // groups
        expected = np.concatenate(
            [
                naive_conv2d(
                    x.data[:, k * cin_g : (k + 1) * cin_g],
                    w.data[k * cout_g : (k + 1) * cout_g],
                    b.data[k * cout_g : (k + 1) * cout_g],
                    stride,
                    padding,
                )
                for k in range(groups)
            ],
            axis=1,
        )
        assert out.data.flags.c_contiguous
        np.testing.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-5)

    @staticmethod
    def held_arrays(fn):
        """Every array a closure reaches through its cells, the closures in
        them and the Tensors in them."""
        held = []
        for cell in fn.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, Tensor):
                value = value.data
            if isinstance(value, np.ndarray):
                held.append(value)
            elif callable(value) and getattr(value, "__closure__", None):
                held += TestConv2dBackward.held_arrays(value)
        return held

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("stride", [1, 2])
    def test_closure_holds_no_columns(self, kind, stride):
        x, w, b, groups, _ = self.operands(kind, 3, (16, 16), np.float32)
        out = T.conv2d(x, w, b, stride=stride, padding=1, groups=groups)
        held = [
            a
            for a in self.held_arrays(out._backward)
            if not any(np.shares_memory(a, t.data) for t in (x, w, b))
        ]
        # the backward cuts the phase planes and columns from x again: the
        # closure holds no array beyond its operands
        assert held == []

    def test_depthwise_input_gradient_bitwise_equal_to_matmul_form(self):
        rng = np.random.default_rng(51)
        c, stride, padding = 6, 2, 1
        x = Tensor(rng.normal(size=(2, c, 9, 9)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(c, 1, 3, 3)).astype(np.float32), requires_grad=True)
        out = T.conv2d(x, w, stride=stride, padding=padding, groups=c)
        g = rng.normal(size=out.shape).astype(np.float32)
        T.tsum(T.mul(out, Tensor(g))).backward()
        ho, wo = out.shape[2:]
        # the batched (c, 9, 1) @ (1, HW) matmul and tap scatter it replaced
        gcols = np.matmul(np.swapaxes(w.data.reshape(c, 1, 9), -1, -2), g.reshape(2, c, 1, ho * wo))
        gcols = gcols.reshape(2, c, 3, 3, ho, wo)
        gxp = np.zeros((2, c, 11, 11), dtype=np.float32)
        for i in range(3):
            for j in range(3):
                gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += gcols[
                    :, :, i, j
                ]
        assert np.array_equal(x.grad, gxp[:, :, 1:10, 1:10])

    def test_no_input_gradient_for_a_constant_input(self):
        rng = np.random.default_rng(52)
        x = Tensor(rng.normal(size=(1, 3, 6, 6)).astype(np.float32))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True)
        T.tsum(T.conv2d(x, w, stride=2, padding=1)).backward()
        assert x.grad is None and w.grad is not None


class TestFusedConvNorm:
    """``conv2d`` given ``norm`` (conv, training batch norm and SiLU as one
    op) against ``conv2d`` followed by ``batch_norm(act=...)``."""

    # (cin, cout, kernel, groups): dense 3x3, depthwise 3x3, pointwise
    KINDS = {"dense": (3, 5, 3, 1), "depthwise": (4, 4, 3, 4), "pointwise": (4, 6, 1, 1)}
    CASES = [(k, s, a) for k in sorted(KINDS) for s in (1, 2) for a in (False, True)]

    @classmethod
    def operands(cls, kind, stride, dtype=np.float32, seed=60):
        cin, cout, kernel, groups = cls.KINDS[kind]
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, cin, 7, 5)).astype(dtype)
        w = rng.normal(size=(cout, cin // groups, kernel, kernel)).astype(dtype)
        gamma = rng.uniform(0.5, 1.5, cout).astype(dtype)
        beta = rng.normal(0.0, 0.5, cout).astype(dtype)
        mean, var = rng.normal(0.0, 0.5, cout), rng.uniform(0.5, 2.0, cout)
        stats = [mean.astype(dtype), var.astype(dtype)]
        ho, wo = (7 - 1) // stride + 1, (5 - 1) // stride + 1
        r = rng.normal(size=(2, cout, ho, wo)).astype(dtype)
        return [x, w, gamma, beta], stats, r

    @classmethod
    def forward(cls, fused, kind, stride, act, leaves, stats):
        x, w, gamma, beta = leaves
        _, _, kernel, groups = cls.KINDS[kind]
        conv = dict(stride=stride, padding=kernel // 2, groups=groups)
        if fused:
            return T.conv2d(x, w, **conv, act=act, norm=(gamma, beta, *stats))
        return T.batch_norm(T.conv2d(x, w, **conv), gamma, beta, *stats, act=act)

    @classmethod
    def run(cls, fused, kind, stride, act, record=True):
        values, stats, r = cls.operands(kind, stride)
        leaves = [Tensor(v, requires_grad=True) for v in values]
        if not record:
            with T.no_grad():
                return cls.forward(fused, kind, stride, act, leaves, stats).data, stats, []
        out = cls.forward(fused, kind, stride, act, leaves, stats)
        T.tsum(T.mul(out, Tensor(r))).backward()
        return out.data, stats, [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("kind, stride, act", CASES)
    @pytest.mark.parametrize("record", [True, False])
    def test_bitwise_equal_to_conv_then_batch_norm(self, kind, stride, act, record):
        out, stats, grads = self.run(True, kind, stride, act, record)
        ref_out, ref_stats, ref_grads = self.run(False, kind, stride, act, record)
        assert out.dtype == np.float32 and np.array_equal(out, ref_out)
        for mine, theirs in zip(stats + grads, ref_stats + ref_grads):
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
        assert len(grads) == (4 if record else 0)

    def test_records_one_node(self):
        values, stats, _ = self.operands("dense", 1)
        leaves = [Tensor(v, requires_grad=True) for v in values]
        out = self.forward(True, "dense", 1, True, leaves, stats)
        assert out._parents == tuple(leaves)

    @pytest.mark.parametrize("kind, stride, act", CASES)
    def test_gradients_match_finite_differences(self, kind, stride, act):
        values, stats, r = self.operands(kind, stride, np.float64, seed=61)

        def loss_of(*operands):
            leaves = [Tensor(v, requires_grad=True) for v in operands]
            out = self.forward(True, kind, stride, act, leaves, [s.copy() for s in stats])
            return T.tsum(T.mul(out, Tensor(r))), leaves

        loss, leaves = loss_of(*values)
        loss.backward()
        h = 1e-6
        for which, leaf in enumerate(leaves):
            for idx in np.ndindex(leaf.shape):
                up = [v.copy() for v in values]
                down = [v.copy() for v in values]
                up[which][idx] += h
                down[which][idx] -= h
                with T.no_grad():
                    numeric = (loss_of(*up)[0].item() - loss_of(*down)[0].item()) / (2 * h)
                analytic = leaf.grad[idx]
                assert abs(analytic - numeric) <= 1e-6 * max(abs(numeric), 1.0), (which, idx)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("record", [True, False])
    def test_non_finite_conv_output_leaves_running_stats(self, kind, record):
        values, stats, _ = self.operands(kind, 1)
        values[0][1, 0, 3, 2] = np.nan
        before = [s.copy() for s in stats]
        leaves = [Tensor(v, requires_grad=record) for v in values]
        with pytest.raises(NumericError, match="conv2d"):
            self.forward(True, kind, 1, True, leaves, stats)
        for now, then in zip(stats, before):
            assert np.array_equal(now, then)


class TestChunkedConv:
    """A recorded conv cuts its columns for one chunk of whole images at a
    time, as many as fit in ``_TILE_BYTES``: output, running statistics and
    gradients are bitwise those of one chunk for the whole batch."""

    BATCH = 7
    # (channels, groups): dense 3x3 and depthwise 3x3, with as many output as
    # input channels, so the stride-1 input gradient's columns of g take as
    # many bytes per image as the forward's columns of x
    KINDS = {"dense": (4, 1), "depthwise": (4, 4)}
    # images per chunk: one, three (a short last chunk of one), the whole batch
    CHUNKS = {"one": 1, "three": 3, "whole": BATCH}

    @classmethod
    def operands(cls, kind, stride, dtype, seed=66):
        c, groups = cls.KINDS[kind]
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(cls.BATCH, c, 6, 5))
        w = rng.normal(size=(c, c // groups, 3, 3))
        bias, gamma, beta = rng.normal(size=c), rng.uniform(0.5, 1.5, c), rng.normal(0.0, 0.5, c)
        stats = [rng.normal(0.0, 0.5, c), rng.uniform(0.5, 2.0, c)]
        ho, wo = (6 - 1) // stride + 1, (5 - 1) // stride + 1
        r = rng.normal(size=(cls.BATCH, c, ho, wo))
        return [v.astype(dtype) for v in (x, w, bias, gamma, beta, *stats, r)]

    @classmethod
    def run(cls, monkeypatch, tile, kind, stride, norm, act, dtype):
        """Output, running statistics and gradients of one recorded conv with
        ``_TILE_BYTES`` set to ``tile``, and the batch size of every column
        cut."""
        x, w, bias, gamma, beta, mean, var, r = cls.operands(kind, stride, dtype)
        cut = []
        with monkeypatch.context() as m:
            flat_columns = T._flat_columns

            def recording(x, *args):
                cut.append(x.shape[0])
                return flat_columns(x, *args)

            m.setattr(T, "_flat_columns", recording)
            m.setattr(T, "_TILE_BYTES", tile)
            if norm:
                leaves = [Tensor(v, requires_grad=True) for v in (x, w, gamma, beta)]
                extra = dict(norm=(leaves[2], leaves[3], mean, var))
            else:
                leaves = [Tensor(v, requires_grad=True) for v in (x, w, bias)]
                extra = dict(bias=leaves[2])
            groups = cls.KINDS[kind][1]
            out = T.conv2d(leaves[0], leaves[1], stride=stride, padding=1, groups=groups, act=act, **extra)
            T.tsum(T.mul(out, Tensor(r))).backward()
        return [out.data] + ([mean, var] if norm else []) + [leaf.grad for leaf in leaves], cut

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("act", [False, True])
    @pytest.mark.parametrize("norm", [False, True])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("chunk", sorted(CHUNKS))
    def test_bitwise_equal_to_one_whole_batch_chunk(
        self, monkeypatch, chunk, kind, stride, norm, act, dtype
    ):
        c = self.KINDS[kind][0]
        ho, pitch = (6 - 1) // stride + 1, (5 - 1) // stride + 1 + 2 // stride
        image_bytes = c * 9 * ho * pitch * np.dtype(dtype).itemsize  # one image's columns
        images = self.CHUNKS[chunk]
        case = (kind, stride, norm, act, dtype)
        mine, cut = self.run(monkeypatch, images * image_bytes, *case)
        theirs, whole = self.run(monkeypatch, 1 << 40, *case)
        # forward, weight gradient and, at stride 1, input gradient
        sizes = [images] * (self.BATCH // images) + ([self.BATCH % images] if self.BATCH % images else [])
        passes = 3 if stride == 1 else 2
        assert cut == sizes * passes and whole == [self.BATCH] * passes
        assert len(mine) == len(theirs) == (7 if norm else 4)
        for a, b in zip(mine, theirs):
            assert a.dtype == b.dtype == dtype and np.array_equal(a, b)


class TestFlatRowDepthwise:
    """Unrecorded stride-1 convs with one output channel per group (taps
    summed in order over flat-row columns), against the recorded forward (one
    GEMM over the same columns)."""

    @staticmethod
    def conv_both(x, w, b, padding, groups):
        weight = Tensor(w, requires_grad=True)
        recorded = T.conv2d(Tensor(x), weight, b, padding=padding, groups=groups)
        assert recorded._parents  # the recorded kernel with its graph node
        with T.no_grad():
            flat = T.conv2d(Tensor(x), Tensor(w), b, padding=padding, groups=groups)
        return flat.data, recorded.data

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("size", [(5, 7), (1, 1), (8, 8)])
    def test_matches_im2col(self, dtype, batch, size):
        rng = np.random.default_rng(60)
        c = 5
        x = rng.normal(size=(batch, c) + size).astype(dtype)
        w = rng.normal(size=(c, 1, 3, 3)).astype(dtype)
        b = Tensor(rng.normal(size=c).astype(dtype))
        flat, im2col = self.conv_both(x, w, b, padding=1, groups=c)
        assert flat.dtype == dtype and flat.shape == im2col.shape == (batch, c) + size
        tol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(flat, im2col, rtol=tol, atol=tol)

    def test_bitwise_equal_to_taps_summed_in_order(self, monkeypatch):
        rng = np.random.default_rng(65)
        x = rng.normal(size=(2, 4, 6, 5)).astype(np.float32)
        w = rng.normal(size=(4, 1, 3, 3)).astype(np.float32)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        expected = xp[:, :, 0:6, 0:5] * w[:, 0, 0, 0].reshape(1, 4, 1, 1)
        for i, j in list(np.ndindex(3, 3))[1:]:
            expected = expected + xp[:, :, i : i + 6, j : j + 5] * w[:, 0, i, j].reshape(1, 4, 1, 1)
        # bytes of output per tile, for 6 x 5 float32 maps: three whole channel
        # maps (group blocks of 3 and 1), or 4 rows of one map (row blocks of 4 and 2)
        for tile in (3 * 6 * 5 * 4, 4 * 5 * 4):
            monkeypatch.setattr(T, "_TILE_BYTES", tile)
            nan = x.copy()
            nan[1, 3, -1, -1] = np.nan  # the last channel: read by the last group block only
            with T.no_grad():
                out = T.conv2d(Tensor(x), Tensor(w), padding=1, groups=4)
                assert np.array_equal(out.data, expected), tile
                with pytest.raises(NumericError, match="conv2d"):
                    T.conv2d(Tensor(nan), Tensor(w), padding=1, groups=4)

    def test_groups_of_two_inputs_and_wider_padding(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(2, 6, 7, 6)).astype(np.float64)
        w = rng.normal(size=(3, 2, 5, 5)).astype(np.float64)
        flat, im2col = self.conv_both(x, w, None, padding=2, groups=3)
        np.testing.assert_allclose(flat, im2col, rtol=1e-12, atol=1e-12)

    def test_batch_rows_bitwise_equal_to_single_images(self):
        rng = np.random.default_rng(62)
        x = rng.normal(size=(3, 48, 20, 20)).astype(np.float32)  # several group blocks
        w = Tensor(rng.normal(size=(48, 1, 3, 3)).astype(np.float32))
        with T.no_grad():
            batched = T.conv2d(Tensor(x), w, padding=1, groups=48).data
            single = [T.conv2d(Tensor(x[i : i + 1]), w, padding=1, groups=48) for i in range(3)]
        assert np.array_equal(batched, np.concatenate([s.data for s in single]))


class TestTiledConv:
    """Unrecorded convs (one tile kernel: a GEMM for 1x1, dense 3x3 and
    stride-2 depthwise, taps summed in order for stride-1 depthwise) against
    the recorded forward (one GEMM over flat-row columns)."""

    # (cin, cout, kernel, stride, groups)
    CASES = {
        "pointwise": (6, 10, 1, 1, 1),
        "dense-s1": (5, 7, 3, 1, 1),
        "dense-s2": (5, 7, 3, 2, 1),
        "depthwise-s1": (6, 6, 3, 1, 6),
        "depthwise-s2": (6, 6, 3, 2, 6),
    }
    # (input H x W, output rows of one group per tile, whole group maps per
    # tile): Ho = 9 or 5 in tiles of 2 rows leaves a short last tile; 4 of 6
    # depthwise maps per tile leaves a short last group block; a one-row map;
    # a map that fits one default tile
    MAPS = {
        "multi-tile": ((9, 7), 2, None),
        "group-blocks": ((9, 7), None, 4),
        "one-row": ((1, 5), None, None),
        "one-tile": ((4, 4), None, None),
    }

    @staticmethod
    def rows_per_tile(monkeypatch, rows, cout_g, wo, dtype):
        """Tiles of ``rows`` output rows of one group's map, or of whole group
        maps when ``rows`` is a multiple of the map's height."""
        monkeypatch.setattr(T, "_TILE_BYTES", rows * cout_g * wo * np.dtype(dtype).itemsize)

    @staticmethod
    def conv(x, w, b, stride, groups, act, record):
        padding = w.shape[2] // 2
        weight = Tensor(w, requires_grad=record)
        bias = Tensor(b, requires_grad=record)
        out = T.conv2d(Tensor(x), weight, bias, stride, padding, groups, act=act)
        assert bool(out._parents) == record
        return out.data

    @pytest.mark.parametrize("act", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("layout", sorted(MAPS))
    def test_matches_im2col(self, monkeypatch, act, dtype, case, layout):
        cin, cout, k, stride, groups = self.CASES[case]
        (h, w), rows, maps = self.MAPS[layout]
        rng = np.random.default_rng(66)
        x = rng.normal(size=(2, cin, h, w)).astype(dtype)
        wt = rng.normal(size=(cout, cin // groups, k, k)).astype(dtype)
        b = rng.normal(size=cout).astype(dtype)
        if rows or maps:
            rows = rows or maps * ((h - 1) // stride + 1)
            self.rows_per_tile(monkeypatch, rows, cout // groups, (w - 1) // stride + 1, dtype)
        tiles = []
        epilogue = T._epilogue

        def count_tiles(buf, *rest):
            tiles.append(buf.shape)
            return epilogue(buf, *rest)

        monkeypatch.setattr(T, "_epilogue", count_tiles)
        with T.no_grad():
            tiled = self.conv(x, wt, b, stride, groups, act, record=False)
        if layout == "multi-tile" or (layout == "group-blocks" and groups > 1):
            assert len(tiles) > 2  # more than one tile per image
        recorded = self.conv(x, wt, b, stride, groups, act, record=True)
        assert tiled.dtype == dtype and tiled.shape == recorded.shape
        tol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(tiled, recorded, rtol=tol, atol=tol)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_batch_rows_bitwise_equal_to_single_images(self, monkeypatch, case):
        cin, cout, k, stride, groups = self.CASES[case]
        rng = np.random.default_rng(67)
        x = rng.normal(size=(3, cin, 11, 6)).astype(np.float32)
        wt = rng.normal(size=(cout, cin // groups, k, k)).astype(np.float32)
        b = rng.normal(size=cout).astype(np.float32)
        self.rows_per_tile(monkeypatch, 3, cout // groups, (6 - 1) // stride + 1, np.float32)
        with T.no_grad():
            batched = self.conv(x, wt, b, stride, groups, True, record=False)
            single = [self.conv(x[i : i + 1], wt, b, stride, groups, True, False) for i in range(3)]
        assert np.array_equal(batched, np.concatenate(single))

    def test_padding_wider_than_the_kernel(self, monkeypatch):
        # one output row per tile, so some tiles read nothing but padding
        monkeypatch.setattr(T, "_TILE_BYTES", 1)
        rng = np.random.default_rng(74)
        x = rng.normal(size=(2, 3, 5, 4)).astype(np.float32)
        cases = [((4, 3, 1, 1), 3, 1), ((4, 3, 3, 3), 4, 1), ((3, 1, 3, 3), 3, 3)]
        for shape, pad, groups in cases:
            w = rng.normal(size=shape).astype(np.float32)
            weight = Tensor(w, requires_grad=True)
            recorded = T.conv2d(Tensor(x), weight, padding=pad, groups=groups)
            with T.no_grad():
                tiled = T.conv2d(Tensor(x), Tensor(w), padding=pad, groups=groups)
            np.testing.assert_allclose(tiled.data, recorded.data, rtol=1e-5, atol=1e-5)

    def test_act_equals_silu_of_conv_bitwise(self, monkeypatch):
        rng = np.random.default_rng(68)
        x = Tensor(rng.normal(size=(2, 5, 9, 7)).astype(np.float32))
        w = Tensor(rng.normal(size=(7, 5, 3, 3)).astype(np.float32))
        b = Tensor(rng.normal(size=7).astype(np.float32))
        b.data[:3] = (-100.0, -200.0, -1000.0)  # SiLU's exp overflows there, silently
        self.rows_per_tile(monkeypatch, 2, 7, 7, np.float32)
        with T.no_grad():
            fused = T.conv2d(x, w, b, padding=1, act=True)
            chained = silu(T.conv2d(x, w, b, padding=1))
        assert np.array_equal(fused.data, chained.data)
        assert np.array_equal(fused.data[:, 1:3], np.zeros((2, 2, 9, 7)))

    def test_recorded_act_equals_silu_of_conv(self):
        rng = np.random.default_rng(69)
        x = Tensor(rng.normal(size=(1, 3, 5, 5)).astype(np.float32))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True)
        fused = T.conv2d(x, w, padding=1, act=True)
        chained = silu(T.conv2d(x, w, padding=1))
        assert np.array_equal(fused.data, chained.data)
        T.tsum(fused).backward()
        grad = w.grad.copy()
        w.zero_grad()
        T.tsum(chained).backward()
        assert np.array_equal(grad, w.grad)


class TestLeanLinear:
    """Linear, recorded or not: one GEMM against a view of the weight, fused epilogue."""

    @pytest.mark.parametrize("act", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_recorded_chain(self, act, dtype):
        # the recorded op runs the same numpy: bitwise
        rng = np.random.default_rng(70)
        x = rng.normal(size=(3, 5, 8)).astype(dtype)
        w = rng.normal(size=(6, 8)).astype(dtype)
        b = rng.normal(size=6).astype(dtype)
        recorded = T.linear(Tensor(x), Tensor(w, requires_grad=True), Tensor(b), act=act)
        assert recorded._parents
        with T.no_grad():
            lean = T.linear(Tensor(x), Tensor(w), Tensor(b), act=act)
        assert lean._parents == () and lean.shape == (3, 5, 6)
        assert np.array_equal(lean.data, recorded.data)

    def test_act_equals_silu_of_linear_bitwise(self):
        rng = np.random.default_rng(71)
        x, w, b = (Tensor(rng.normal(size=s).astype(np.float32)) for s in ((4, 9), (5, 9), (5,)))
        with T.no_grad():
            assert np.array_equal(T.linear(x, w, b, act=True).data, silu(T.linear(x, w, b)).data)

    def test_leaves_weight_unchanged(self):
        rng = np.random.default_rng(72)
        w = rng.normal(size=(5, 9)).astype(np.float32)
        weight, bias = Tensor(w.copy()), Tensor(np.ones(5, dtype=np.float32))
        with T.no_grad():
            T.linear(Tensor(rng.normal(size=(4, 9)).astype(np.float32)), weight, bias, act=True)
        assert np.array_equal(weight.data, w) and (bias.data == 1.0).all()


class TestFusedFiniteCheck:
    """Fusion keeps every finite check: a NaN in the last piece still raises."""

    @pytest.mark.parametrize("kernel, stride, groups", [(1, 1, 1), (3, 1, 1), (3, 2, 4), (3, 1, 4)])
    def test_last_tile_of_tiled_conv(self, monkeypatch, kernel, stride, groups):
        # 2 output rows of 4 channels x 8 columns; depthwise, two whole 7 x 4
        # maps at stride 2 and one 7 x 8 map at stride 1
        monkeypatch.setattr(T, "_TILE_BYTES", 2 * 4 * 8 * 4)
        x = np.ones((2, 4, 14 if stride == 2 else 7, 8), dtype=np.float32)
        w = Tensor(np.full((4, 4 // groups, kernel, kernel), 0.1, dtype=np.float32))
        def conv(a):
            return T.conv2d(Tensor(a), w, None, stride, kernel // 2, groups, act=True)

        with T.no_grad():
            conv(x)
            x[1, 3, -1, -1] = np.nan  # the last input row: read by the last tile
            with pytest.raises(NumericError, match="conv2d"):
                conv(x)

    def test_fused_linear(self):
        x = np.ones((3, 4, 5), dtype=np.float32)
        x[2, 3, 4] = np.nan
        w = Tensor(np.full((6, 5), 0.1, dtype=np.float32))
        with T.no_grad(), pytest.raises(NumericError, match="linear"):
            T.linear(Tensor(x), w, Tensor(np.zeros(6, dtype=np.float32)), act=True)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("recorded", [False, True])
    def test_attention_score_nan_or_overflow_raises(self, score, recorded):
        q = np.ones((1, 3, 4), dtype=np.float32)
        k = np.ones((1, 3, 4), dtype=np.float32)
        if score == "nan":
            q[0, 2, 1] = np.nan
        else:
            # 1e20 * 1e20 overflows float32; a -inf score would softmax to a silent 0
            q[0, 2] = 1e20
            k[0, 1] = 1e20 if score == "inf" else -1e20
        leaves = [Tensor(a, requires_grad=recorded) for a in (q, k, np.ones_like(q))]
        with pytest.raises(NumericError, match="attention"):
            T._attend(*leaves, heads=2)

    @pytest.mark.parametrize("recorded", [False, True])
    def test_softmax_and_attention_leave_inputs_unchanged(self, recorded):
        # the score scale is folded into fresh copies of wq and bq, never into them
        rng = np.random.default_rng(73)
        attn = MultiHeadAttention(4).train(recorded)
        for p in attn.parameters():
            p.data[...] = rng.normal(size=p.shape)
        arrays = [rng.normal(size=(2, 5, 4)).astype(np.float32) for _ in range(3)]
        arrays += [p.data for p in attn.parameters()]
        before = [a.copy() for a in arrays]
        x, k, v = (Tensor(a, requires_grad=recorded) for a in arrays[:3])
        outs = [softmax(x), attn(x), T._attend(x, k, v, heads=2)]
        assert all(bool(out._parents) == recorded for out in outs)
        for now, then in zip(arrays, before):
            assert np.array_equal(now, then)


class TestInPlaceEpilogues:
    """Unrecorded silu and the conv bias add give the bits of the old expressions."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_unrecorded_silu(self, dtype):
        a = np.random.default_rng(63).normal(0.0, 3.0, size=(4, 5, 6)).astype(dtype)
        with T.no_grad():
            out = silu(Tensor(a, requires_grad=True))
        assert out._parents == ()
        assert np.array_equal(out.data, a * (1.0 / (1.0 + np.exp(-a))))

    @pytest.mark.parametrize("groups, stride", [(1, 1), (1, 2), (4, 1), (4, 2)])
    def test_conv_bias(self, groups, stride):
        rng = np.random.default_rng(64)
        x = Tensor(rng.normal(size=(2, 4, 7, 7)).astype(np.float32))
        w = Tensor(rng.normal(size=(4, 4 // groups, 3, 3)).astype(np.float32))
        b = rng.normal(size=4).astype(np.float32)
        for recorded in (False, True):
            weight = Tensor(w.data, requires_grad=recorded)
            plain = T.conv2d(x, weight, stride=stride, padding=1, groups=groups).data
            biased = T.conv2d(x, weight, Tensor(b), stride=stride, padding=1, groups=groups).data
            assert np.array_equal(biased, plain + b.reshape(1, 4, 1, 1))


class TestAccumulate:
    def test_owned_buffer_taken_over_when_dtype_matches(self):
        t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        buf = np.ones(3, dtype=np.float32)
        t._accumulate(buf, owned=True)
        assert t.grad is buf
        t._accumulate(np.ones(3, dtype=np.float32), owned=True)
        np.testing.assert_array_equal(t.grad, 2.0)

    def test_copied_when_not_owned_or_other_dtype(self):
        for buf, owned in ((np.ones(3, dtype=np.float32), False), (np.ones(3), True)):
            t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
            t._accumulate(buf, owned=owned)
            assert t.grad.dtype == np.float32 and not np.shares_memory(t.grad, buf)

    def test_aliased_gradients_stay_separate(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        b = Tensor(np.arange(4.0), requires_grad=True)
        c = Tensor(np.arange(4.0), requires_grad=True)
        # add hands the same g to both operands; mul's products are fresh
        T.tsum(T.mul(T.add(a, b), c)).backward()
        assert not np.shares_memory(a.grad, b.grad)
        np.testing.assert_array_equal(a.grad, c.data)
        np.testing.assert_array_equal(b.grad, c.data)
        np.testing.assert_array_equal(c.grad, a.data + b.data)

    def test_operand_used_twice(self):
        x = Tensor(np.arange(1.0, 4.0), requires_grad=True)
        T.tsum(matmul(reshape(x, (3, 1)), reshape(x, (1, 3)))).backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data.sum())


class TestFusedLayerNorm:
    @staticmethod
    def operands(dtype, seed=70):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.5, 2.0, size=(3, 4, 6)).astype(dtype)
        gamma = rng.uniform(0.5, 1.5, 6).astype(dtype)
        beta = rng.normal(0.0, 0.5, 6).astype(dtype)
        weights = rng.normal(size=x.shape).astype(dtype)
        return x, gamma, beta, weights

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_op_bitwise_equal_to_chain(self, dtype):
        x, gamma, beta, _ = self.operands(dtype)
        out = T.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta))
        chain = chained_layer_norm(Tensor(x), Tensor(gamma), Tensor(beta))
        assert out.dtype == dtype
        assert np.array_equal(out.data, chain.data)

    def test_records_one_node(self):
        x, gamma, beta, _ = self.operands(np.float32)
        leaves = [Tensor(v, requires_grad=True) for v in (x, gamma, beta)]
        assert T.layer_norm(*leaves)._parents == tuple(leaves)

    def test_gradients_match_chain(self):
        x, gamma, beta, weights = self.operands(np.float32)
        grads = []
        for norm in (T.layer_norm, chained_layer_norm):
            leaves = [Tensor(v, requires_grad=True) for v in (x, gamma, beta)]
            out = norm(*leaves)
            T.tsum(T.mul(T.mul(out, out), Tensor(weights))).backward()
            grads.append([leaf.grad for leaf in leaves])
        for fused, chained in zip(*grads):
            np.testing.assert_allclose(fused, chained, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("x_requires_grad", [True, False])
    def test_gradients_match_finite_differences(self, x_requires_grad):
        x0, gamma0, beta0, weights = self.operands(np.float64, seed=71)
        operands = [x0, gamma0, beta0]

        def loss_of(x, gamma, beta):
            leaves = [
                Tensor(x, requires_grad=x_requires_grad),
                Tensor(gamma, requires_grad=True),
                Tensor(beta, requires_grad=True),
            ]
            out = T.layer_norm(*leaves)
            return T.tsum(T.mul(T.mul(out, out), Tensor(weights))), leaves

        loss, leaves = loss_of(*operands)
        loss.backward()
        if not x_requires_grad:
            assert leaves[0].grad is None
        h = 1e-6
        for which, leaf in enumerate(leaves):
            if not leaf.requires_grad:
                continue
            for idx in np.ndindex(leaf.shape):
                up = [v.copy() for v in operands]
                down = [v.copy() for v in operands]
                up[which][idx] += h
                down[which][idx] -= h
                numeric = (loss_of(*up)[0].item() - loss_of(*down)[0].item()) / (2 * h)
                analytic = leaf.grad[idx]
                assert abs(analytic - numeric) <= 1e-6 * max(abs(numeric), 1.0), (which, idx)


def smoothed_target(logits, seed=93):
    """A fixed target distribution for [B, K] logits: one label per row, smoothed."""
    batch, k = logits.shape
    target = np.full((batch, k), 0.1 / k, dtype=logits.dtype)
    target[np.arange(batch), np.random.default_rng(seed).integers(0, k, batch)] += 0.9
    return target


class TestOneNodeOps:
    """``linear``, attention's ``_attend``, the patch folds, the pooling, the
    loss and a conv with ``act``: one recorded node each, against the op
    chains they replace."""

    # name: (fused, chain, operand shapes, bitwise); linear's GEMM is one
    # call over all rows against a transposed view, the chain's a batched
    # matmul against a copy, so only the other ops share the chain's op
    # order and keep its bits, forward and backward. Every linear case has a
    # bias (a linear always does): "linear" and "linear-bias-act" take 2-D
    # rows, the other two a 3-D batch
    CASES = {
        "linear": (T.linear, chained_linear, [(6, 5), (4, 5), (4,)], False),
        "linear-bias": (T.linear, chained_linear, [(2, 3, 5), (4, 5), (4,)], False),
        "linear-act": (
            lambda x, w, b: T.linear(x, w, b, act=True),
            lambda x, w, b: chained_linear(x, w, b, act=True),
            [(2, 3, 5), (4, 5), (4,)],
            False,
        ),
        "linear-bias-act": (
            lambda x, w, b: T.linear(x, w, b, act=True),
            lambda x, w, b: chained_linear(x, w, b, act=True),
            [(6, 5), (4, 5), (4,)],
            False,
        ),
        "unfold": (
            lambda x: T.unfold_patches(x, 2, 2),
            lambda x: chained_unfold(x, 2, 2),
            [(2, 3, 4, 6)],
            True,
        ),
        "fold": (
            lambda x: T.fold_patches(x, 2, 2, (2, 3, 4, 6)),
            lambda x: chained_fold(x, 2, 2, (2, 3, 4, 6)),
            [(8, 6, 3)],
            True,
        ),
        "attend": (
            lambda q, k, v: T._attend(q, k, v, heads=2),
            lambda q, k, v: chained_attend(q, k, v, heads=2),
            [(2, 4, 6)] * 3,
            True,
        ),
        "global-avg-pool": (T.global_avg_pool, chained_global_avg_pool, [(2, 3, 4, 5)], True),
        "cross-entropy": (
            lambda x: T.cross_entropy(x, smoothed_target(x)),
            lambda x: chained_cross_entropy(x, smoothed_target(x)),
            [(6, 5)],
            True,
        ),
        "conv-act": (
            lambda x, w, b: T.conv2d(x, w, b, padding=1, act=True),
            lambda x, w, b: chained_conv_act(x, w, b, padding=1),
            [(2, 3, 5, 4), (4, 3, 3, 3), (4,)],
            True,
        ),
    }

    @classmethod
    def operands(cls, case, dtype, seed=90):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=shape).astype(dtype) for shape in cls.CASES[case][2]]

    @staticmethod
    def loss(out, seed=91):
        weights = np.random.default_rng(seed).normal(size=out.shape).astype(out.dtype)
        return T.tsum(T.mul(T.mul(out, out), Tensor(weights)))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_records_one_node(self, case):
        leaves = [Tensor(a, requires_grad=True) for a in self.operands(case, np.float32)]
        out = self.CASES[case][0](*leaves)
        assert out._parents == tuple(leaves)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_forward_matches_chain(self, case, dtype):
        fused, chain, _, bitwise = self.CASES[case]
        arrays = self.operands(case, dtype)
        out = fused(*(Tensor(a, requires_grad=True) for a in arrays))
        expected = chain(*(Tensor(a, requires_grad=True) for a in arrays))
        assert out.dtype == dtype and out.shape == expected.shape
        if bitwise:
            assert np.array_equal(out.data, expected.data)
        else:
            tol = 1e-6 if dtype == np.float32 else 1e-14
            np.testing.assert_allclose(out.data, expected.data, rtol=tol, atol=tol)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_gradients_match_chain(self, case):
        arrays = self.operands(case, np.float32)
        grads = []
        for op in self.CASES[case][:2]:
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            self.loss(op(*leaves)).backward()
            grads.append([leaf.grad for leaf in leaves])
        for mine, theirs in zip(*grads):
            if self.CASES[case][3]:
                assert np.array_equal(mine, theirs)
            else:
                np.testing.assert_allclose(mine, theirs, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_gradients_match_finite_differences(self, case):
        fused = self.CASES[case][0]
        arrays = self.operands(case, np.float64, seed=92)

        def loss_of(values):
            leaves = [Tensor(a, requires_grad=True) for a in values]
            return self.loss(fused(*leaves)), leaves

        loss, leaves = loss_of(arrays)
        loss.backward()
        h = 1e-6
        for which, leaf in enumerate(leaves):
            for idx in np.ndindex(leaf.shape):
                up = [a.copy() for a in arrays]
                down = [a.copy() for a in arrays]
                up[which][idx] += h
                down[which][idx] -= h
                numeric = (loss_of(up)[0].item() - loss_of(down)[0].item()) / (2 * h)
                analytic = leaf.grad[idx]
                assert abs(analytic - numeric) <= 1e-6 * max(abs(numeric), 1.0), (which, idx)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_no_gradient_for_constant_inputs(self, case):
        # the first `constant` operands do not require grad: x, then weight
        # or k, so attention's q and k together
        arrays = self.operands(case, np.float32)
        for constant in range(1, len(arrays) + 1):
            leaves = [Tensor(a, requires_grad=i >= constant) for i, a in enumerate(arrays)]
            out = self.CASES[case][0](*leaves)
            if constant == len(arrays):
                assert out._parents == ()  # nothing requires grad: nothing is recorded
                continue
            self.loss(out).backward()
            expected = [i < constant for i in range(len(leaves))]
            assert [leaf.grad is None for leaf in leaves] == expected
