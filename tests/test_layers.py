import numpy as np
import pytest

from exmvit import tensor as T
from exmvit.layers import BatchNorm2d, ConvNormAct, Linear
from exmvit.tensor import Tensor


def randomized_block(seed, cin, cout, kernel, stride, groups, act):
    """An eval-mode ConvNormAct whose norm has non-trivial statistics."""
    rng = np.random.default_rng(seed)
    block = ConvNormAct(rng, cin, cout, kernel, stride=stride, groups=groups, act=act)
    norm = block.norm
    norm.running_mean[:] = rng.normal(0.0, 0.5, cout)
    norm.running_var[:] = rng.uniform(0.5, 2.0, cout)
    norm.gamma.data[:] = rng.uniform(0.5, 1.5, cout)
    norm.beta.data[:] = rng.normal(0.0, 0.2, cout)
    return block.eval(), rng


class TestConvNormFold:
    """Eval ConvNormAct folds its norm into the conv at call time."""

    # (cin, cout, kernel, stride, groups, act): pointwise, dense 3x3 stride 2,
    # depthwise stride 1 (the flat-row kernel) and stride 2, projection without act
    CASES = [
        (6, 8, 1, 1, 1, True),
        (3, 8, 3, 2, 1, True),
        (8, 8, 3, 1, 8, True),
        (8, 8, 3, 2, 8, True),
        (8, 4, 1, 1, 1, False),
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_conv_then_eval_batch_norm(self, case):
        cin, cout, kernel, stride, groups, act = case
        block, rng = randomized_block(80, *case)
        x = rng.normal(size=(2, cin, 9, 9)).astype(np.float32)
        out = block(Tensor(x))
        norm, conv = block.norm, block.conv
        with T.no_grad():
            y = T.conv2d(
                Tensor(x), conv.weight, stride=stride, padding=conv.padding, groups=groups
            ).data
        c = (1, cout, 1, 1)
        ref = (y - norm.running_mean.reshape(c)) / np.sqrt(norm.running_var.reshape(c) + T.NORM_EPS)
        ref = ref * norm.gamma.data.reshape(c) + norm.beta.data.reshape(c)
        if act:
            ref = ref / (1.0 + np.exp(-ref))
        assert out.dtype == np.float32 and out.shape == ref.shape
        # float32: the fold rounds weight * scale once instead of conv(x) * scale
        np.testing.assert_allclose(out.data, ref, rtol=1e-5, atol=1e-5)
        assert out._parents == ()

    def test_eval_call_does_not_run_the_norm(self):
        block, rng = randomized_block(84, 8, 8, 3, 1, 8, True)
        calls = []
        forward = block.norm.forward
        block.norm.forward = lambda x, act=False: calls.append(x.shape) or forward(x, act=act)
        block(Tensor(rng.normal(size=(1, 8, 6, 6)).astype(np.float32)))
        assert calls == []
        block.train()(Tensor(rng.normal(size=(2, 8, 6, 6)).astype(np.float32)))
        assert calls == [(2, 8, 6, 6)]

    def test_leaves_input_weights_and_statistics_unchanged(self):
        block, rng = randomized_block(81, 8, 8, 3, 1, 8, True)
        x = rng.normal(size=(1, 8, 6, 6)).astype(np.float32)
        state = [x, block.conv.weight.data, block.norm.gamma.data, block.norm.beta.data]
        state += [block.norm.running_mean, block.norm.running_var]
        before = [a.copy() for a in state]
        block(Tensor(x))
        for now, then in zip(state, before):
            assert np.array_equal(now, then)
        assert block.conv.weight.grad is None and block.norm.gamma.grad is None

    def test_train_mode_still_normalizes_with_batch_statistics(self):
        block, rng = randomized_block(82, 6, 8, 1, 1, 1, False)
        block.train()
        x = Tensor(rng.normal(2.0, 3.0, size=(4, 6, 5, 5)).astype(np.float32))
        out = block(x).data
        norm = block.norm
        centred = (out - norm.beta.data.reshape(1, -1, 1, 1)) / norm.gamma.data.reshape(1, -1, 1, 1)
        np.testing.assert_allclose(centred.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
        np.testing.assert_allclose(centred.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_train_call_records_conv_then_one_norm_node(self):
        block, rng = randomized_block(86, 8, 8, 3, 1, 8, True)
        out = block.train()(Tensor(rng.normal(size=(2, 8, 6, 6)).astype(np.float32)))
        conv_out, gamma, beta = out._parents
        assert gamma is block.norm.gamma and beta is block.norm.beta
        assert conv_out._parents[1] is block.conv.weight


class TestBatchNorm2dTrainOnly:
    def test_eval_call_raises_and_leaves_statistics_unchanged(self):
        rng = np.random.default_rng(85)
        norm = BatchNorm2d(4)
        norm.running_mean[:] = rng.normal(0.0, 0.5, 4)
        norm.running_var[:] = rng.uniform(0.5, 2.0, 4)
        before = (norm.running_mean.copy(), norm.running_var.copy())
        x = Tensor(rng.normal(size=(2, 4, 3, 3)).astype(np.float32))
        with pytest.raises(RuntimeError, match="train mode only"):
            norm.eval()(x)
        assert np.array_equal(norm.running_mean, before[0])
        assert np.array_equal(norm.running_var, before[1])
        norm.train()(x)
        assert not np.array_equal(norm.running_mean, before[0])

    def test_nan_input_raises_and_leaves_statistics_unchanged(self):
        rng = np.random.default_rng(86)
        norm = BatchNorm2d(4).train()
        before = (norm.running_mean.copy(), norm.running_var.copy())
        x = rng.normal(size=(2, 4, 3, 3)).astype(np.float32)
        x[0, 1, 2, 2] = np.nan
        with pytest.raises(T.NumericError):
            norm(Tensor(x))
        assert np.array_equal(norm.running_mean, before[0])
        assert np.array_equal(norm.running_var, before[1])


class TestFusedActivation:
    """Eval ConvNormAct and Linear(act=True) run SiLU inside the op, with the
    bits of the op followed by ``T.silu``."""

    @pytest.mark.parametrize("case", [c for c in TestConvNormFold.CASES if c[-1]])
    def test_eval_conv_norm_act_equals_conv_then_silu(self, case):
        block, rng = randomized_block(90, *case)
        x = Tensor(rng.normal(size=(2, case[0], 9, 9)).astype(np.float32))
        n = block.norm
        scale = n.gamma.data * (1.0 / np.sqrt(n.running_var + T.NORM_EPS))
        shift = n.beta.data - n.running_mean * scale
        with T.no_grad():
            expected = T.silu(block.conv(x, scale, shift))
        assert np.array_equal(block(x).data, expected.data)

    @pytest.mark.parametrize("training", [False, True])
    def test_linear_act_equals_linear_then_silu(self, training):
        rng = np.random.default_rng(91)
        layer = Linear(rng, 8, 12).train(training)
        layer.bias.data[:] = rng.normal(size=12)
        x = Tensor(rng.normal(size=(3, 5, 8)).astype(np.float32))
        fused = layer(x, act=True)
        expected = T.silu(layer(x))
        assert bool(fused._parents) == training
        assert np.array_equal(fused.data, expected.data)
