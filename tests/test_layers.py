import numpy as np
import pytest

from exmvit import tensor as T
from exmvit.config import REGISTRY, resolve_variant
from exmvit.layers import (
    CHUNK,
    BatchNorm2d,
    ConvNormAct,
    Linear,
    init_weights,
    kaiming_normal,
    trunc_normal,
)
from exmvit.model import ExMobileViT, build_mobilevit_s, build_model
from exmvit.tensor import Tensor

from chains import silu


def randomized_block(seed, cin, cout, kernel, stride, groups, act):
    """An eval-mode ConvNormAct whose norm has non-trivial statistics."""
    block = ConvNormAct(cin, cout, kernel, stride=stride, groups=groups, act=act)
    init_weights(block, seed)
    rng = np.random.default_rng(seed + 1)
    norm = block.norm
    norm.running_mean[:] = rng.normal(0.0, 0.5, cout)
    norm.running_var[:] = rng.uniform(0.5, 2.0, cout)
    norm.gamma.data[:] = rng.uniform(0.5, 1.5, cout)
    norm.beta.data[:] = rng.normal(0.0, 0.2, cout)
    return block.eval(), rng


class TestConvNormFold:
    """Eval ConvNormAct folds its norm into the conv at call time."""

    # (cin, cout, kernel, stride, groups, act): pointwise, dense 3x3 stride 2,
    # depthwise stride 1 (taps summed in order) and stride 2, projection without act
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
        # nor does a train call: the norm runs inside the conv's op
        block.train()(Tensor(rng.normal(size=(2, 8, 6, 6)).astype(np.float32)))
        assert calls == []

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

    def test_train_call_records_one_node(self):
        block, rng = randomized_block(86, 8, 8, 3, 1, 8, True)
        x = Tensor(rng.normal(size=(2, 8, 6, 6)).astype(np.float32))
        out = block.train()(x)
        conv, norm = block.conv, block.norm
        assert out._parents == (x, conv.weight, norm.gamma, norm.beta)
        assert out._backward.__qualname__.startswith("conv2d.")


class TestBatchNorm2dNeverCalled:
    @pytest.mark.parametrize("training", [False, True])
    def test_call_raises_and_leaves_statistics_unchanged(self, training):
        # its conv runs the norm: inside the conv's op in train mode, folded
        # into the conv's weight and bias in eval mode
        rng = np.random.default_rng(85)
        norm = BatchNorm2d(4).train(training)
        norm.running_mean[:] = rng.normal(0.0, 0.5, 4)
        norm.running_var[:] = rng.uniform(0.5, 2.0, 4)
        before = (norm.running_mean.copy(), norm.running_var.copy())
        x = Tensor(rng.normal(size=(2, 4, 3, 3)).astype(np.float32))
        with pytest.raises(RuntimeError, match="not called"):
            norm(x)
        assert np.array_equal(norm.running_mean, before[0])
        assert np.array_equal(norm.running_var, before[1])


class TestFusedActivation:
    """Eval ConvNormAct and Linear(act=True) run SiLU inside the op, with the
    bits of the op followed by ``chains.silu``."""

    @pytest.mark.parametrize("case", [c for c in TestConvNormFold.CASES if c[-1]])
    def test_eval_conv_norm_act_equals_conv_then_silu(self, case):
        block, rng = randomized_block(90, *case)
        x = Tensor(rng.normal(size=(2, case[0], 9, 9)).astype(np.float32))
        with T.no_grad():
            expected = silu(block.conv(x, norm=block.norm))
        assert np.array_equal(block(x).data, expected.data)

    @pytest.mark.parametrize("training", [False, True])
    def test_linear_act_equals_linear_then_silu(self, training):
        layer = init_weights(Linear(8, 12), 91).train(training)
        rng = np.random.default_rng(92)
        layer.bias.data[:] = rng.normal(size=12)
        x = Tensor(rng.normal(size=(3, 5, 8)).astype(np.float32))
        fused = layer(x, act=True)
        expected = silu(layer(x))
        assert bool(fused._parents) == training
        assert np.array_equal(fused.data, expected.data)


def whole_trunc_normal(rng, shape):
    """The whole-array rejection loop: one float64 draw of the full shape,
    then every rejected value redrawn in index order until none is left.
    Returns the result and the number of redraw rounds."""
    std = 0.02
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    rounds = 0
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
        rounds += 1
    return out.astype(np.float32), rounds


SHAPES = [(), (7,), (2, 0, 3), (3, 5), (CHUNK,), (CHUNK + 1,), (3, CHUNK // 2 + 5)]


class TestChunkedInit:
    """Initialisers fill the given array in place, drawing in chunks of CHUNK
    float64 values, with the bits and the generator state of a whole-array draw."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_kaiming_normal_equals_whole_draw(self, shape, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = np.zeros(shape, np.float32)
        kaiming_normal(rng, got, fan_out=27)
        expected = ref.normal(0.0, np.sqrt(2.0 / 27), shape).astype(np.float32)
        assert np.array_equal(got.view(np.uint32), expected.view(np.uint32))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_trunc_normal_equals_whole_rejection_loop(self, shape, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = np.zeros(shape, np.float32)
        trunc_normal(rng, got)
        expected, _ = whole_trunc_normal(ref, shape)
        assert np.array_equal(got.view(np.uint32), expected.view(np.uint32))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert (np.abs(got) <= np.float32(0.04)).all()

    @pytest.mark.parametrize("seed, shape", [(261, (20,)), (9, (CHUNK + 1,))])
    def test_trunc_normal_over_several_rejection_rounds(self, seed, shape):
        expected, rounds = whole_trunc_normal(np.random.default_rng(seed), shape)
        assert rounds >= 3
        got = np.zeros(shape, np.float32)
        trunc_normal(np.random.default_rng(seed), got)
        assert np.array_equal(got.view(np.uint32), expected.view(np.uint32))


def whole_draws(model, seed):
    """The initial weights drawn whole: every rank-2+ parameter in
    ``named_parameters`` order from one generator, a conv kernel as one
    float64 normal draw of std sqrt(2 / fan-out), a matrix by the whole-array
    rejection loop."""
    rng = np.random.default_rng(seed)
    modules = dict(model.modules())
    expected = {}
    for name, p in model.named_parameters():
        if p.ndim == 4:
            cout, _, kh, kw = p.shape
            fan_out = cout * kh * kw // modules[name.rpartition(".")[0]].groups
            expected[name] = rng.normal(0.0, np.sqrt(2.0 / fan_out), p.shape).astype(np.float32)
        elif p.ndim == 2:
            expected[name] = whole_trunc_normal(rng, p.shape)[0]
    return expected


def assert_constants(model):
    """Biases and norm shifts hold zeros; norm scales and running variances ones."""
    state = {n: p.data for n, p in model.named_parameters()} | dict(model.named_buffers())
    for name, value in state.items():
        if value.ndim < 2:
            assert (value == float(name.endswith((".gamma", ".running_var")))).all(), name


class TestInitWeights:
    """``init_weights`` gives the bits of whole-array draws in canonical order,
    and a constructed model holds only constants until it is drawn."""

    @pytest.mark.parametrize("name", [n for n in REGISTRY if n.endswith("-tiny")])
    def test_build_model_equals_whole_draws(self, name):
        self.check(build_model(resolve_variant(name), 3), 3)

    def test_build_mobilevit_s_equals_whole_draws(self):
        self.check(build_mobilevit_s(resolve_variant("mobilevit-s-tiny"), 3), 3)

    @staticmethod
    def check(model, seed):
        expected = whole_draws(model, seed)
        drawn = {n: p.data for n, p in model.named_parameters() if p.ndim >= 2}
        assert drawn.keys() == expected.keys()
        for name, value in drawn.items():
            assert np.array_equal(value.view(np.uint32), expected[name].view(np.uint32)), name
        assert_constants(model)

    def test_constructed_model_holds_only_constants(self):
        model = ExMobileViT(resolve_variant("exmvit-928-tiny"))
        for name, p in model.named_parameters():
            if p.ndim >= 2:
                assert not p.data.any(), name
        assert_constants(model)
