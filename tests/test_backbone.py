import numpy as np
import pytest

from exmvit import tensor as T
from exmvit.audit import block_output_shapes, trace_shapes
from exmvit.backbone import Backbone, MV2Block, MobileViTBlock
from exmvit.config import TINY_PROFILE, resolve_variant
from exmvit.layers import init_weights
from exmvit.model import build_model
from exmvit.tensor import ShapeError, Tensor

from chains import silu


def mv2_param_oracle(cin, cout, exp):
    """Per-layer enumeration: expand 1x1 + BN, depthwise 3x3 + BN, project 1x1 + BN."""
    hidden = cin * exp
    expand = cin * hidden + 2 * hidden
    depthwise = hidden * 9 + 2 * hidden
    project = hidden * cout + 2 * cout
    return expand + depthwise + project


class TestMV2Block:
    def test_zero_weights_pure_residual(self):
        block = init_weights(MV2Block(8, 8, 1), 0)
        for p in block.parameters():
            if p.ndim == 4:  # conv weights only; norms keep gamma=1
                p.data[...] = 0.0
        x = Tensor(np.random.default_rng(1).normal(size=(2, 8, 8, 8)).astype(np.float32))
        out = block.eval()(x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_stride_two_halves_spatial(self):
        block = MV2Block(4, 8, 2)
        x = Tensor(np.zeros((1, 4, 64, 64), dtype=np.float32))
        assert block.eval()(x).shape == (1, 8, 32, 32)
        # the same module in a tiny model: block1 leaves 4x64x64 at input 128
        rows = dict(trace_shapes(build_model(resolve_variant("mobilevit-s-tiny"), seed=0), 128))
        assert rows["block1.0.mv2"] == (1, 4, 64, 64)
        assert rows["block2.0.mv2"] == (1, 8, 32, 32)

    def test_param_count_oracle(self):
        block = MV2Block(64, 96, 1)
        total = sum(p.size for p in block.parameters())
        assert total == mv2_param_oracle(64, 96, 4)

    def test_channel_mismatch(self):
        block = MV2Block(4, 8, 1)
        with pytest.raises(ShapeError):
            block(Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32)))

    def test_residual_rule(self):
        assert MV2Block(8, 8, 1).residual
        assert not MV2Block(8, 8, 2).residual
        assert not MV2Block(8, 16, 1).residual


class TestMobileViTBlock:
    def test_preserves_shape(self):
        block = MobileViTBlock(8, 12, 1).eval()
        x = Tensor(np.random.default_rng(2).normal(size=(2, 8, 8, 8)).astype(np.float32))
        assert block(x).shape == x.shape

    def test_degenerate_depth_zero_is_conv_path(self):
        block = init_weights(MobileViTBlock(8, 12, 0), 0).eval()
        x = Tensor(np.random.default_rng(3).normal(size=(1, 8, 4, 4)).astype(np.float32))
        out = block(x)
        # same result from composing the convolutional pieces directly
        local = block.local_proj(block.local_conv(x))
        restored = block.unproj(local)
        expected = block.fusion(T.concat([x, restored], axis=1))
        np.testing.assert_array_equal(out.data, expected.data)

    def test_matches_primitive_composition_oracle(self):
        block = init_weights(MobileViTBlock(8, 12, 1), 0).eval()
        x = Tensor(np.random.default_rng(4).normal(size=(1, 8, 4, 4)).astype(np.float32))
        out = block(x)

        local = block.local_proj(block.local_conv(x))
        seq = T.unfold_patches(local, 2, 2)
        layer = block.transformer[0]
        seq = T.add(seq, layer.attn(layer.norm1(seq)))
        seq = T.add(seq, layer.ffn2(silu(layer.ffn1(layer.norm2(seq)))))
        seq = block.out_norm(seq)
        folded = T.fold_patches(seq, 2, 2, (1, 12, 4, 4))
        expected = block.fusion(T.concat([x, block.unproj(folded)], axis=1))
        np.testing.assert_allclose(out.data, expected.data, atol=1e-5)

    def test_divisibility_error(self):
        block = MobileViTBlock(8, 12, 1)
        with pytest.raises(ShapeError):
            block(Tensor(np.zeros((1, 8, 5, 4), dtype=np.float32)))


class TestBackbone:
    def test_block_channels(self):
        cfg = resolve_variant("mobilevit-s")
        model = build_model(cfg, seed=0)
        channels = []
        for block in model.backbone.blocks:
            last = block[-1]
            conv = last.project.conv if isinstance(last, MV2Block) else last.fusion.conv
            channels.append(conv.weight.shape[0])
        assert channels == [32, 64, 96, 128, 160]

    def test_downsampling_module_first_in_each_block(self):
        backbone = Backbone(TINY_PROFILE)
        for block in backbone.blocks[1:]:
            first = block[0]
            assert isinstance(first, MV2Block) and first.depthwise.conv.stride == 2
        assert backbone.blocks[0][0].depthwise.conv.stride == 1  # block1 downsampling is the stem
        assert backbone.stem.conv.stride == 2

    def test_forward_collect_spatial_sides(self):
        backbone = Backbone(TINY_PROFILE).eval()
        x = Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32))
        feats = backbone.forward_collect(x)
        assert [f.shape[2] for f in feats] == [32, 16, 8, 4, 2]
        assert [f.shape[1] for f in feats] == list(TINY_PROFILE.block_channels)

    def test_forward_collect_rejects_indivisible(self):
        backbone = Backbone(TINY_PROFILE)
        with pytest.raises(ShapeError):
            backbone.forward_collect(Tensor(np.zeros((1, 3, 50, 64), dtype=np.float32)))

    def test_batch_independence_bitwise(self):
        backbone = init_weights(Backbone(TINY_PROFILE), 0).eval()
        img = np.random.default_rng(5).normal(size=(1, 3, 64, 64)).astype(np.float32)
        x = Tensor(np.concatenate([img, img], axis=0))
        feats = backbone.forward_collect(x)
        for f in feats:
            assert np.array_equal(f.data[0], f.data[1])

    def test_repeatability_bitwise(self):
        backbone = init_weights(Backbone(TINY_PROFILE), 0).eval()
        x = Tensor(np.random.default_rng(6).normal(size=(1, 3, 64, 64)).astype(np.float32))
        a = backbone.forward_collect(x)
        b = backbone.forward_collect(x)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.data, fb.data)

    def test_each_block_halves_once(self):
        model = build_model(resolve_variant("mobilevit-s-tiny"), seed=0)
        block_sides = [shape[2] for shape in block_output_shapes(model, 64)]
        assert block_sides == [32, 16, 8, 4, 2]
        trace = dict(trace_shapes(model, 64))
        assert trace["stem"][2] == 32
        assert [trace[f"block{k}.0.mv2"][2] for k in range(2, 6)] == [16, 8, 4, 2]

    def test_residual_eligibility_structural(self):
        backbone = Backbone(TINY_PROFILE)
        for _, module in backbone.modules():
            if isinstance(module, MV2Block):
                cin = module.expand.conv.weight.shape[1]
                cout = module.project.conv.weight.shape[0]
                stride = module.depthwise.conv.stride
                assert module.residual == (stride == 1 and cin == cout)
