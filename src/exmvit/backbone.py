"""MobileViT-S style backbone: a stem plus five blocks, each halving the
spatial extent once, the last three ending in a local-global-local
transformer operator. Per-block outputs are collected so shortcut branches
can tap them.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .config import BackboneProfile
from .layers import Conv2d, ConvNormAct, LayerNorm, Module, TransformerLayer
from .tensor import ShapeError, Tensor


@dataclass(frozen=True)
class Mv2Spec:
    in_channels: int
    out_channels: int
    stride: int
    expansion_factor: int = 4

    @property
    def use_residual(self) -> bool:
        return self.stride == 1 and self.in_channels == self.out_channels


@dataclass(frozen=True)
class MobileVitBlockSpec:
    channels: int
    transformer_dim: int
    transformer_depth: int
    heads: int
    ffn_dim: int
    patch: tuple[int, int]


class MV2Block(Module):
    """Inverted residual: 1x1 expand, depthwise 3x3, 1x1 linear project."""

    def __init__(self, rng, spec: Mv2Spec):
        super().__init__()
        self.spec = spec
        hidden = spec.in_channels * spec.expansion_factor
        self.expand = ConvNormAct(rng, spec.in_channels, hidden, 1)
        self.depthwise = ConvNormAct(rng, hidden, hidden, 3, stride=spec.stride, groups=hidden)
        self.project = ConvNormAct(rng, hidden, spec.out_channels, 1, act=False)

    def forward(self, x):
        out = self.project(self.depthwise(self.expand(x)))
        if self.spec.use_residual:
            out = T.add(out, x)
        return out


class MobileViTBlock(Module):
    """Local conv encoding, transformer over unfolded patches, conv fusion.

    Spatial extent and channel count are preserved.
    """

    def __init__(self, rng, spec: MobileVitBlockSpec):
        super().__init__()
        self.spec = spec
        c, d = spec.channels, spec.transformer_dim
        self.local_conv = ConvNormAct(rng, c, c, 3)
        self.local_proj = Conv2d(rng, c, d, 1, bias=False)
        self.transformer = [
            TransformerLayer(rng, d, spec.heads, spec.ffn_dim)
            for _ in range(spec.transformer_depth)
        ]
        self.out_norm = LayerNorm(d)
        self.unproj = ConvNormAct(rng, d, c, 1)
        self.fusion = ConvNormAct(rng, 2 * c, c, 3)

    def forward(self, x):
        ph, pw = self.spec.patch
        b, c, h, w = x.shape
        local = self.local_proj(self.local_conv(x))
        d = self.spec.transformer_dim
        seq = T.unfold_patches(local, ph, pw)
        for layer in self.transformer:
            seq = layer(seq)
        if self.transformer:
            seq = self.out_norm(seq)
        folded = T.fold_patches(seq, ph, pw, (b, d, h, w))
        restored = self.unproj(folded)
        return self.fusion(T.concat([x, restored], axis=1))


class Backbone(Module):
    """Stem + five blocks; block k output is the feature map tapped by the
    k-th shortcut."""

    def __init__(self, rng, profile: BackboneProfile):
        super().__init__()
        self.profile = profile
        ch = profile.block_channels
        stem = profile.stem_channels
        exp = profile.mv2_expansion
        dims = profile.transformer_dims
        depths = profile.transformer_depths

        self.stem = ConvNormAct(rng, 3, stem, 3, stride=2)
        self.block1 = [MV2Block(rng, Mv2Spec(stem, ch[0], 1, exp))]
        self.block2 = [
            MV2Block(rng, Mv2Spec(ch[0], ch[1], 2, exp)),
            MV2Block(rng, Mv2Spec(ch[1], ch[1], 1, exp)),
            MV2Block(rng, Mv2Spec(ch[1], ch[1], 1, exp)),
        ]
        self.block3 = [
            MV2Block(rng, Mv2Spec(ch[1], ch[2], 2, exp)),
            self._vit(rng, ch[2], dims[0], depths[0]),
        ]
        self.block4 = [
            MV2Block(rng, Mv2Spec(ch[2], ch[3], 2, exp)),
            self._vit(rng, ch[3], dims[1], depths[1]),
        ]
        self.block5 = [
            MV2Block(rng, Mv2Spec(ch[3], ch[4], 2, exp)),
            self._vit(rng, ch[4], dims[2], depths[2]),
        ]

    def _vit(self, rng, channels, dim, depth):
        p = self.profile
        spec = MobileVitBlockSpec(channels, dim, depth, p.heads, p.ffn_mult * dim, p.patch)
        return MobileViTBlock(rng, spec)

    @property
    def blocks(self):
        return [self.block1, self.block2, self.block3, self.block4, self.block5]

    def forward_collect(self, x: Tensor) -> list[Tensor]:
        """Run the stem and all five blocks, returning each block's output."""
        _, _, h, w = x.shape
        if h % 32 or w % 32:
            raise ShapeError(f"input spatial extent {h}x{w} must be divisible by 32")
        x = self.stem(x)
        features = []
        for block in self.blocks:
            for module in block:
                x = module(x)
            features.append(x)
        return features

    def forward(self, x):
        return self.forward_collect(x)[-1]
