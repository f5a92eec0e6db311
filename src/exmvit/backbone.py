"""MobileViT-S style backbone: a stem plus five blocks, each halving the
spatial extent once, the last three ending in a local-global-local
transformer operator. Per-block outputs are collected so shortcut branches
can tap them. The profile sets the widths and transformer sizes; the
constants below are MobileViT-S's, which ExMobileViT keeps at every scale.
"""

from __future__ import annotations

from . import tensor as T
from .config import BackboneProfile, input_size_violation
from .layers import Conv2d, ConvNormAct, LayerNorm, Module, TransformerLayer
from .tensor import ShapeError, Tensor

PATCH = (2, 2)  # patch height and width of the unfold
MV2_EXPANSION = 4  # hidden channels of an MV2 block per input channel


class MV2Block(Module):
    """Inverted residual: 1x1 expand, depthwise 3x3, 1x1 linear project."""

    def __init__(self, cin, cout, stride):
        super().__init__()
        self.residual = stride == 1 and cin == cout
        hidden = cin * MV2_EXPANSION
        self.expand = ConvNormAct(cin, hidden, 1)
        self.depthwise = ConvNormAct(hidden, hidden, 3, stride=stride, groups=hidden)
        self.project = ConvNormAct(hidden, cout, 1, act=False)

    def forward(self, x):
        out = self.project(self.depthwise(self.expand(x)))
        if self.residual:
            out = T.add(out, x)
        return out


class MobileViTBlock(Module):
    """Local conv encoding, transformer over unfolded patches, conv fusion.

    Spatial extent and channel count are preserved.
    """

    def __init__(self, channels, dim, depth):
        super().__init__()
        self.local_conv = ConvNormAct(channels, channels, 3)
        self.local_proj = Conv2d(channels, dim, 1, bias=False)
        self.transformer = [TransformerLayer(dim) for _ in range(depth)]
        self.out_norm = LayerNorm(dim)
        self.unproj = ConvNormAct(dim, channels, 1)
        self.fusion = ConvNormAct(2 * channels, channels, 3)

    def forward(self, x):
        ph, pw = PATCH
        b, _, h, w = x.shape
        local = self.local_proj(self.local_conv(x))
        d = local.shape[1]
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

    def __init__(self, profile: BackboneProfile):
        super().__init__()
        ch = profile.block_channels
        stem = profile.stem_channels
        dims = profile.transformer_dims
        depths = profile.transformer_depths

        self.stem = ConvNormAct(3, stem, 3, stride=2)
        self.block1 = [MV2Block(stem, ch[0], 1)]
        self.block2 = [
            MV2Block(ch[0], ch[1], 2),
            MV2Block(ch[1], ch[1], 1),
            MV2Block(ch[1], ch[1], 1),
        ]
        self.block3 = [MV2Block(ch[1], ch[2], 2), MobileViTBlock(ch[2], dims[0], depths[0])]
        self.block4 = [MV2Block(ch[2], ch[3], 2), MobileViTBlock(ch[3], dims[1], depths[1])]
        self.block5 = [MV2Block(ch[3], ch[4], 2), MobileViTBlock(ch[4], dims[2], depths[2])]

    @property
    def blocks(self):
        return [self.block1, self.block2, self.block3, self.block4, self.block5]

    def forward_collect(self, x: Tensor) -> list[Tensor]:
        """Run the stem and all five blocks, returning each block's output."""
        _, _, h, w = x.shape
        violation = input_size_violation(h) or input_size_violation(w)
        if violation:
            raise ShapeError(f"input spatial extent {h}x{w}: {violation}")
        x = self.stem(x)
        features = []
        for block in self.blocks:
            for module in block:
                x = module(x)
            features.append(x)
        return features

    def forward(self, x):
        return self.forward_collect(x)[-1]
