"""Channel-expansion shortcuts and the widened classifier.

Each active block k gets a branch: pointwise convolution scaling the block's
channel count by rho_k, SiLU, then global average pooling. The per-branch
vectors are concatenated in ascending block order and fed to a single
fully-connected classifier. The block-5 branch doubles as the baseline's
final 1x1 expansion convolution, so rho=(0,0,0,0,4) reduces the model to a
plain MobileViT-S.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .backbone import Backbone
from .config import VariantConfig
from .layers import Conv2d, Linear, Module, init_weights
from .tensor import Tensor


@dataclass(frozen=True)
class ShortcutSpec:
    block_index: int  # 1-based
    in_channels: int
    out_channels: int


class ExShortcut(Module):
    """Pointwise conv (channels x rho) + SiLU + global average pooling."""

    def __init__(self, spec: ShortcutSpec):
        super().__init__()
        self.pointwise = Conv2d(spec.in_channels, spec.out_channels, 1, bias=True)

    def forward(self, feature: Tensor) -> Tensor:
        return T.global_avg_pool(self.pointwise(feature, act=True))


class ExMobileViT(Module):
    """Backbone + active shortcut branches + widened linear classifier."""

    def __init__(self, config: VariantConfig):
        super().__init__()
        self.config = config
        self.backbone = Backbone(config.backbone)
        self.shortcut_specs = [
            ShortcutSpec(k, channels, width)
            for k, (channels, width) in enumerate(zip(config.block_channels, config.widths), 1)
            if width
        ]
        self.shortcuts = [ExShortcut(s) for s in self.shortcut_specs]
        self.classifier = Linear(config.classifier_width, config.class_count)

    def assemble_classifier_input(self, features: list[Tensor]) -> Tensor:
        """Run every active shortcut and concatenate in ascending block order."""
        parts = [
            shortcut(features[spec.block_index - 1])
            for spec, shortcut in zip(self.shortcut_specs, self.shortcuts)
        ]
        return T.concat(parts, axis=1)

    def forward(self, x: Tensor) -> Tensor:
        features = self.backbone.forward_collect(x)
        return self.classifier(self.assemble_classifier_input(features))


class MobileViTS(Module):
    """Directly assembled baseline: backbone, final 1x1 expansion conv,
    global pooling, classifier. Used to witness that the shortcut model with
    baseline ratios is the same network."""

    def __init__(self, config: VariantConfig):
        super().__init__()
        if any(r != 0 for r in config.rho[:4]) or config.rho[4] <= 0:
            raise ValueError("baseline construction requires rho=(0,0,0,0,r5)")
        self.config = config
        self.backbone = Backbone(config.backbone)
        width = config.widths[4]
        self.final_conv = Conv2d(config.block_channels[4], width, 1, bias=True)
        self.classifier = Linear(width, config.class_count)

    def forward(self, x: Tensor) -> Tensor:
        feat = self.backbone(x)
        pooled = T.global_avg_pool(self.final_conv(feat, act=True))
        return self.classifier(pooled)


def build_model(config: VariantConfig, seed: int) -> ExMobileViT:
    return init_weights(ExMobileViT(config), seed)


def build_mobilevit_s(config: VariantConfig, seed: int) -> MobileViTS:
    return init_weights(MobileViTS(config), seed)
