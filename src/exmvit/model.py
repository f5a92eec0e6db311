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
from fractions import Fraction

import numpy as np

from . import tensor as T
from .backbone import Backbone
from .config import VariantConfig, expand_width
from .layers import Conv2d, Linear, Module
from .tensor import Tensor


@dataclass(frozen=True)
class ShortcutSpec:
    block_index: int  # 1-based
    rho: Fraction
    in_channels: int

    def __post_init__(self):
        if not 1 <= self.block_index <= 5:
            raise ValueError(f"block_index {self.block_index} out of range 1..5")
        if self.rho <= 0:
            raise ValueError(f"shortcut for block {self.block_index} needs rho > 0")
        width = Fraction(self.rho) * self.in_channels
        if width.denominator != 1:
            raise ValueError(
                f"block {self.block_index}: rho={self.rho} of {self.in_channels} channels "
                f"is not an integer width"
            )

    @property
    def out_channels(self) -> int:
        return int(Fraction(self.rho) * self.in_channels)


@dataclass(frozen=True)
class ClassifierSpec:
    input_width: int
    class_count: int


class ExShortcut(Module):
    """Pointwise conv (channels x rho) + SiLU + global average pooling."""

    def __init__(self, rng, spec: ShortcutSpec):
        super().__init__()
        self.spec = spec
        self.pointwise = Conv2d(rng, spec.in_channels, spec.out_channels, 1, bias=True)

    def forward(self, feature: Tensor) -> Tensor:
        if feature.shape[1] != self.spec.in_channels:
            raise T.ShapeError(
                f"shortcut {self.spec.block_index}: expected {self.spec.in_channels} "
                f"channels, got {feature.shape[1]}"
            )
        return T.global_avg_pool(self.pointwise(feature, act=True))


class ExMobileViT(Module):
    """Backbone + active shortcut branches + widened linear classifier."""

    def __init__(self, rng, config: VariantConfig):
        super().__init__()
        self.config = config
        self.backbone = Backbone(rng, config.backbone)
        specs = []
        for k, (rho, channels) in enumerate(zip(config.rho, config.block_channels), start=1):
            if rho > 0:
                specs.append(ShortcutSpec(k, rho, channels))
        if not specs:
            raise ValueError("at least one shortcut ratio must be positive")
        self.shortcut_specs = specs
        self.shortcuts = [ExShortcut(rng, s) for s in specs]
        width = expand_width(config.rho, config.block_channels)
        total = sum(s.out_channels for s in specs)
        assert total == width, f"classifier width {total} != expand_width {width}"
        self.classifier_spec = ClassifierSpec(width, config.class_count)
        self.classifier = Linear(rng, width, config.class_count)

    def assemble_classifier_input(self, features: list[Tensor]) -> Tensor:
        """Run every active shortcut and concatenate in ascending block order."""
        parts = [
            shortcut(features[spec.block_index - 1])
            for spec, shortcut in zip(self.shortcut_specs, self.shortcuts)
        ]
        return T.concat(parts, axis=1)

    def classify(self, classifier_input: Tensor) -> Tensor:
        if classifier_input.shape[1] != self.classifier_spec.input_width:
            raise T.ShapeError(
                f"classifier expects width {self.classifier_spec.input_width}, "
                f"got {classifier_input.shape[1]}"
            )
        return self.classifier(classifier_input)

    def forward(self, x: Tensor) -> Tensor:
        features = self.backbone.forward_collect(x)
        return self.classify(self.assemble_classifier_input(features))


class MobileViTS(Module):
    """Directly assembled baseline: backbone, final 1x1 expansion conv,
    global pooling, classifier. Used to witness that the shortcut model with
    baseline ratios is the same network."""

    def __init__(self, rng, config: VariantConfig):
        super().__init__()
        if any(r != 0 for r in config.rho[:4]) or config.rho[4] <= 0:
            raise ValueError("baseline construction requires rho=(0,0,0,0,r5)")
        self.config = config
        self.backbone = Backbone(rng, config.backbone)
        c5 = config.block_channels[4]
        width = int(Fraction(config.rho[4]) * c5)
        self.final_conv = Conv2d(rng, c5, width, 1, bias=True)
        self.classifier = Linear(rng, width, config.class_count)

    def forward(self, x: Tensor) -> Tensor:
        feat = self.backbone(x)
        pooled = T.global_avg_pool(self.final_conv(feat, act=True))
        return self.classifier(pooled)


def build_model(config: VariantConfig, seed: int) -> ExMobileViT:
    return ExMobileViT(np.random.default_rng(seed), config)


def build_mobilevit_s(config: VariantConfig, seed: int) -> MobileViTS:
    return MobileViTS(np.random.default_rng(seed), config)
