"""MobileViT-S with channel-expansion shortcuts into the classifier."""

from .config import REGISTRY, VariantConfig, resolve_variant
from .model import ExMobileViT, build_mobilevit_s, build_model
from .tensor import Tensor

__all__ = [
    "REGISTRY",
    "VariantConfig",
    "resolve_variant",
    "ExMobileViT",
    "build_model",
    "build_mobilevit_s",
    "Tensor",
]
