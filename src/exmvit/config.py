"""Variant registry: the single source of truth for shortcut ratios,
channel widths, and scale profiles.

Shortcut ratios are kept as exact rationals so channel-width integrality is
checked without float drift.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from fractions import Fraction

NUM_BLOCKS = 5
# Most float32 values (1 GiB) that one input image, the shortcut convs and
# classifier together, or a synthetic training set may hold. Every
# registered variant's head needs under a million.
MAX_VALUES = 1 << 28


class ConfigError(ValueError):
    pass


def input_size_violation(size: int) -> str | None:
    """Why an input side of ``size`` pixels cannot run the backbone, or None.

    The stem and blocks 2-5 halve the map five times, and block 5's map
    (size / 32) must split into 2x2 patches, so a side is a positive
    multiple of 64. Config validation, the backbone's forward and the audit
    trace all ask this one function."""
    if size <= 0:
        return f"{size} must be a positive multiple of 32"
    if size % 32:
        return f"{size} not divisible by 32"
    if size % 64:
        side = size // 32
        return f"{size} not divisible by 64: block 5's {side}x{side} map cannot split into 2x2 patches"
    return None


@dataclass(frozen=True)
class BackboneProfile:
    """Scale-dependent backbone dimensions shared by every variant. Heads,
    patch, MV2 expansion and feed-forward width are the same at every scale:
    they are constants of ``exmvit.backbone``."""

    stem_channels: int
    block_channels: tuple[int, int, int, int, int]
    transformer_dims: tuple[int, int, int]
    transformer_depths: tuple[int, int, int]
    class_count: int
    input_size: int


IMAGENET_PROFILE = BackboneProfile(
    stem_channels=16,
    block_channels=(32, 64, 96, 128, 160),
    transformer_dims=(144, 192, 240),
    transformer_depths=(2, 4, 3),
    class_count=1000,
    input_size=256,
)

# 1/8-width shallow mirror for desk-scale training and gradient checks; the
# shortcut ratios are ratios, so they carry over unchanged.
TINY_PROFILE = BackboneProfile(
    stem_channels=2,
    block_channels=(4, 8, 12, 16, 20),
    transformer_dims=(16, 16, 16),
    transformer_depths=(1, 1, 1),
    class_count=8,
    input_size=64,
)

PROFILES = {"imagenet": IMAGENET_PROFILE, "tiny": TINY_PROFILE}


@dataclass(frozen=True)
class VariantConfig:
    """A registered or custom variant. Construction checks every invariant
    but the early-shortcut rule and raises ConfigError naming each
    violation, so ``dataclasses.replace`` re-checks too."""

    name: str
    rho: tuple[Fraction, Fraction, Fraction, Fraction, Fraction]
    profile: str = "imagenet"
    class_count: int | None = None
    input_size: int | None = None

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ConfigError(f"unknown profile {self.profile!r}")
        prof = PROFILES[self.profile]
        object.__setattr__(self, "rho", tuple(Fraction(r) for r in self.rho))
        if self.class_count is None:
            object.__setattr__(self, "class_count", prof.class_count)
        if self.input_size is None:
            object.__setattr__(self, "input_size", prof.input_size)
        violations = self._violations()
        if violations:
            raise ConfigError("; ".join(violations))

    @property
    def backbone(self) -> BackboneProfile:
        return PROFILES[self.profile]

    @property
    def block_channels(self) -> tuple[int, ...]:
        """The profile's per-block channel counts; the backbone builds exactly these."""
        return self.backbone.block_channels

    @property
    def widths(self) -> tuple[int, ...]:
        """Shortcut width rho_k * C_k of each block, 0 where it has none."""
        return tuple(int(r * c) for r, c in zip(self.rho, self.block_channels))

    @property
    def classifier_width(self) -> int:
        return sum(self.widths)

    def _violations(self) -> list[str]:
        if len(self.rho) != NUM_BLOCKS:
            return [f"rho must have {NUM_BLOCKS} entries, got {len(self.rho)}"]
        for key in ("class_count", "input_size"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                return [f"{key} must be an integer, got {value!r}"]
        violations = []
        for k, r in enumerate(self.rho, start=1):
            if r < 0:
                violations.append(f"rho_{k} is negative")
        for k, (r, c) in enumerate(zip(self.rho, self.block_channels), start=1):
            if r > 0 and (r * c).denominator != 1:
                violations.append(f"rho_{k}={r} gives fractional width for {c} channels")
        if all(r == 0 for r in self.rho):
            violations.append("at least one rho must be positive")
        size_violation = input_size_violation(self.input_size)
        if size_violation:
            violations.append(f"input_size {size_violation}")
        elif 3 * self.input_size**2 > MAX_VALUES:
            violations.append(f"input_size {self.input_size}: an image exceeds {MAX_VALUES} values")
        if self.class_count < 1:
            violations.append("class_count must be positive")
        if not violations:
            head = sum(w * c for w, c in zip(self.widths, self.block_channels))
            head += self.classifier_width * self.class_count
            if head > MAX_VALUES:
                violations.append(
                    f"shortcut and classifier weights ({head}) exceed {MAX_VALUES} "
                    f"(1 GiB of float32); lower rho or class_count"
                )
        return violations

    def to_json(self) -> str:
        doc = {
            "name": self.name,
            "rho": [str(r) for r in self.rho],
            "block_channels": list(self.block_channels),
            "class_count": self.class_count,
            "input_size": self.input_size,
            "profile": self.profile,
        }
        return json.dumps(doc, indent=2)


_CONFIG_FIELDS = {"name", "rho", "block_channels", "class_count", "input_size", "profile"}

# a rho string: an integer, a ratio such as "4/3" or a decimal; no exponent,
# which Fraction would expand into an integer of that many digits
_RHO_STRING = re.compile(r"\s*[+-]?(\d+(/\d+)?|\d*\.\d+)\s*")


def _rho_entry(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"rho entry {value!r} is not a number or a string")
    if isinstance(value, str) and _RHO_STRING.fullmatch(value) is None:
        raise ConfigError(f"rho entry {value!r} is not an integer, ratio or decimal")
    try:
        return Fraction(value)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ConfigError(f"rho entry {value!r} is not a finite rational ({exc})") from None


def _check_early_shortcuts(cfg: VariantConfig, allow: bool) -> VariantConfig:
    if not allow and (cfg.rho[0] != 0 or cfg.rho[1] != 0):
        raise ConfigError("rho_1 and rho_2 must be 0 (early blocks only down-sample)")
    return cfg


def config_from_json(text: str | bytes, allow_early_shortcuts: bool = False) -> VariantConfig:
    """Parse and validate a config document; anything malformed raises ConfigError."""
    try:
        doc = json.loads(text)
    except (TypeError, ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON ({type(exc).__name__}: {exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config is a {type(doc).__name__}, not an object")
    unknown = set(doc) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    missing = {"name", "rho"} - set(doc)
    if missing:
        raise ConfigError(f"missing config fields: {sorted(missing)}")
    for key in ("name", "profile"):
        if not isinstance(doc.get(key, ""), str):
            raise ConfigError(f"config field {key!r} must be a string")
    if not isinstance(doc["rho"], list):
        raise ConfigError(f"rho must be a list, got a {type(doc['rho']).__name__}")
    cfg = VariantConfig(
        name=doc["name"],
        rho=tuple(_rho_entry(r) for r in doc["rho"]),
        profile=doc.get("profile", "imagenet"),
        class_count=doc.get("class_count"),
        input_size=doc.get("input_size"),
    )
    if "block_channels" in doc and doc["block_channels"] != list(cfg.block_channels):
        raise ConfigError(
            f"block_channels {doc['block_channels']} differ from the {cfg.profile} profile's "
            f"{list(cfg.block_channels)}; block widths are fixed by the profile"
        )
    return _check_early_shortcuts(cfg, allow_early_shortcuts)


def _registry() -> dict[str, VariantConfig]:
    frac = Fraction
    rhos = {
        "mobilevit-s": (0, 0, 0, 0, 4),
        "exmvit-576": (0, 0, frac(1, 3), frac(1, 2), 3),
        "exmvit-640": (0, 0, frac(1, 3), 1, 3),
        "exmvit-704": (0, 0, frac(1, 3), frac(1, 4), 4),
        "exmvit-864": (0, 0, 1, 1, 4),
        "exmvit-928": (0, 0, frac(4, 3), frac(5, 4), 4),
    }
    reg = {}
    for name, rho in rhos.items():
        reg[name] = VariantConfig(name=name, rho=tuple(Fraction(r) for r in rho))
        tiny = f"{name}-tiny"
        reg[tiny] = VariantConfig(name=tiny, rho=tuple(Fraction(r) for r in rho), profile="tiny")
    return reg


REGISTRY: dict[str, VariantConfig] = _registry()


def resolve_variant(
    name: str, overrides: dict | None = None, allow_early_shortcuts: bool = False
) -> VariantConfig:
    """Look up a registered variant, optionally overriding class_count,
    input_size, profile, or rho (see ``apply_overrides``)."""
    if name not in REGISTRY:
        raise ConfigError(f"unknown variant {name!r}; registered: {', '.join(REGISTRY)}")
    return apply_overrides(REGISTRY[name], overrides, allow_early_shortcuts)


def apply_overrides(
    cfg: VariantConfig, overrides: dict | None = None, allow_early_shortcuts: bool = False
) -> VariantConfig:
    """``cfg`` with class_count, input_size, profile, or rho overridden, and
    re-checked; ``allow_early_shortcuts`` lifts the early-shortcut rule."""
    overrides = dict(overrides or {})
    bad = set(overrides) - {"class_count", "input_size", "profile", "rho"}
    if bad:
        raise ConfigError(f"unsupported overrides: {sorted(bad)}")
    if "profile" in overrides and "class_count" not in overrides:
        overrides["class_count"] = None
    if "profile" in overrides and "input_size" not in overrides:
        overrides["input_size"] = None
    return _check_early_shortcuts(replace(cfg, **overrides), allow_early_shortcuts)
