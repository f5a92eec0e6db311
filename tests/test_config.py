import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from exmvit.audit import trace_shapes
from exmvit.config import (
    MAX_VALUES,
    ConfigError,
    REGISTRY,
    VariantConfig,
    apply_overrides,
    config_from_json,
    resolve_variant,
)
from exmvit.model import ExMobileViT
from exmvit.tensor import ShapeError, Tensor

IMAGENET_VARIANTS = ["mobilevit-s", "exmvit-576", "exmvit-640", "exmvit-704", "exmvit-864", "exmvit-928"]


class TestResolve:
    def test_rho_tables(self):
        assert resolve_variant("exmvit-928").rho == (0, 0, Fraction(4, 3), Fraction(5, 4), 4)
        assert resolve_variant("exmvit-864").rho == (0, 0, 1, 1, 4)
        assert resolve_variant("exmvit-704").rho == (0, 0, Fraction(1, 3), Fraction(1, 4), 4)
        assert resolve_variant("exmvit-640").rho == (0, 0, Fraction(1, 3), 1, 3)
        assert resolve_variant("exmvit-576").rho == (0, 0, Fraction(1, 3), Fraction(1, 2), 3)
        assert resolve_variant("mobilevit-s").rho == (0, 0, 0, 0, 4)

    def test_unknown_variant_names_alternatives(self):
        with pytest.raises(ConfigError, match="mobilevit-s"):
            resolve_variant("exmvit-999")

    def test_name_suffix_equals_width(self):
        for name in IMAGENET_VARIANTS:
            cfg = resolve_variant(name)
            if name.startswith("exmvit"):
                assert int(name.split("-")[1]) == cfg.classifier_width

    def test_profile_override(self):
        cfg = resolve_variant("exmvit-928", {"profile": "tiny"})
        assert cfg.block_channels == (4, 8, 12, 16, 20)
        assert cfg.class_count == 8
        assert cfg.input_size == 64

    def test_tiny_mirrors_registered(self):
        for name in IMAGENET_VARIANTS:
            assert f"{name}-tiny" in REGISTRY
            tiny = resolve_variant(f"{name}-tiny")
            assert tiny.rho == resolve_variant(name).rho

    def test_rho_override_revalidated(self):
        with pytest.raises(ConfigError):
            resolve_variant("exmvit-864", {"rho": (1, 0, 0, 0, 4)})
        cfg = resolve_variant("exmvit-864", {"rho": (1, 0, 0, 0, 4)}, allow_early_shortcuts=True)
        assert cfg.rho[0] == 1
        # the option is a keyword, not an overrides key
        with pytest.raises(ConfigError, match="unsupported overrides"):
            resolve_variant("exmvit-864", {"allow_early_shortcuts": True})


class TestValidate:
    """A VariantConfig checks itself when it is built."""

    def test_registered_variants_valid(self):
        for name, cfg in REGISTRY.items():
            assert dataclasses.replace(cfg) == cfg, name

    def test_fractional_width_violation(self):
        with pytest.raises(ConfigError, match="fractional"):
            VariantConfig(name="bad", rho=(0, 0, Fraction(1, 7), 0, 4))

    def test_input_size_divisibility(self):
        with pytest.raises(ConfigError, match="not divisible by 32"):
            VariantConfig(name="bad", rho=(0, 0, 0, 0, 4), input_size=250)

    @pytest.mark.parametrize("size", [0, -32, -64])
    def test_input_size_must_be_positive(self, size):
        with pytest.raises(ConfigError, match="positive multiple of 32"):
            VariantConfig(name="bad", rho=(0, 0, 0, 0, 4), input_size=size)
        with pytest.raises(ConfigError):
            resolve_variant("exmvit-576-tiny", {"input_size": size})

    @pytest.mark.parametrize("size", [32, 96, 160, 224])
    def test_input_size_must_split_into_block5_patches(self, size):
        # block 5's map is size / 32 on a side and unfolds into 2x2 patches:
        # config, audit trace and forward refuse a multiple of 32 alone alike
        message = f"{size} not divisible by 64"
        with pytest.raises(ConfigError, match=f"input_size {message}"):
            resolve_variant("exmvit-928", {"input_size": size})
        model = ExMobileViT(resolve_variant("exmvit-928-tiny"))
        with pytest.raises(ValueError, match=f"input_size {message}"):
            trace_shapes(model, size)
        with pytest.raises(ShapeError, match=f"64x{size}: {message}"):
            model.backbone.forward_collect(Tensor(np.zeros((1, 3, 64, size), np.float32)))

    def test_image_size_ceiling(self):
        # one 3 x s x s image may hold at most MAX_VALUES values
        assert 3 * 9408**2 <= MAX_VALUES < 3 * 9472**2
        assert resolve_variant("exmvit-576-tiny", {"input_size": 9408}).input_size == 9408
        for size in (9472, 2**32, 2**40):
            with pytest.raises(ConfigError, match="an image exceeds"):
                resolve_variant("exmvit-576-tiny", {"input_size": size})

    def test_head_weight_ceiling(self):
        # tiny profile, rho = (0, 0, 0, 0, 1): 20 shortcut channels from 20,
        # so 400 shortcut weights and 20 per class
        cfg = VariantConfig(name="edge", rho=(0, 0, 0, 0, 1), profile="tiny")
        largest = (MAX_VALUES - 400) // 20
        assert dataclasses.replace(cfg, class_count=largest).class_count == largest
        with pytest.raises(ConfigError, match="exceed"):
            dataclasses.replace(cfg, class_count=largest + 1)
        with pytest.raises(ConfigError, match="exceed"):
            VariantConfig(name="wide", rho=(0, 0, 0, 0, 1_000_000), profile="tiny", class_count=1)
        with pytest.raises(ConfigError, match="exceed"):
            resolve_variant("exmvit-928", {"class_count": 10**9})

    def test_early_shortcut_violation(self):
        # the one rule construction leaves to the entry points, which take
        # allow_early_shortcuts
        cfg = VariantConfig(name="early", rho=(1, 0, 0, 0, 4))
        entry_points = [
            lambda allow: resolve_variant("mobilevit-s", {"rho": cfg.rho}, allow_early_shortcuts=allow),
            lambda allow: apply_overrides(cfg, allow_early_shortcuts=allow),
            lambda allow: config_from_json(cfg.to_json(), allow_early_shortcuts=allow),
        ]
        for entry_point in entry_points:
            with pytest.raises(ConfigError, match="rho_1"):
                entry_point(False)
            assert entry_point(True).rho == cfg.rho

    INVALID = [
        ({"rho": (0, 0, 0, 4)}, "5 entries"),
        ({"rho": (0, 0, -1, 0, 4)}, "rho_3 is negative"),
        ({"rho": (0, 0, Fraction(1, 7), 0, 4)}, "fractional width"),
        ({"rho": (0, 0, 0, 0, 0)}, "at least one rho must be positive"),
        ({"input_size": 0}, "positive multiple of 32"),
        ({"input_size": 100}, "not divisible by 32"),
        ({"class_count": 0}, "class_count must be positive"),
        ({"class_count": 10**9}, "exceed"),
        ({"class_count": True}, "class_count must be an integer, got True"),
        ({"class_count": 8.5}, "class_count must be an integer, got 8.5"),
        ({"input_size": True}, "input_size must be an integer, got True"),
        ({"profile": "huge"}, "unknown profile"),
    ]

    @pytest.mark.parametrize("field,message", INVALID, ids=[m for _, m in INVALID])
    def test_every_invalid_field_fails_to_build(self, field, message):
        fields = {"name": "bad", "rho": (0, 0, 1, 1, 4), **field}
        with pytest.raises(ConfigError, match=message):
            VariantConfig(**fields)
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(REGISTRY["exmvit-864"], **field)

    def test_violations_are_joined(self):
        with pytest.raises(ConfigError, match="rho_3 is negative; .*input_size 100"):
            VariantConfig(name="bad", rho=(0, 0, -1, 0, 4), input_size=100)


class TestJsonRoundTrip:
    def test_round_trip_all_registered(self):
        for name in REGISTRY:
            cfg = resolve_variant(name)
            again = config_from_json(cfg.to_json())
            assert again == cfg

    def test_unknown_fields_rejected(self):
        doc = resolve_variant("exmvit-640").to_json().replace('{', '{"bogus": 1,', 1)
        with pytest.raises(ConfigError, match="bogus"):
            config_from_json(doc)

    def test_missing_fields_rejected(self):
        with pytest.raises(ConfigError, match="missing"):
            config_from_json('{"name": "x"}')

    def test_block_channels_fixed_by_profile(self):
        doc = json.loads(resolve_variant("exmvit-576-tiny").to_json())
        assert doc["block_channels"] == [4, 8, 12, 16, 20]
        doc["block_channels"] = [4, 8, 24, 16, 20]
        with pytest.raises(ConfigError, match="block_channels"):
            config_from_json(json.dumps(doc))

    def test_exact_rationals_survive(self):
        cfg = resolve_variant("exmvit-928")
        again = config_from_json(cfg.to_json())
        assert again.rho[2] == Fraction(4, 3)
        assert again.widths == (0, 0, 128, 160, 640)
        assert again.classifier_width == 928
