import json
from fractions import Fraction

import pytest

from exmvit.config import (
    MAX_HEAD_WEIGHTS,
    ConfigError,
    REGISTRY,
    config_from_json,
    expand_width,
    resolve_variant,
    validate,
)

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
        cfg = resolve_variant(
            "exmvit-864", {"rho": (1, 0, 0, 0, 4), "allow_early_shortcuts": True}
        )
        assert cfg.rho[0] == 1


class TestValidate:
    def test_registered_variants_valid(self):
        for name, cfg in REGISTRY.items():
            assert validate(cfg) == [], name

    def test_fractional_width_violation(self):
        cfg = resolve_variant("mobilevit-s")
        bad = type(cfg)(name="bad", rho=(0, 0, Fraction(1, 7), 0, 4))
        violations = validate(bad)
        assert any("fractional" in v for v in violations)

    def test_input_size_divisibility(self):
        cfg = type(resolve_variant("mobilevit-s"))(
            name="bad", rho=(0, 0, 0, 0, 4), input_size=250
        )
        assert any("not divisible by 32" in v for v in validate(cfg))

    @pytest.mark.parametrize("size", [0, -32, -64])
    def test_input_size_must_be_positive(self, size):
        cfg = type(resolve_variant("mobilevit-s"))(name="bad", rho=(0, 0, 0, 0, 4), input_size=size)
        assert any("positive multiple of 32" in v for v in validate(cfg))
        with pytest.raises(ConfigError):
            resolve_variant("exmvit-576-tiny", {"input_size": size})

    def test_head_weight_ceiling(self):
        # tiny profile, rho = (0, 0, 0, 0, 1): 20 shortcut channels from 20,
        # so 400 shortcut weights and 20 per class
        base = resolve_variant("mobilevit-s-tiny")
        cfg = type(base)(name="edge", rho=(0, 0, 0, 0, 1), profile="tiny")
        largest = (MAX_HEAD_WEIGHTS - 400) // 20
        assert validate(type(cfg)(**{**vars(cfg), "class_count": largest})) == []
        over = validate(type(cfg)(**{**vars(cfg), "class_count": largest + 1}))
        assert any("exceed" in v for v in over)
        wide = type(cfg)(name="wide", rho=(0, 0, 0, 0, 1_000_000), profile="tiny", class_count=1)
        assert any("exceed" in v for v in validate(wide))
        with pytest.raises(ConfigError, match="exceed"):
            resolve_variant("exmvit-928", {"class_count": 10**9})

    def test_early_shortcut_violation(self):
        cfg = type(resolve_variant("mobilevit-s"))(name="bad", rho=(1, 0, 0, 0, 4))
        assert any("rho_1" in v for v in validate(cfg))
        assert validate(cfg, allow_early_shortcuts=True) == []


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
        assert expand_width(again.rho, again.block_channels) == 928
