import numpy as np
import pytest

from exmvit.audit import (
    _baseline_total,
    block_output_shapes,
    conv_macs,
    count_params,
    display_m,
    overhead_report,
    trace_shapes,
)
from exmvit.backbone import MV2Block
from exmvit.config import VariantConfig, resolve_variant
from exmvit.layers import BatchNorm2d, Conv2d, LayerNorm, Linear, MultiHeadAttention
from exmvit.model import build_mobilevit_s, build_model
from exmvit.tensor import Tensor


class TestCountParams:
    def test_tiny_mv2_hand_enumeration(self):
        block = MV2Block(8, 8, 1)
        hidden = 32
        expected = (
            8 * hidden + 2 * hidden  # expand conv + BN
            + hidden * 9 + 2 * hidden  # depthwise conv + BN
            + hidden * 8 + 2 * 8  # project conv + BN
        )
        assert sum(p.size for p in block.parameters()) == expected

    def test_rows_sum_to_strict_total(self):
        model = build_model(resolve_variant("exmvit-640-tiny"), seed=0)
        report = count_params(model)
        assert report.strict_total == sum(r.param_count for r in report.rows)
        assert report.strict_total == sum(p.size for p in model.parameters())

    def test_paper_convention_excludes_early_shortcuts(self):
        model = build_model(resolve_variant("exmvit-928-tiny"), seed=0)
        report = count_params(model)
        early = sum(
            sum(p.size for p in sc.parameters())
            for spec, sc in zip(model.shortcut_specs, model.shortcuts)
            if spec.block_index < 5
        )
        assert report.strict_total - report.paper_convention_total == early

    def test_structure_only_seed_invariance(self):
        cfg = resolve_variant("exmvit-704-tiny")
        a = count_params(build_model(cfg, seed=0))
        b = count_params(build_model(cfg, seed=123))
        assert a.strict_total == b.strict_total
        assert a.paper_convention_total == b.paper_convention_total

    def test_baseline_pair_counts_equal(self):
        cfg = resolve_variant("mobilevit-s-tiny")
        a = count_params(build_model(cfg, seed=0))
        b = count_params(build_mobilevit_s(cfg, seed=0))
        assert a.strict_total == b.strict_total
        assert a.overhead_vs_baseline_percent == b.overhead_vs_baseline_percent == 0.0

    def test_baseline_total_builds_no_second_config(self):
        tiny = count_params(build_model(resolve_variant("mobilevit-s-tiny"), seed=0))
        backbone = sum(r.param_count for r in tiny.rows[:-2])  # all but final_conv, classifier
        assert _baseline_total(backbone, resolve_variant("exmvit-576-tiny")) == tiny.strict_total
        # 3.5 M classes fit the head ceiling at exmvit-576's width 72 but not
        # at mobilevit-s's 80; the baseline is counted, not resolved or built
        cfg = resolve_variant("exmvit-576-tiny", {"class_count": 3_500_000})
        assert _baseline_total(backbone, cfg) == backbone + 21 * 80 + 81 * 3_500_000

    def test_overhead_does_not_depend_on_the_name(self):
        reports = [
            count_params(build_model(VariantConfig(name, (0, 0, 1, 1, 4), profile="tiny"), seed=0))
            for name in ("mobilevit-wide", "exmvit-wide")
        ]
        overheads = [r.overhead_vs_baseline_percent for r in reports]
        assert overheads[0] == overheads[1] > 0


class TestFlops:
    def test_conv_macs_formula(self):
        rng = np.random.default_rng(1)
        for _ in range(3):
            cout = int(rng.integers(1, 16))
            cin = int(rng.integers(1, 16))
            k = int(rng.choice([1, 3]))
            ho, wo = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            out_shape = (1, cout, ho, wo)
            macs = conv_macs(out_shape, cin, k, k, 1)
            assert macs == cout * ho * wo * k * k * cin

    def test_report_flops_positive(self):
        report = count_params(build_model(resolve_variant("exmvit-576-tiny"), seed=0))
        assert report.flops_estimate > 0


class TestTrace:
    def test_imagenet_block_sides(self):
        model = build_model(resolve_variant("mobilevit-s"), seed=0)
        shapes = block_output_shapes(model, 256)
        assert [s[2] for s in shapes] == [128, 64, 32, 16, 8]
        assert [s[1] for s in shapes] == [32, 64, 96, 128, 160]

    def test_tiny_64(self):
        model = build_model(resolve_variant("mobilevit-s-tiny"), seed=0)
        assert [s[2] for s in block_output_shapes(model, 64)] == [32, 16, 8, 4, 2]

    def test_indivisible_rejected(self):
        model = build_model(resolve_variant("mobilevit-s-tiny"), seed=0)
        with pytest.raises(ValueError):
            trace_shapes(model, 250)

    def test_trace_agrees_with_runtime(self):
        model = build_model(resolve_variant("exmvit-928-tiny"), seed=0).eval()
        rng = np.random.default_rng(2)
        sizes = rng.choice(np.arange(1, 11) * 64, size=10, replace=False)
        for size in sizes:
            symbolic = [s[2:] for s in block_output_shapes(model, int(size))]
            x = Tensor(rng.normal(size=(1, 3, int(size), int(size))).astype(np.float32))
            runtime = [f.shape[2:] for f in model.backbone.forward_collect(x)]
            assert symbolic == runtime, size


def _row_name(path, model):
    """Module path -> audit row name: drop ``backbone.``, ``shortcuts.i`` -> ``shortcut<k>``."""
    if path.startswith("backbone."):
        return path[len("backbone.") :]
    if path.startswith("shortcuts."):
        _, index, rest = path.split(".", 2)
        return f"shortcut{model.shortcut_specs[int(index)].block_index}.{rest}"
    return path


def _run_recording_leaves(model, leaves, training):
    """Names of every ``leaves`` instance in ``model``, and the output shape of
    each one a forward in the given mode runs, in the order it first runs. A
    norm handed to a conv (``norm=``) runs inside that conv's call, so it
    gets the conv's output shape, right after the conv."""
    model.train(training)
    runtime = {}
    names = []
    by_module = {}

    def record(name, forward):
        def wrapped(*args, **kwargs):
            out = forward(*args, **kwargs)
            runtime[name] = out.shape
            norm = kwargs.get("norm")
            if id(norm) in by_module:
                runtime[by_module[id(norm)]] = out.shape
            return out

        return wrapped

    for path, module in model.modules():
        if isinstance(module, leaves):
            names.append(_row_name(path, model))
            by_module[id(module)] = names[-1]
            module.forward = record(names[-1], module.forward)
    size = model.config.input_size
    x = np.random.default_rng(0).normal(size=(1, 3, size, size)).astype(np.float32)
    model(Tensor(x))
    return names, runtime


ROW_MODELS = [
    ("exmvit-928-tiny", build_model),
    ("exmvit-576-tiny", build_model),
    ("mobilevit-s-tiny", build_mobilevit_s),
]


class TestRowsMatchLayers:
    """Every audit row is one leaf layer of the built model, with the output
    shape that layer really produces."""

    LEAVES = (Conv2d, BatchNorm2d, LayerNorm, Linear, MultiHeadAttention)

    @pytest.mark.parametrize("variant, build", ROW_MODELS)
    def test_rows_are_leaf_layers_with_runtime_shapes(self, variant, build):
        # no mode calls a BatchNorm2d leaf: each norm row takes the runtime
        # shape of the conv that runs it
        model = build(resolve_variant(variant), seed=0)
        names, runtime = _run_recording_leaves(model, self.LEAVES, training=True)

        rows = count_params(model).rows
        assert len(rows) == len(names)
        assert {r.name for r in rows} == set(names)
        for r in rows:
            assert r.out_shape == runtime[r.name], r.name
        # the audit table lists the leaves in the order the forward calls them
        assert [r.name for r in rows] == list(runtime)

    @pytest.mark.parametrize("variant, build", ROW_MODELS)
    def test_eval_forward_runs_every_non_norm_leaf(self, variant, build):
        model = build(resolve_variant(variant), seed=0)
        leaves = (Conv2d, LayerNorm, Linear, MultiHeadAttention)
        names, runtime = _run_recording_leaves(model, leaves, training=False)
        assert set(runtime) == set(names)
        rows = {r.name: r for r in count_params(model).rows}
        for name in names:
            assert rows[name].out_shape == runtime[name], name


VARIANTS = ["mobilevit-s", "exmvit-576", "exmvit-640", "exmvit-704", "exmvit-864", "exmvit-928"]


@pytest.fixture(scope="module")
def rows():
    return {r["variant"]: r for r in overhead_report(VARIANTS)}


class TestOverheadReport:
    VARIANTS = VARIANTS

    def test_classifier_percents(self, rows):
        percents = [rows[v]["classifier_percent"] for v in self.VARIANTS]
        assert percents == [100, 90, 100, 110, 135, 145]

    def test_widths_match_expand_width(self, rows):
        for v in self.VARIANTS:
            assert rows[v]["classifier_width"] == resolve_variant(v).classifier_width

    def test_640_total_below_baseline(self, rows):
        assert rows["exmvit-640"]["paper_convention_total"] < rows["mobilevit-s"]["paper_convention_total"]
        assert rows["exmvit-640"]["overhead_percent"] < 0

    def test_totals_pinned(self, rows):
        pinned = {
            "mobilevit-s": (5577992, 5577992, 0.0),
            "exmvit-576": (5499592, 5488232, -1.61),
            "exmvit-640": (5571848, 5552232, -0.46),
            "exmvit-704": (5649224, 5641992, 1.15),
            "exmvit-864": (5827816, 5801992, 4.02),
            "exmvit-928": (5899048, 5865992, 5.16),
        }
        for v in self.VARIANTS:
            row = rows[v]
            got = (row["strict_total"], row["paper_convention_total"], row["overhead_percent"])
            assert got == pinned[v], v

    def test_display_rounding(self):
        assert display_m(5_577_992) == 5.578
        assert display_m(928_000) == 0.928
