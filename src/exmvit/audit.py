"""Structural analysis of built models: parameter counts, symbolic shape
traces, and per-variant overhead tables.

This module is the one place that knows the graph's output shapes, MACs and
row names: a single recursive walk over the built modules yields the audit
rows, the per-module shape trace and the five block output shapes, without
allocating any tensors.

Two totals are reported. ``strict_total`` enumerates every parameter in the
graph. ``paper_convention_total`` counts classifier-side growth only, i.e.
it excludes the pointwise convolutions of shortcuts from blocks before the
last one — the accounting the published overhead columns follow.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

from .backbone import MV2Block, MobileViTBlock
from .config import VariantConfig, resolve_variant
from .layers import (
    BatchNorm2d,
    Conv2d,
    ConvNormAct,
    LayerNorm,
    Linear,
    MultiHeadAttention,
    TransformerLayer,
)
from .model import ExMobileViT, MobileViTS, build_model


@dataclass(frozen=True)
class LayerRow:
    name: str
    kind: str
    out_shape: tuple[int, ...]
    param_count: int
    macs: int


@dataclass
class AuditReport:
    variant: str
    rows: list[LayerRow]
    strict_total: int
    paper_convention_total: int
    classifier_width: int
    overhead_vs_baseline_percent: float
    flops_estimate: int

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "strict_total": self.strict_total,
            "paper_convention_total": self.paper_convention_total,
            "strict_total_m": display_m(self.strict_total),
            "paper_convention_total_m": display_m(self.paper_convention_total),
            "classifier_width": self.classifier_width,
            "overhead_vs_baseline_percent": round(self.overhead_vs_baseline_percent, 2),
            "flops_estimate": self.flops_estimate,
            "layers": [
                {
                    "name": r.name,
                    "kind": r.kind,
                    "out_shape": list(r.out_shape),
                    "param_count": r.param_count,
                    "macs": r.macs,
                }
                for r in self.rows
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_table(self) -> str:
        lines = [f"{'layer':<42} {'kind':<10} {'out_shape':<22} {'params':>10} {'MACs':>14}"]
        for r in self.rows:
            shape = "x".join(str(e) for e in r.out_shape)
            lines.append(f"{r.name:<42} {r.kind:<10} {shape:<22} {r.param_count:>10} {r.macs:>14}")
        lines.append("-" * 102)
        lines.append(f"variant: {self.variant}")
        lines.append(f"classifier width: {self.classifier_width}")
        lines.append(f"strict total: {self.strict_total} ({display_m(self.strict_total)}M)")
        lines.append(
            f"paper-convention total: {self.paper_convention_total} "
            f"({display_m(self.paper_convention_total)}M)"
        )
        lines.append(f"overhead vs baseline: {self.overhead_vs_baseline_percent:+.2f}%")
        lines.append(f"forward MACs (batch 1): {self.flops_estimate}")
        return "\n".join(lines)


def display_m(count: int) -> float:
    """Millions, rounded to 3 decimals (the tables' display convention)."""
    return round(count / 1e6, 3)


def conv_macs(out_shape, cin, kh, kw, groups) -> int:
    return math.prod(out_shape) * (kh * kw * cin // groups)


def _params(module) -> int:
    return sum(p.size for p in module.parameters())


# composite modules whose children run one after another, in this order
_CHAINS = {
    ConvNormAct: ("conv", "norm"),
    MV2Block: ("expand", "depthwise", "project"),
    TransformerLayer: ("norm1", "attn", "norm2", "ffn1", "ffn2"),
}


def _walk(module, name, in_shape, rows) -> tuple[int, ...]:
    """Append the rows of ``module`` (path ``name``) for an input of
    ``in_shape`` to ``rows`` and return its output shape."""
    if isinstance(module, Conv2d):
        b, _, h, w = in_shape
        cout, cin_g, kh, kw = module.weight.shape
        pad, stride = module.padding, module.stride
        out = (b, cout, (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1)
        macs = conv_macs(out, cin_g * module.groups, kh, kw, module.groups)
        rows.append(LayerRow(name, "conv", out, _params(module), macs))
        return out
    if isinstance(module, (BatchNorm2d, LayerNorm)):
        kind = "batchnorm" if isinstance(module, BatchNorm2d) else "layernorm"
        rows.append(LayerRow(name, kind, in_shape, _params(module), 2 * math.prod(in_shape)))
        return in_shape
    if isinstance(module, Linear):
        dout, din = module.weight.shape
        out = tuple(in_shape[:-1]) + (dout,)
        macs = math.prod(in_shape[:-1]) * dout * din
        rows.append(LayerRow(name, "linear", out, _params(module), macs))
        return out
    if isinstance(module, MultiHeadAttention):
        n, t, d = in_shape
        # q/k/v/o projections plus the two T x T matmuls per head
        macs = 4 * n * t * d * d + 2 * n * t * t * d
        rows.append(LayerRow(name, "attention", in_shape, _params(module), macs))
        return in_shape
    if type(module) in _CHAINS:
        shape = in_shape
        for part in _CHAINS[type(module)]:
            shape = _walk(getattr(module, part), f"{name}.{part}", shape, rows)
        return shape
    if isinstance(module, MobileViTBlock):
        b, c, h, w = in_shape
        ph, pw = module.spec.patch
        local = _walk(module.local_conv, f"{name}.local_conv", in_shape, rows)
        local = _walk(module.local_proj, f"{name}.local_proj", local, rows)
        seq = (b * ph * pw, (h // ph) * (w // pw), local[1])
        for i, layer in enumerate(module.transformer):
            seq = _walk(layer, f"{name}.transformer.{i}", seq, rows)
        _walk(module.out_norm, f"{name}.out_norm", seq, rows)
        restored = _walk(module.unproj, f"{name}.unproj", local, rows)
        return _walk(module.fusion, f"{name}.fusion", (b, c + restored[1], h, w), rows)
    raise TypeError(f"cannot walk {type(module).__name__}")


def _walk_backbone(backbone, in_shape, rows):
    """Walk the stem and the five blocks; returns the per-module trace
    (name, output shape) and each block's output shape."""
    shape = _walk(backbone.stem, "stem", in_shape, rows)
    trace = [("stem", shape)]
    block_shapes = []
    for bi, block in enumerate(backbone.blocks, start=1):
        for mi, module in enumerate(block):
            shape = _walk(module, f"block{bi}.{mi}", shape, rows)
            kind = "mv2" if isinstance(module, MV2Block) else "mobilevit"
            trace.append((f"block{bi}.{mi}.{kind}", shape))
        block_shapes.append(shape)
    return trace, block_shapes


def _rows(model) -> tuple[list[LayerRow], int]:
    """The audit rows of a built model for a batch-1 input of its size, and
    the parameter count of its shortcuts before the last block."""
    config: VariantConfig = model.config
    size = config.input_size
    rows: list[LayerRow] = []
    _, block_shapes = _walk_backbone(model.backbone, (1, 3, size, size), rows)

    early_shortcut_params = 0
    if isinstance(model, ExMobileViT):
        for spec, shortcut in zip(model.shortcut_specs, model.shortcuts):
            k = spec.block_index
            _walk(shortcut.pointwise, f"shortcut{k}.pointwise", block_shapes[k - 1], rows)
            if k < len(config.rho):
                early_shortcut_params += _params(shortcut.pointwise)
    elif isinstance(model, MobileViTS):
        _walk(model.final_conv, "final_conv", block_shapes[-1], rows)
    else:
        raise TypeError(f"cannot audit {type(model).__name__}")
    _walk(model.classifier, "classifier", (1, config.classifier_width), rows)
    return rows, early_shortcut_params


@functools.cache
def _baseline_total(profile: str, class_count: int) -> int:
    """Parameter total of mobilevit-s built for this profile and class count."""
    cfg = resolve_variant("mobilevit-s", {"profile": profile, "class_count": class_count})
    rows, _ = _rows(build_model(cfg, seed=0))
    return sum(r.param_count for r in rows)


def count_params(model) -> AuditReport:
    """Enumerate every parameter of a built model into an AuditReport; its
    overhead is against mobilevit-s of the same profile and class count."""
    config: VariantConfig = model.config
    rows, early_shortcut_params = _rows(model)
    strict_total = sum(r.param_count for r in rows)
    paper_total = strict_total - early_shortcut_params
    flops = sum(r.macs for r in rows)
    baseline_total = _baseline_total(config.profile, config.class_count)
    overhead = (paper_total - baseline_total) / baseline_total * 100.0
    return AuditReport(
        variant=config.name,
        rows=rows,
        strict_total=strict_total,
        paper_convention_total=paper_total,
        classifier_width=config.classifier_width,
        overhead_vs_baseline_percent=overhead,
        flops_estimate=flops,
    )


def _trace(model, input_size: int):
    if input_size % 32:
        raise ValueError(f"input_size {input_size} not divisible by 32")
    return _walk_backbone(model.backbone, (1, 3, input_size, input_size), [])


def trace_shapes(model, input_size: int) -> list[tuple[str, tuple[int, ...]]]:
    """Symbolic per-module shape trace for a batch-1 input."""
    return _trace(model, input_size)[0]


def block_output_shapes(model, input_size: int) -> list[tuple[int, ...]]:
    """Output shape of each of the five blocks."""
    return _trace(model, input_size)[1]


def overhead_report(variants: list[str]) -> list[dict]:
    """Per-variant width and parameter overheads of the ImageNet-profile
    variants relative to the baseline."""
    base_report = count_params(build_model(resolve_variant("mobilevit-s"), seed=0))
    base_width = base_report.classifier_width
    out = []
    for name in variants:
        report = count_params(build_model(resolve_variant(name), seed=0))
        out.append(
            {
                "variant": name,
                "classifier_width": report.classifier_width,
                "classifier_percent": round(report.classifier_width / base_width * 100.0, 1),
                "strict_total": report.strict_total,
                "paper_convention_total": report.paper_convention_total,
                "strict_total_m": display_m(report.strict_total),
                "paper_convention_total_m": display_m(report.paper_convention_total),
                "overhead_percent": round(report.overhead_vs_baseline_percent, 2),
                "delta_params": report.paper_convention_total - base_report.paper_convention_total,
            }
        )
    return out
