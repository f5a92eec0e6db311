"""Spans recorded around calls into exmvit, and the per-layer metrics
derived from them.

Everything here wraps the program from the outside: a leaf module's
``forward`` is replaced on the instance (``Module.__call__`` looks it up
there first), and module-level functions are swapped for timed versions for
the length of a ``with`` block. ``src/`` is not modified.

Per-layer metrics are medians over operations (one inference request or one
training step) of the per-operation sum of the relevant spans.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from exmvit import audit, train
from exmvit import tensor as T
from exmvit.layers import BatchNorm2d, Conv2d, LayerNorm, Linear, MultiHeadAttention
from exmvit.tensor import Tensor

KINDS = ("conv1x1", "dwconv3x3", "conv3x3", "batchnorm", "layernorm", "attention", "linear")
LEAF_TYPES = (Conv2d, BatchNorm2d, LayerNorm, Linear, MultiHeadAttention)
# audit rows of these kinds must each be timed; norms may legitimately
# disappear from the forward (e.g. folded into the preceding conv)
MUST_TIME = ("conv", "linear", "attention")
TRAIN_PARTS = ("data", "forward", "loss", "backward", "optimizer")


class BenchmarkError(RuntimeError):
    """The benchmark itself is inconsistent with the program (not an output failure)."""


def leaf_kind(module) -> str:
    if isinstance(module, Conv2d):
        cout, cin_g, kh, kw = module.weight.shape
        if (kh, kw) == (1, 1) and module.groups == 1:
            return "conv1x1"
        if (kh, kw) == (3, 3) and cin_g == 1 and module.groups > 1:
            return "dwconv3x3"
        if (kh, kw) == (3, 3) and module.groups == 1:
            return "conv3x3"
        raise BenchmarkError(f"no kind for conv {kh}x{kw} groups={module.groups}")
    for cls, kind in (
        (BatchNorm2d, "batchnorm"),
        (LayerNorm, "layernorm"),
        (MultiHeadAttention, "attention"),
        (Linear, "linear"),
    ):
        if isinstance(module, cls):
            return kind
    raise BenchmarkError(f"{type(module).__name__} is not a leaf module")


def leaf_modules(model):
    """(module path, module) of every leaf layer, in graph order."""
    return [(name, m) for name, m in model.modules() if isinstance(m, LEAF_TYPES)]


class Tracer:
    """In-memory spans: [name, start, end, parent index, operation id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.in_shapes: dict[str, tuple] = {}

    def begin_op(self) -> None:
        self.op += 1

    def drop_op(self, op: int) -> None:
        """Detach the spans of an operation that did not complete."""
        for span in self.spans:
            if span[4] == op:
                span[4] = -1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, record_shape: bool = False):
        """``fn`` with each call recorded as a span (and its input shape kept)."""

        def traced(*args, **kwargs):
            if record_shape and name not in self.in_shapes:
                self.in_shapes[name] = args[0].shape
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> list[float]:
        """Duration of each span minus the part its child spans cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def dump(self, path) -> None:
        names = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(names, s)) for s in self.spans], fh)


def instrument(model, tracer: Tracer) -> dict[str, str]:
    """Wrap every leaf layer and the stem/block/shortcut calls of a model.

    Returns the kind of each wrapped leaf, keyed by module path.
    """
    kinds = {}
    for name, module in leaf_modules(model):
        kinds[name] = leaf_kind(module)
        module.forward = tracer.wrap(name, module.forward, record_shape=True)
    backbone = model.backbone
    backbone.stem.forward = tracer.wrap("backbone.stem", backbone.stem.forward)
    for k, block in enumerate(backbone.blocks, start=1):
        for i, module in enumerate(block):
            module.forward = tracer.wrap(f"backbone.block{k}.{i}", module.forward)
    for i, shortcut in enumerate(model.shortcuts):
        shortcut.forward = tracer.wrap(f"shortcuts.{i}", shortcut.forward)
    return kinds


@contextmanager
def traced_training(tracer: Tracer):
    """Time the loss, backward and optimizer calls that ``train_loop`` makes."""
    loss_fn, backward, adamw = train.label_smoothing_ce, Tensor.backward, train.AdamW

    class TimedAdamW(adamw):
        step = tracer.wrap("train.optimizer", adamw.step)

    train.label_smoothing_ce = tracer.wrap("train.loss", loss_fn)
    Tensor.backward = tracer.wrap("train.backward", backward)
    train.AdamW = TimedAdamW
    try:
        yield
    finally:
        train.label_smoothing_ce, Tensor.backward, train.AdamW = loss_fn, backward, adamw


class TimedDataset:
    """Dataset view whose batch fetches are spans; a fetch of images starts
    a new training step (it is the first thing ``train_loop`` does per step)."""

    def __init__(self, dataset, tracer: Tracer):
        self._dataset = dataset
        self.images = _TimedArray(dataset.images, tracer, starts_op=True)
        self.labels = _TimedArray(dataset.labels, tracer, starts_op=False)

    def __len__(self):
        return len(self._dataset)


class _TimedArray:
    def __init__(self, array, tracer: Tracer, starts_op: bool):
        self._tracer = tracer
        self._starts_op = starts_op
        self._get = tracer.wrap("train.data", array.__getitem__)

    def __getitem__(self, index):
        if self._starts_op:
            self._tracer.begin_op()
        return self._get(index)


# -- per-layer metrics ------------------------------------------------------------


def _per_op_sums(tracer: Tracer, key, use_self: bool = False) -> dict[str, list[float]]:
    """{group: [seconds in op 0, op 1, ...]} where key(span name) -> group or None."""
    times = tracer.self_times() if use_self else None
    ops = sorted({s[4] for s in tracer.spans if s[4] >= 0})
    index = {op: i for i, op in enumerate(ops)}
    out: dict[str, list[float]] = {}
    for i, (name, start, end, _, op) in enumerate(tracer.spans):
        group = key(name)
        if group is None or op < 0:
            continue
        row = out.setdefault(group, [0.0] * len(ops))
        row[index[op]] += times[i] if use_self else end - start
    return out


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


_BACKBONE_GROUPS = {"backbone.stem_ms"} | {f"backbone.block{k}_ms" for k in range(1, 6)}


def _layer_group(name: str) -> str | None:
    if name == "backbone.stem":
        return "backbone.stem_ms"
    if name.startswith("backbone.block") and name.count(".") == 2:
        return f"backbone.{name.split('.')[1]}_ms"
    if name.startswith("shortcuts.") and name.count(".") == 1:
        return "model.shortcuts_ms"
    if name == "classifier":
        return "model.classifier_ms"
    return None


def layer_metrics(tracer: Tracer, kinds: dict[str, str]) -> dict[str, float]:
    """Backbone, model, per-kind forward and train-part metrics from the spans."""
    op_count = len({s[4] for s in tracer.spans if s[4] >= 0})
    out = {}
    for group, row in _per_op_sums(tracer, _layer_group).items():
        out[group] = _median_ms(row)
    glue = _per_op_sums(
        tracer, lambda n: "glue" if _layer_group(n) in _BACKBONE_GROUPS else None, use_self=True
    )
    out["backbone.self_ms"] = _median_ms(glue.get("glue", []))
    per_kind = _per_op_sums(tracer, kinds.get)
    calls = {kind: 0 for kind in KINDS}
    for name, _, _, _, op in tracer.spans:
        if name in kinds and op >= 0:
            calls[kinds[name]] += 1
    for kind in KINDS:
        out[f"layers.{kind}.fwd_ms"] = _median_ms(per_kind.get(kind, []))
        out[f"layers.{kind}.calls"] = calls[kind] // max(op_count, 1)
    parts = _per_op_sums(tracer, lambda n: n if n.startswith("train.") else None)
    for part in TRAIN_PARTS:
        out[f"train.{part}_ms"] = _median_ms(parts.get(f"train.{part}", []))
    prepare = _per_op_sums(tracer, lambda n: n if n == "image_io.prepare" else None)
    out["image_io.prepare_ms"] = _median_ms(prepare.get("image_io.prepare", []))
    return out


def audit_name(module_name: str, model) -> str:
    """Module path -> audit row name (drop ``backbone.``; shortcuts.i -> shortcut<k>)."""
    if module_name.startswith("backbone."):
        return module_name[len("backbone.") :]
    if module_name.startswith("shortcuts."):
        _, index, rest = module_name.split(".", 2)
        k = model.shortcut_specs[int(index)].block_index
        return f"shortcut{k}.{rest}"
    return module_name


def mac_join(model, kinds: dict[str, str], timed: set[str], batch: int) -> dict[str, int]:
    """Forward MACs per kind for one operation, from ``audit.count_params``.

    Raises BenchmarkError if a timed leaf has no audit row, or an audit
    conv, linear or attention row was never timed.
    """
    rows = {r.name: r for r in audit.count_params(model).rows}
    macs = {kind: 0 for kind in KINDS}
    matched = set()
    for name, kind in kinds.items():
        if name not in timed:
            continue
        row = rows.get(audit_name(name, model))
        if row is None:
            raise BenchmarkError(f"timed layer {name} has no audit row")
        matched.add(row.name)
        macs[kind] += row.macs * batch
    untimed = [r.name for r in rows.values() if r.kind in MUST_TIME and r.name not in matched]
    if untimed:
        raise BenchmarkError(f"audit rows never timed: {untimed}")
    return macs


def gmac_metrics(per_layer: dict[str, float], macs: dict[str, int]) -> dict[str, float]:
    out = {}
    for kind in KINDS:
        ms = per_layer[f"layers.{kind}.fwd_ms"]
        out[f"layers.{kind}.gmac_s"] = macs[kind] / (ms * 1e-3) / 1e9 if ms > 0 else 0.0
    return out


# -- graph and memory -------------------------------------------------------------


def graph_size(root: Tensor) -> tuple[int, float]:
    """(node count, MB of distinct array buffers) reachable through ``_parents``."""
    seen: set[int] = set()
    buffers: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        base = node.data
        while base.base is not None and isinstance(base.base, np.ndarray):
            base = base.base
        buffers[id(base)] = base.nbytes
        stack.extend(node._parents)
    return len(seen), sum(buffers.values()) / 2**20


def graph_metrics(run_forward) -> dict[str, float]:
    """Graph size of one forward, and its peak traced allocation."""
    tracemalloc.start()
    try:
        logits = run_forward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nodes, mb = graph_size(logits)
    return {
        "tensor.graph_nodes": nodes,
        "tensor.graph_mb": mb,
        "tensor.traced_peak_mb": peak / 2**20,
    }


# -- microbenchmarks -------------------------------------------------------------


def _median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def op_overhead_us(calls: int = 2000, repeats: int = 15) -> float:
    """Cost of one primitive on one-element operands that require grad."""
    a = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
    b = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)

    def batch():
        for _ in range(calls):
            T.add(a, b)

    return _median_time(batch, repeats) / calls * 1e6


def backward_ms(model, in_shapes: dict[str, tuple], seed: int, repeats: int = 7) -> dict[str, float]:
    """Per kind: forward+backward minus forward of each leaf, at captured shapes.

    ``model`` is a throw-away copy in train mode; its running statistics move.
    """
    rng = np.random.default_rng(seed)
    out = {kind: 0.0 for kind in KINDS}
    for name, module in leaf_modules(model):
        if name not in in_shapes:
            continue
        x = Tensor(rng.standard_normal(in_shapes[name]).astype(np.float32), requires_grad=True)

        def forward():
            return T.tsum(module(x))

        def forward_backward():
            module.zero_grad()
            x.zero_grad()
            forward().backward()

        forward_backward()  # first call allocates the gradient buffers
        fb = _median_time(forward_backward, repeats)
        f = _median_time(forward, repeats)
        out[leaf_kind(module)] += (fb - f) * 1e3
    return {f"layers.{kind}.bwd_ms": ms for kind, ms in out.items()}
