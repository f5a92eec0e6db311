"""The benchmark's workloads: set-up, closed loop and output checks.

Every input is made from the seed: the model's initial weights, the
synthetic training set, and a pool of netpbm images of assorted sizes. One
client sends the next operation only after the previous one finished.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from exmvit import image_io, train
from exmvit.config import resolve_variant
from exmvit.model import build_model
from exmvit.tensor import Tensor
from exmvit.weights import load_weights, read_weights, save_weights

import tracing

SETUP_REPEATS = 5
POOL_SIZE = 4  # distinct images an inference workload cycles through
TRAIN_BATCH = 32
TRAIN_WARMUP_ITERS = 16  # the criteria 9/10 fixture: one epoch of 512 samples
# Output tolerances. Eval mode is batch-independent, so batched logits must
# match each image's batch-1 logits; both, and the seed-0 loss trajectory,
# are compared with slack for float reassociation, not for changed maths.
LOGIT_RTOL, LOGIT_ATOL = 1e-3, 1e-4
LOSS_ATOL = 1e-3
PROB_SUM_ATOL = 1e-4
TOP_K = 5

REFERENCE_PATH = Path(__file__).with_name("reference.json")


class Stop(Exception):
    """Raised from the wrapped forward to end ``train_loop`` at a step boundary."""


class Measured:
    """Outcome of one closed-loop phase."""

    def __init__(self):
        self.latencies: list[float] = []  # seconds per completed operation
        self.items = 0  # samples or images in completed operations
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.extend(problems)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _metadata(cfg, seed: int) -> dict:
    return {
        "variant": cfg.name,
        "profile": cfg.profile,
        "seed": seed,
        "class_count": cfg.class_count,
        "input_size": cfg.input_size,
    }


def model_from_weights(path: str, timings: dict | None = None):
    """The CLI's read -> build -> load path, in eval mode."""
    start = time.perf_counter()
    metadata, _ = read_weights(path)
    cfg = resolve_variant(
        metadata["variant"],
        {
            "profile": metadata["profile"],
            "class_count": metadata["class_count"],
            "input_size": metadata["input_size"],
        },
    )
    read = time.perf_counter() - start
    model = build_model(cfg, seed=metadata.get("seed", 0))
    start = time.perf_counter()
    load_weights(model, path)
    if timings is not None:
        timings["load"].append(read + time.perf_counter() - start)
    return model.eval()


class Workload:
    """Shared set-up: build, write weights, read them back, make inputs, warm up."""

    variant: str

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.weights_path = str(workdir / "model.exvt")
        self.workdir = workdir
        self.timings: dict[str, list[float]] = {"setup": [], "save": [], "load": []}

    def setup(self) -> None:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            cfg = resolve_variant(self.variant)
            built = build_model(cfg, seed=self.seed)
            t = time.perf_counter()
            save_weights(built, self.weights_path, _metadata(cfg, self.seed))
            self.timings["save"].append(time.perf_counter() - t)
            del built
            self.model = model_from_weights(self.weights_path, self.timings)
            self.make_inputs()
            self.warm_up()
            self.timings["setup"].append(time.perf_counter() - start)

    def fresh_model(self):
        """A new model with the set-up's weights, through the same load path."""
        return model_from_weights(self.weights_path)

    def compute_expected(self) -> None:
        """Outputs the checks compare against, computed after set-up; none by default."""

    def setup_metrics(self) -> dict[str, float]:
        return {
            "weights.save_ms": statistics.median(self.timings["save"]) * 1e3,
            "weights.load_ms": statistics.median(self.timings["load"]) * 1e3,
        }


# -- training --------------------------------------------------------------------


class StepClock:
    """Replaces ``model.forward``: each forward's start is a step boundary.

    Raises Stop at the first boundary past the deadline or the step limit,
    so ``train_loop`` ends between steps whatever it does inside one.
    """

    def __init__(self, forward, deadline: float = float("inf"), max_steps: int | None = None):
        self.forward = forward
        self.deadline = deadline
        self.max_steps = max_steps
        self.starts: list[float] = []
        self.logits_finite: list[bool] = []

    def __call__(self, x):
        now = time.perf_counter()
        self.starts.append(now)
        if now >= self.deadline or (self.max_steps is not None and len(self.starts) > self.max_steps):
            raise Stop
        out = self.forward(x)
        self.logits_finite.append(bool(np.isfinite(out.data).all()))
        return out


@contextmanager
def recording_losses(losses: list):
    loss_fn = train.label_smoothing_ce

    def recording(*args, **kwargs):
        loss = loss_fn(*args, **kwargs)
        losses.append(float(loss.data))
        return loss

    train.label_smoothing_ce = recording
    try:
        yield
    finally:
        train.label_smoothing_ce = loss_fn


def check_step(index: int, logits_finite: bool, loss: float | None, reference) -> list[str]:
    problems = []
    if not logits_finite:
        problems.append(f"step {index}: non-finite logits")
    if loss is None or not np.isfinite(loss):
        problems.append(f"step {index}: non-finite loss {loss}")
    elif reference is not None and index < len(reference):
        if abs(loss - reference[index]) > LOSS_ATOL:
            problems.append(f"step {index}: loss {loss:.6f} != reference {reference[index]:.6f}")
    return problems


class TrainTiny(Workload):
    """``train.train_loop`` on exmvit-928-tiny, batch 32 at 64x64."""

    name = "train-tiny"
    variant = "exmvit-928-tiny"
    batch = TRAIN_BATCH

    def make_inputs(self) -> None:
        self.dataset = train.SyntheticDataset(
            class_count=8, samples_per_class=64, image_size=64, seed=self.seed
        )

    def config(self) -> train.TrainConfig:
        return train.TrainConfig(
            total_iters=10**6,
            warmup_iters=TRAIN_WARMUP_ITERS,
            seed=self.seed,
            batch_size=TRAIN_BATCH,
        )

    def warm_up(self) -> None:
        self.model.forward = StepClock(self.model.forward, max_steps=1)
        try:
            train.train_loop(self.model, self.dataset, self.config())
        except Stop:
            pass

    def run(self, seconds: float, tracer: tracing.Tracer | None = None) -> Measured:
        model = self.fresh_model()
        dataset = self.dataset
        self.kinds = {}
        if tracer is not None:
            self.kinds = tracing.instrument(model, tracer)
            model.forward = tracer.wrap("train.forward", model.forward)
            dataset = tracing.TimedDataset(dataset, tracer)
        reference = load_reference()["train_losses"] if self.seed == 0 else None
        losses: list[float] = []
        out = Measured()
        start = time.perf_counter()
        clock = StepClock(model.forward, deadline=start + seconds)
        model.forward = clock
        aborted = None
        with recording_losses(losses), (
            tracing.traced_training(tracer) if tracer is not None else nullcontext()
        ):
            try:
                train.train_loop(model, dataset, self.config())
            except Stop:
                pass
            except Exception as exc:  # the step failed; the loop cannot go on
                aborted = f"step {len(clock.starts) - 1}: {type(exc).__name__}: {exc}"
        completed = len(clock.starts) - 1
        for i in range(completed):
            loss = losses[i] if i < len(losses) else None
            out.record(check_step(i, clock.logits_finite[i], loss, reference))
        if aborted:
            out.record([aborted])
        if tracer is not None:
            tracer.drop_op(tracer.op)  # the step the deadline cut short
        out.latencies = list(np.diff(clock.starts))
        out.items = TRAIN_BATCH * completed
        out.wall = clock.starts[-1] - clock.starts[0]
        self.model = model
        return out

    def extra_layer_metrics(self, tracer: tracing.Tracer) -> dict[str, float]:
        probe = self.fresh_model().train()
        x = Tensor(self.dataset.images[:TRAIN_BATCH])
        metrics = tracing.graph_metrics(lambda: probe(x))
        metrics.update(tracing.backward_ms(self.fresh_model().train(), tracer.in_shapes, self.seed))
        return metrics


# -- inference ----------------------------------------------------------------------


def write_image_pool(rng: np.random.Generator, workdir: Path, count: int, avoid: int) -> list[str]:
    """Binary PPMs of seeded sizes (never ``avoid`` x ``avoid``) and content."""
    paths = []
    for i in range(count):
        h, w = (int(e) for e in rng.integers(160, 352, size=2))
        if (h, w) == (avoid, avoid):
            w += 1
        yy, xx = np.mgrid[0:h, 0:w].astype(np.float32)
        base = rng.random(3, dtype=np.float32)[:, None, None]
        freq = rng.uniform(0.01, 0.08, size=(3, 2)).astype(np.float32)
        wave = 0.5 + 0.5 * np.sin(freq[:, :1, None] * yy + freq[:, 1:, None] * xx)
        noise = rng.normal(0.0, 0.08, size=(3, h, w)).astype(np.float32)
        img = np.clip(0.5 * base + 0.5 * wave + noise, 0.0, 1.0)
        pixels = (img.transpose(1, 2, 0) * 255.0).round().astype(np.uint8)
        path = workdir / f"image{i}.ppm"
        with open(path, "wb") as fh:
            fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
            fh.write(pixels.tobytes())
        paths.append(str(path))
    return paths


def softmax_top(logits: np.ndarray, k: int = TOP_K) -> tuple[np.ndarray, np.ndarray]:
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = shifted / shifted.sum(axis=1, keepdims=True)
    return probs, np.argsort(-probs, axis=1, kind="stable")[:, :k]


def check_request(logits, probs, top, expected) -> list[str]:
    """Finite logits, a valid top-k, and logits equal to each image's expected row."""
    problems = []
    if not np.isfinite(logits).all():
        problems.append("non-finite logits")
        return problems
    classes = probs.shape[1]
    for row in range(len(top)):
        idx = top[row]
        picked = probs[row, idx]
        if (
            len(set(idx.tolist())) != len(idx)
            or idx.min() < 0
            or idx.max() >= classes
            or np.any(np.diff(picked) > 0)
            or picked[0] != probs[row].max()
            or abs(float(probs[row].sum()) - 1.0) > PROB_SUM_ATOL
        ):
            problems.append(f"row {row}: invalid top-{len(idx)} {idx.tolist()}")
    if not np.allclose(logits, expected, rtol=LOGIT_RTOL, atol=LOGIT_ATOL):
        worst = float(np.max(np.abs(logits - expected)))
        problems.append(f"logits differ from the batch-1 reference by up to {worst:.3g}")
    return problems


class Infer(Workload):
    """exmvit-928 ImageNet profile in eval mode: decode, resize, forward, top-5."""

    variant = "exmvit-928"

    def __init__(self, batch: int, seed: int, workdir: Path, variant: str | None = None):
        super().__init__(seed, workdir)
        self.name = f"infer-b{batch}"
        self.batch = batch
        if variant is not None:
            self.variant = variant

    def make_inputs(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.size = self.model.config.input_size
        self.paths = write_image_pool(rng, self.workdir, POOL_SIZE, self.size)

    def warm_up(self) -> None:
        self.request(range(self.batch))

    def request(self, indices, prepare=image_io.prepare_input):
        """One operation; the autodiff graph lives until the logits are read."""
        x = np.concatenate([prepare(self.paths[i], self.size) for i in indices])
        logits = self.model(Tensor(x)).data
        probs, top = softmax_top(logits)
        return logits, probs, top

    def compute_expected(self) -> None:
        """Each pool image's batch-1 logits; image 0 at seed 0 is pinned."""
        self.expected = np.concatenate([self.request([i])[0] for i in range(POOL_SIZE)])
        if self.seed == 0:
            self.expected[0] = np.asarray(load_reference()["infer_logits"], dtype=np.float32)

    def run(self, seconds: float, tracer: tracing.Tracer | None = None) -> Measured:
        prepare = image_io.prepare_input
        if tracer is not None:
            self.kinds = tracing.instrument(self.model, tracer)
            prepare = tracer.wrap("image_io.prepare", prepare)
        out = Measured()
        start = time.perf_counter()
        deadline = start + seconds
        i = 0
        while time.perf_counter() < deadline:
            indices = [(i * self.batch + j) % POOL_SIZE for j in range(self.batch)]
            i += 1
            if tracer is not None:
                tracer.begin_op()
            t = time.perf_counter()
            try:
                with tracer.span("request") if tracer is not None else nullcontext():
                    logits, probs, top = self.request(indices, prepare)
            except Exception as exc:  # a failed request; keep serving
                out.record([f"{type(exc).__name__}: {exc}"])
                continue
            out.latencies.append(time.perf_counter() - t)
            out.items += self.batch
            out.record(check_request(logits, probs, top, self.expected[indices]))
        out.wall = time.perf_counter() - start
        return out

    def extra_layer_metrics(self, tracer: tracing.Tracer) -> dict[str, float]:
        probe = self.fresh_model()
        x = np.concatenate(
            [image_io.prepare_input(self.paths[i], self.size) for i in range(self.batch)]
        )
        return tracing.graph_metrics(lambda: probe(Tensor(x)))
