"""Toy-scale training and verification.

Label-smoothing cross-entropy, AdamW with decoupled weight decay, linear
warm-up into cosine decay, optional EMA of parameters, a deterministic
synthetic blob dataset, and a central-finite-difference gradient checker.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .layers import Module
from .tensor import NumericError, Tensor


@dataclass
class TrainConfig:
    total_iters: int
    lr_start: float = 2e-4
    lr_peak: float = 2e-3
    warmup_iters: int = 3000
    weight_decay: float = 0.01
    smoothing: float = 0.1
    ema_decay: float | None = None  # 0.9995 when enabled
    seed: int = 0
    batch_size: int = 32

    def __post_init__(self):
        if self.total_iters < 1:
            raise ValueError(f"total_iters must be at least 1, got {self.total_iters}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.warmup_iters < 0:
            raise ValueError(f"warmup_iters must not be negative, got {self.warmup_iters}")
        if self.lr_start > self.lr_peak:
            raise ValueError("lr_start must not exceed lr_peak")
        if self.warmup_iters >= self.total_iters:
            raise ValueError("warmup_iters must be smaller than total_iters")


def label_smoothing_ce(logits: Tensor, labels: np.ndarray, smoothing: float) -> Tensor:
    """Mean cross-entropy against a smoothed target distribution."""
    if not 0 <= smoothing < 1:
        raise ValueError(f"smoothing must be in [0, 1), got {smoothing}")
    batch, k = logits.shape
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label out of range [0, {k})")
    target = np.full((batch, k), smoothing / k, dtype=logits.dtype)
    target[np.arange(batch), labels] += 1.0 - smoothing
    # log-softmax, stabilized by a detached max shift
    shift = Tensor(logits.data.max(axis=-1, keepdims=True))
    shifted = T.sub(logits, shift)
    logsumexp = T.log(T.tsum(T.exp(shifted), axis=-1, keepdims=True))
    log_probs = T.sub(shifted, logsumexp)
    per_sample = T.tsum(T.mul(Tensor(-target), log_probs), axis=-1)
    return T.tmean(per_sample)


def lr_schedule(iteration: int, config: TrainConfig) -> float:
    """Linear warm-up from lr_start to lr_peak, then cosine decay back."""
    if iteration < config.warmup_iters:
        frac = iteration / config.warmup_iters
        return config.lr_start + (config.lr_peak - config.lr_start) * frac
    span = config.total_iters - config.warmup_iters
    t = (iteration - config.warmup_iters) / span
    return config.lr_start + (config.lr_peak - config.lr_start) * 0.5 * (1.0 + math.cos(math.pi * t))


class AdamW:
    """AdamW with decoupled decay; biases and norm parameters are not decayed."""

    def __init__(
        self,
        named_params: list[tuple[str, Tensor]],
        weight_decay: float = 0.01,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        self.named_params = named_params
        self.weight_decay = weight_decay
        self.betas = betas
        self.eps = eps
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in named_params}

    @staticmethod
    def decayable(name: str, p: Tensor) -> bool:
        return p.ndim > 1

    def step(self, lr: float) -> None:
        self.step_count += 1
        b1, b2 = self.betas
        c1 = 1.0 - b1**self.step_count
        c2 = 1.0 - b2**self.step_count
        for name, p in self.named_params:
            grad = p.grad
            if grad is None:
                grad = np.zeros_like(p.data)
            if grad.shape != p.data.shape:
                raise T.ShapeError(f"gradient shape mismatch for {name}")
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            if self.weight_decay and self.decayable(name, p):
                p.data -= lr * self.weight_decay * p.data
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def ema_update(shadow: dict[str, np.ndarray], named_params, decay: float) -> None:
    """shadow <- decay * shadow + (1 - decay) * params, in place."""
    for name, p in named_params:
        s = shadow[name]
        if s.shape != p.data.shape:
            raise T.ShapeError(f"EMA shape mismatch for {name}")
        s *= decay
        s += (1.0 - decay) * p.data


def init_ema(named_params) -> dict[str, np.ndarray]:
    return {name: p.data.copy() for name, p in named_params}


@dataclass
class SyntheticDataset:
    """Class-dependent Gaussian blobs plus noise; deterministic given seed."""

    class_count: int = 8
    samples_per_class: int = 64
    image_size: int = 64
    seed: int = 0
    images: np.ndarray = field(init=False)
    labels: np.ndarray = field(init=False)

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        size = self.image_size
        yy, xx = np.mgrid[0:size, 0:size].astype(np.float32)
        # Samples are written in place into one array on its own anonymous
        # mapping, returned whole to the system when the dataset is freed. From
        # the malloc heap, a dataset built while another is alive fits a hole
        # left by training's temporaries or extends the heap by its full size,
        # depending on the allocation history: the peak memory of a process
        # then moves by a dataset's size between otherwise identical runs.
        shape = (self.class_count * self.samples_per_class, 3, size, size)
        count = math.prod(shape)
        pages = mmap.mmap(-1, count * 4)
        self.images = np.frombuffer(pages, np.float32, count).reshape(shape)
        self.labels = np.repeat(np.arange(self.class_count, dtype=np.int64), self.samples_per_class)
        for cls in range(self.class_count):
            color = 0.25 + 0.75 * rng.random(3)
            cx, cy = rng.uniform(size * 0.25, size * 0.75, size=2)
            radius = rng.uniform(size * 0.10, size * 0.22)
            for i in range(cls * self.samples_per_class, (cls + 1) * self.samples_per_class):
                jx, jy = rng.normal(0.0, size * 0.03, size=2)
                blob = np.exp(-(((xx - cx - jx) ** 2 + (yy - cy - jy) ** 2) / (2 * radius**2)))
                img = color[:, None, None] * blob[None] + rng.normal(0.0, 0.05, (3, size, size))
                self.images[i] = np.clip(img, 0.0, 1.0)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class GradCheckEntry:
    param: str
    index: int
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]

    @property
    def max_rel_err(self) -> float:
        return max(e.rel_err for e in self.entries)

    def worst(self, n: int = 10) -> list[GradCheckEntry]:
        return sorted(self.entries, key=lambda e: -e.rel_err)[:n]


def grad_check(
    model: Module,
    inputs: np.ndarray,
    labels: np.ndarray,
    smoothing: float = 0.1,
    num_samples: int = 200,
    h: float = 1e-4,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    Samples at least one scalar from every trainable parameter tensor, so
    every layer kind is covered. Runs the model in float64 and in train
    mode, whose batch norm reads batch statistics, never the running ones.
    Uses a step small enough that the quadratic truncation term of the
    central difference stays below the comparison tolerance (the batch-norm
    denominators give the loss large third derivatives). The model is left as it was found: its parameter
    and buffer arrays, gradients and train/eval mode are restored on
    return, also when the check raises.
    """
    # the caller's arrays, gradients and modes, put back in the finally: the
    # check casts, perturbs and switches them
    saved_params = [(p, p.data, p.grad) for p in model.parameters()]
    saved_modules = [(m, dict(vars(m))) for _, m in model.modules()]
    try:
        model.astype(np.float64)
        model.train()
        x = Tensor(inputs.astype(np.float64))
        named = list(model.named_parameters())

        def loss_value() -> Tensor:
            return label_smoothing_ce(model(x), labels, smoothing)

        model.zero_grad()
        loss = loss_value()
        loss.backward()
        if not np.isfinite(loss.item()):
            raise NumericError("non-finite loss in gradient check")

        rng = np.random.default_rng(seed)
        per_tensor = max(1, math.ceil(num_samples / len(named)))
        entries = []
        for name, p in named:
            count = min(per_tensor, p.size)
            idxs = rng.choice(p.size, size=count, replace=False)
            flat = p.data.reshape(-1)
            gflat = p.grad.reshape(-1) if p.grad is not None else np.zeros(p.size)
            for idx in idxs:
                original = flat[idx]
                with T.no_grad():  # the differences need values, not graphs
                    flat[idx] = original + h
                    up = loss_value().item()
                    flat[idx] = original - h
                    down = loss_value().item()
                flat[idx] = original
                numeric = (up - down) / (2 * h)
                analytic = float(gflat[idx])
                rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
                entries.append(GradCheckEntry(name, int(idx), analytic, numeric, rel))
        return GradCheckReport(entries)
    finally:
        for p, data, grad in saved_params:
            p.data, p.grad = data, grad
        for m, attrs in saved_modules:
            vars(m).update(attrs)


@dataclass
class HistoryRow:
    iteration: int
    loss: float
    accuracy: float
    lr: float


def history_to_csv(history: list[HistoryRow]) -> str:
    lines = ["iter,loss,acc,lr"]
    for row in history:
        lines.append(f"{row.iteration},{row.loss:.6f},{row.accuracy:.6f},{row.lr:.6f}")
    return "\n".join(lines) + "\n"


def train_loop(
    model: Module,
    dataset: SyntheticDataset,
    config: TrainConfig,
) -> list[HistoryRow]:
    """Deterministic mini-batch training; returns the per-step history."""
    model.train()
    named = list(model.named_parameters())
    optimizer = AdamW(named, weight_decay=config.weight_decay)
    shadow = init_ema(named) if config.ema_decay is not None else None
    order_rng = np.random.default_rng(config.seed)
    history: list[HistoryRow] = []
    iteration = 0
    n = len(dataset)
    while iteration < config.total_iters:
        order = order_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            if iteration >= config.total_iters:
                break
            batch = order[start : start + config.batch_size]
            x = Tensor(dataset.images[batch])
            labels = dataset.labels[batch]
            model.zero_grad()
            logits = model(x)
            loss = label_smoothing_ce(logits, labels, config.smoothing)
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise NumericError(f"non-finite loss at iteration {iteration}")
            loss.backward()
            lr = lr_schedule(iteration, config)
            optimizer.step(lr)
            if shadow is not None:
                ema_update(shadow, named, config.ema_decay)
            acc = float(np.mean(np.argmax(logits.data, axis=1) == labels))
            history.append(HistoryRow(iteration, loss_val, acc, lr))
            iteration += 1
    if shadow is not None:
        for name, p in named:
            p.data = shadow[name].copy()
    model.eval()
    return history


def epoch_accuracy(history: list[HistoryRow], steps_per_epoch: int) -> list[float]:
    """Mean batch accuracy per epoch of the recorded history."""
    out = []
    for start in range(0, len(history), steps_per_epoch):
        chunk = history[start : start + steps_per_epoch]
        if chunk:
            out.append(float(np.mean([r.accuracy for r in chunk])))
    return out
