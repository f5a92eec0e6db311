import math

import numpy as np
import pytest

from exmvit.config import resolve_variant
from exmvit.layers import Linear, Module
from exmvit.model import build_model
from exmvit.tensor import NumericError, Tensor
from exmvit.train import (
    ADAM_BETAS,
    ADAM_EPS,
    LR_PEAK,
    SMOOTHING,
    WEIGHT_DECAY,
    AdamW,
    GradCheckReport,
    SyntheticDataset,
    TrainConfig,
    ema_update,
    epoch_accuracy,
    grad_check,
    history_to_csv,
    init_ema,
    label_smoothing_ce,
    lr_schedule,
    train_loop,
)


class TestLabelSmoothingCE:
    def test_uniform_logits_give_ln_k(self):
        for k in (2, 8, 1000):
            logits = Tensor(np.zeros((3, k), dtype=np.float32))
            loss = label_smoothing_ce(logits, np.zeros(3, dtype=np.int64))
            assert math.isclose(loss.item(), math.log(k), rel_tol=1e-5)

    def test_smoothed_direct_formula(self):
        rng = np.random.default_rng(1)
        logits_np = rng.normal(size=(2, 6)).astype(np.float64)
        labels = np.array([1, 5])
        s = SMOOTHING
        loss = label_smoothing_ce(Tensor(logits_np), labels)
        shifted = logits_np - logits_np.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        target = np.full((2, 6), s / 6)
        target[np.arange(2), labels] += 1 - s
        expected = -(target * log_probs).sum(axis=1).mean()
        assert math.isclose(loss.item(), expected, rel_tol=1e-10)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        logits_np = rng.normal(size=(3, 4)).astype(np.float64)
        labels = np.array([0, 1, 2])
        a = label_smoothing_ce(Tensor(logits_np), labels).item()
        b = label_smoothing_ce(Tensor(logits_np + 1000.0), labels).item()
        assert math.isclose(a, b, rel_tol=1e-9)

    def test_bad_inputs(self):
        logits = Tensor(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            label_smoothing_ce(logits, np.array([0, 3]))


class TestLrSchedule:
    CFG = TrainConfig(total_iters=30000, warmup_iters=3000)

    def test_endpoints_exact_in_f32(self):
        assert np.float32(lr_schedule(0, self.CFG)) == np.float32(0.0002)
        assert np.float32(lr_schedule(3000, self.CFG)) == np.float32(0.002)
        assert np.float32(lr_schedule(30000, self.CFG)) == np.float32(0.0002)

    def test_warmup_is_linear(self):
        quarter = lr_schedule(750, self.CFG)
        assert math.isclose(quarter, 0.0002 + 0.25 * 0.0018, rel_tol=1e-12)

    def test_cosine_midpoint(self):
        mid = lr_schedule(3000 + 13500, self.CFG)
        assert math.isclose(mid, (0.0002 + 0.002) / 2, rel_tol=1e-9)

    def test_continuity_at_warmup_boundary(self):
        assert abs(lr_schedule(2999, self.CFG) - lr_schedule(3000, self.CFG)) < 1e-5

    def test_monotone_decay_after_peak(self):
        values = [lr_schedule(i, self.CFG) for i in range(3000, 30001, 500)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            TrainConfig(total_iters=10, warmup_iters=10)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"total_iters": 0, "warmup_iters": 0}, "total_iters must be at least 1"),
            ({"total_iters": -1, "warmup_iters": 0}, "total_iters must be at least 1"),
            ({"total_iters": 10, "warmup_iters": 1, "batch_size": 0}, "batch_size must be at least 1"),
            ({"total_iters": 10, "warmup_iters": 1, "batch_size": -4}, "batch_size must be at least 1"),
            ({"total_iters": 10, "warmup_iters": -3}, "warmup_iters must not be negative"),
        ],
    )
    def test_rejects_counts_out_of_range(self, fields, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**fields)

    def test_smallest_valid_run(self):
        config = TrainConfig(total_iters=1, warmup_iters=0, batch_size=1)
        assert lr_schedule(0, config) == pytest.approx(LR_PEAK)


class TestAdamW:
    def test_first_step_is_signed_lr(self):
        # with bias correction the first update is -lr * grad / (|grad| + eps)
        p = Tensor(np.array([1.0, -2.0], dtype=np.float64), requires_grad=True)
        p.grad = np.array([0.5, -3.0])
        opt = AdamW([("p", p)])
        opt.step(lr=0.1)
        expected = [1.0 - 0.1 * 0.5 / (0.5 + ADAM_EPS), -2.0 + 0.1 * 3.0 / (3.0 + ADAM_EPS)]
        np.testing.assert_allclose(p.data, expected, rtol=1e-12)

    def test_scalar_recursion_oracle(self):
        # hand-rolled Adam recursion on one weight matrix entry
        p = Tensor(np.array([[2.0]], dtype=np.float64), requires_grad=True)
        opt = AdamW([("w", p)])
        b1, b2 = ADAM_BETAS
        grads = [0.3, -0.7, 1.1]
        m = v = 0.0
        x = 2.0
        for t, g in enumerate(grads, start=1):
            p.grad = np.array([[g]])
            opt.step(lr=0.05)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= 0.05 * WEIGHT_DECAY * x  # decoupled decay (ndim > 1)
            x -= 0.05 * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + ADAM_EPS)
        assert math.isclose(p.data[0, 0], x, rel_tol=1e-12)

    def test_vectors_not_decayed(self):
        p = Tensor(np.array([5.0], dtype=np.float64), requires_grad=True)
        p.grad = np.zeros(1)
        opt = AdamW([("bias", p)])
        opt.step(lr=1.0)
        assert p.data[0] == 5.0  # zero grad, no decay on 1-D params

    def test_matrices_decayed(self):
        p = Tensor(np.array([[5.0]], dtype=np.float64), requires_grad=True)
        p.grad = np.zeros((1, 1))
        opt = AdamW([("w", p)])
        opt.step(lr=1.0)
        assert math.isclose(p.data[0, 0], 5.0 * (1.0 - WEIGHT_DECAY), rel_tol=1e-12)


class TestEma:
    def test_update_formula(self):
        p = Tensor(np.array([2.0, 4.0]), requires_grad=True)
        shadow = init_ema([("p", p)])
        p.data[...] = [4.0, 8.0]
        ema_update(shadow, [("p", p)], decay=0.75)
        np.testing.assert_allclose(shadow["p"], [2.5, 5.0])

    def test_decay_one_freezes_shadow(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        shadow = init_ema([("p", p)])
        p.data[...] = 100.0
        ema_update(shadow, [("p", p)], decay=1.0)
        assert shadow["p"][0] == 1.0


class TestSyntheticDataset:
    def test_deterministic(self):
        a = SyntheticDataset(class_count=3, samples_per_class=4, image_size=16, seed=7)
        b = SyntheticDataset(class_count=3, samples_per_class=4, image_size=16, seed=7)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_shapes_and_range(self):
        d = SyntheticDataset(class_count=3, samples_per_class=4, image_size=16, seed=0)
        assert d.images.shape == (12, 3, 16, 16)
        assert d.images.dtype == np.float32
        assert d.images.min() >= 0.0 and d.images.max() <= 1.0
        assert len(d) == 12
        assert sorted(set(d.labels.tolist())) == [0, 1, 2]

    def test_seed_changes_data(self):
        a = SyntheticDataset(class_count=2, samples_per_class=2, image_size=16, seed=0)
        b = SyntheticDataset(class_count=2, samples_per_class=2, image_size=16, seed=1)
        assert not np.array_equal(a.images, b.images)

    def test_arrays_are_writable_class_blocks(self):
        d = SyntheticDataset(class_count=3, samples_per_class=2, image_size=8, seed=0)
        assert d.images.flags.c_contiguous and d.images.flags.writeable
        assert d.labels.dtype == np.int64
        assert d.labels.tolist() == [0, 0, 1, 1, 2, 2]
        d.images[:] = np.nan
        assert np.isnan(d.images).all()


class _LinearModel(Module):
    def __init__(self, rng, din, k):
        super().__init__()
        self.fc = Linear(rng, din, k)

    def forward(self, x):
        return self.fc(x)


class TestGradCheck:
    def test_linear_model_tight(self):
        model = _LinearModel(np.random.default_rng(0), 6, 4)
        x = np.random.default_rng(1).normal(size=(3, 6))
        labels = np.array([0, 2, 3])
        report = grad_check(model, x, labels, num_samples=28)
        assert report.max_rel_err < 1e-6

    def test_every_parameter_sampled(self):
        model = _LinearModel(np.random.default_rng(0), 4, 3)
        x = np.random.default_rng(1).normal(size=(2, 4))
        report = grad_check(model, x, np.array([0, 1]), num_samples=2)
        assert {e.param for e in report.entries} == {"fc.weight", "fc.bias"}

    def test_worst_sorted_descending(self):
        model = _LinearModel(np.random.default_rng(0), 4, 3)
        x = np.random.default_rng(1).normal(size=(2, 4))
        report = grad_check(model, x, np.array([0, 1]), num_samples=20)
        worst = report.worst(5)
        assert all(a.rel_err >= b.rel_err for a, b in zip(worst, worst[1:]))

    def test_full_tiny_model(self):
        model = build_model(resolve_variant("exmvit-640-tiny"), seed=0)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 3, 64, 64))
        labels = rng.integers(0, 8, size=1)
        report = grad_check(model, x, labels, num_samples=120, seed=0)
        assert report.max_rel_err <= 1e-3

    def test_leaves_model_as_found(self):
        model = build_model(resolve_variant("exmvit-576-tiny"), seed=0).eval()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 3, 64, 64))
        params = {name: p.data.copy() for name, p in model.named_parameters()}
        buffers = {name: b.copy() for name, b in model.named_buffers()}

        def assert_as_found():
            for _, m in model.modules():
                assert not m.training
            for name, p in model.named_parameters():
                assert p.data.dtype == np.float32 and p.grad is None, name
                assert np.array_equal(p.data, params[name]), name
            for name, b in model.named_buffers():
                assert b.dtype == np.float32 and np.array_equal(b, buffers[name]), name

        with pytest.raises(ValueError):  # label out of range, raised mid-check
            grad_check(model, x, np.array([99]), num_samples=4)
        assert_as_found()
        grad_check(model, x, np.array([1]), num_samples=4)
        assert_as_found()


class TestTrainLoop:
    @staticmethod
    def dataset():
        return SyntheticDataset(class_count=4, samples_per_class=8, image_size=64, seed=0)

    def test_history_wiring(self):
        model = build_model(
            resolve_variant("exmvit-576-tiny", {"class_count": 4}), seed=0
        )
        cfg = TrainConfig(total_iters=4, warmup_iters=2, seed=0, batch_size=8)
        history = train_loop(model, self.dataset(), cfg)
        assert [row.iteration for row in history] == [0, 1, 2, 3]
        assert [row.lr for row in history] == [lr_schedule(i, cfg) for i in range(4)]
        # untrained logits are near-uniform over 4 classes
        assert abs(history[0].loss - math.log(4)) < 0.5

    def test_bitwise_reproducible(self):
        cfg = resolve_variant("exmvit-576-tiny", {"class_count": 4})
        runs = []
        for _ in range(2):
            model = build_model(cfg, seed=3)
            history = train_loop(
                model,
                self.dataset(),
                TrainConfig(total_iters=3, warmup_iters=1, seed=3, batch_size=8),
            )
            runs.append(([r.loss for r in history], model.classifier.weight.data.copy()))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_ema_copied_back(self):
        cfg = resolve_variant("exmvit-576-tiny", {"class_count": 4})
        model = build_model(cfg, seed=0)
        start = model.classifier.weight.data.copy()
        train_loop(
            model,
            self.dataset(),
            TrainConfig(total_iters=2, warmup_iters=1, seed=0, batch_size=8, ema_decay=1.0),
        )
        # decay 1.0 keeps the shadow at initialization; copy-back restores it
        np.testing.assert_array_equal(model.classifier.weight.data, start)

    def test_loss_decreases(self):
        cfg = resolve_variant("exmvit-576-tiny", {"class_count": 4})
        model = build_model(cfg, seed=0)
        history = train_loop(
            model,
            self.dataset(),
            TrainConfig(total_iters=20, warmup_iters=2, seed=0, batch_size=8),
        )
        first = np.mean([r.loss for r in history[:4]])
        last = np.mean([r.loss for r in history[-4:]])
        assert last < first

    def test_nan_weight_raises(self):
        model = build_model(resolve_variant("exmvit-576-tiny", {"class_count": 4}), seed=0)
        model.classifier.weight.data[0, 0] = np.nan
        config = TrainConfig(total_iters=2, warmup_iters=1, seed=0, batch_size=8)
        with pytest.raises(NumericError):
            train_loop(model, self.dataset(), config)

    def test_epoch_accuracy_grouping(self):
        history = train_loop(
            build_model(resolve_variant("exmvit-576-tiny", {"class_count": 4}), seed=0),
            self.dataset(),
            TrainConfig(total_iters=8, warmup_iters=1, seed=0, batch_size=8),
        )
        per_epoch = epoch_accuracy(history, steps_per_epoch=4)
        assert len(per_epoch) == 2
        assert per_epoch[0] == pytest.approx(np.mean([r.accuracy for r in history[:4]]))

    def test_history_csv_format(self):
        rows = train_loop(
            build_model(resolve_variant("exmvit-576-tiny", {"class_count": 4}), seed=0),
            self.dataset(),
            TrainConfig(total_iters=2, warmup_iters=1, seed=0, batch_size=8),
        )
        csv = history_to_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == "iter,loss,acc,lr"
        assert len(lines) == 3
        assert lines[1].startswith("0,")
