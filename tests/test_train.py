import math
import tracemalloc

import numpy as np
import pytest

from exmvit import train
from exmvit.config import MAX_VALUES, ConfigError, resolve_variant
from exmvit.layers import Linear, Module, init_weights
from exmvit.model import build_model
from exmvit.tensor import NumericError, ShapeError, Tensor
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

from chains import chained_cross_entropy


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
        with pytest.raises(ValueError, match="out of range"):
            label_smoothing_ce(logits, np.array([-1, 0]))

    @pytest.mark.parametrize("labels", [[2], [2, 2, 2, 2], [[2], [2], [2]], 2])
    def test_labels_not_one_per_row(self, labels):
        # numpy would broadcast [2] against three rows without a word
        logits = Tensor(np.zeros((3, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            label_smoothing_ce(logits, np.array(labels))

    @pytest.mark.parametrize("labels", [[0.0, 1.0], [True, False], ["0", "1"]])
    def test_labels_not_integers(self, labels):
        logits = Tensor(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="integers"):
            label_smoothing_ce(logits, np.array(labels))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [8, 10, 1000])
    def test_bitwise_equal_to_chain(self, dtype, k):
        # the one-node loss and its logits gradient keep the bits of the
        # nine-node chain it replaced, which the pinned training runs rely on
        for seed in range(5):
            rng = np.random.default_rng(seed)
            logits = (rng.normal(size=(32, k)) * rng.uniform(0.5, 10.0)).astype(dtype)
            labels = rng.integers(0, k, 32)
            target = np.full((32, k), SMOOTHING / k, dtype=dtype)
            target[np.arange(32), labels] += 1.0 - SMOOTHING
            results = []
            for loss_of in (label_smoothing_ce, lambda x, _: chained_cross_entropy(x, target)):
                x = Tensor(logits, requires_grad=True)
                loss = loss_of(x, labels)
                loss.backward()
                results.append((loss.data, x.grad))
            (loss, grad), (chain_loss, chain_grad) = results
            assert loss.dtype == dtype and np.array_equal(loss, chain_loss)
            assert grad.dtype == dtype and np.array_equal(grad, chain_grad)


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

    @staticmethod
    def per_parameter_step(named, moments, step_count, lr):
        """Oracle: AdamW as one loop over the parameters, each array stepped
        on its own with its own m and v."""
        b1, b2 = ADAM_BETAS
        c1 = 1.0 - b1**step_count
        c2 = 1.0 - b2**step_count
        for name, p in named:
            grad = p.grad
            if grad is None:
                grad = np.zeros_like(p.data)
            m, v = moments[name]
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            if p.ndim > 1:
                p.data -= lr * WEIGHT_DECAY * p.data
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)

    SHAPES = {
        "conv.weight": (4, 3, 3, 3),
        "conv.bias": (4,),
        "norm.gamma": (4,),
        "unused.weight": (2, 5),  # never gets a gradient
        "fc.weight": (5, 4),
        "fc.bias": (5,),
    }

    @pytest.mark.parametrize(
        "dtypes",
        [[np.float32] * 6, [np.float64] * 6, [np.float32, np.float64] * 3],
        ids=["float32", "float64", "mixed"],
    )
    def test_bitwise_equal_to_per_parameter_loop(self, dtypes):
        def params():
            rng = np.random.default_rng(1)
            return [
                (name, Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True))
                for (name, shape), dtype in zip(self.SHAPES.items(), dtypes)
            ]

        grouped, looped = params(), params()
        opt = AdamW(grouped)
        moments = {name: (np.zeros_like(p.data), np.zeros_like(p.data)) for name, p in looped}
        rng = np.random.default_rng(2)
        for step in range(1, 7):
            lr = LR_PEAK * step
            for (name, a), (_, b) in zip(grouped, looped):
                g = None if name == "unused.weight" else rng.normal(0.0, 10.0**-step, a.shape)
                a.grad = b.grad = None if g is None else g.astype(a.dtype)
            opt.step(lr)
            self.per_parameter_step(looped, moments, step, lr)
            for (name, a), (_, b) in zip(grouped, looped):
                assert a.dtype == b.dtype, name
                assert np.array_equal(a.data, b.data), (name, step)

    def test_misshaped_gradient_writes_nothing(self):
        named = [
            ("a.weight", Tensor(np.ones((2, 2)), requires_grad=True)),
            ("b.bias", Tensor(np.ones(3), requires_grad=True)),
            ("c.weight", Tensor(np.ones((3, 2)), requires_grad=True)),
        ]
        opt = AdamW(named)
        for _, p in named:
            p.grad = np.full(p.shape, 0.5)
        opt.step(lr=0.1)  # moments are nonzero from here
        values = [p.data.copy() for _, p in named]
        moments = [(group.m.copy(), group.v.copy()) for group in opt.groups]
        named[2][1].grad = np.ones((2, 3))  # the last one: the others come first
        with pytest.raises(ShapeError, match="c.weight"):
            opt.step(lr=0.1)
        for (_, p), before in zip(named, values):
            assert np.array_equal(p.data, before)
        for group, (m, v) in zip(opt.groups, moments):
            assert np.array_equal(group.m, m) and np.array_equal(group.v, v)
        assert opt.step_count == 1


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

    @pytest.mark.parametrize(
        "sizes",
        [
            dict(class_count=8, samples_per_class=10**15, image_size=64),
            # 3 values over the ceiling: 2**28 + 2
            dict(class_count=1, samples_per_class=(MAX_VALUES + 2) // 3, image_size=1),
        ],
    )
    def test_oversize_set_is_a_config_error_before_allocating(self, monkeypatch, sizes):
        def refuse(*args, **kwargs):
            raise AssertionError("mapped the dataset")

        monkeypatch.setattr(train.mmap, "mmap", refuse)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"values exceeds {MAX_VALUES}"):
                SyntheticDataset(**sizes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024

    def test_largest_set_under_the_ceiling_is_accepted(self, monkeypatch):
        # 2**28 - 1 values pass the check and reach the allocation
        def stop(*args, **kwargs):
            raise RuntimeError("reached the allocation")

        monkeypatch.setattr(train.mmap, "mmap", stop)
        with pytest.raises(RuntimeError, match="reached the allocation"):
            SyntheticDataset(class_count=1, samples_per_class=MAX_VALUES // 3, image_size=1)


class _LinearModel(Module):
    def __init__(self, din, k):
        super().__init__()
        self.fc = Linear(din, k)

    def forward(self, x):
        return self.fc(x)


class TestGradCheck:
    def test_linear_model_tight(self):
        model = init_weights(_LinearModel(6, 4), 0)
        x = np.random.default_rng(1).normal(size=(3, 6))
        labels = np.array([0, 2, 3])
        report = grad_check(model, x, labels, num_samples=28)
        assert report.max_rel_err < 1e-6

    def test_every_parameter_sampled(self):
        model = init_weights(_LinearModel(4, 3), 0)
        x = np.random.default_rng(1).normal(size=(2, 4))
        report = grad_check(model, x, np.array([0, 1]), num_samples=2)
        assert {e.param for e in report.entries} == {"fc.weight", "fc.bias"}

    def test_worst_sorted_descending(self):
        model = init_weights(_LinearModel(4, 3), 0)
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

    def test_ema_copied_back(self, monkeypatch):
        monkeypatch.setattr(train, "EMA_DECAY", 1.0)
        cfg = resolve_variant("exmvit-576-tiny", {"class_count": 4})
        model = build_model(cfg, seed=0)
        start = model.classifier.weight.data.copy()
        train_loop(
            model,
            self.dataset(),
            TrainConfig(total_iters=2, warmup_iters=1, seed=0, batch_size=8, ema=True),
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
