import dataclasses
import gc
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from exmvit import tensor as T
from exmvit.config import REGISTRY, ConfigError, VariantConfig, resolve_variant
from exmvit.layers import ConvNormAct
from exmvit.model import ExShortcut, ShortcutSpec, build_mobilevit_s, build_model
from exmvit.tensor import Tensor
from exmvit.train import SyntheticDataset, TrainConfig, label_smoothing_ce, train_loop

from chains import batch_norm
from held import held_bytes, op_kind


class TestExpandWidth:
    def test_baseline_640(self):
        assert resolve_variant("mobilevit-s").widths == (0, 0, 0, 0, 640)
        assert resolve_variant("mobilevit-s").classifier_width == 640

    def test_576(self):
        assert resolve_variant("exmvit-576").widths == (0, 0, 32, 64, 480)
        assert resolve_variant("exmvit-576").classifier_width == 576

    def test_928(self):
        assert resolve_variant("exmvit-928").widths == (0, 0, 128, 160, 640)
        assert resolve_variant("exmvit-928").classifier_width == 928

    def test_fractional_term_rejected(self):
        with pytest.raises(ConfigError):
            VariantConfig(name="bad", rho=(0, 0, Fraction(1, 7), 0, 4))

    def test_monotone_width(self):
        base = resolve_variant("mobilevit-s")
        wider = dataclasses.replace(base, rho=(0, 0, Fraction(1, 3), 0, 4))
        assert wider.classifier_width > base.classifier_width


class TestShortcutSpec:
    def test_paper_widths(self):
        model = build_model(resolve_variant("exmvit-928-tiny"), seed=0)
        assert [(s.block_index, s.in_channels, s.out_channels) for s in model.shortcut_specs] == [
            (3, 12, 16),
            (4, 16, 20),
            (5, 20, 80),
        ]

    def test_param_count_formula(self):
        spec = ShortcutSpec(4, 128, 160)
        shortcut = ExShortcut(spec)
        total = sum(p.size for p in shortcut.parameters())
        assert total == 128 * 160 + 160  # weights + bias


class TestMakeShortcut:
    def test_identity_conv_constant_feature(self):
        spec = ShortcutSpec(3, 4, 4)
        shortcut = ExShortcut(spec)
        shortcut.pointwise.weight.data[...] = np.eye(4, dtype=np.float32).reshape(4, 4, 1, 1)
        shortcut.pointwise.bias.data[...] = 0.0
        feature = Tensor(np.full((2, 4, 3, 3), 0.75, dtype=np.float32))
        out = shortcut(feature)
        silu = 0.75 / (1.0 + np.exp(-0.75))
        np.testing.assert_allclose(out.data, silu, atol=1e-6)

    def test_channel_mismatch(self):
        spec = ShortcutSpec(3, 4, 4)
        shortcut = ExShortcut(spec)
        with pytest.raises(T.ShapeError):
            shortcut(Tensor(np.zeros((1, 5, 2, 2), dtype=np.float32)))


class TestAssembleAndClassify:
    def test_segment_widths_in_order(self):
        cfg = resolve_variant("exmvit-640")
        model = build_model(cfg, seed=0)
        widths = [s.out_channels for s in model.shortcut_specs]
        assert widths == [32, 128, 480]
        assert [s.block_index for s in model.shortcut_specs] == [3, 4, 5]

    def test_permuting_segments_changes_logits(self):
        cfg = resolve_variant("exmvit-640-tiny")
        model = build_model(cfg, seed=0).eval()
        x = Tensor(np.random.default_rng(1).normal(size=(1, 3, 64, 64)).astype(np.float32))
        feats = model.backbone.forward_collect(x)
        parts = [
            sc(feats[spec.block_index - 1])
            for spec, sc in zip(model.shortcut_specs, model.shortcuts)
        ]
        normal = model.classifier(T.concat(parts, axis=1)).data
        shuffled = model.classifier(T.concat(parts[::-1], axis=1)).data
        assert not np.allclose(normal, shuffled)

    def test_zero_classifier_gives_zero_logits(self):
        cfg = resolve_variant("exmvit-576-tiny")
        model = build_model(cfg, seed=0).eval()
        model.classifier.weight.data[...] = 0.0
        model.classifier.bias.data[...] = 0.0
        x = Tensor(np.random.default_rng(2).normal(size=(1, 3, 64, 64)).astype(np.float32))
        np.testing.assert_array_equal(model(x).data, 0.0)

    def test_classifier_param_count(self):
        cfg = resolve_variant("exmvit-928")
        model = build_model(cfg, seed=0)
        assert model.classifier.weight.size + model.classifier.bias.size == 928 * 1000 + 1000

    def test_batch_independence(self):
        cfg = resolve_variant("exmvit-928-tiny")
        model = build_model(cfg, seed=0).eval()
        rng = np.random.default_rng(3)
        a = rng.normal(size=(1, 3, 64, 64)).astype(np.float32)
        b = rng.normal(size=(1, 3, 64, 64)).astype(np.float32)
        both = model(Tensor(np.concatenate([a, b, a]))).data
        # identical images in one batch give bitwise-identical rows
        np.testing.assert_array_equal(both[0], both[2])
        # and each row matches a solo forward up to accumulation-order noise
        np.testing.assert_allclose(both[0], model(Tensor(a)).data[0], atol=1e-5)
        np.testing.assert_allclose(both[1], model(Tensor(b)).data[0], atol=1e-5)

    def test_widths_match_built_model(self):
        for name, cfg in REGISTRY.items():
            model = build_model(cfg, seed=0)
            built = [shortcut.pointwise.weight.shape[0] for shortcut in model.shortcuts]
            assert built == [w for w in cfg.widths if w], name
            assert model.classifier.weight.shape[1] == sum(built) == cfg.classifier_width, name


class TestDtype:
    def test_parameters_and_logits_are_float32(self):
        model = build_model(resolve_variant("exmvit-640-tiny"), seed=0).eval()
        for name, p in model.named_parameters():
            assert p.data.dtype == np.float32, name
        x = Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32))
        assert model(x).data.dtype == np.float32


class TestBaselineEquivalence:
    def test_bitwise_logits_and_counts(self):
        cfg = resolve_variant("mobilevit-s-tiny")
        expanded = build_model(cfg, seed=11).eval()
        direct = build_mobilevit_s(cfg, seed=11).eval()
        assert sum(p.size for p in expanded.parameters()) == sum(
            p.size for p in direct.parameters()
        )
        x = Tensor(np.random.default_rng(4).normal(size=(2, 3, 64, 64)).astype(np.float32))
        assert np.array_equal(expanded(x).data, direct(x).data)


class TestGradientFlow:
    def test_every_active_shortcut_gets_gradient(self):
        cfg = resolve_variant("exmvit-928-tiny")
        model = build_model(cfg, seed=0)
        dataset = SyntheticDataset(class_count=8, samples_per_class=2, image_size=64, seed=0)
        config = TrainConfig(total_iters=1, warmup_iters=0, seed=0, batch_size=8)
        train_loop(model, dataset, config)
        # gradients of the step remain on the parameters after the step
        for spec, shortcut in zip(model.shortcut_specs, model.shortcuts):
            grad = shortcut.pointwise.weight.grad
            assert grad is not None
            assert np.linalg.norm(grad) > 0, f"no gradient in shortcut {spec.block_index}"

    def test_input_batch_gets_no_gradient(self):
        model = build_model(resolve_variant("exmvit-928-tiny"), seed=0)
        dataset = SyntheticDataset(class_count=8, samples_per_class=2, image_size=64, seed=0)
        inputs, forward = [], model.forward

        def recording_forward(x):
            inputs.append(x)
            return forward(x)

        model.forward = recording_forward
        train_loop(model, dataset, TrainConfig(total_iters=1, warmup_iters=0, seed=0, batch_size=8))
        assert len(inputs) == 1 and inputs[0].grad is None
        for name, p in model.named_parameters():
            assert p.grad is not None, name


class TestGraphRecording:
    @staticmethod
    def inputs(batch=1):
        rng = np.random.default_rng(9)
        return Tensor(rng.normal(size=(batch, 3, 64, 64)).astype(np.float32))

    def test_eval_forward_records_no_graph(self):
        model = build_model(resolve_variant("exmvit-928-tiny"), seed=0).eval()
        x = self.inputs()
        features = model.backbone.forward_collect(x)
        for out in [model(x), *features, model.assemble_classifier_input(features)]:
            assert out._parents == () and not out.requires_grad

    def test_train_mode_records_graph_again(self):
        model = build_model(resolve_variant("exmvit-928-tiny"), seed=0).eval()
        x = self.inputs(batch=2)
        model(x)
        model.train()
        logits = model(x)
        assert logits.requires_grad and logits._parents
        label_smoothing_ce(logits, np.array([0, 1])).backward()
        for spec, shortcut in zip(model.shortcut_specs, model.shortcuts):
            grad = shortcut.pointwise.weight.grad
            assert grad is not None and np.linalg.norm(grad) > 0, spec.block_index

    def test_eval_forward_peak_memory_well_below_train(self):
        model = build_model(resolve_variant("exmvit-928-tiny"), seed=0)
        x = self.inputs(batch=8)

        def traced_peak(mode):
            model.train(mode)
            tracemalloc.start()
            try:
                out = model(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            del out
            return peak

        # Once a ratio, eval below a quarter of train. The train forward peak
        # fell 5.83 -> 4.62 MB when the depthwise and dense convs began to
        # release their outputs, so eval keeps its bound of a quarter of the
        # old train peak, and train gets its own just above its new value
        eval_peak, train_peak = traced_peak(False), traced_peak(True)
        assert eval_peak < 0.25 * 5.83e6, eval_peak
        assert train_peak < 4.7e6, train_peak

    def test_train_forward_graph_is_small(self):
        # a training ConvNormAct is one node; its batch norm was once a chain
        # of eighteen nodes per call, constants included (1066 nodes in all)
        model = build_model(resolve_variant("exmvit-928-tiny"), seed=0).train()
        root = model(self.inputs(batch=2))
        seen, stack = set(), [root]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
        assert len(seen) < 600, len(seen)

    @staticmethod
    def batch32():
        """exmvit-928-tiny in train mode at seed 0, and a seed-0 batch of 32."""
        cfg = resolve_variant("exmvit-928-tiny")
        model = build_model(cfg, seed=0).train()
        data = SyntheticDataset(cfg.class_count, 4, cfg.input_size, seed=0)
        return model, Tensor(data.images[:32]), data.labels[:32]

    def test_fused_conv_norm_act_step_bitwise_equal_to_chain(self, monkeypatch):
        # one training step with each ConvNormAct as one op, then as the conv
        # followed by the norm as a node of its own
        def step():
            model, x, labels = self.batch32()
            loss = label_smoothing_ce(model(x), labels)
            loss.backward()
            grads = [p.grad for p in model.parameters()]
            return [loss.data] + grads + [b for _, b in model.named_buffers()]

        fused = step()

        def conv_then_norm(self, x):
            n = self.norm
            stats = (n.running_mean, n.running_var)
            return batch_norm(self.conv(x), n.gamma, n.beta, *stats, act=self.act)

        monkeypatch.setattr(ConvNormAct, "forward", conv_then_norm)
        chain = step()
        assert len(fused) == len(chain)
        for mine, theirs in zip(fused, chain):
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)

    @staticmethod
    def conv_kind(node):
        """``op_kind``, with each conv named by its kernel as perfbench's layer rows are."""
        kind = op_kind(node)
        if kind == "conv2d":
            w = node._parents[1]
            kind = "conv1x1" if w.shape[2:] == (1, 1) else "dwconv3x3" if w.shape[1] == 1 else "conv3x3"
        return kind

    def test_step_holds_each_activation_once(self):
        # 16.9 MiB after forward and loss: 12.3 of node outputs (8.4 of them
        # the pointwise convs'), and 4.4 that only closures hold, the
        # depthwise and dense convs' norm xhat, from which their released
        # outputs are rebuilt when read. The backward rebuilds what else it
        # reads from arrays the graph holds. Keeping the depthwise and dense
        # outputs would add 4.4 MiB, the pointwise convs' norm xhat 8.0, the
        # layer norms' xhat 0.46, attention's per-head q, k and v 0.47, the
        # feed-forward sigmoids 0.33, the 24 norm sigmoids 11.0, the shortcut
        # convs' sigmoids 0.21 and a padded copy of each non-pointwise conv's
        # input 11.2
        model, x, labels = self.batch32()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = label_smoothing_ce(model(x), labels)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held < 19 * 2**20, held / 2**20
        kinds = held_bytes(loss, self.conv_kind)
        assert kinds["dwconv3x3"]["outputs"] == kinds["conv3x3"]["outputs"] == 0, kinds
        xhat = kinds["dwconv3x3"]["closures"] + kinds["conv3x3"]["closures"]
        assert 4.3 * 2**20 < xhat < 4.5 * 2**20, xhat / 2**20
        # the pointwise convs' closures hold their norms' statistics and no
        # map: the three shortcut convs rebuild their SiLU's pre-activation
        assert kinds["conv1x1"]["closures"] < 16 * 2**10, kinds["conv1x1"]
        assert sum(k["outputs"] + k["closures"] for k in kinds.values()) <= held

    def test_dropped_training_forward_is_freed_without_gc(self):
        # no reference cycle: a released output's rebuild and its producer's
        # closure reach neither the output nor its node
        model, x, labels = self.batch32()
        gc.disable()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = label_smoothing_ce(model(x), labels)
            held = tracemalloc.get_traced_memory()[0] - base
            del loss
            left = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held > 16 * 2**20 and left < 2**20, (held / 2**20, left)

    def test_backward_peak_stays_near_what_the_step_holds(self):
        # 16.9 MiB held, 18.3 MiB at the backward's peak: each conv cuts its
        # columns one batch chunk at a time. Whole-batch columns (10.1 MiB in
        # the 32-channel 16x16 depthwise conv's input gradient) peaked at 35.6
        model, x, labels = self.batch32()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = label_smoothing_ce(model(x), labels)
            held = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= held + 2 * 2**20, (held / 2**20, peak / 2**20)

    def test_train_step_records_one_node_per_op(self):
        # each op of a step is one node, named by its backward closure (the
        # two patch folds share _permute's)
        model = build_model(resolve_variant("exmvit-928-tiny"), seed=0).train()
        loss = label_smoothing_ce(model(self.inputs(batch=2)), np.array([0, 1]))
        kinds, seen, stack = {}, set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._backward is not None:
                kind = node._backward.__qualname__.split(".")[0]
                kinds[kind] = kinds.get(kind, 0) + 1
            stack.extend(node._parents)
        assert kinds == {
            "conv2d": 37,  # 31 of them with their batch norm and SiLU
            "linear": 19,
            "layer_norm": 9,
            "add": 8,
            "scale": 6,
            "_permute": 6,
            "concat": 4,
            "_attend": 3,
            "global_avg_pool": 3,
            "cross_entropy": 1,
        }
