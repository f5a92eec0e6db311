"""A load holds no copy of the model, a read holds one, a build holds the
model and one chunk of draws; a file that shrinks during a load fails, and a
model cast to float64 still loads."""

import os
import tracemalloc

import numpy as np
import pytest

from exmvit import weights
from exmvit.config import resolve_variant
from exmvit.model import build_model
from exmvit.weights import WeightsFormatError, load_weights, read_weights, save_weights

MiB = 1 << 20


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def imagenet(tmp_path_factory):
    config = resolve_variant("exmvit-928")
    model = build_model(config, seed=0)
    path = str(tmp_path_factory.mktemp("weights") / "exmvit-928.exvt")
    save_weights(model, path, {"variant": config.name})
    return config, model, path


class TestTracedPeaks:
    def test_build_holds_the_parameters_and_one_chunk(self, imagenet):
        config, model, _ = imagenet
        params = sum(p.data.nbytes for p in model.parameters())
        assert traced_peak(lambda: build_model(config, seed=0)) <= params + 2 * MiB

    def test_read_holds_one_copy_of_the_file(self, imagenet):
        _, _, path = imagenet
        assert traced_peak(lambda: read_weights(path)) <= os.path.getsize(path) + MiB

    def test_load_holds_no_copy_of_the_model(self, imagenet):
        _, model, path = imagenet
        assert traced_peak(lambda: load_weights(model, path)) < MiB

    def test_read_returns_views_of_one_buffer(self, imagenet):
        _, model, path = imagenet
        _, tensors = read_weights(path)
        owners = set()
        for t in tensors.values():
            while isinstance(t, np.ndarray):
                t = t.base
            owners.add(id(t.obj))  # the buffer behind numpy's memoryview
        assert len(owners) == 1
        for name, p in model.named_parameters():
            assert np.array_equal(tensors[name], p.data), name


class TestFileShrinksDuringLoad:
    """A file cut short after its header was walked raises, not a short copy."""

    @pytest.fixture
    def shrinking(self, tmp_path, monkeypatch):
        model = build_model(resolve_variant("exmvit-576-tiny"), seed=7)
        path = str(tmp_path / "m.exvt")
        save_weights(model, path, {})
        walk = weights._header

        def walk_then_shrink(fh, name):
            out = walk(fh, name)
            os.truncate(path, os.path.getsize(path) // 2)
            return out

        monkeypatch.setattr(weights, "_header", walk_then_shrink)
        return model, path

    def test_load_raises(self, shrinking):
        model, path = shrinking
        target = build_model(resolve_variant("exmvit-576-tiny"), seed=8)
        with pytest.raises(WeightsFormatError, match="truncated"):
            load_weights(target, path)
        # the load stopped part-way: the first tensor came from the file
        first = next(iter(model.parameters())).data
        assert np.array_equal(next(iter(target.parameters())).data, first)

    def test_read_raises(self, shrinking):
        _, path = shrinking
        with pytest.raises(WeightsFormatError, match="truncated"):
            read_weights(path)


def test_load_into_a_float64_model(tmp_path):
    # a target that is not float32 takes the file's values cast, as before
    model = build_model(resolve_variant("exmvit-576-tiny"), seed=7)
    path = str(tmp_path / "m.exvt")
    save_weights(model, path, {})
    target = build_model(resolve_variant("exmvit-576-tiny"), seed=8).astype(np.float64)
    load_weights(target, path)
    for (name, p), (_, q) in zip(model.named_parameters(), target.named_parameters()):
        assert q.data.dtype == np.float64
        assert np.array_equal(q.data, p.data.astype(np.float64)), name
    for (name, b), (_, c) in zip(model.named_buffers(), target.named_buffers()):
        assert np.array_equal(c, b.astype(np.float64)), name
