import os
import resource
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from exmvit.cli import main
from exmvit.config import resolve_variant
from exmvit.model import build_model
from exmvit.tensor import Tensor
from exmvit.train import SyntheticDataset, TrainConfig, train_loop
from exmvit.weights import WeightsFormatError, load_weights, read_weights, save_weights


def tiny_model(seed=0, name="exmvit-576-tiny"):
    return build_model(resolve_variant(name), seed=seed)


class TestRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        model = tiny_model(seed=7)
        path = str(tmp_path / "m.exvt")
        save_weights(model, path, {"variant": model.config.name})
        other = tiny_model(seed=99)
        meta = load_weights(other, path)
        assert meta == {"variant": "exmvit-576-tiny"}
        for (na, pa), (nb, pb) in zip(model.named_parameters(), other.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data), na

    def test_running_stats_round_trip(self, tmp_path):
        model = tiny_model(seed=0)
        # train a couple of steps so running stats move off their init values
        dataset = SyntheticDataset(class_count=8, samples_per_class=2, image_size=64, seed=0)
        train_loop(model, dataset, TrainConfig(total_iters=2, warmup_iters=1, batch_size=8))
        path = str(tmp_path / "m.exvt")
        save_weights(model, path, {})
        other = tiny_model(seed=1)
        load_weights(other, path)
        for (na, ba), (nb, bb) in zip(model.named_buffers(), other.named_buffers()):
            assert na == nb
            assert np.array_equal(ba, bb), na

    def test_logits_identical_after_reload(self, tmp_path):
        model = tiny_model(seed=3).eval()
        path = str(tmp_path / "m.exvt")
        save_weights(model, path, {})
        other = tiny_model(seed=4)
        load_weights(other, path)
        other.eval()
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 64, 64)).astype(np.float32))
        assert np.array_equal(model(x).data, other(x).data)

    def test_metadata_survives(self, tmp_path):
        model = tiny_model()
        path = str(tmp_path / "m.exvt")
        save_weights(model, path, {"seed": 5, "note": "x"})
        meta, tensors = read_weights(path)
        assert meta == {"seed": 5, "note": "x"}
        assert len(tensors) == len(list(model.named_parameters())) + len(
            list(model.named_buffers())
        )


class TestRejection:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.exvt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(WeightsFormatError, match="magic"):
            read_weights(str(path))

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.exvt"
        path.write_bytes(b"EXVT\x63\x00\x00\x00\x00\x00")
        with pytest.raises(WeightsFormatError, match="version"):
            read_weights(str(path))

    def test_name_mismatch_rejected(self, tmp_path):
        model = tiny_model()
        path = str(tmp_path / "m.exvt")
        save_weights(model, path, {})
        other = build_model(resolve_variant("mobilevit-s-tiny"), seed=0)
        with pytest.raises(WeightsFormatError, match="name mismatch"):
            load_weights(other, path)

    def test_shape_mismatch_rejected(self, tmp_path):
        model = tiny_model()
        path = str(tmp_path / "m.exvt")
        save_weights(model, path, {})
        other = tiny_model()
        other.classifier.weight.data = np.zeros((9, 72), dtype=np.float32)
        with pytest.raises(WeightsFormatError, match="shape mismatch"):
            load_weights(other, path)

    def test_mismatch_leaves_no_partial_load_marker(self, tmp_path):
        # name check happens before any copy, so the target stays untouched
        model = tiny_model(seed=0)
        path = str(tmp_path / "m.exvt")
        save_weights(model, path, {})
        other = build_model(resolve_variant("mobilevit-s-tiny"), seed=5)
        before = other.classifier.weight.data.copy()
        with pytest.raises(WeightsFormatError):
            load_weights(other, path)
        assert np.array_equal(other.classifier.weight.data, before)

    def test_shape_mismatch_leaves_target_untouched(self, tmp_path):
        # same names, but the file's classifier is 8-way and the target's 9-way:
        # every shape is checked before the first tensor is copied
        path = str(tmp_path / "m.exvt")
        save_weights(tiny_model(seed=0), path, {})
        other = build_model(resolve_variant("exmvit-576-tiny", {"class_count": 9}), seed=5)
        before = [(name, p.data.copy()) for name, p in other.named_parameters()]
        buffers = [(name, b.copy()) for name, b in other.named_buffers()]
        with pytest.raises(WeightsFormatError, match="shape mismatch for classifier.weight"):
            load_weights(other, path)
        for (name, old), (_, p) in zip(before, other.named_parameters()):
            assert np.array_equal(p.data, old), name
        for (name, old), (_, b) in zip(buffers, other.named_buffers()):
            assert np.array_equal(b, old), name

    def test_truncated_file_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.exvt"
        save_weights(model, str(path), {"variant": model.config.name})
        blob = path.read_bytes()
        cut = tmp_path / "cut.exvt"
        rng = np.random.default_rng(0)
        offsets = [4, 5, 6, 9, 10, 11, 20, 40, 41, len(blob) - 1]
        offsets += sorted(rng.integers(42, len(blob) - 1, size=20).tolist())
        for offset in offsets:
            cut.write_bytes(blob[:offset])
            with pytest.raises(WeightsFormatError):
                load_weights(tiny_model(), str(cut))

    def test_metadata_not_an_object_rejected(self, tmp_path):
        path = str(tmp_path / "m.exvt")
        save_weights(tiny_model(), path, [1])
        with pytest.raises(WeightsFormatError, match="metadata"):
            read_weights(path)

    def test_garbled_lengths_rejected(self, tmp_path):
        path = tmp_path / "m.exvt"
        save_weights(tiny_model(), str(path), {})
        blob = bytearray(path.read_bytes())
        meta_len = int.from_bytes(blob[6:10], "little")
        name_at = 10 + meta_len
        for at in (6, name_at, name_at + 4 + int.from_bytes(blob[name_at : name_at + 4], "little")):
            bad = bytearray(blob)
            bad[at : at + 4] = (0xFFFFFFF0).to_bytes(4, "little")
            (tmp_path / "bad.exvt").write_bytes(bytes(bad))
            with pytest.raises(WeightsFormatError):
                read_weights(str(tmp_path / "bad.exvt"))


@contextmanager
def file_size_limit(limit):
    """Writes past ``limit`` bytes of any file fail with EFBIG (SIGXFSZ ignored)."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)


class TestFailedSave:
    """A save that fails part-way leaves the file it would replace as it was,
    and no other file beside it."""

    def test_existing_file_is_kept(self, tmp_path):
        path = tmp_path / "m.exvt"
        save_weights(tiny_model(seed=7), str(path), {})
        good = path.read_bytes()
        assert len(good) > 4096
        other = tiny_model(seed=8)
        with file_size_limit(4096), pytest.raises(OSError):
            save_weights(other, str(path), {})
        assert path.read_bytes() == good
        assert os.listdir(tmp_path) == ["m.exvt"]

    def test_no_file_is_left_where_none_was(self, tmp_path):
        model = tiny_model()
        with file_size_limit(4096), pytest.raises(OSError):
            save_weights(model, str(tmp_path / "m.exvt"), {})
        assert os.listdir(tmp_path) == []

    def test_cli_build_exits_2_and_keeps_the_checkpoint(self, tmp_path, capsys):
        path = str(tmp_path / "good.exvt")
        argv = ["build", "--variant", "exmvit-576-tiny", "--out", path]
        assert main(argv) == 0
        good = open(path, "rb").read()
        with file_size_limit(4096):
            code = main(argv + ["--seed", "1"])
        assert code == 2
        assert "File too large" in capsys.readouterr().err
        assert open(path, "rb").read() == good
        assert os.listdir(tmp_path) == ["good.exvt"]
