import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import exmvit
from exmvit.audit import count_params, overhead_report
from exmvit.cli import main
from exmvit.config import ConfigError, config_from_json, resolve_variant
from exmvit.model import build_model
from exmvit.tensor import Tensor
from exmvit.weights import MAGIC, WeightsFormatError, load_weights, read_weights, save_weights


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_ppm(path, size=64, seed=0):
    pixels = np.random.default_rng(seed).integers(0, 256, (size, size, 3), dtype=np.uint8)
    path.write_bytes(b"P6\n%d %d\n255\n" % (size, size) + pixels.tobytes())
    return str(path)


@pytest.fixture()
def checkpoint(tmp_path, capsys):
    path = str(tmp_path / "model.exvt")
    code, _, _ = run(capsys, "build", "--variant", "exmvit-640-tiny", "--seed", "5", "--out", path)
    assert code == 0
    return path


class TestBuild:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.exvt"), str(tmp_path / "b.exvt")
        for out in (a, b):
            code, stdout, _ = run(
                capsys, "build", "--variant", "exmvit-576-tiny", "--seed", "3", "--out", out
            )
            assert code == 0
            assert "exmvit-576-tiny" in stdout
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_seed_changes_bytes(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.exvt"), str(tmp_path / "b.exvt")
        run(capsys, "build", "--variant", "exmvit-576-tiny", "--seed", "3", "--out", a)
        run(capsys, "build", "--variant", "exmvit-576-tiny", "--seed", "4", "--out", b)
        assert open(a, "rb").read() != open(b, "rb").read()

    def test_metadata_written(self, checkpoint):
        metadata, _ = read_weights(checkpoint)
        assert metadata == {
            "config": resolve_variant("exmvit-640-tiny").to_json(),
            "variant": "exmvit-640-tiny",
            "profile": "tiny",
            "seed": 5,
            "class_count": 8,
            "input_size": 64,
        }

    def test_unknown_variant_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "build", "--variant", "exmvit-999", "--out", str(tmp_path / "x.exvt")
        )
        assert code == 2
        assert "error:" in err and "exmvit-999" in err

    @pytest.mark.parametrize("case", ["missing_dir", "directory"])
    def test_unwritable_out_exits_2_before_drawing(self, tmp_path, monkeypatch, capsys, case):
        def refuse(model, seed):
            raise AssertionError("drew initial weights")

        monkeypatch.setattr("exmvit.model.init_weights", refuse)
        out = tmp_path / "nope" / "m.exvt" if case == "missing_dir" else tmp_path / "m.exvt"
        if case == "directory":
            out.mkdir()
        code, stdout, err = run(capsys, "build", "--variant", "exmvit-576-tiny", "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: --out {out}")
        assert "partial" not in err
        left = sorted(p.name for p in tmp_path.rglob("*"))
        assert left == ([] if case == "missing_dir" else ["m.exvt"])


class TestAudit:
    def test_json_matches_library_counts(self, capsys):
        code, out, _ = run(capsys, "audit", "--variant", "exmvit-640-tiny", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        report = count_params(build_model(resolve_variant("exmvit-640-tiny"), seed=0))
        assert doc["strict_total"] == report.strict_total
        assert doc["paper_convention_total"] == report.paper_convention_total
        assert doc["classifier_width"] == 80  # 640 // 8

    def test_json_output_stable(self, capsys):
        runs = [
            run(capsys, "audit", "--variant", "exmvit-928-tiny", "--format", "json")[1]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_weights_audit_matches_variant_audit(self, checkpoint, capsys):
        _, from_weights, _ = run(capsys, "audit", "--weights", checkpoint, "--format", "json")
        _, from_variant, _ = run(
            capsys, "audit", "--variant", "exmvit-640-tiny", "--format", "json"
        )
        assert from_weights == from_variant

    def test_table_has_totals(self, capsys):
        code, out, _ = run(capsys, "audit", "--variant", "mobilevit-s-tiny")
        assert code == 0
        assert "strict total:" in out and "paper-convention total:" in out

    def test_requires_variant_or_weights(self, capsys):
        with pytest.raises(SystemExit):
            main(["audit"])

    MODEL_FLAGS = [
        ["--variant", "exmvit-928"],
        ["--config", "custom.json"],
        ["--profile", "imagenet"],
        ["--input-size", "128"],
        ["--class-count", "5"],
        ["--class-count", "0"],
        ["--allow-early-shortcuts"],
    ]

    @pytest.mark.parametrize("flags", MODEL_FLAGS, ids=" ".join)
    def test_weights_refuses_a_flag_that_chooses_a_model(self, checkpoint, capsys, flags):
        code, out, err = run(capsys, "audit", "--weights", checkpoint, *flags)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and flags[0] in err

    def test_weights_names_every_refused_flag(self, checkpoint, capsys):
        argv = ["audit", "--weights", checkpoint, "--variant", "exmvit-928", "--class-count", "5"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "--variant, --class-count" in err


    def test_config_block_channels_off_profile_exit_2(self, tmp_path, capsys):
        doc = json.loads(resolve_variant("exmvit-576-tiny").to_json())
        doc["block_channels"] = [4, 8, 24, 16, 20]
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "audit", "--config", str(path))
        assert code == 2
        assert out == ""
        assert "block_channels" in err

    def test_config_takes_size_and_class_count_flags(self, tmp_path, capsys):
        path = tmp_path / "custom.json"
        path.write_text(resolve_variant("exmvit-576-tiny").to_json())
        flags = ["--input-size", "128", "--class-count", "5", "--format", "json"]
        code, out, _ = run(capsys, "audit", "--config", str(path), *flags)
        assert code == 0
        rows = {row["name"]: row for row in json.loads(out)["layers"]}
        assert rows["stem.conv"]["out_shape"] == [1, 2, 64, 64]
        assert rows["classifier"]["out_shape"] == [1, 5]
        code, _, err = run(capsys, "audit", "--config", str(path), "--input-size", "100")
        assert code == 2 and "divisible by 32" in err

    def test_config_overhead_does_not_depend_on_the_name(self, tmp_path, capsys):
        doc = json.loads(resolve_variant("exmvit-576-tiny").to_json())
        doc["rho"] = ["0", "0", "1", "1", "4"]
        overheads = []
        for name in ("mobilevit-wide", "exmvit-wide"):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(dict(doc, name=name)))
            code, out, _ = run(capsys, "audit", "--config", str(path), "--format", "json")
            assert code == 0
            overheads.append(json.loads(out)["overhead_vs_baseline_percent"])
        assert overheads[0] == overheads[1] > 0

    def test_config_takes_allow_early_shortcuts(self, tmp_path, capsys):
        doc = json.loads(resolve_variant("exmvit-576-tiny").to_json())
        doc["rho"][0] = "1"
        path = tmp_path / "early.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "audit", "--config", str(path))
        assert code == 2 and "rho_1 and rho_2 must be 0" in err
        flags = ["--allow-early-shortcuts", "--format", "json"]
        code, out, _ = run(capsys, "audit", "--config", str(path), *flags)
        assert code == 0
        names = [row["name"] for row in json.loads(out)["layers"]]
        assert "shortcut1.pointwise" in names


def tiny_doc(**changes):
    """exmvit-576-tiny's config document with some fields replaced."""
    doc = json.loads(resolve_variant("exmvit-576-tiny").to_json())
    doc.update(changes)
    return json.dumps(doc)


def rho_with(entry):
    return tiny_doc(rho=["0", "0", "1/3", entry, "3"])


DEEP = "[" * 100_000 + "]" * 100_000

MALFORMED_CONFIGS = {
    "rho-entry-letter": rho_with("a"),
    "rho-entry-nan": rho_with(float("nan")),  # json.dumps writes NaN, which json.loads reads
    "rho-entry-1e400": rho_with("RHO").replace('"RHO"', "1e400"),
    "rho-entry-1-over-0": rho_with("1/0"),
    "rho-entry-exponent": rho_with("1e100000000"),
    "rho-entry-list": rho_with([1]),
    "rho-entry-bool": rho_with(True),
    "rho-scalar": tiny_doc(rho=5),
    "rho-nested-list": tiny_doc(rho=[[1]]),
    "input-size-string": tiny_doc(input_size="64"),
    "class-count-float": tiny_doc(class_count=8.5),
    "profile-list": tiny_doc(profile=["tiny"]),
    "name-number": tiny_doc(name=5),
    "invalid-json": '{"name": "x", "rho": [',
    "not-an-object": "[1, 2]",
    "number-document": "0",
    "null-document": "null",
    "empty-document": "",
    "nested-100000-deep": DEEP,
    "not-utf8": b'{"name": "\xff"}',
    # a 20 M-wide or a 1 G-row classifier: over the weight ceiling
    "rho-huge": tiny_doc(rho=["0", "0", "0", "0", "1000000"]),
    "class-count-huge": tiny_doc(class_count=1_000_000_000),
}


class TestMalformedConfig:
    """A malformed --config document is a ConfigError and exit 2, never a traceback."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_config_error_and_exit_2(self, case, tmp_path, capsys):
        document = MALFORMED_CONFIGS[case]
        with pytest.raises(ConfigError):
            config_from_json(document)
        path = tmp_path / "bad.json"
        if isinstance(document, bytes):
            path.write_bytes(document)
        else:
            path.write_text(document)
        code, out, err = run(capsys, "audit", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_config_is_a_directory_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "audit", "--config", str(tmp_path))
        assert code == 2 and err.startswith("error: ")


class TestHeadWeightCeiling:
    """A config whose shortcut and classifier weights exceed the ceiling is a
    ConfigError, exit 2, from flags and from weights metadata as from --config."""

    def test_class_count_flag_exit_2(self, capsys):
        argv = ["audit", "--variant", "exmvit-928", "--class-count", "1000000000"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "exceed" in err

    def test_metadata_class_count_exit_2(self, checkpoint, tmp_path, capsys):
        metadata, _ = read_weights(checkpoint)
        del metadata["config"]  # rebuilt through the registry and the overrides
        metadata["class_count"] = 1_000_000_000
        path = str(tmp_path / "huge.exvt")
        save_weights(build_model(resolve_variant("exmvit-640-tiny"), seed=5), path, metadata)
        code, out, err = run(capsys, "audit", "--weights", path)
        assert code == 2 and out == "" and "exceed" in err

    def test_metadata_config_exit_2(self, checkpoint, tmp_path, capsys):
        metadata, _ = read_weights(checkpoint)
        doc = json.loads(metadata["config"])
        doc["rho"][4] = "1000000"
        metadata["config"] = json.dumps(doc)
        path = str(tmp_path / "huge.exvt")
        save_weights(build_model(resolve_variant("exmvit-640-tiny"), seed=5), path, metadata)
        code, out, err = run(capsys, "audit", "--weights", path)
        assert code == 2 and out == "" and "exceed" in err


class TestNonFiniteWeights:
    def test_infer_with_a_nan_weight_exits_2(self, checkpoint, tmp_path, capsys):
        metadata, _ = read_weights(checkpoint)
        model = build_model(resolve_variant("exmvit-640-tiny"), seed=5)
        load_weights(model, checkpoint)
        model.backbone.block4[1].transformer[0].ffn1.weight.data[3, 2] = np.nan
        path = str(tmp_path / "nan.exvt")
        save_weights(model, path, metadata)
        image = write_ppm(tmp_path / "img.ppm")
        code, out, err = run(capsys, "infer", "--weights", path, "--image", image)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "non-finite" in err


class TestCustomConfigCheckpoint:
    """A checkpoint built from --config reads back without a registry entry."""

    DOC = {"name": "my-custom", "rho": ["0", "0", "2/3", "1/2", "3"], "profile": "tiny"}

    @pytest.fixture()
    def built(self, tmp_path, capsys):
        config = tmp_path / "custom.json"
        config.write_text(json.dumps(self.DOC))
        weights = str(tmp_path / "custom.exvt")
        code, _, err = run(capsys, "build", "--config", str(config), "--seed", "2", "--out", weights)
        assert code == 0, err
        return str(config), weights

    def test_infer_and_audit_read_it_back(self, built, tmp_path, capsys):
        config, weights = built
        image = write_ppm(tmp_path / "img.ppm")
        code, out, err = run(capsys, "infer", "--weights", weights, "--image", image)
        assert code == 0, err
        assert len(out.strip().split("\n")) == 5
        for fmt in ("table", "json"):
            sources = (("--weights", weights), ("--config", config))
            audits = [run(capsys, "audit", flag, path, "--format", fmt) for flag, path in sources]
            assert [code for code, _, _ in audits] == [0, 0]
            assert audits[0][1] == audits[1][1]
        assert json.loads(audits[0][1])["classifier_width"] == 8 + 8 + 60  # 2/3·12, 1/2·16, 3·20

    def test_export_features_reads_it_back(self, built, tmp_path, capsys):
        _, weights = built
        image = write_ppm(tmp_path / "img.ppm")
        out = str(tmp_path / "feat.bin")
        argv = ["--weights", weights, "--image", image, "--block", "3", "--out", out]
        assert run(capsys, "export-features", *argv)[0] == 0
        assert json.loads(open(out + ".json").read())["variant"] == "my-custom"

    @pytest.mark.parametrize(
        "change",
        [{"config": "["}, {"config": 5}, {"input_size": 128}, {"variant": "exmvit-576-tiny"}],
        ids=["config-not-json", "config-not-text", "size-disagrees", "name-disagrees"],
    )
    def test_bad_or_disagreeing_config_exit_2(self, built, tmp_path, change, capsys):
        _, weights = built
        metadata, _ = read_weights(weights)
        metadata.update(change)
        path = str(tmp_path / "edited.exvt")
        model = build_model(config_from_json(json.dumps(self.DOC)), seed=2)
        save_weights(model, path, metadata)
        code, out, err = run(capsys, "audit", "--weights", path)
        assert code == 2 and out == ""
        assert "'config'" in err


def test_deeply_nested_weights_metadata_exit_2(tmp_path, capsys):
    meta = DEEP.encode()
    path = tmp_path / "deep.exvt"
    path.write_bytes(MAGIC + (1).to_bytes(2, "little") + len(meta).to_bytes(4, "little") + meta)
    with pytest.raises(WeightsFormatError):
        read_weights(str(path))
    code, out, err = run(capsys, "audit", "--weights", str(path))
    assert code == 2 and out == "" and err.startswith("error: ")


class TestSizeAndCountFlags:
    """Zero and negative --input-size / --class-count are refused, not dropped."""

    BAD = [
        ("--input-size", "0", "input_size"),
        ("--input-size", "-64", "input_size"),
        ("--class-count", "0", "class_count"),
    ]

    @pytest.mark.parametrize("flag, value, field", BAD)
    def test_audit_exits_2(self, capsys, flag, value, field):
        code, out, err = run(capsys, "audit", "--variant", "exmvit-928-tiny", flag, value)
        assert code == 2
        assert out == ""
        assert field in err

    @pytest.mark.parametrize("flag, value, field", BAD)
    def test_build_exits_2_and_writes_nothing(self, tmp_path, capsys, flag, value, field):
        path = tmp_path / "model.exvt"
        argv = ["build", "--variant", "exmvit-928-tiny", "--out", str(path), flag, value]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert field in err
        assert not path.exists()

    @pytest.mark.parametrize("flag, value, field", BAD)
    def test_applied_on_top_of_config(self, tmp_path, capsys, flag, value, field):
        path = tmp_path / "custom.json"
        path.write_text(resolve_variant("exmvit-576-tiny").to_json())
        code, _, err = run(capsys, "audit", "--config", str(path), flag, value)
        assert code == 2 and field in err


class TestWeightsMetadata:
    @pytest.mark.parametrize("key", ["variant", "profile", "class_count", "input_size"])
    def test_missing_build_field_exit_2(self, checkpoint, tmp_path, key, capsys):
        metadata, _ = read_weights(checkpoint)
        del metadata[key]
        path = str(tmp_path / "partial.exvt")
        save_weights(build_model(resolve_variant("exmvit-640-tiny"), seed=5), path, metadata)
        code, out, err = run(capsys, "audit", "--weights", path)
        assert code == 2 and out == ""
        assert repr(key) in err

    def test_seed_is_informational(self, checkpoint, tmp_path, capsys):
        metadata, _ = read_weights(checkpoint)
        metadata["seed"] = "not a number"
        path = str(tmp_path / "odd-seed.exvt")
        save_weights(build_model(resolve_variant("exmvit-640-tiny"), seed=5), path, metadata)
        assert run(capsys, "audit", "--weights", path)[0] == 0

    @pytest.mark.parametrize("command", ["audit", "infer", "export-features"])
    def test_empty_metadata_exit_2(self, tmp_path, command, capsys):
        path = str(tmp_path / "bare.exvt")
        save_weights(build_model(resolve_variant("exmvit-640-tiny"), seed=0), path, {})
        argv = [command, "--weights", path]
        if command != "audit":
            argv += ["--image", write_ppm(tmp_path / "img.ppm")]
        if command == "export-features":
            argv += ["--out", str(tmp_path / "x.bin")]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "'variant' is missing" in err

    @pytest.mark.parametrize("command", ["audit", "infer"])
    def test_bool_class_count_exit_2(self, checkpoint, tmp_path, command, capsys):
        # True is an int to isinstance; it must not reach the model builder
        metadata, _ = read_weights(checkpoint)
        del metadata["config"]
        metadata["class_count"] = True
        path = str(tmp_path / "bool.exvt")
        save_weights(build_model(resolve_variant("exmvit-640-tiny"), seed=5), path, metadata)
        argv = [command, "--weights", path]
        if command == "infer":
            argv += ["--image", write_ppm(tmp_path / "img.ppm")]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "'class_count'" in err


class TestInputSizeOffThePatchGrid:
    """A multiple of 32 that is not one of 64 leaves block 5 a map that does
    not split into 2x2 patches: every command refuses it before it builds a
    model or a dataset, or writes a file."""

    @pytest.fixture(autouse=True)
    def refuse_building(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a model or a dataset")

        for target in ("exmvit.cli.build_model", "exmvit.cli.ExMobileViT", "exmvit.train.SyntheticDataset"):
            monkeypatch.setattr(target, refuse)

    @pytest.mark.parametrize("size", ["32", "96", "224"])
    @pytest.mark.parametrize("command", ["audit", "trace", "build", "train", "grad-check"])
    def test_exits_2_before_building(self, tmp_path, capsys, command, size):
        target = tmp_path / "out.exvt"
        argv = [command, "--variant", "exmvit-928-tiny", "--input-size", size]
        if command in ("build", "train"):
            argv += ["--out", str(target)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"input_size {size} not divisible by 64" in err
        assert not target.exists()


class TestTrace:
    def test_tiny_trace_reaches_2x2(self, capsys):
        code, out, _ = run(capsys, "trace", "--variant", "exmvit-576-tiny")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("stem")
        assert lines[-1].split()[-1] == "1x20x2x2"

    def test_input_size_override(self, capsys):
        _, out, _ = run(
            capsys, "trace", "--variant", "exmvit-576-tiny", "--input-size", "128"
        )
        assert out.strip().split("\n")[-1].split()[-1] == "1x20x4x4"

    def test_input_size_override_on_config(self, tmp_path, capsys):
        path = tmp_path / "custom.json"
        path.write_text(resolve_variant("exmvit-576-tiny").to_json())
        _, out, _ = run(capsys, "trace", "--config", str(path), "--input-size", "128")
        assert out.strip().split("\n")[-1].split()[-1] == "1x20x4x4"


class TestTrain:
    def test_one_epoch_writes_artifacts(self, tmp_path, capsys):
        ckpt = str(tmp_path / "trained.exvt")
        hist = str(tmp_path / "history.csv")
        code, out, _ = run(
            capsys,
            "train",
            "--variant",
            "exmvit-576-tiny",
            "--epochs",
            "1",
            "--samples-per-class",
            "4",
            "--batch-size",
            "8",
            "--out",
            ckpt,
            "--history",
            hist,
        )
        assert code == 0
        assert "epoch 1: train_acc=" in out
        metadata, tensors = read_weights(ckpt)
        assert metadata["variant"] == "exmvit-576-tiny"
        csv = open(hist).read().strip().split("\n")
        assert csv[0] == "iter,loss,acc,lr"
        assert len(csv) == 5  # header + ceil(32 / 8) steps


class TestTrainOutputChecked:
    """``train`` refuses an ``--out`` or ``--history`` it could not write
    before it builds the dataset, not after the last step."""

    SMALL = ("train", "--variant", "exmvit-576-tiny", "--epochs", "1", "--samples-per-class", "2")

    @pytest.mark.parametrize("flag", ["--out", "--history"])
    def test_missing_directory_exits_2_before_training(self, tmp_path, monkeypatch, capsys, flag):
        def refuse(*args, **kwargs):
            raise AssertionError("built the dataset")

        monkeypatch.setattr("exmvit.train.SyntheticDataset", refuse)
        target = tmp_path / "missing_dir" / "m.exvt"
        code, out, err = run(capsys, *self.SMALL, flag, str(target))
        assert code == 2 and "epoch 1:" not in out
        assert err.startswith("error: ") and "does not exist" in err
        assert not target.parent.exists()

    def test_directory_as_target_exits_2(self, tmp_path, capsys):
        code, out, err = run(capsys, *self.SMALL, "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert "is a directory" in err

    def test_relative_paths(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *self.SMALL, "--out", "missing_dir/m.exvt")
        assert code == 2 and out == ""
        assert err.startswith("error: --out missing_dir/m.exvt: directory missing_dir")
        # a bare file name goes to the working directory, which exists
        code, out, _ = run(capsys, *self.SMALL, "--out", "m.exvt", "--history", "h.csv")
        assert code == 0 and "epoch 1:" in out
        assert (tmp_path / "m.exvt").exists() and (tmp_path / "h.csv").exists()


class TestBadNumericFlags:
    SMALL = ("train", "--variant", "exmvit-576-tiny", "--epochs", "1", "--samples-per-class", "2")

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--epochs", "0", "--epochs must be at least 1"),
            ("--epochs", "-1", "--epochs must be at least 1"),
            ("--batch-size", "0", "--batch-size must be at least 1"),
            ("--batch-size", "-4", "--batch-size must be at least 1"),
            ("--samples-per-class", "0", "--samples-per-class must be at least 1"),
            ("--warmup", "1000", "--warmup 1000 must be below the number of steps, 1"),
            ("--warmup", "-3", "--warmup must not be negative"),
        ],
    )
    def test_bad_numeric_flag_exits_2(self, capsys, flag, value, message):
        code, out, err = run(capsys, *self.SMALL, flag, value)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("command", ["build", "train", "grad-check"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        argv = [command, "--variant", "exmvit-576-tiny", "--seed", "-1"]
        if command == "build":
            argv += ["--out", str(tmp_path / "model.exvt")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --seed: must not be negative, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("train", "--epochs", "1", "--input-size", str(2**32)), "an image exceeds"),
            (("grad-check", "--input-size", str(2**40)), "an image exceeds"),
            (("train", "--epochs", "1", "--samples-per-class", str(10**15)), "synthetic set"),
        ],
    )
    def test_oversize_count_exits_2_before_allocating(self, monkeypatch, capsys, argv, message):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated a model or a dataset")

        monkeypatch.setattr("exmvit.cli.build_model", refuse)
        monkeypatch.setattr("exmvit.train.SyntheticDataset", refuse)
        code, out, err = run(capsys, *argv, "--variant", "exmvit-928-tiny")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err

    def test_one_step_run_defaults_to_no_warmup(self, capsys):
        # 8 classes x 2 samples in one batch of 32: the default warm-up of
        # one step would not fit in the run
        code, out, _ = run(capsys, *self.SMALL)
        assert code == 0 and "epoch 1: train_acc=" in out


class TestGradCheck:
    def test_tiny_model_passes(self, capsys):
        code, out, _ = run(capsys, "grad-check", "--variant", "exmvit-576-tiny")
        assert code == 0
        assert "PASS" in out

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run(
            capsys, "grad-check", "--variant", "exmvit-576-tiny", "--tolerance", "0"
        )
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_tolerance_exits_2(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["grad-check", "--variant", "exmvit-576-tiny", "--tolerance", value])
        assert exc.value.code == 2
        assert "argument --tolerance: must be finite and not negative" in capsys.readouterr().err


class TestInfer:
    def test_probs_ranked_and_sum_to_one(self, checkpoint, tmp_path, capsys):
        image = write_ppm(tmp_path / "img.ppm")
        code, out, _ = run(capsys, "infer", "--weights", checkpoint, "--image", image)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        probs = [float(line.split()[-1]) for line in lines]
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert abs(sum(probs)) <= 1.0 + 1e-4

    def test_deterministic(self, checkpoint, tmp_path, capsys):
        image = write_ppm(tmp_path / "img.ppm")
        a = run(capsys, "infer", "--weights", checkpoint, "--image", image)[1]
        b = run(capsys, "infer", "--weights", checkpoint, "--image", image)[1]
        assert a == b

    def test_malformed_image_exit_2(self, checkpoint, tmp_path, capsys):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6\n8 8\n255\n" + bytes(10))
        code, _, err = run(capsys, "infer", "--weights", checkpoint, "--image", str(bad))
        assert code == 2
        assert "truncated" in err

    def test_missing_file_exit_2(self, checkpoint, tmp_path, capsys):
        code, _, err = run(
            capsys, "infer", "--weights", checkpoint, "--image", str(tmp_path / "nope.ppm")
        )
        assert code == 2
        assert "error:" in err


class TestExportFeatures:
    def test_block4_bytes_round_trip(self, checkpoint, tmp_path, capsys):
        image = write_ppm(tmp_path / "img.ppm", seed=1)
        out = str(tmp_path / "feat.bin")
        code, stdout, _ = run(
            capsys,
            "export-features",
            "--weights",
            checkpoint,
            "--image",
            image,
            "--block",
            "4",
            "--out",
            out,
        )
        assert code == 0
        sidecar = json.loads(open(out + ".json").read())
        assert sidecar == {
            "shape": [1, 16, 4, 4],
            "block": 4,
            "variant": "exmvit-640-tiny",
            "dtype": "float32-le",
            "source": "block4",
        }
        raw = np.frombuffer(open(out, "rb").read(), dtype="<f4").reshape(1, 16, 4, 4)
        # matches the in-process forward pass on the same decoded input
        from exmvit.cli import _model_from_weights
        from exmvit.image_io import prepare_input

        model, _ = _model_from_weights(checkpoint)
        feats = model.backbone.forward_collect(Tensor(prepare_input(image, 64)))
        np.testing.assert_array_equal(raw, feats[3].data)

    def test_classifier_input_width(self, checkpoint, tmp_path, capsys):
        image = write_ppm(tmp_path / "img.ppm", seed=2)
        out = str(tmp_path / "vec.bin")
        code, _, _ = run(
            capsys,
            "export-features",
            "--weights",
            checkpoint,
            "--image",
            image,
            "--export-classifier-input",
            "--out",
            out,
        )
        assert code == 0
        sidecar = json.loads(open(out + ".json").read())
        assert sidecar["shape"] == [1, 80]
        assert sidecar["source"] == "classifier_input"
        assert len(open(out, "rb").read()) == 80 * 4

    def test_block_out_of_range_exit_2(self, checkpoint, tmp_path, capsys):
        image = write_ppm(tmp_path / "img.ppm")
        code, _, err = run(
            capsys,
            "export-features",
            "--weights",
            checkpoint,
            "--image",
            image,
            "--block",
            "6",
            "--out",
            str(tmp_path / "x.bin"),
        )
        assert code == 2
        assert "1..5" in err

    def test_block_checked_before_any_work(self, checkpoint, tmp_path, capsys):
        missing = str(tmp_path / "missing.ppm")
        argv = ["--weights", checkpoint, "--image", missing, "--out", str(tmp_path / "x.bin")]
        code, _, err = run(capsys, "export-features", *argv, "--block", "6")
        assert code == 2
        assert "1..5" in err

    @pytest.mark.parametrize("blocked", ["out", "sidecar"])
    def test_unwritable_target_exits_2_and_writes_nothing(
        self, checkpoint, tmp_path, capsys, blocked
    ):
        image = write_ppm(tmp_path / "img.ppm")
        out = tmp_path / "f.bin"
        (tmp_path / ("f.bin" if blocked == "out" else "f.bin.json")).mkdir()
        argv = ["--weights", checkpoint, "--image", image, "--out", str(out)]
        code, _, err = run(capsys, "export-features", *argv)
        assert code == 2
        assert "is a directory" in err
        assert out.is_dir() if blocked == "out" else not out.exists()


class TestLoadOrCountDrawsNothing:
    """Commands that only load or count a model construct it undrawn."""

    def test_commands_run_without_init_weights(self, checkpoint, tmp_path, monkeypatch, capsys):
        def refuse(model, seed):
            raise AssertionError("drew initial weights")

        monkeypatch.setattr("exmvit.model.init_weights", refuse)
        image = write_ppm(tmp_path / "in.ppm")
        features = ("--weights", checkpoint, "--image", image, "--out", str(tmp_path / "f.bin"))
        for argv in [
            ("audit", "--variant", "exmvit-576-tiny"),
            ("audit", "--weights", checkpoint, "--format", "json"),
            ("trace", "--variant", "exmvit-576"),
            ("infer", "--weights", checkpoint, "--image", image),
            ("export-features", *features),
        ]:
            code, _, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
        assert [r["variant"] for r in overhead_report(["exmvit-928"])] == ["exmvit-928"]

    def test_audit_of_a_huge_classifier_touches_none_of_it(self):
        # 3.5M classes make a classifier of about 1.4 GB, which counting leaves
        # untouched. The child reports the peak resident set of its own address
        # space (VmHWM): its ru_maxrss would also hold this test session's peak,
        # which Linux carries into a process at exec
        script = (
            "import sys\n"
            "from exmvit.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(fh.read().split('VmHWM:')[1].split()[0], file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        src = str(Path(exmvit.__file__).parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        argv = ["audit", "--variant", "exmvit-576-tiny", "--class-count", "3500000"]
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv, "--format", "json"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["layers"][-1]["out_shape"] == [1, 3_500_000]
        peak_kb = int(proc.stderr.split()[-1])
        assert peak_kb * 1024 < 200e6
