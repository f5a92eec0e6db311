"""Command-line surface: build, audit, trace, train, grad-check, infer,
and feature export."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import audit as audit_mod
from . import train as train_mod
from .config import (
    ConfigError,
    VariantConfig,
    apply_overrides,
    config_from_json,
    resolve_variant,
)
from .image_io import ImageParseError, prepare_input
from .model import ExMobileViT, build_model
from .tensor import NumericError, ShapeError, Tensor
from .weights import WeightsFormatError, load_weights, read_metadata, save_weights


def _resolve(args) -> VariantConfig:
    overrides = {}
    if getattr(args, "input_size", None) is not None:
        overrides["input_size"] = args.input_size
    if getattr(args, "class_count", None) is not None:
        overrides["class_count"] = args.class_count
    allow_early = getattr(args, "allow_early_shortcuts", False)
    if getattr(args, "config", None):
        # --profile is not applied to a document: train and grad-check give it
        # a default, so a flag the user gave cannot be told from the default
        with open(args.config, "rb") as fh:
            document = config_from_json(fh.read(), allow_early_shortcuts=allow_early)
        return apply_overrides(document, overrides, allow_early_shortcuts=allow_early)
    if getattr(args, "profile", None):
        overrides["profile"] = args.profile
    return resolve_variant(args.variant, overrides, allow_early_shortcuts=allow_early)


class OutputPathError(OSError):
    """A file a command would write has no writable place to go."""


def _check_writable(flag: str, path: str) -> None:
    """Refuse ``path`` unless its directory exists and can be written to, and
    the file, if it exists, can be overwritten."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise OutputPathError(f"{flag} {path}: directory {directory} does not exist")
    if os.path.isdir(path):
        raise OutputPathError(f"{flag} {path} is a directory")
    target = path if os.path.exists(path) else directory
    if not os.access(target, os.W_OK):
        raise OutputPathError(f"{flag} {path}: {target} is not writable")


def _metadata(config, seed: int) -> dict:
    return {
        "config": config.to_json(),
        "variant": config.name,
        "profile": config.profile,
        "seed": seed,
        "class_count": config.class_count,
        "input_size": config.input_size,
    }


# metadata a weights file must carry for the CLI to rebuild its model
_BUILD_METADATA = {"variant": str, "profile": str, "class_count": int, "input_size": int}


def _model_from_weights(path: str):
    metadata = read_metadata(path)
    for key, kind in _BUILD_METADATA.items():
        value = metadata.get(key)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise WeightsFormatError(
                f"{path}: metadata field {key!r} is missing or not {kind.__name__}"
            )
    if "config" in metadata:
        # the config the model was built from, so a --config model reads back too
        try:
            cfg = config_from_json(metadata["config"], allow_early_shortcuts=True)
        except ConfigError as exc:
            raise WeightsFormatError(f"{path}: metadata field 'config': {exc}") from None
        written = _metadata(cfg, seed=None)
        if any(metadata[key] != written[key] for key in _BUILD_METADATA):
            raise WeightsFormatError(f"{path}: metadata field 'config' disagrees with the rest")
    else:
        # a file without 'config' names a registered variant
        cfg = resolve_variant(
            metadata["variant"],
            {key: metadata[key] for key in ("profile", "class_count", "input_size")},
        )
    model = ExMobileViT(cfg)
    load_weights(model, path)
    model.eval()
    return model, metadata


def cmd_build(args) -> int:
    config = _resolve(args)
    _check_writable("--out", args.out)  # before the draw and save_weights' temporary file
    model = build_model(config, seed=args.seed)
    save_weights(model, args.out, _metadata(config, args.seed))
    print(f"built {config.name} ({config.profile}) -> {args.out}")
    return 0


# the flags of _add_variant_args, by dest: with --weights the file fixes the model
_MODEL_FLAGS = ("variant", "config", "profile", "input_size", "class_count", "allow_early_shortcuts")


def cmd_audit(args) -> int:
    if args.weights:
        given = [
            "--" + dest.replace("_", "-")
            for dest in _MODEL_FLAGS
            if (value := getattr(args, dest)) is not None and value is not False
        ]
        if given:
            raise ConfigError(f"--weights fixes the model; {', '.join(given)} cannot be given with it")
        model, _ = _model_from_weights(args.weights)
    else:
        model = ExMobileViT(_resolve(args))
    report = audit_mod.count_params(model)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_table())
    return 0


def cmd_trace(args) -> int:
    config = _resolve(args)
    model = ExMobileViT(config)
    for name, shape in audit_mod.trace_shapes(model, config.input_size):
        print(f"{name:<24} {'x'.join(str(e) for e in shape)}")
    return 0


def cmd_train(args) -> int:
    config = _resolve(args)
    for flag, value in (
        ("--epochs", args.epochs),
        ("--batch-size", args.batch_size),
        ("--samples-per-class", args.samples_per_class),
    ):
        if value < 1:
            raise ConfigError(f"{flag} must be at least 1, got {value}")
    if args.warmup is not None and args.warmup < 0:
        raise ConfigError(f"--warmup must not be negative, got {args.warmup}")
    # known before any step runs: a run that cannot save would lose its weights
    for flag, path in (("--out", args.out), ("--history", args.history)):
        if path:
            _check_writable(flag, path)
    # SyntheticDataset runs the same check; calling it first keeps an oversize
    # request from reaching any constructor
    train_mod.check_synthetic_size(config.class_count, args.samples_per_class, config.input_size)
    dataset = train_mod.SyntheticDataset(
        class_count=config.class_count,
        samples_per_class=args.samples_per_class,
        image_size=config.input_size,
        seed=args.seed,
    )
    steps_per_epoch = math.ceil(len(dataset) / args.batch_size)
    total_iters = steps_per_epoch * args.epochs
    # a tenth of the run by default, and none for a one-step run
    warmup = min(max(1, total_iters // 10), total_iters - 1) if args.warmup is None else args.warmup
    if warmup >= total_iters:
        raise ConfigError(f"--warmup {warmup} must be below the number of steps, {total_iters}")
    train_config = train_mod.TrainConfig(
        total_iters=total_iters,
        warmup_iters=warmup,
        ema=args.ema,
        seed=args.seed,
        batch_size=args.batch_size,
    )
    model = build_model(config, seed=args.seed)
    history = train_mod.train_loop(model, dataset, train_config)
    epoch_acc = train_mod.epoch_accuracy(history, steps_per_epoch)
    for epoch, acc in enumerate(epoch_acc, start=1):
        print(f"epoch {epoch}: train_acc={acc:.4f}")
    if args.out:
        save_weights(model, args.out, _metadata(config, args.seed))
        print(f"checkpoint -> {args.out}")
    if args.history:
        with open(args.history, "w", encoding="utf-8") as fh:
            fh.write(train_mod.history_to_csv(history))
        print(f"history -> {args.history}")
    return 0


def cmd_grad_check(args) -> int:
    config = _resolve(args)
    model = build_model(config, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    x = rng.normal(0.0, 1.0, (1, 3, config.input_size, config.input_size))
    labels = rng.integers(0, config.class_count, size=1)
    report = train_mod.grad_check(model, x, labels, seed=args.seed)
    print(f"checked {len(report.entries)} parameters, max rel err {report.max_rel_err:.3e}")
    print(f"{'parameter':<50} {'analytic':>12} {'numeric':>12} {'rel_err':>10}")
    for e in report.worst(10):
        print(f"{e.param:<50} {e.analytic:>12.5e} {e.numeric:>12.5e} {e.rel_err:>10.3e}")
    if report.max_rel_err > args.tolerance:
        print(f"FAIL: max rel err exceeds tolerance {args.tolerance}")
        return 1
    print(f"PASS: within tolerance {args.tolerance}")
    return 0


def cmd_infer(args) -> int:
    model, metadata = _model_from_weights(args.weights)
    x = Tensor(prepare_input(args.image, metadata["input_size"]))
    logits = model(x).data[0]
    shifted = np.exp(logits - logits.max())
    probs = shifted / shifted.sum()
    top = np.argsort(-probs)[: min(5, len(probs))]
    for rank, idx in enumerate(top, start=1):
        print(f"{rank}. class {idx}: {probs[idx]:.6f}")
    return 0


def cmd_export_features(args) -> int:
    if not args.export_classifier_input and not 1 <= args.block <= 5:
        raise ConfigError(f"--block {args.block} out of valid range 1..5")
    # both files are known before the weights load: a failed sidecar would
    # leave the raw file behind without its shape
    for path in (args.out, args.out + ".json"):
        _check_writable("--out", path)
    model, metadata = _model_from_weights(args.weights)
    x = Tensor(prepare_input(args.image, metadata["input_size"]))
    features = model.backbone.forward_collect(x)
    if args.export_classifier_input:
        tensor = model.assemble_classifier_input(features)
        label = "classifier_input"
    else:
        tensor = features[args.block - 1]
        label = f"block{args.block}"
    data = np.ascontiguousarray(tensor.data, dtype="<f4")
    with open(args.out, "wb") as fh:
        fh.write(data.tobytes())
    sidecar = {
        "shape": list(tensor.shape),
        "block": None if args.export_classifier_input else args.block,
        "variant": metadata["variant"],
        "dtype": "float32-le",
        "source": label,
    }
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
    print(f"{label} shape {tuple(tensor.shape)} -> {args.out}")
    return 0


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take only non-negative seeds."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _tolerance(text: str) -> float:
    """A ``--tolerance`` value: finite and not negative (no error exceeds a NaN)."""
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and not negative, got {text}")
    return value


def _add_variant_args(p, default_profile=None):
    p.add_argument("--variant", help="registered variant name")
    p.add_argument("--config", help="JSON config document (overrides --variant)")
    p.add_argument("--profile", default=default_profile, choices=["imagenet", "tiny"])
    p.add_argument("--input-size", type=int, dest="input_size")
    p.add_argument("--class-count", type=int, dest="class_count")
    p.add_argument("--allow-early-shortcuts", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exmvit",
        description="Build, audit, and train MobileViT models with channel-expansion shortcuts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="initialize a model and write a weights file")
    _add_variant_args(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("audit", help="parameter counts and overheads")
    _add_variant_args(p)
    p.add_argument("--weights")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("trace", help="symbolic shape trace")
    _add_variant_args(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("train", help="toy-scale training on synthetic data")
    _add_variant_args(p, default_profile="tiny")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--batch-size", type=int, default=32, dest="batch_size")
    p.add_argument("--samples-per-class", type=int, default=64, dest="samples_per_class")
    p.add_argument("--warmup", type=int, default=None)
    p.add_argument("--ema", action="store_true")
    p.add_argument("--out")
    p.add_argument("--history")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grad-check", help="finite-difference gradient verification")
    _add_variant_args(p, default_profile="tiny")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tolerance", type=_tolerance, default=1e-3)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("infer", help="classify a PPM/PGM image")
    p.add_argument("--weights", required=True)
    p.add_argument("--image", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("export-features", help="dump a block feature map as raw f32")
    p.add_argument("--weights", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--block", type=int, default=5)
    p.add_argument("--export-classifier-input", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_features)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "variant", None) is None and getattr(args, "config", None) is None:
        needs_variant = args.command in ("build", "trace", "train", "grad-check") or (
            args.command == "audit" and not args.weights
        )
        if needs_variant:
            parser.error(f"{args.command} requires --variant or --config")
    try:
        return args.func(args)
    except (ConfigError, WeightsFormatError, ImageParseError, ShapeError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
