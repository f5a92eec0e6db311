"""Binary weights files.

Layout (little-endian throughout):
  magic "EXVT" | format version u16 | metadata length u32 | metadata JSON
  then one entry per tensor in canonical depth-first graph order:
  name length u32 | name UTF-8 | rank u32 | extents u32 each | raw f32 data

Both trainable parameters and batch-norm running statistics are stored, so
a loaded model is inference-ready. A file that is truncated or garbled is
rejected with ``WeightsFormatError``, and so is any name or shape that does
not match the target graph; every name and shape is checked before the
first tensor is copied, so a rejected load leaves the model untouched.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .layers import Module

MAGIC = b"EXVT"
VERSION = 1


class WeightsFormatError(ValueError):
    pass


def _entries(model: Module) -> list[tuple[str, np.ndarray]]:
    out = [(name, p.data) for name, p in model.named_parameters()]
    out.extend(model.named_buffers())
    return out


def save_weights(model: Module, path: str, metadata: dict) -> None:
    meta = json.dumps(metadata, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", VERSION))
        fh.write(struct.pack("<I", len(meta)))
        fh.write(meta)
        for name, data in _entries(model):
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
            fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


def read_weights(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise WeightsFormatError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    try:
        return _parse(blob)
    except WeightsFormatError:
        raise
    except (ValueError, struct.error, RecursionError) as exc:
        raise WeightsFormatError(f"{path}: truncated or corrupt weights file ({exc})") from exc


def _parse(blob: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != VERSION:
        raise WeightsFormatError(f"unsupported weights version {version}")
    (meta_len,) = struct.unpack_from("<I", blob, 6)
    offset = 10
    metadata = json.loads(blob[offset : offset + meta_len].decode("utf-8"))
    if not isinstance(metadata, dict):
        raise WeightsFormatError(f"metadata is a {type(metadata).__name__}, not an object")
    offset += meta_len
    tensors: dict[str, np.ndarray] = {}
    while offset < len(blob):
        (name_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        name = blob[offset : offset + name_len].decode("utf-8")
        offset += name_len
        (rank,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        shape = struct.unpack_from(f"<{rank}I", blob, offset)
        offset += 4 * rank
        count = int(np.prod(shape)) if rank else 1
        data = np.frombuffer(blob, dtype="<f4", count=count, offset=offset).reshape(shape)
        offset += 4 * count
        tensors[name] = data.copy()
    return metadata, tensors


def load_weights(model: Module, path: str) -> dict:
    """Load a weights file into a built model graph; returns the metadata."""
    metadata, tensors = read_weights(path)
    load_tensors(model, tensors)
    return metadata


def load_tensors(model: Module, tensors: dict[str, np.ndarray]) -> None:
    """Copy ``read_weights`` tensors into a built model graph, all or nothing."""
    expected = _entries(model)
    expected_names = [name for name, _ in expected]
    if expected_names != list(tensors):
        missing = set(expected_names) - set(tensors)
        extra = set(tensors) - set(expected_names)
        raise WeightsFormatError(
            f"parameter name mismatch (missing: {sorted(missing)}, unexpected: {sorted(extra)})"
        )
    for name, target in expected:
        src = tensors[name]
        if src.shape != target.shape:
            raise WeightsFormatError(
                f"shape mismatch for {name}: file has {src.shape}, model has {target.shape}"
            )
    for name, target in expected:
        target[...] = tensors[name]
