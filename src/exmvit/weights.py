"""Binary weights files.

Layout (little-endian throughout):
  magic "EXVT" | format version u16 | metadata length u32 | metadata JSON
  then one entry per tensor in canonical depth-first graph order:
  name length u32 | name UTF-8 | rank u32 | extents u32 each | raw f32 data

Both trainable parameters and batch-norm running statistics are stored, so
a loaded model is inference-ready. A file that is truncated or garbled is
rejected with ``WeightsFormatError``, and so is any name or shape that does
not match the target graph.

A walk of the header reads the metadata and each entry's name, shape and
data offset, seeking past the data, and checks every length against the
file's size. ``load_weights`` holds no copy of the model: it checks every
name and shape against the model before the first tensor is written, so a
rejected load leaves the model untouched, then streams each tensor's bytes
straight into the model's own array. Only a file that shrinks during the
load can stop it part-way. ``read_weights`` holds one copy: the
whole file in one buffer, which the tensors it returns are views into.
"""

from __future__ import annotations

import json
import math
import os
import struct
from typing import BinaryIO

import numpy as np

from .layers import Module

MAGIC = b"EXVT"
VERSION = 1
_F32 = np.dtype("<f4")

# one tensor entry of the header: name, shape and the offset of its data
Entry = tuple[str, tuple[int, ...], int]


class WeightsFormatError(ValueError):
    pass


def _entries(model: Module) -> list[tuple[str, np.ndarray]]:
    out = [(name, p.data) for name, p in model.named_parameters()]
    out.extend(model.named_buffers())
    return out


def save_weights(model: Module, path: str, metadata: dict) -> None:
    """Write to a file next to ``path`` that replaces it after its last byte:
    a save that fails part-way leaves ``path`` as it was, and no other file."""
    meta = json.dumps(metadata, sort_keys=True).encode("utf-8")
    partial = f"{path}.{os.getpid()}.partial"
    fh = open(partial, "xb")
    try:
        with fh:
            fh.write(MAGIC + struct.pack("<HI", VERSION, len(meta)) + meta)
            for name, data in _entries(model):
                encoded = name.encode("utf-8")
                shape = struct.pack(f"<{data.ndim + 1}I", data.ndim, *data.shape)
                fh.write(struct.pack("<I", len(encoded)) + encoded + shape)
                fh.write(np.ascontiguousarray(data, dtype=_F32).tobytes())
        os.replace(partial, path)
    except BaseException:
        os.unlink(partial)
        raise


def _header(fh: BinaryIO, path: str) -> tuple[dict, list[Entry]]:
    """Walk an open weights file from its start: metadata and every entry."""
    size = os.fstat(fh.fileno()).st_size
    magic = fh.read(4)
    if magic != MAGIC:
        raise WeightsFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    offset = 4

    def take(count: int) -> bytes:
        nonlocal offset
        if offset + count > size:
            raise WeightsFormatError(
                f"{path}: truncated or corrupt weights file "
                f"({count} bytes wanted at offset {offset} of {size})"
            )
        offset += count
        return fh.read(count)

    try:
        (version,) = struct.unpack("<H", take(2))
        if version != VERSION:
            raise WeightsFormatError(f"unsupported weights version {version}")
        (meta_len,) = struct.unpack("<I", take(4))
        metadata = json.loads(take(meta_len).decode("utf-8"))
        if not isinstance(metadata, dict):
            raise WeightsFormatError(f"metadata is a {type(metadata).__name__}, not an object")
        entries: list[Entry] = []
        while offset < size:
            (name_len,) = struct.unpack("<I", take(4))
            name = take(name_len).decode("utf-8")
            (rank,) = struct.unpack("<I", take(4))
            shape = struct.unpack(f"<{rank}I", take(4 * rank))
            entries.append((name, shape, offset))
            offset += 4 * math.prod(shape)
            if offset > size:
                raise WeightsFormatError(
                    f"{path}: truncated or corrupt weights file "
                    f"(data of {name!r} ends at {offset}, past the file's {size} bytes)"
                )
            fh.seek(offset)
    except WeightsFormatError:
        raise
    except (ValueError, struct.error, RecursionError) as exc:
        raise WeightsFormatError(f"{path}: truncated or corrupt weights file ({exc})") from exc
    return metadata, entries


def read_metadata(path: str) -> dict:
    """The metadata of a weights file, after a walk of its whole header."""
    with open(path, "rb") as fh:
        return _header(fh, path)[0]


def read_weights(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The metadata and every tensor of a weights file, as float32 views into
    one buffer that holds the whole file."""
    with open(path, "rb") as fh:
        metadata, entries = _header(fh, path)
        blob = bytearray(fh.tell())  # the walk ends at the end of the file
        fh.seek(0)
        _read_into(fh, blob, path)
    tensors = {
        name: np.frombuffer(blob, _F32, math.prod(shape), offset).reshape(shape)
        for name, shape, offset in entries
    }
    return metadata, tensors


def _read_into(fh: BinaryIO, target, path: str) -> None:
    """Fill ``target`` from the file's current position; a short read means
    the file shrank after its header was walked."""
    view = memoryview(target).cast("B")
    got = fh.readinto(view)
    if got != len(view):
        raise WeightsFormatError(
            f"{path}: truncated weights file (read {got} of {len(view)} bytes; "
            "did it change while loading?)"
        )


def load_weights(model: Module, path: str) -> dict:
    """Load a weights file into a built model graph; returns the metadata.

    Every name and shape is checked before the first tensor is written, so a
    file that does not fit the model leaves it untouched. Each tensor is then
    read straight into the model's own array, with no copy of the model on
    the way. The only way a load stops part-way is a file that shrinks after
    its header was walked: the short read raises ``WeightsFormatError``, and
    the model then holds some tensors from the file.
    """
    with open(path, "rb") as fh:
        metadata, entries = _header(fh, path)
        expected = _entries(model)
        names = [name for name, _, _ in entries]
        expected_names = [name for name, _ in expected]
        if names != expected_names:
            missing = set(expected_names) - set(names)
            extra = set(names) - set(expected_names)
            raise WeightsFormatError(
                f"parameter name mismatch (missing: {sorted(missing)}, unexpected: {sorted(extra)})"
            )
        for (name, shape, _), (_, target) in zip(entries, expected):
            if shape != target.shape:
                raise WeightsFormatError(
                    f"shape mismatch for {name}: file has {shape}, model has {target.shape}"
                )
        for (_, shape, offset), (_, target) in zip(entries, expected):
            fh.seek(offset)
            if target.dtype == _F32 and target.flags.c_contiguous:
                _read_into(fh, target, path)
            else:
                data = np.empty(shape, _F32)
                _read_into(fh, data, path)
                target[...] = data
    return metadata
