"""Property tests for the three readers of outside input.

Whatever bytes or JSON-shaped document they are given, ``read_weights``,
``decode_netpbm`` and ``config_from_json`` return a value or raise their own
typed error, never another exception. Examples are derandomized, so the
suite stays deterministic.
"""

import json
import os
import struct
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from exmvit.config import ConfigError, config_from_json
from exmvit.image_io import ImageParseError, decode_netpbm
from exmvit.weights import MAGIC, VERSION, WeightsFormatError, read_weights

FUZZ = settings(derandomize=True, deadline=None, max_examples=150)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and infinities too: json.dumps writes them and json.loads reads them
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=20,
)

valid_rho = st.sampled_from(["0", "1/3", "1/2", "1", "4/3", "5/4", "3", 0, 1, 4, 0.5])
rho_entries = (
    valid_rho
    | st.fractions().map(str)
    | st.sampled_from(["1/0", "1e400", "1e9999999", "-1", " 2 ", "a", "", True])
    | json_values
)


def mostly(valid, invalid=json_values):
    """Mostly draws from ``valid``, so documents get past the first check."""
    return st.sampled_from([valid, valid, valid, invalid]).flatmap(lambda s: s)


config_documents = st.fixed_dictionaries(
    {
        "name": mostly(st.text(max_size=8)),
        "rho": mostly(
            # rho_1 and rho_2 must be 0
            st.tuples(*[st.sampled_from(["0", 0, "1"])] * 2, *[valid_rho] * 3).map(list),
            st.lists(rho_entries),
        ),
    },
    optional={
        "profile": mostly(st.sampled_from(["imagenet", "tiny", "huge"])),
        "class_count": mostly(st.integers(-2, 2000)),
        "input_size": mostly(st.sampled_from([0, -32, 32, 64, 100, 256])),
        "block_channels": mostly(st.sampled_from([[4, 8, 12, 16, 20], [32, 64, 96, 128, 160]])),
    },
)


class TestConfigReader:
    @FUZZ
    @given(st.binary(max_size=200))
    def test_any_bytes(self, blob):
        try:
            config_from_json(blob)
        except ConfigError:
            pass

    @FUZZ
    @given(mostly(config_documents))
    def test_any_json_document(self, doc):
        try:
            config = config_from_json(json.dumps(doc))
        except ConfigError:
            return
        assert config_from_json(config.to_json()) == config


def weights_blob(metadata: bytes, tail: bytes) -> bytes:
    return MAGIC + struct.pack("<HI", VERSION, len(metadata)) + metadata + tail


@st.composite
def tensor_entries(draw):
    name = draw(st.text(max_size=6).map(str.encode) | st.binary(max_size=6))
    shape = draw(st.lists(st.integers(0, 4) | st.integers(0, 2**32 - 1), max_size=4))
    count = int(np.prod(shape, dtype=object)) if shape else 1
    data = draw(st.just(b"\x00" * 4 * count) if count <= 64 else st.binary(max_size=64))
    data = draw(st.just(data) | st.binary(max_size=64))
    rank = struct.pack("<I", len(shape)) + struct.pack(f"<{len(shape)}I", *shape)
    return struct.pack("<I", len(name)) + name + rank + data


metadata_documents = mostly(
    st.dictionaries(st.text(max_size=8), json_values, max_size=5).map(json.dumps),
    json_values.map(json.dumps),
).map(str.encode) | st.binary(max_size=20)

weights_files = (
    st.binary(max_size=120)
    | st.binary(max_size=120).map(lambda tail: MAGIC + tail)
    | st.builds(
        weights_blob,
        metadata_documents,
        mostly(st.lists(tensor_entries(), max_size=3).map(b"".join), st.binary(max_size=60)),
    )
)


class TestWeightsReader:
    @FUZZ
    @given(weights_files)
    def test_any_bytes(self, blob):
        fd, path = tempfile.mkstemp(suffix=".exvt")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            try:
                metadata, tensors = read_weights(path)
            except WeightsFormatError:
                return
        finally:
            os.unlink(path)
        assert isinstance(metadata, dict)
        assert all(t.dtype == np.float32 for t in tensors.values())


netpbm_headers = st.builds(
    lambda magic, fields, sep: sep.join([magic, *fields]) + sep,
    st.sampled_from([b"P5", b"P6", b"P3", b"P"]),
    st.lists(
        st.integers(-2, 9).map(lambda n: str(n).encode())
        | st.sampled_from([b"255", b"x", b"#c\n4", b"9" * 30]),
        max_size=4,
    ),
    st.sampled_from([b" ", b"\n", b"\t", b"\n# comment\n"]),
)


@st.composite
def netpbm_images(draw):
    """A well-formed header and a payload of about the size it announces."""
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    size = width * height * (3 if magic == b"P6" else 1) + draw(st.integers(-2, 2))
    header = b"%s\n%d %d\n255\n" % (magic, width, height)
    return header + draw(st.binary(min_size=max(size, 0), max_size=max(size, 0)))


class TestNetpbmReader:
    @FUZZ
    @given(
        st.binary(max_size=200)
        | st.builds(bytes.__add__, netpbm_headers, st.binary(max_size=300))
        | netpbm_images()
    )
    def test_any_bytes(self, blob):
        try:
            img = decode_netpbm(blob)
        except ImageParseError:
            return
        assert img.dtype == np.float32 and img.ndim == 3 and img.shape[0] == 3
        assert 0.0 <= img.min() and img.max() <= 1.0
