"""Model-file fuzzing: a damaged file loads as a Model or fails as FormatError.

Each example damages a saved car_evaluation file, float or int8, by
replacing one byte or by truncating it. Many single-byte changes leave a
valid file with altered parameters, so loading may succeed, and then the
loaded model saves back to the same bytes. A refusal is a FormatError
whose byte offset lies in the file; any other exception fails the test.
"""

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmlp.errors import FormatError
from qmlp.model_io import load_model, save_model
from qmlp.nn import Model, build_model, quantize_model

# header and first layer fields, where most structural checks sit
_HEAD = 64


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    full = build_model("car_evaluation", 7)
    out = {}
    for m in (full, quantize_model(full)):
        path = tmp_path_factory.mktemp("fuzz") / f"{m.representation}.bin"
        save_model(m, path)
        out[m.representation] = path.read_bytes()
    return out


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "damaged.bin"


@pytest.mark.parametrize("representation", ["full", "quantized"])
@settings(deadline=None, max_examples=400)
@given(
    truncate=st.booleans(),
    position=st.one_of(st.integers(0, _HEAD - 1), st.integers(0, 1 << 16)),
    byte=st.integers(0, 255),
)
@example(truncate=False, position=27, byte=0x7F)  # float file: first weight becomes NaN
@example(truncate=False, position=6, byte=1)  # representation flag
@example(truncate=True, position=0, byte=0)
def test_damaged_file_is_model_or_format_error(
    saved, scratch, representation, truncate, position, byte
):
    data = saved[representation]
    position %= len(data)
    if truncate:
        damaged = data[:position]
    else:
        damaged = bytearray(data)
        damaged[position] = byte
    scratch.write_bytes(bytes(damaged))
    try:
        m = load_model(scratch)
    except FormatError as e:
        assert e.offset is not None and 0 <= e.offset <= len(damaged)
        return
    assert isinstance(m, Model)
    save_model(m, scratch)
    assert scratch.read_bytes() == bytes(damaged)


@pytest.mark.parametrize("representation", [0, 1])
def test_layer_larger_than_any_record_is_truncation(scratch, representation):
    # a 65535 x 65535 layer's block is past numpy's 2 GiB record limit
    header = b"DCV1" + struct.pack("<HBH", 1, representation, 1)
    scratch.write_bytes(header + struct.pack("<HHB", 65535, 65535, 0) + bytes(64))
    with pytest.raises(FormatError, match="truncated model file while reading layer 0 weight"):
        load_model(scratch)
