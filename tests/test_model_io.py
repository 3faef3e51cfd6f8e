import struct

import numpy as np
import pytest

from qmlp.errors import FormatError
from qmlp.model_io import MAGIC, load_model, save_model
from qmlp.nn import build_model, quantize_model


@pytest.fixture
def full_model():
    return build_model("cogdist", 42)


@pytest.fixture
def quantized_model(full_model):
    return quantize_model(full_model)


class TestRoundTrip:
    def test_full_bit_identical(self, full_model, tmp_path):
        path = tmp_path / "m.bin"
        save_model(full_model, path)
        back = load_model(path)
        assert back.representation == "full"
        assert back.input_dim == full_model.input_dim
        for a, b in zip(full_model.layers, back.layers):
            assert a.activation == b.activation
            np.testing.assert_array_equal(
                a.weights.view(np.int32), b.weights.view(np.int32)
            )
            np.testing.assert_array_equal(
                a.biases.view(np.int32), b.biases.view(np.int32)
            )

    def test_quantized_preserves_everything(self, quantized_model, tmp_path):
        path = tmp_path / "q.bin"
        save_model(quantized_model, path)
        back = load_model(path)
        assert back.representation == "quantized"
        for a, b in zip(quantized_model.layers, back.layers):
            np.testing.assert_array_equal(a.weights_q.codes, b.weights_q.codes)
            np.testing.assert_array_equal(a.biases_q, b.biases_q)
            np.testing.assert_array_equal(a.lut.table, b.lut.table)
            assert a.weights_q.params == b.weights_q.params
            assert a.in_params == b.in_params
            assert a.preact_params == b.preact_params
            assert a.act_params == b.act_params

    def test_save_is_deterministic(self, full_model, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(full_model, p1)
        save_model(full_model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_models_are_trainable(self, full_model, tmp_path, car_splits):
        from qmlp.train import TrainConfig, train_full

        path = tmp_path / "m.bin"
        save_model(build_model("car_evaluation", 0), path)
        m = load_model(path)
        train_full(m, car_splits, TrainConfig(epochs=1))


class TestFormatErrors:
    def test_bad_magic(self, full_model, tmp_path):
        path = tmp_path / "m.bin"
        save_model(full_model, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError) as ei:
            load_model(path)
        assert ei.value.offset == 0

    def test_bad_version(self, full_model, tmp_path):
        path = tmp_path / "m.bin"
        save_model(full_model, path)
        data = bytearray(path.read_bytes())
        data[4] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError) as ei:
            load_model(path)
        assert ei.value.offset == 4

    def test_truncation_at_every_section(self, quantized_model, tmp_path):
        path = tmp_path / "q.bin"
        save_model(quantized_model, path)
        data = path.read_bytes()
        for cut in (2, 6, 8, 12, 30, len(data) - 1):
            (tmp_path / "cut.bin").write_bytes(data[:cut])
            with pytest.raises(FormatError):
                load_model(tmp_path / "cut.bin")

    def test_trailing_bytes_rejected(self, full_model, tmp_path):
        path = tmp_path / "m.bin"
        save_model(full_model, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_model(path)

    def test_bad_activation_byte(self, full_model, tmp_path):
        path = tmp_path / "m.bin"
        save_model(full_model, path)
        data = bytearray(path.read_bytes())
        data[9 + 4] = 9  # first layer header activation field
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_model(path)

    @pytest.mark.parametrize("code", [2**31 - 1, -(2**31)])
    def test_bias_code_outside_accumulator_bound(self, quantized_model, tmp_path, code):
        path = tmp_path / "q.bin"
        save_model(quantized_model, path)
        first, second = quantized_model.layers[:2]
        # header | layer 0 block | layer 1 exponents and weight codes, then
        # layer 1's second bias code
        offset = (
            9 + 5 * len(quantized_model.layers)
            + 4 + first.out_dim * first.in_dim + 4 * first.out_dim + 256
            + 4 + second.out_dim * second.in_dim + 4
        )
        data = bytearray(path.read_bytes())
        data[offset : offset + 4] = struct.pack("<i", code)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError) as ei:
            load_model(path)
        assert ei.value.offset == offset
        assert f"layer 1 bias code {code} outside" in str(ei.value)

    @pytest.mark.parametrize("where, value", [("weight", float("nan")), ("bias", float("-inf"))])
    def test_non_finite_float_parameter(self, full_model, tmp_path, value, where):
        path = tmp_path / "m.bin"
        save_model(full_model, path)
        first = full_model.layers[0]
        # header | layer 0 weights, then layer 0's second bias
        offset = 9 + 5 * len(full_model.layers)
        if where == "bias":
            offset += 4 * (first.out_dim * first.in_dim + 1)
        data = bytearray(path.read_bytes())
        data[offset : offset + 4] = struct.pack("<f", value)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError) as ei:
            load_model(path)
        assert ei.value.offset == offset
        assert f"layer 0 {where} is not finite" in str(ei.value)

    def test_magic_constant(self):
        assert MAGIC == b"DCV1"
