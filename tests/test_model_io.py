import struct

import numpy as np
import pytest

from qmlp.errors import FormatError
from qmlp.model_io import MAGIC, load_model, save_model
from qmlp.nn import BIAS_CODE_MAX, DIM_MAX, Model, QDenseLayer, build_model, quantize_model


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

    def test_widest_layer_round_trips(self, tmp_path):
        # in_dim is a u16 field; the widest layer fills it, and its bias code
        # may sit at the bound
        m = build_model((DIM_MAX, [(1, "sigmoid")]), 0)
        q = quantize_model(m).layers[0]
        q = Model([QDenseLayer(q.weights_q, [-BIAS_CODE_MAX], q.in_params, q.lut)])
        for model in (m, q):
            path = tmp_path / "m.bin"
            save_model(model, path)
            data = path.read_bytes()
            assert struct.unpack_from("<H", data, 9) == (DIM_MAX,)
            back = load_model(path)
            assert back.representation == model.representation
            # saved again, the loaded model gives the same bytes
            save_model(back, path)
            assert path.read_bytes() == data
        assert back.layers[0].biases_q.tolist() == [-BIAS_CODE_MAX]

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

    def test_layer_chain_mismatch_names_the_in_dim_field(self, tmp_path):
        path = tmp_path / "m.bin"
        save_model(build_model("car_evaluation", 0), path)
        data = bytearray(path.read_bytes())
        offset = 9 + 5 * 2  # layer 2's header, whose first field is in_dim
        data[offset : offset + 2] = struct.pack("<H", 17)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="between layers 1 and 2") as ei:
            load_model(path)
        assert ei.value.offset == offset == 19

    @pytest.mark.parametrize("k, what", [
        (0, "weight"), (1, "input"), (2, "pre-activation"), (3, "activation"),
    ])
    def test_bad_exponent_names_its_own_byte(self, tmp_path, k, what):
        path = tmp_path / "q.bin"
        save_model(quantize_model(build_model("car_evaluation", 0)), path)
        data = bytearray(path.read_bytes())
        # header | layer 0 exponents: weight, input, pre-activation, activation
        offset = 9 + 5 * 3 + k
        data[offset] = 100
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"layer 0 {what} exponent 100") as ei:
            load_model(path)
        assert ei.value.offset == offset

    def test_input_exponent_chain_names_the_input_exponent_byte(self, quantized_model, tmp_path):
        path = tmp_path / "q.bin"
        save_model(quantized_model, path)
        first = quantized_model.layers[0]
        # header | layer 0 block | layer 1 weight exponent, then its input exponent
        offset = (
            9 + 5 * len(quantized_model.layers)
            + 4 + first.out_dim * first.in_dim + 4 * first.out_dim + 256
            + 1
        )
        data = bytearray(path.read_bytes())
        assert struct.unpack_from("<b", data, offset)[0] == first.act_params.exponent
        data[offset] = (first.act_params.exponent + 1) & 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="layer 1 input exponent") as ei:
            load_model(path)
        assert ei.value.offset == offset

    @pytest.mark.parametrize("w_e, in_e, preact_e", [(-24, -24, 8), (8, 8, -16)])
    def test_requantize_shift_names_the_pre_activation_exponent_byte(
        self, tmp_path, w_e, in_e, preact_e
    ):
        path = tmp_path / "q.bin"
        save_model(quantize_model(build_model("car_evaluation", 0)), path)
        data = bytearray(path.read_bytes())
        # header | layer 0 exponents: weight, input, pre-activation, activation
        offset = 9 + 5 * 3
        data[offset : offset + 3] = struct.pack("<bbb", w_e, in_e, preact_e)
        path.write_bytes(bytes(data))
        shift = in_e + w_e - preact_e  # -56 or 32 from exponents each in range
        with pytest.raises(FormatError, match=f"layer 0 requantize shift {shift} ") as ei:
            load_model(path)
        assert ei.value.offset == offset + 2

    @pytest.mark.parametrize("code", [2**31 - 1, -(2**31), BIAS_CODE_MAX + 1])
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
