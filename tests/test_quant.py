import math
from fractions import Fraction

import numpy as np
import pytest

from qmlp.errors import ConfigurationError, DataError, InvariantError
from qmlp.quant import (
    ActivationLUT,
    QTensor,
    QuantParams,
    _lut_gather,
    _requantize_lut,
    apply_lut,
    build_lut,
    choose_exponent,
    dequantize,
    quantize,
    requantize_shift,
)


def round_half_away(x):
    return np.copysign(np.floor(np.abs(np.asarray(x, dtype=np.float64)) + 0.5), x)


def roundtrip_scan_oracle(values):
    """Best exponent by scanning for minimal max round-trip error (ties: finest)."""
    values = np.asarray(values, dtype=np.float64)
    best_e, best_err = None, None
    for e in range(-24, 9):
        step = 2.0**e
        codes = np.clip(round_half_away(values / step), -128, 127)
        err = np.max(np.abs(codes * step - values))
        if best_err is None or err < best_err:
            best_e, best_err = e, err
    return best_e


class TestQuantParams:
    def test_step(self):
        assert QuantParams(-7).step == 1 / 128

    @pytest.mark.parametrize("e", [-25, 9, 100])
    def test_range_enforced(self, e):
        with pytest.raises(ConfigurationError):
            QuantParams(e)


class TestQTensor:
    def test_rejects_out_of_range_codes(self):
        with pytest.raises(InvariantError):
            QTensor(np.array([300]), QuantParams(-7))

    def test_codes_are_immutable(self):
        t = QTensor(np.array([1, 2], dtype=np.int8), QuantParams(-7))
        with pytest.raises(ValueError):
            t.codes[0] = 5


class TestChooseExponent:
    def test_zero_tensor_default(self):
        assert choose_exponent([0.0, 0.0]).exponent == -7

    def test_unit_range(self):
        # scan oracle agrees: -7 lets -1.0 land exactly on code -128
        values = [-1.0, 0.99]
        assert roundtrip_scan_oracle(values) == -7
        assert choose_exponent(values).exponent == -7

    def test_hundred(self):
        values = [100.0]
        assert roundtrip_scan_oracle(values) == 0
        assert choose_exponent(values).exponent == 0

    def test_covers_range(self, rng):
        # chosen exponent always covers max|v| within one saturated step
        for _ in range(200):
            vals = rng.normal(0, rng.uniform(0.01, 50), size=8)
            e = choose_exponent(vals).exponent
            assert np.max(np.abs(vals)) <= 128 * 2.0**e
            if e > -24:
                assert np.max(np.abs(vals)) > 128 * 2.0 ** (e - 1)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            choose_exponent([1.0, np.inf])
        with pytest.raises(DataError):
            choose_exponent([])


class TestQuantizeDequantize:
    def test_examples(self):
        p = QuantParams(-7)
        assert quantize([0.0], p).codes[0] == 0
        assert quantize([-0.5], p).codes[0] == -64
        # 1.0 / 2^-7 = 128 saturates to 127
        assert quantize([1.0], p).codes[0] == 127

    def test_dequantize_examples(self):
        assert dequantize(QTensor(np.array([0], dtype=np.int8), QuantParams(-7)))[0] == 0.0
        assert dequantize(QTensor(np.array([-64], dtype=np.int8), QuantParams(-7)))[0] == -0.5
        assert dequantize(QTensor(np.array([127], dtype=np.int8), QuantParams(0)))[0] == 127.0

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            quantize([np.nan], QuantParams(-7))

    def test_round_trip_half_step(self, rng):
        for e in (-7, -4, 0, 3):
            p = QuantParams(e)
            v = rng.uniform(-127 * p.step, 127 * p.step, 10_000)
            back = dequantize(quantize(v, p)).astype(np.float64)
            assert np.max(np.abs(back - v)) <= 2.0 ** (e - 1) + 1e-12

    def test_monotone(self, rng):
        p = QuantParams(-5)
        v = np.sort(rng.uniform(-10, 10, 5000))
        codes = quantize(v, p).codes
        assert np.all(np.diff(codes.astype(np.int16)) >= 0)

    def test_matches_clamped_fast_round(self, rng):
        from qmlp.fastmath import fast_round

        p = QuantParams(-6)
        v = rng.uniform(-1.8, 1.8, 2000)  # spans the saturating region
        expected = np.clip(fast_round(v / p.step), -128, 127).astype(np.int8)
        np.testing.assert_array_equal(quantize(v, p).codes, expected)

    def test_shape_preserved(self):
        t = quantize(np.zeros((3, 4)), QuantParams(-7))
        assert t.shape == (3, 4)


class TestRequantizeShift:
    @pytest.mark.parametrize(
        "acc,shift,expected",
        [(128, -7, 1), (0, -7, 0), (0, 5, 0), (100000, -7, 127), (-100000, -7, -128),
         (-192, -7, -2), (-129, -7, -1), (3, 2, 12), (100, 3, 127), (-100, 4, -128)],
    )
    def test_examples(self, acc, shift, expected):
        assert requantize_shift(acc, shift) == expected

    def test_exhaustive_against_float_oracle(self):
        # acc * 2^shift is exact in float64 for |acc| <= 2^20, shift >= -15
        acc = np.arange(-(2**20), 2**20 + 1, dtype=np.int64)
        for shift in range(-15, 1):
            exact = np.clip(round_half_away(acc * 2.0**shift), -128, 127).astype(np.int8)
            np.testing.assert_array_equal(requantize_shift(acc, shift), exact)

    @pytest.mark.parametrize("shift", [-31, -9, -1, 0, 1, 31])
    @pytest.mark.parametrize("rows", [1, 1024])  # one row and a batch-sized array
    def test_accumulator_argument_is_not_written(self, shift, rows):
        acc = np.tile([-(2**31) + 1, -384, -1, 0, 64, 2**31 - 1], (rows, 1)).astype(np.int64)
        before = acc.copy()
        got = requantize_shift(acc, shift)
        np.testing.assert_array_equal(acc, before)
        # every row gives what the scalar path gives
        want = [requantize_shift(int(a), shift) for a in acc[0]]
        np.testing.assert_array_equal(got, np.tile(want, (rows, 1)))

    def test_shift_range_enforced(self):
        with pytest.raises(InvariantError):
            requantize_shift(1, 32)
        with pytest.raises(InvariantError):
            requantize_shift(1, -32)


ACC_MAX = 2**31 - 1
# a scrambled table, so an off-by-one or sign slip in an index shows
SCRAMBLED_LUT = ActivationLUT(
    np.random.default_rng(3).integers(-128, 128, 256), QuantParams(-4), QuantParams(-7), "tanh"
)


def fused_cell_ends(shift):
    """(smallest, largest) integer accumulator in |acc| <= 2**31 - 1 whose
    fused-table index trunc(clip(acc * 2**(shift + 1), -256, 255)) is k, for
    every k in [-256, 255] whose cell holds an integer."""
    m = Fraction(2) ** (shift + 1)
    ends = []
    for k in range(-256, 256):
        if k == -256:  # y <= -256
            lo, hi = -ACC_MAX, math.floor(-256 / m)
        elif k == 255:  # y >= 255
            lo, hi = math.ceil(255 / m), ACC_MAX
        elif k > 0:  # k <= y < k + 1
            lo, hi = math.ceil(k / m), math.ceil((k + 1) / m) - 1
        elif k < 0:  # k - 1 < y <= k
            lo, hi = math.floor((k - 1) / m) + 1, math.floor(k / m)
        else:  # -1 < y < 1
            lo, hi = math.floor(-1 / m) + 1, math.ceil(1 / m) - 1
        lo, hi = max(lo, -ACC_MAX), min(hi, ACC_MAX)
        if lo <= hi:
            ends.append((lo, hi))
    return ends


def lut_of_requantize(acc, shift, lut=SCRAMBLED_LUT):
    codes = requantize_shift(np.asarray(acc, dtype=np.int64), shift)
    return lut.table[np.asarray(codes, dtype=np.int16) + 128]


class TestRequantizeLut:
    @pytest.mark.parametrize("shift", range(-31, 32))
    def test_every_cell_end_and_its_neighbours(self, shift):
        ends = fused_cell_ends(shift)
        accs = sorted({a + d for lo, hi in ends for a in (lo, hi) for d in (-1, 0, 1)})
        accs = np.array([a for a in accs if abs(a) <= ACC_MAX], dtype=np.int64)
        assert {-ACC_MAX, ACC_MAX} <= set(accs.tolist())
        got = _requantize_lut(accs.astype(np.float64), shift, SCRAMBLED_LUT)
        np.testing.assert_array_equal(got, lut_of_requantize(accs, shift))

    @pytest.mark.parametrize("shift", range(-31, 0))
    def test_tie_points(self, shift):
        # acc = (2j + 1) * 2**(-shift - 1) puts acc * 2**shift on j + 1/2,
        # for every j whose code is in or next to [-128, 127]
        half = 1 << (-shift - 1)
        accs = [(2 * j + 1) * half for j in range(-130, 130)]
        accs = np.array([a for a in accs if abs(a) <= ACC_MAX], dtype=np.int64)
        got = _requantize_lut(accs.astype(np.float64), shift, SCRAMBLED_LUT)
        np.testing.assert_array_equal(got, lut_of_requantize(accs, shift))

    @pytest.mark.parametrize("shape", [(), (1, 7), (5, 7)])
    @pytest.mark.parametrize("shift", [-31, -9, 0, 31])
    def test_shapes(self, shape, shift):
        rng = np.random.default_rng(5)
        size = math.prod(shape)
        # magnitudes from 2**31 down to 1, so every shift sees codes off the rails
        accs = rng.integers(-ACC_MAX, ACC_MAX + 1, size) >> rng.integers(0, 31, size)
        accs = accs.reshape(shape)
        got = _requantize_lut(accs.astype(np.float64), shift, SCRAMBLED_LUT)
        assert np.shape(got) == shape
        np.testing.assert_array_equal(got, lut_of_requantize(accs, shift))

    def test_fused_table_is_read_only_and_512_bytes(self):
        fused = build_lut("tanh", QuantParams(-4), QuantParams(-7)).fused
        assert fused.dtype == np.int8 and fused.shape == (512,)
        assert not fused.flags.writeable


class TestLUT:
    def test_tanh_examples(self):
        lut = build_lut("tanh", QuantParams(-4), QuantParams(-7))
        assert lut.table[0 + 128] == 0
        # code 16 is x = 1.0; round(tanh(1.0) * 128) = round(97.48) = 97
        assert lut.table[16 + 128] == 97

    def test_sigmoid_example(self):
        lut = build_lut("sigmoid", QuantParams(-4), QuantParams(-7))
        assert lut.table[0 + 128] == 64

    @pytest.mark.parametrize("act", ["tanh", "sigmoid"])
    @pytest.mark.parametrize("in_e,out_e", [(-4, -7), (-7, -7), (-2, -6)])
    def test_entries_match_recompute_oracle(self, act, in_e, out_e):
        lut = build_lut(act, QuantParams(in_e), QuantParams(out_e))
        ref = np.tanh if act == "tanh" else lambda v: 1 / (1 + np.exp(-v))
        for code in range(-128, 128):
            x = code * 2.0**in_e
            expected = int(np.clip(round_half_away(ref(np.float32(x)) / 2.0**out_e), -128, 127))
            assert lut.table[code + 128] == expected, (act, in_e, out_e, code)

    @pytest.mark.parametrize("act", ["tanh", "sigmoid"])
    def test_monotone(self, act):
        lut = build_lut(act, QuantParams(-4), QuantParams(-7))
        assert np.all(np.diff(lut.table.astype(np.int16)) >= 0)

    def test_unknown_activation(self):
        with pytest.raises(ConfigurationError):
            build_lut("relu", QuantParams(-4), QuantParams(-7))

    def test_apply_examples(self):
        lut = build_lut("tanh", QuantParams(-4), QuantParams(-7))
        zeros = QTensor(np.zeros(5, dtype=np.int8), QuantParams(-4))
        out = apply_lut(zeros, lut)
        assert np.all(out.codes == 0)
        assert out.params == QuantParams(-7)
        t = QTensor(np.array([16, -16], dtype=np.int8), QuantParams(-4))
        np.testing.assert_array_equal(apply_lut(t, lut).codes, [97, -97])

    @pytest.mark.parametrize("shape", [(256,), (16, 16), (2, 128)])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_gather_equals_offset_index_for_every_code(self, shape, transpose):
        # a scrambled table, so an off-by-one or sign slip in the index shows
        table = np.random.default_rng(3).integers(-128, 128, 256).astype(np.int8)
        lut = ActivationLUT(table, QuantParams(-4), QuantParams(-7), "tanh")
        codes = np.arange(-128, 128, dtype=np.int8).reshape(shape)
        if transpose:
            codes = codes.T
        expected = table[codes.astype(np.int16) + 128]
        got = apply_lut(QTensor(codes, QuantParams(-4)), lut).codes
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(_lut_gather(lut.table, codes), expected)

    def test_apply_params_mismatch(self):
        lut = build_lut("tanh", QuantParams(-4), QuantParams(-7))
        t = QTensor(np.zeros(3, dtype=np.int8), QuantParams(-5))
        with pytest.raises(InvariantError):
            apply_lut(t, lut)

    def test_table_shape_enforced(self):
        with pytest.raises(InvariantError):
            ActivationLUT(np.zeros(255, dtype=np.int8), QuantParams(-4), QuantParams(-7), "tanh")
