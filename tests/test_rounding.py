"""The one rounding rule, ``fastmath._round_half_away``, and the sites that use it.

Round-half-away must be exact for every finite input. The form it replaced,
``trunc(x + copysign(0.5, x))``, rounds the largest float below 0.5 to 1
(the add ties to even) and odd integers in [2**(p-1), 2**p) up by one, for
p significand bits. The boundary tests below cover both regions in float32
exhaustively; the full float32 sweep, and the sweep of every weight code
against the updates ``backward_hybrid`` treats as absorbed, are marked
``slow`` and run as their own CI step (``pytest -m slow``).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmlp.fastmath import _round_half_away, fast_round
from qmlp.nn import Model, QDenseLayer
from qmlp.quant import _CODE_BOUNDS, QTensor, QuantParams, build_lut, quantize
from qmlp.train import _ABSORBED, FeedbackState, _requantize_params

BELOW_HALF_32 = np.float32(0.49999997)
BELOW_HALF_64 = 0.49999999999999994
assert BELOW_HALF_32 == np.nextafter(np.float32(0.5), np.float32(0))
assert BELOW_HALF_64 == np.nextafter(0.5, 0.0)

BELOW_HALF = [
    pytest.param(np.float32, BELOW_HALF_32, id="float32"),
    pytest.param(np.float64, BELOW_HALF_64, id="float64"),
]


def reference(x):
    """Round-half-away of float32 values, computed exactly in float64."""
    x = np.asarray(x, dtype=np.float64)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def check_float32_bits(bits):
    """Compare the rule with the reference on float32 bit patterns, both signs."""
    x = np.concatenate([bits, bits | np.uint32(1 << 31)]).view(np.float32)
    x = x[np.isfinite(x)]
    want = reference(x)
    assert np.array_equal(_round_half_away(x).astype(np.float64), want)
    # the integer cast truncates the same value np.trunc does, where it fits
    fits = x[np.abs(x) < 2.0**62]
    assert np.array_equal(_round_half_away(fits, dtype=np.int64), reference(fits).astype(np.int64))


def float32_bits(lo, hi):
    """Bit patterns of every float32 in [lo, hi], lo and hi > 0."""
    first, last = np.array([lo, hi], dtype=np.float32).view(np.uint32)
    return np.arange(first, last + 1, dtype=np.uint32)


class TestBelowHalfRoundsToZero:
    @pytest.mark.parametrize("dtype, h", BELOW_HALF)
    def test_helper(self, dtype, h):
        x = np.array([h, -h], dtype=dtype)
        assert _round_half_away(x).tolist() == [0, 0]
        assert _round_half_away(x, -128.0, 127.0, np.int8).tolist() == [0, 0]

    def test_fast_round(self):
        assert fast_round(BELOW_HALF_64) == fast_round(-BELOW_HALF_64) == 0
        assert fast_round(np.array([BELOW_HALF_64, -BELOW_HALF_64])).tolist() == [0, 0]

    @pytest.mark.parametrize("dtype, h", BELOW_HALF)
    def test_quantize_at_exponent_zero(self, dtype, h):
        codes = quantize(np.array([h, -h, 0.5, -0.5], dtype=dtype), QuantParams(0)).codes
        assert codes.tolist() == [0, 0, 1, -1]

    @pytest.mark.parametrize("feedback", [False, True])
    def test_requantize_params_weights_in_code_units(self, feedback):
        preact, out = QuantParams(-4), QuantParams(-7)
        layer = QDenseLayer(
            weights_q=QTensor(np.zeros((1, 3), dtype=np.int8), QuantParams(-7)),
            biases_q=np.zeros(1, dtype=np.int32),
            in_params=QuantParams(-7),
            lut=build_lut("tanh", preact, out),
        )
        fb = FeedbackState.for_model(Model([layer])) if feedback else None
        w = np.array([[BELOW_HALF_32, -BELOW_HALF_32, 0.5]], dtype=np.float32)
        _requantize_params(w, np.array([-BELOW_HALF_32], dtype=np.float32), layer, fb, 0)
        assert layer.weights_q.codes.tolist() == [[0, 0, 1]]
        assert layer.biases_q.tolist() == [0]
        if feedback:
            # the residuals keep the whole update, in code units
            assert fb.weights[0].dtype == fb.biases[0].dtype == np.float32
            assert fb.weights[0].tolist() == [[BELOW_HALF_32, -BELOW_HALF_32, -0.5]]
            assert fb.biases[0].tolist() == [-BELOW_HALF_32]


class TestBoundaries:
    def test_every_float32_near_one_half_and_where_the_spacing_reaches_one(self):
        # [0.25, 1] holds the largest float below 0.5 and the ties at +-0.5;
        # in [2**22, 2**24] the spacing grows from 0.5 through 1 to 2
        for lo, hi in ((0.25, 1.0), (2.0**22, 2.0**24)):
            bits = float32_bits(lo, hi)
            for chunk in np.array_split(bits, 8):
                check_float32_bits(chunk)

    @settings(deadline=None, max_examples=500)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(BELOW_HALF_64).via("largest float64 below 0.5")
    @example(-BELOW_HALF_64).via("its negative")
    @example(2.0**52 + 1).via("odd integer where the float64 spacing is 1")
    @example(-(2.0**53 - 1)).via("largest odd integer float64 holds")
    @example(2.5).via("a tie")
    @example(5e-324).via("smallest subnormal")
    def test_float64_matches_fraction_reference(self, x):
        exact = Fraction(x)
        r = math.floor(abs(exact) + Fraction(1, 2))
        want = r if exact >= 0 else -r
        got = _round_half_away(np.array(x))
        assert Fraction(float(got)) == want


@pytest.mark.slow
def test_every_float32():
    for start in range(0, 1 << 31, 1 << 22):
        check_float32_bits(np.arange(start, start + (1 << 22), dtype=np.uint32))


@pytest.mark.slow
def test_every_absorbed_update_keeps_every_weight_code():
    # backward_hybrid skips the weight write-back when no update reaches
    # 0.5 - 2**-8 code units. Near that bound, for every weight code w and
    # every float32 update Delta in [0.49, 0.5 - 2**-8), either sign, the
    # write-back's float32 w - Delta rounds back to w: 2 * 256 * 204 472 cases
    below = np.nextafter(np.float32(_ABSORBED), np.float32(0))
    delta = float32_bits(0.49, below).view(np.float32)
    delta = np.concatenate([delta, -delta])
    bounds = _CODE_BOUNDS[np.dtype(np.float32)]
    for w in range(-128, 128):
        codes = _round_half_away(np.float32(w) - delta, *bounds, np.int8)
        assert (codes == w).all(), (w, delta[codes != w][:4])
