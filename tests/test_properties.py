"""Property tests of the integer path's exactness contract.

Every reference here is exact rational arithmetic (``fractions.Fraction`` and
Python ints): requantization is round-half-away of acc * 2**shift followed by
a clamp to [-128, 127], and the kernel is that rounding applied to the
bias-pre-loaded integer dot product.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmlp.nn import Model, QDenseLayer, bias_code_limit, linear_int8, predict_int8
from qmlp.quant import (
    CODE_MAX,
    CODE_MIN,
    ActivationLUT,
    QTensor,
    QuantParams,
    build_lut,
    requantize_shift,
)
from qmlp.train import FeedbackState, _requantize_params

ACC_MAX = 2**31 - 1

# Wall-clock deadlines would make these tests fail on a loaded host.
no_deadline = settings(deadline=None, max_examples=150)


def exact_round_clamp(v):
    """clamp(round_half_away(v), -128, 127) for a Fraction v."""
    r = math.floor(abs(v) + Fraction(1, 2))
    return max(CODE_MIN, min(CODE_MAX, r if v >= 0 else -r))


def exact_requantize(acc, shift):
    return exact_round_clamp(Fraction(acc) * Fraction(2) ** shift)


@st.composite
def acc_and_shift(draw):
    """An accumulator in +-(2**31 - 1) and a shift in [-31, 31].

    Right shifts draw, besides the full range, exact ties (odd * 2**(s-1))
    and accumulators within one step of a code near the clamp boundary.
    """
    shift = draw(st.integers(-31, 31))
    kind = draw(st.sampled_from(["any", "tie", "near_code"])) if shift < 0 else "any"
    if kind == "tie":
        half = 1 << (-shift - 1)
        k_max = (ACC_MAX // half - 1) // 2
        acc = (2 * draw(st.integers(-k_max - 1, k_max)) + 1) * half
    elif kind == "near_code":
        step = 1 << -shift
        code = draw(st.integers(CODE_MIN - 2, CODE_MAX + 2))
        acc = code * step + draw(st.integers(-step, step))
        acc = max(-ACC_MAX, min(ACC_MAX, acc))
    else:
        acc = draw(st.integers(-ACC_MAX, ACC_MAX))
    return acc, shift


class TestRequantizeShift:
    @no_deadline
    @given(acc_and_shift())
    @example((ACC_MAX, -31)).via("largest accumulator, largest right shift")
    @example((-ACC_MAX, 31)).via("saturating left shift")
    @example((-(1 << 30), -31)).via("negative exact tie at the largest shift")
    @example((-(255 << 6), -7)).via("tie at -127.5 rounds away to -128")
    @example((255 << 6, -7)).via("tie at 127.5 rounds away, then clamps to 127")
    def test_scalar_matches_exact_rounding(self, case):
        acc, shift = case
        got = requantize_shift(acc, shift)
        assert isinstance(got, int)
        assert got == exact_requantize(acc, shift)

    @no_deadline
    @given(st.integers(-31, 31), st.lists(st.integers(-ACC_MAX, ACC_MAX), min_size=1, max_size=40))
    def test_array_matches_exact_rounding(self, shift, accs):
        got = requantize_shift(np.array(accs, dtype=np.int64), shift)
        assert got.dtype == np.int8
        assert got.tolist() == [exact_requantize(a, shift) for a in accs]

    def test_every_right_shift_on_every_tie_near_the_code_range(self):
        for s in range(1, 32):
            half = 1 << (s - 1)
            odd = np.arange(-2 * 130 - 1, 2 * 130 + 2, 2, dtype=np.int64)
            accs = odd * half
            accs = accs[np.abs(accs) <= ACC_MAX]
            got = requantize_shift(accs, -s)
            assert got.tolist() == [exact_requantize(int(a), -s) for a in accs]


@st.composite
def qlayers(draw, in_dim=None, in_e=None):
    """A random quantized layer whose bias codes often sit at +-bias_code_limit."""
    if in_dim is None:
        in_dim = draw(st.integers(1, 8))
    out_dim = draw(st.integers(1, 6))
    if in_e is None:
        in_e = draw(st.integers(-16, 0))
    w_e = draw(st.integers(-16, 0))
    acc_e = in_e + w_e
    shift = draw(st.integers(max(-31, acc_e - 8), min(31, acc_e + 24)))
    limit = bias_code_limit(in_dim)
    biases = draw(st.lists(
        st.one_of(st.sampled_from([-limit, limit]), st.integers(-limit, limit)),
        min_size=out_dim, max_size=out_dim,
    ))
    act = draw(st.sampled_from(["tanh", "sigmoid"]))
    preact, out = QuantParams(acc_e - shift), QuantParams(-7)
    return QDenseLayer(
        weights_q=QTensor(draw(arrays(np.int8, (out_dim, in_dim))), QuantParams(w_e)),
        biases_q=np.array(biases, dtype=np.int32),
        in_params=QuantParams(in_e),
        lut=build_lut(act, preact, out),
        activation=act,
    )


def reference_kernel(x_codes, layer):
    """Python-int accumulator from the bias, then exact rounding and clamp."""
    out = []
    for row, bias in zip(layer.weights_q.codes.tolist(), layer.biases_q.tolist()):
        acc = bias + sum(w * x for w, x in zip(row, x_codes))
        assert abs(acc) <= ACC_MAX
        out.append(exact_requantize(acc, layer.requantize_shift_amount))
    return out


class TestKernel:
    @no_deadline
    @given(st.data())
    def test_linear_int8_matches_rational_reference(self, data):
        layer = data.draw(qlayers())
        x = data.draw(arrays(np.int8, layer.in_dim))
        got = linear_int8(QTensor(x, layer.in_params), layer)
        assert got.params == layer.preact_params
        assert got.codes.tolist() == reference_kernel(x.tolist(), layer)

    def test_extreme_inputs_reach_exactly_the_int32_edge(self):
        in_dim = 6
        limit = bias_code_limit(in_dim)
        preact, out = QuantParams(-8), QuantParams(-7)
        layer = QDenseLayer(
            weights_q=QTensor(np.full((2, in_dim), -128, dtype=np.int8), QuantParams(-8)),
            biases_q=np.array([limit, -limit], dtype=np.int32),
            in_params=QuantParams(0),
            lut=build_lut("tanh", preact, out),
            activation="tanh",
        )
        x = np.full(in_dim, -128, dtype=np.int8)
        assert limit + 2**14 * in_dim == ACC_MAX
        assert layer.requantize_shift_amount == 0
        got = linear_int8(QTensor(x, layer.in_params), layer)
        assert got.codes.tolist() == reference_kernel(x.tolist(), layer) == [127, -128]

    @no_deadline
    @given(st.data())
    def test_predict_int8_matches_rational_reference(self, data):
        first = data.draw(qlayers())
        second = data.draw(qlayers(first.out_dim, first.act_params.exponent))
        m = Model([first, second])
        X = data.draw(arrays(
            np.float32, (data.draw(st.integers(1, 5)), first.in_dim),
            elements=st.floats(-300, 300, width=32),
        ))
        got = predict_int8(m, X)

        in_step = Fraction(2) ** first.in_params.exponent
        out_step = 2.0 ** second.act_params.exponent
        for row, got_row in zip(X, got):
            codes = [exact_round_clamp(Fraction(float(v)) / in_step) for v in row]
            for layer in (first, second):
                z = reference_kernel(codes, layer)
                codes = [int(layer.lut.table[c + 128]) for c in z]
            assert got_row.tolist() == [np.float32(c * out_step) for c in codes]


def wide_case(w, x, right, targets):
    """A one-layer model over weight codes w and the input code rows x.

    The layer's table is the identity, so every pre-activation code reaches
    the output. Its bias codes put the accumulators of x's first row on
    ``targets``, then requantize them with a right shift by ``right``.
    """
    in_e, w_e = -7, -7
    limit = bias_code_limit(w.shape[1])
    sums = w.astype(np.int64) @ x[0].astype(np.int64)
    biases = [max(-limit, min(limit, t - int(s))) for t, s in zip(targets, sums)]
    preact = QuantParams(in_e + w_e + right)
    layer = QDenseLayer(
        weights_q=QTensor(w, QuantParams(w_e)),
        biases_q=np.array(biases, dtype=np.int32),
        in_params=QuantParams(in_e),
        lut=ActivationLUT(np.arange(CODE_MIN, CODE_MAX + 1), preact, preact, "tanh"),
        activation="tanh",
    )
    return layer, x


@st.composite
def wide_cases(draw):
    """Fan-in above 1024, with weight and input codes all 127, all -128 or random.

    The first row's accumulators sit on or next to a rounding tie of the
    shift, often a shift of zero, where an accumulator off by one changes
    the code. All-127 codes drive the partial sums past 2**24, where float32
    stops holding every integer.
    """
    in_dim = draw(st.integers(1025, 4096))
    out_dim = draw(st.integers(1, 3))
    n_rows = draw(st.integers(2, 3))
    fill = draw(st.sampled_from([CODE_MAX, CODE_MIN, "random"]))
    if fill == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        w, x = (
            rng.integers(CODE_MIN, CODE_MAX + 1, shape).astype(np.int8)
            for shape in ((out_dim, in_dim), (n_rows, in_dim))
        )
    else:
        w = np.full((out_dim, in_dim), fill, dtype=np.int8)
        x = np.full((n_rows, in_dim), fill, dtype=np.int8)
    right = draw(st.one_of(st.just(0), st.integers(1, 12)))
    half = (1 << right) // 2
    nudges = st.sampled_from([-half - 1, -half, -half + 1, 0, half - 1, half, half + 1])
    targets = [
        (draw(st.integers(CODE_MIN, CODE_MAX)) << right) + draw(nudges)
        for _ in range(out_dim)
    ]
    return wide_case(w, x, right, targets)


# 127 * 127 * 1087 is odd and above 2**24: a float32 sum of it is not exact
ALL_127 = wide_case(
    np.full((2, 1087), CODE_MAX, dtype=np.int8),
    np.full((2, 1087), CODE_MAX, dtype=np.int8),
    0,
    [5, -3],
)


class TestWideFanIn:
    wide = settings(deadline=None, max_examples=40)

    @wide
    @given(wide_cases())
    @example(ALL_127).via("odd partial sums past 2**24 at a shift of zero")
    def test_linear_int8_matches_rational_reference(self, case):
        layer, x = case
        for row in x:
            got = linear_int8(QTensor(row, layer.in_params), layer)
            assert got.codes.tolist() == reference_kernel(row.tolist(), layer)

    @wide
    @given(wide_cases())
    @example(ALL_127).via("odd partial sums past 2**24 at a shift of zero")
    def test_predict_int8_matches_rational_reference(self, case):
        layer, x = case
        m = Model([layer])
        # code * step is exact in float32, so quantize gives back the codes
        got = predict_int8(m, x.astype(np.float32) * np.float32(layer.in_params.step))
        want = [reference_kernel(row.tolist(), layer) for row in x]
        assert (got / layer.act_params.step).tolist() == want


class TestRequantizeParams:
    @no_deadline
    @given(
        st.floats(1.001, 1e4), st.sampled_from([-1, 1]), st.booleans(),
        st.integers(1, 8), st.integers(-12, 0),
    )
    def test_oversized_bias_clamps_to_the_limit(self, scale, sign, feedback, in_dim, in_e):
        preact, out = QuantParams(-4), QuantParams(-7)
        layer = QDenseLayer(
            weights_q=QTensor(np.zeros((2, in_dim), dtype=np.int8), QuantParams(-7)),
            biases_q=np.zeros(2, dtype=np.int32),
            in_params=QuantParams(in_e),
            lut=build_lut("tanh", preact, out),
            activation="tanh",
        )
        limit = bias_code_limit(in_dim)
        b_step = 2.0 ** layer.bias_exponent
        b = np.array([sign * scale * limit * b_step, 3 * b_step], dtype=np.float32)
        w = np.zeros((2, in_dim), dtype=np.float32)
        fb = FeedbackState.for_model(Model([layer])) if feedback else None

        _requantize_params(w, b, layer, fb, 0)

        assert layer.biases_q.tolist() == [sign * limit, 3]
        if fb is not None:
            # the residual keeps everything the clamp cut off
            assert fb.biases[0][0] == np.float32(float(b[0]) - sign * limit * b_step)
            assert fb.biases[0][1] == 0.0
