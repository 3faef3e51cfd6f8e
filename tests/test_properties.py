"""Property tests of the integer path's exactness contract.

The forward references are exact rational arithmetic (``fractions.Fraction``
and Python ints): requantization is round-half-away of acc * 2**shift
followed by a clamp to [-128, 127], and the kernel is that rounding applied
to the bias-pre-loaded integer dot product. The hybrid backward pass, which
works in code units, is checked against an oracle that dequantizes every
parameter and works in real units.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmlp.fastmath import _round_half_away, activation_deriv
from qmlp.nn import (
    Model,
    QDenseLayer,
    bias_code_limit,
    clone_model,
    forward_int8,
    linear_int8,
    predict_int8,
)
from qmlp.quant import (
    CODE_MAX,
    CODE_MIN,
    EXPONENT_MAX,
    EXPONENT_MIN,
    ActivationLUT,
    QTensor,
    QuantParams,
    build_lut,
    dequantize,
    requantize_shift,
)
from qmlp.train import FeedbackState, _requantize_params, backward_hybrid

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
def qlayers(draw, in_dim=None, in_e=None, w_exps=st.integers(-16, 0)):
    """A random quantized layer whose bias codes often sit at +-bias_code_limit."""
    if in_dim is None:
        in_dim = draw(st.integers(1, 8))
    out_dim = draw(st.integers(1, 6))
    if in_e is None:
        in_e = draw(st.integers(-16, 0))
    w_e = draw(w_exps)
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
        )
        limit = bias_code_limit(in_dim)
        b_step = 2.0 ** layer.bias_exponent
        # w and b are in code units
        b = np.array([sign * scale * limit, 3], dtype=np.float32)
        w = np.zeros((2, in_dim), dtype=np.float32)
        fb = FeedbackState.for_model(Model([layer])) if feedback else None

        _requantize_params(w, b, layer, fb, 0)

        assert layer.biases_q.tolist() == [sign * limit, 3]
        if fb is not None:
            # the residual keeps everything the clamp cut off, in real units
            assert fb.biases[0][0] == np.float32((float(b[0]) - sign * limit) * b_step)
            assert fb.biases[0][1] == 0.0


def oracle_requantize_params(w, b, layer, feedback, layer_idx):
    """The value-unit requantize step: w and b are real parameter values."""
    w_step = layer.weights_q.params.step
    b_step = 2.0 ** layer.bias_exponent
    b_limit = bias_code_limit(layer.in_dim)
    if feedback is not None:
        w = w + feedback.weights[layer_idx]
        b = b + feedback.biases[layer_idx]
    w_codes = _round_half_away(w / w_step).clip(CODE_MIN, CODE_MAX)
    b_codes = _round_half_away(b.astype(np.float64) / b_step).clip(-b_limit, b_limit)
    if feedback is not None:
        feedback.weights[layer_idx] = (w - w_codes * w_step).astype(np.float32)
        feedback.biases[layer_idx] = (b - b_codes * b_step).astype(np.float32)
    layer.weights_q = QTensor(w_codes.astype(np.int8), layer.weights_q.params)
    layer.biases_q = b_codes.astype(np.int32)


def oracle_backward_hybrid(qtrace, target, m, lr, feedback=None):
    """The hybrid backward pass in value units: every parameter dequantized,
    updated in float32 and divided by its step to requantize."""
    t = np.asarray(target, dtype=np.float32)
    a_cur = dequantize(qtrace.acts[-1])
    delta = (a_cur - t) * activation_deriv(m.layers[-1].activation)(a_cur)
    for i in reversed(range(len(m.layers))):
        layer = m.layers[i]
        a_prev = dequantize(qtrace.acts[i - 1]) if i > 0 else dequantize(qtrace.x)
        w = dequantize(layer.weights_q)
        b = layer.biases_q.astype(np.float32) * 2.0 ** layer.bias_exponent
        if i > 0:
            deriv_prev = activation_deriv(m.layers[i - 1].activation)(a_prev)
            delta_below = (w.T @ delta) * deriv_prev
        else:
            delta_below = None
        w -= lr * (delta[:, None] * a_prev)
        b -= lr * delta
        oracle_requantize_params(w, b, layer, feedback, i)
        delta = delta_below


# A subnormal intermediate (below 2**-126) is rounded to a multiple of
# 2**-149 in one unit and not in the other. lr <= 1e6 < 2**20 and the
# weights scale that difference up only so far, so it can change a residual
# only where both readings are tiny; every difference seen was below 2**-125.
TINY_RESIDUAL = 2.0**-100


def assert_same_residuals(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float32
    differs = got.view(np.uint32) != want.view(np.uint32)
    assert np.all(np.abs(got[differs]) < TINY_RESIDUAL), (got, want)
    assert np.all(np.abs(want[differs]) < TINY_RESIDUAL), (got, want)


def train_both(m, samples, lr, error_feedback):
    """Run backward_hybrid on m and the oracle on a clone, sample by sample.

    After every step the weight and bias codes must be equal, and so must
    the error-feedback residuals' bits, except where both are tiny. Returns
    both feedback states.
    """
    oracle = clone_model(m)
    fb_got = FeedbackState.for_model(m) if error_feedback else None
    fb_want = FeedbackState.for_model(oracle) if error_feedback else None
    in_params = m.layers[0].in_params
    for x, t in samples:
        backward_hybrid(forward_int8(m, QTensor(x, in_params)), t, m, lr, fb_got)
        oracle_backward_hybrid(forward_int8(oracle, QTensor(x, in_params)), t, oracle, lr, fb_want)
        for got, want in zip(m.layers, oracle.layers):
            assert got.weights_q.codes.tolist() == want.weights_q.codes.tolist()
            assert got.biases_q.tolist() == want.biases_q.tolist()
        if error_feedback:
            for got, want in zip(fb_got.weights + fb_got.biases, fb_want.weights + fb_want.biases):
                assert_same_residuals(got, want)
    return fb_got, fb_want


LEARNING_RATES = [0.0, 1e-4, 0.05, 1.0, 1e6]


class TestBackwardHybridInCodeUnits:
    """backward_hybrid works on parameters in code units, the oracle above in
    real units. Both must give the same codes."""

    @no_deadline
    @given(st.data(), st.sampled_from(LEARNING_RATES), st.booleans())
    def test_matches_the_value_unit_oracle(self, data, lr, error_feedback):
        w_exps = st.integers(EXPONENT_MIN, EXPONENT_MAX)
        layers = [data.draw(qlayers(w_exps=w_exps))]
        for _ in range(data.draw(st.integers(0, 2))):
            prev = layers[-1]
            layers.append(data.draw(qlayers(prev.out_dim, prev.act_params.exponent, w_exps)))
        m = Model(layers)
        # targets include zeros and subnormals, so deltas can be subnormal too
        targets = st.floats(-1.5, 1.5, width=32)
        samples = data.draw(st.lists(
            st.tuples(
                arrays(np.int8, m.input_dim),
                arrays(np.float32, m.output_dim, elements=targets),
            ),
            min_size=1, max_size=3,
        ))
        with np.errstate(over="ignore", invalid="ignore"):
            train_both(m, samples, lr, error_feedback)

    @staticmethod
    def tiny_update_model():
        # weights and biases zero: tanh(0) = 0, so the output code is 0 and
        # a target t gives delta = -t
        preact, out = QuantParams(-4), QuantParams(-7)
        layer = QDenseLayer(
            weights_q=QTensor(np.zeros((1, 2), dtype=np.int8), QuantParams(-7)),
            biases_q=np.zeros(1, dtype=np.int32),
            in_params=QuantParams(-7),
            lut=build_lut("tanh", preact, out),
        )
        return Model([layer])

    @pytest.mark.parametrize("lr, target", [
        (1e-4, 1e-36), (1e-4, 1.7e-35), (0.05, 1e-36), (1.0, 3e-38), (1.0, 1e-45),
    ])
    @pytest.mark.parametrize("error_feedback", [False, True])
    def test_subnormal_updates(self, lr, target, error_feedback):
        m = self.tiny_update_model()
        x = np.array([1, 3], dtype=np.int8)  # a = 2**-7 and 3 * 2**-7
        t = np.array([target], dtype=np.float32)
        # every weight update lr * delta * a is below 2**-126
        assert 0 < lr * float(t[0]) * 3 * 2.0**-7 < 2.0**-126
        train_both(m, [(x, t), (x, t)], lr, error_feedback)
        assert m.layers[0].weights_q.codes.tolist() == [[0, 0]]

    def test_subnormal_bias_update_changes_the_residual_bits(self):
        # The domain backward_hybrid's docstring names: lr * delta = 1.7e-39
        # is subnormal in real units, 2**14 times larger in code units, and
        # the two round it differently. The codes agree; the residual's low
        # bits do not.
        m = self.tiny_update_model()
        sample = (np.array([1, 3], dtype=np.int8), np.array([1.7e-35], dtype=np.float32))
        fb_got, fb_want = train_both(m, [sample], 1e-4, True)
        assert fb_got.biases[0].tolist() != fb_want.biases[0].tolist()
        assert fb_got.weights[0].tolist() == fb_want.weights[0].tolist()
