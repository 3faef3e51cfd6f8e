"""Property tests of the integer path's exactness contract.

The forward references are exact rational arithmetic (``fractions.Fraction``
and Python ints): requantization is round-half-away of acc * 2**shift
followed by a clamp to [-128, 127], and the kernel is that rounding applied
to the bias-pre-loaded integer dot product. The hybrid backward pass, which
works in code units, is checked against an oracle that dequantizes every
parameter and works in real units, and always writes the weights back: so
the layers whose write-back the backward pass skips must match it too.
"""

import math
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmlp import train
from qmlp.fastmath import _round_half_away, activation_deriv
from qmlp.nn import (
    BIAS_CODE_MAX,
    DIM_MAX,
    Model,
    QDenseLayer,
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
    """A random quantized layer whose bias codes often sit at +-BIAS_CODE_MAX."""
    if in_dim is None:
        in_dim = draw(st.integers(1, 8))
    out_dim = draw(st.integers(1, 6))
    if in_e is None:
        in_e = draw(st.integers(-16, 0))
    w_e = draw(w_exps)
    acc_e = in_e + w_e
    shift = draw(st.integers(max(-31, acc_e - 8), min(31, acc_e + 24)))
    limit = BIAS_CODE_MAX
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

    def test_extreme_inputs_reach_the_largest_valid_accumulator(self):
        # The widest layer, its bias codes at the bound, and weight and input
        # codes that give every product its largest magnitude: 128 * 128
        # above the bias, and 127 * 128 below it. A right shift by 24 brings
        # both accumulators, the largest and smallest any valid layer holds,
        # into the code range. The table is the identity, so the codes reach
        # the output.
        w = np.array([[-128] * DIM_MAX, [127] * DIM_MAX], dtype=np.int8)
        preact = QuantParams(0)
        layer = QDenseLayer(
            weights_q=QTensor(w, QuantParams(-8)),
            biases_q=np.array([BIAS_CODE_MAX, -BIAS_CODE_MAX], dtype=np.int32),
            in_params=QuantParams(-16),
            lut=ActivationLUT(np.arange(CODE_MIN, CODE_MAX + 1), preact, preact, "tanh"),
        )
        x = np.full(DIM_MAX, -128, dtype=np.int8)
        accs = [b + int(row.astype(np.int64) @ x) for b, row in zip(layer.biases_q, w)]
        assert accs == [BIAS_CODE_MAX + 2**14 * DIM_MAX, -BIAS_CODE_MAX - 127 * 128 * DIM_MAX]
        assert layer.requantize_shift_amount == -24
        want = reference_kernel(x.tolist(), layer)
        assert want == [65, -64]
        got = linear_int8(QTensor(x, layer.in_params), layer)
        assert got.codes.tolist() == want
        X = (x * np.float32(layer.in_params.step))[None]
        assert (predict_int8(Model([layer]), X) / preact.step).tolist() == [want]

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
    sums = w.astype(np.int64) @ x[0].astype(np.int64)
    biases = [t - int(s) for t, s in zip(targets, sums)]
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
    stops holding every integer. A bias code moves an accumulator by at
    most BIAS_CODE_MAX, so where that cannot bring a sum into the code
    range the shift is widened until it can.
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
    sums = (w.astype(np.int64) @ x[0].astype(np.int64)).tolist()
    right = draw(st.one_of(st.just(0), st.integers(1, 12)))
    while any(lo > hi for lo, hi in (reachable_codes(s, right) for s in sums)):
        right += 1
    half = (1 << right) // 2
    nudges = st.sampled_from([-half - 1, -half, -half + 1, 0, half - 1, half, half + 1])
    targets = [
        (draw(st.integers(*reachable_codes(s, right))) << right) + draw(nudges)
        for s in sums
    ]
    return wide_case(w, x, right, targets)


def reachable_codes(s, right):
    """The codes c in [-128, 127] whose accumulator c * 2**right, nudged by
    up to half a step and one, lies within a bias code of the sum s."""
    margin = (1 << right) // 2 + 1
    lo = -((BIAS_CODE_MAX - margin - s) >> right)  # ceil((s - bound + margin) / 2**right)
    hi = (s + BIAS_CODE_MAX - margin) >> right
    return max(CODE_MIN, lo), min(CODE_MAX, hi)


# 127 * 127 * 1041 is odd and above 2**24: a float32 sum of it is not exact.
# It is 2**24 + 13073, so the bias codes leave at least 13073 = 102.1 * 2**7;
# the accumulators sit on a tie and one below a tie of a right shift by 7.
ALL_127 = wide_case(
    np.full((2, 1041), CODE_MAX, dtype=np.int8),
    np.full((2, 1041), CODE_MAX, dtype=np.int8),
    7,
    [(110 << 7) + 64, (103 << 7) + 63],
)


class TestWideFanIn:
    wide = settings(deadline=None, max_examples=40)

    @wide
    @given(wide_cases())
    @example(ALL_127).via("odd partial sums past 2**24 on a tie of a right shift by 7")
    def test_linear_int8_matches_rational_reference(self, case):
        layer, x = case
        for row in x:
            got = linear_int8(QTensor(row, layer.in_params), layer)
            assert got.codes.tolist() == reference_kernel(row.tolist(), layer)

    @wide
    @given(wide_cases())
    @example(ALL_127).via("odd partial sums past 2**24 on a tie of a right shift by 7")
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
        limit = BIAS_CODE_MAX
        # w and b are in code units
        b = np.array([sign * scale * limit, 3], dtype=np.float32)
        w = np.zeros((2, in_dim), dtype=np.float32)
        fb = FeedbackState.for_model(Model([layer])) if feedback else None

        _requantize_params(w, b, layer, fb, 0)

        assert layer.biases_q.tolist() == [sign * limit, 3]
        if fb is not None:
            # the residual keeps everything the clamp cut off, in code units
            assert fb.biases[0].dtype == np.float32
            assert fb.biases[0].tolist() == [np.float32(float(b[0]) - sign * limit), 0.0]
            assert not fb.weights[0].any()

    def test_absorbed_weights_keep_their_codes(self):
        layer = QDenseLayer(
            weights_q=QTensor(np.array([[-128, 3, 127]], dtype=np.int8), QuantParams(-7)),
            biases_q=np.zeros(1, dtype=np.int32),
            in_params=QuantParams(-7),
            lut=build_lut("tanh", QuantParams(-4), QuantParams(-7)),
        )
        weights_q = layer.weights_q
        _requantize_params(None, np.array([-2.5], dtype=np.float32), layer, None, 0)
        assert layer.weights_q is weights_q
        assert layer.biases_q.tolist() == [-3]


def oracle_requantize_params(w, b, layer, feedback, layer_idx):
    """The value-unit requantize step: w and b are real parameter values."""
    w_step = layer.weights_q.params.step
    b_step = 2.0 ** layer.bias_exponent
    b_limit = BIAS_CODE_MAX
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
# only where both readings are tiny; every difference seen was below 2**-125
# in real units.
TINY_RESIDUAL = 2.0**-100


def assert_same_residuals(got, want, exponent):
    """``got``, a residual in code units, read in real units by the exact
    float64 scale 2**exponent, has the bits of ``want``, the oracle's
    residual in real units, except where both are tiny."""
    assert got.dtype == want.dtype == np.float32
    got = got.astype(np.float64) * 2.0**exponent
    want = want.astype(np.float64)
    differs = got.view(np.uint64) != want.view(np.uint64)
    assert np.all(np.abs(got[differs]) < TINY_RESIDUAL), (got, want)
    assert np.all(np.abs(want[differs]) < TINY_RESIDUAL), (got, want)


@contextmanager
def absorbed_layers():
    """A list that gets, for each ``_requantize_params`` call made by
    ``backward_hybrid`` inside the block, whether the layer's weights were
    absorbed (``w=None``: codes kept without a write-back)."""
    absorbed = []
    requantize = train._requantize_params

    def spy(w, *rest):
        absorbed.append(w is None)
        requantize(w, *rest)

    with mock.patch.object(train, "_requantize_params", spy):
        yield absorbed


def train_both(m, samples, lr, error_feedback):
    """Run backward_hybrid on m and the oracle on a clone, sample by sample.

    The oracle always writes the weights back; backward_hybrid skips that
    where its bound proves every code stays put. After every step the
    weight and bias codes must be equal, and so must the error-feedback
    residuals' bits, read in real units, except where both are tiny.
    Returns both feedback states and ``absorbed_layers``' list.
    """
    oracle = clone_model(m)
    fb_got = FeedbackState.for_model(m) if error_feedback else None
    fb_want = FeedbackState.for_model(oracle) if error_feedback else None
    in_params = m.layers[0].in_params
    with absorbed_layers() as absorbed:
        for x, t in samples:
            backward_hybrid(forward_int8(m, QTensor(x, in_params)), t, m, lr, fb_got)
            oracle_backward_hybrid(
                forward_int8(oracle, QTensor(x, in_params)), t, oracle, lr, fb_want
            )
            for got, want in zip(m.layers, oracle.layers):
                assert got.weights_q.codes.tolist() == want.weights_q.codes.tolist()
                assert got.biases_q.tolist() == want.biases_q.tolist()
            if error_feedback:
                for i, layer in enumerate(m.layers):
                    w_exp = layer.weights_q.params.exponent
                    assert_same_residuals(fb_got.weights[i], fb_want.weights[i], w_exp)
                    assert_same_residuals(
                        fb_got.biases[i], fb_want.biases[i], layer.bias_exponent
                    )
    return fb_got, fb_want, absorbed


LEARNING_RATES = [0.0, 1e-4, 0.05, 1.0, 1e6]


@st.composite
def qmodels(draw):
    """One to three chained qlayers(), weight exponents over the whole range."""
    w_exps = st.integers(EXPONENT_MIN, EXPONENT_MAX)
    layers = [draw(qlayers(w_exps=w_exps))]
    for _ in range(draw(st.integers(0, 2))):
        prev = layers[-1]
        layers.append(draw(qlayers(prev.out_dim, prev.act_params.exponent, w_exps)))
    return Model(layers)


def samples_for(m):
    """(input codes, float32 targets) for m; targets include zeros and
    subnormals, so deltas can be subnormal too."""
    targets = st.floats(-1.5, 1.5, width=32)
    return st.tuples(
        arrays(np.int8, m.input_dim), arrays(np.float32, m.output_dim, elements=targets)
    )


class TestBackwardHybridInCodeUnits:
    """backward_hybrid works on parameters in code units, the oracle above in
    real units. Both must give the same codes."""

    def test_matches_the_value_unit_oracle(self):
        taken = set()

        @no_deadline
        @given(st.data(), st.sampled_from(LEARNING_RATES), st.booleans())
        def check(data, lr, error_feedback):
            m = data.draw(qmodels())
            samples = data.draw(st.lists(samples_for(m), min_size=1, max_size=3))
            with np.errstate(over="ignore", invalid="ignore"):
                taken.update(train_both(m, samples, lr, error_feedback)[2])

        check()
        # the draws reached both branches: absorbed layers (hypothesis tries
        # the simplest draw first, lr = 0 without feedback) and written ones
        assert taken == {True, False}

    @no_deadline
    @given(st.data(), st.booleans())
    def test_learning_rate_zero_leaves_every_code(self, data, error_feedback):
        # bias codes up to BIAS_CODE_MAX, float32 in code units, come back
        # exactly; so do the residuals, which stay zero
        m = data.draw(qmodels())
        x, t = data.draw(samples_for(m))
        before = [(l.weights_q.codes.tolist(), l.biases_q.tolist()) for l in m.layers]
        fb = FeedbackState.for_model(m) if error_feedback else None
        with absorbed_layers() as absorbed:
            backward_hybrid(forward_int8(m, QTensor(x, m.layers[0].in_params)), t, m, 0.0, fb)
        assert [(l.weights_q.codes.tolist(), l.biases_q.tolist()) for l in m.layers] == before
        # a zero rate takes the skip, unless error feedback needs the update
        assert absorbed == [not error_feedback] * len(m.layers)
        if fb is not None:
            assert not any(r.any() for r in fb.weights + fb.biases)

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
        # is subnormal in real units, 2**14 times larger in code units. The
        # code-unit residual keeps the low bits that the oracle's real-unit
        # residual rounds away; the codes agree.
        m = self.tiny_update_model()
        t = np.array([1.7e-35], dtype=np.float32)
        fb_got, fb_want, _ = train_both(m, [(np.array([1, 3], dtype=np.int8), t)], 1e-4, True)
        # delta = -t, so each residual is its whole update, scaled by
        # float32(lr) * 2**-e: t * that for the bias, t * a * that for the
        # weights, with a = 2**-7 and 3 * 2**-7
        lr = float(np.float32(1e-4))
        update = t * np.float32(lr * 2.0**14)
        assert fb_got.biases[0].tolist() == update.tolist()
        a = np.array([2.0**-7, 3 * 2.0**-7], dtype=np.float32)
        assert fb_got.weights[0].tolist() == [((t * a) * np.float32(lr * 2.0**7)).tolist()]
        real = float(update[0]) * 2.0**-14
        assert real < 2.0**-126
        assert float(fb_want.biases[0][0]) != real


# backward_hybrid's absorbed-weights bound, B < 0.5 - 2**-8 (see its docstring)
THRESHOLD = np.float32(0.5 - 2.0**-8)
BELOW_HALF = np.nextafter(np.float32(0.5), np.float32(0))  # 0.5 - 2**-25
STRADDLE = [
    np.nextafter(THRESHOLD, np.float32(0)), THRESHOLD, np.nextafter(THRESHOLD, np.float32(1)),
    BELOW_HALF, np.float32(0.5), np.nextafter(np.float32(0.5), np.float32(1)),
]


def straddle_step(w, x, signs, p, e_in, e_w, bound):
    """A one-layer tanh model, an input row and a target, and the rate whose
    bound B = max|delta| * 2**(e_in + 7) * s is exactly ``bound``.

    The biases cancel the dot products, so every accumulator is 0, the
    output tanh(0) = 0 and its derivative 1: delta = -t, with
    t = signs * 2**p. Input code -128 is a_j = -2**(e_in + 7), so the
    weights it feeds get the update signs * bound, exactly: a positive sign
    moves a weight towards w - 1/2, a negative one towards w + 1/2.
    """
    w = np.array(w, dtype=np.int8)
    x = np.array(x, dtype=np.int8)
    layer = QDenseLayer(
        weights_q=QTensor(w, QuantParams(e_w)),
        biases_q=-(w.astype(np.int32) @ x.astype(np.int32)),
        in_params=QuantParams(e_in),
        lut=build_lut("tanh", QuantParams(-4), QuantParams(-7)),
    )
    t = np.array(signs, dtype=np.float32) * np.float32(2.0**p)
    # float32(lr) * 2**-e_w = bound * 2**-(p + e_in + 7), exact
    return Model([layer]), x, t, float(bound) * 2.0 ** (e_w - p - e_in - 7)


@st.composite
def straddle_cases(draw):
    """straddle_step arguments with the bound drawn around 0.5 - 2**-8 and 1/2."""
    out_dim, in_dim = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    w = draw(arrays(np.int8, (out_dim, in_dim))).tolist()
    x = [CODE_MIN] + draw(st.lists(
        st.one_of(st.just(CODE_MIN), st.integers(CODE_MIN, CODE_MAX)),
        min_size=in_dim - 1, max_size=in_dim - 1,
    ))
    signs = [draw(st.sampled_from([-1, 1]))] + draw(st.lists(
        st.sampled_from([-1, 0, 1]), min_size=out_dim - 1, max_size=out_dim - 1
    ))
    near_half = st.floats(0.5 - 2.0**-7, 0.5 + 2.0**-7, width=32)
    bound = draw(st.one_of(st.sampled_from(STRADDLE), near_half))
    return (
        w, x, signs, draw(st.integers(-3, 3)), draw(st.integers(-10, 0)),
        draw(st.integers(-10, 0)), bound,
    )


# rows of negative codes get +bound, rows of positive codes -bound, so each
# moves towards the tie that would change it; -128 and 127 are the rails
TIE_CODES = [[-128, -77, -3, -1], [127, 100, 3, 0]]


class TestAbsorbedWeightUpdates:
    """backward_hybrid keeps the weight codes without a write-back exactly
    when its bound holds, and the oracle's full write-back agrees."""

    @no_deadline
    @given(straddle_cases())
    @example((TIE_CODES, [CODE_MIN] * 4, [1, -1], 0, -7, -7, 0.5)).via(
        "exact ties: every code moves away from zero, the rails clamp"
    )
    @example((TIE_CODES, [CODE_MIN] * 4, [1, -1], 0, -7, -7, THRESHOLD)).via(
        "the threshold itself is written back"
    )
    @example((TIE_CODES, [CODE_MIN] * 4, [1, -1], 2, -3, -9, STRADDLE[0])).via(
        "the largest bound below the threshold keeps every code"
    )
    @example(([[-3]], [CODE_MIN], [1], 0, -7, -7, BELOW_HALF)).via(
        "an update below 1/2 that moves a negative code"
    )
    def test_updates_straddling_the_bound(self, case):
        *args, bound = case
        m, x, t, lr = straddle_step(*args, bound)
        _, _, absorbed = train_both(m, [(x, t)], lr, False)
        assert absorbed == [bool(bound < THRESHOLD)]

    def test_below_half_update_that_moves_a_negative_code_is_written(self):
        # w = -3 and Delta = 0.5 - 2**-25: the float32 -3 - Delta is -3.5,
        # which rounds to -4. The bound must refuse it, though Delta < 1/2.
        assert _round_half_away(np.float32(-3) - BELOW_HALF) == -4
        m, x, t, lr = straddle_step([[-3]], [CODE_MIN], [1], 0, -7, -7, BELOW_HALF)
        with absorbed_layers() as absorbed:
            backward_hybrid(forward_int8(m, QTensor(x, m.layers[0].in_params)), t, m, lr)
        assert absorbed == [False]
        assert m.layers[0].weights_q.codes.tolist() == [[-4]]

    def test_nan_delta_takes_the_full_path(self):
        m, x, _, _ = straddle_step([[-3, 5]], [CODE_MIN, 7], [1], 0, -7, -7, 0.25)
        t = np.array([np.nan], dtype=np.float32)
        # NaN updates cast to int8: numpy warns, the codes are whatever it gives
        with absorbed_layers() as absorbed, np.errstate(invalid="ignore"):
            backward_hybrid(forward_int8(m, QTensor(x, m.layers[0].in_params)), t, m, 0.05)
        assert absorbed == [False]
