import os
import subprocess
import sys

import numpy as np
import pytest

from qmlp.errors import ConfigurationError, DataError, InvariantError
from qmlp.nn import (
    BIAS_CODE_MAX,
    DIM_MAX,
    _int8_kernel,
    build_model,
    clone_model,
    forward_full,
    forward_int8,
    linear_int8,
    predict_full,
    predict_int8,
    quantize_model,
    DenseLayer,
    Model,
    QDenseLayer,
)
from qmlp.quant import (
    ActivationLUT, QTensor, QuantParams, _float_codes, build_lut, dequantize, quantize,
)


def round_half_away(x):
    return np.copysign(np.floor(np.abs(np.asarray(x, dtype=np.float64)) + 0.5), x)


def kernel_oracle(x_codes, w_codes, bias_codes, shift):
    """Exact-arithmetic reference: python-int dot product, rounding shift, clamp."""
    outs = []
    for j in range(len(w_codes)):
        acc = int(bias_codes[j]) + sum(
            int(w) * int(x) for w, x in zip(w_codes[j], x_codes)
        )
        if shift >= 0:
            val = acc << shift
        else:
            s = -shift
            mag = (abs(acc) + (1 << (s - 1))) >> s
            val = mag if acc >= 0 else -mag
        outs.append(max(-128, min(127, val)))
    return np.array(outs, dtype=np.int64)


def make_qlayer(w_codes, bias_codes, in_e=-7, w_e=-7, preact_e=-7, act="tanh"):
    from qmlp.nn import QDenseLayer
    from qmlp.quant import build_lut

    w_codes = np.asarray(w_codes, dtype=np.int8)
    preact = QuantParams(preact_e)
    out = QuantParams(-7)
    return QDenseLayer(
        weights_q=QTensor(w_codes, QuantParams(w_e)),
        biases_q=np.asarray(bias_codes, dtype=np.int32),
        in_params=QuantParams(in_e),
        lut=build_lut(act, preact, out),
    )


class TestBuildModel:
    def test_layer_dims(self):
        m = build_model("cogdist", 0)
        assert [(l.in_dim, l.out_dim, l.activation) for l in m.layers] == [
            (6, 40, "tanh"), (40, 32, "tanh"), (32, 1, "sigmoid"),
        ]
        m = build_model("car_evaluation", 0)
        assert [(l.in_dim, l.out_dim, l.activation) for l in m.layers] == [
            (6, 32, "tanh"), (32, 16, "tanh"), (16, 4, "sigmoid"),
        ]

    def test_deterministic_under_seed(self):
        a = build_model("cogdist", 99)
        b = build_model("cogdist", 99)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.biases, lb.biases)
        c = build_model("cogdist", 100)
        assert not np.array_equal(a.layers[0].weights, c.layers[0].weights)

    def test_glorot_bounds_and_zero_biases(self):
        m = build_model("car_evaluation", 5)
        for l in m.layers:
            limit = np.sqrt(6.0 / (l.in_dim + l.out_dim))
            assert np.max(np.abs(l.weights)) <= limit
            assert np.all(l.biases == 0)

    def test_explicit_spec(self):
        m = build_model((3, [(4, "tanh"), (2, "sigmoid")]), 0)
        assert m.input_dim == 3 and m.output_dim == 2

    def test_bad_arch(self):
        with pytest.raises(ConfigurationError):
            build_model("resnet", 0)
        with pytest.raises(ConfigurationError):
            build_model((0, [(4, "tanh")]), 0)

    def test_no_layers_is_a_bad_spec(self):
        with pytest.raises(ConfigurationError, match="one or more layers"):
            build_model((6, []), 0)


class TestModel:
    def test_derives_input_dim_and_representation(self):
        m = Model([DenseLayer(np.zeros((3, 2)), np.zeros(3), "tanh"),
                   DenseLayer(np.zeros((1, 3)), np.zeros(1), "sigmoid")])
        assert (m.input_dim, m.representation, m.output_dim) == (2, "full", 1)
        q = Model([make_qlayer(np.zeros((3, 5)), np.zeros(3))])
        assert (q.input_dim, q.representation, q.output_dim) == (5, "quantized", 3)

    def test_layers_are_the_only_argument(self):
        with pytest.raises(TypeError):
            Model([DenseLayer([[1.0]], [0.0], "tanh")], 1, "full")

    @pytest.mark.parametrize("layers", [
        [],
        [DenseLayer([[1.0]], [0.0], "tanh"), make_qlayer([[1]], [0])],
        [make_qlayer([[1]], [0]), DenseLayer([[1.0]], [0.0], "tanh")],
        ["not a layer"],
    ])
    def test_mixed_or_missing_layers_rejected(self, layers):
        with pytest.raises(InvariantError):
            Model(layers)

    def test_no_layers_named_as_the_fault(self):
        with pytest.raises(InvariantError, match="needs one or more layers"):
            Model([])

    # DenseLayer and QDenseLayer share one shape rule
    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
    @pytest.mark.parametrize("make", [
        lambda w, b: DenseLayer(w, b, "tanh"),
        lambda w, b: make_qlayer(w, b),
    ], ids=["full", "quantized"])
    def test_empty_layer_refused(self, make, shape):
        with pytest.raises(InvariantError, match="layer dimensions must be >= 1"):
            make(np.zeros(shape), np.zeros(shape[0]))

    # the model file stores each dimension as u16
    @pytest.mark.parametrize("shape", [(DIM_MAX + 1, 1), (1, DIM_MAX + 1)])
    @pytest.mark.parametrize("make", [
        lambda w, b: DenseLayer(w, b, "tanh"),
        lambda w, b: make_qlayer(w, b),
    ], ids=["full", "quantized"])
    def test_dimension_past_u16_refused(self, make, shape):
        assert DIM_MAX == 65535
        with pytest.raises(InvariantError, match="layer dimensions must be <= 65535"):
            make(np.zeros(shape), np.zeros(shape[0]))

    def test_width_chain_checked(self):
        with pytest.raises(InvariantError, match="layer chain mismatch"):
            Model([DenseLayer(np.zeros((3, 2)), np.zeros(3), "tanh"),
                   DenseLayer(np.zeros((1, 4)), np.zeros(1), "sigmoid")])

    def test_scale_chain_checked(self):
        # layer 1 reads its input at e=-5 while layer 0 writes codes at e=-7:
        # predict_int8 would misread every hidden activation by a factor of 4
        first = make_qlayer(np.ones((2, 2)), [0, 0], in_e=-7)
        with pytest.raises(InvariantError, match="scale chain"):
            Model([first, make_qlayer(np.ones((1, 2)), [0], in_e=-5)])
        Model([first, make_qlayer(np.ones((1, 2)), [0], in_e=-7)])

    def test_activation_is_read_from_the_lut(self):
        # the layer cannot name another activation than its table's: the
        # backward pass applies the derivative of the one the LUT holds
        for act in ("tanh", "sigmoid"):
            layer = make_qlayer([[1, 2]], [0], act=act)
            assert layer.activation == layer.lut.activation == act
        with pytest.raises(TypeError):
            QDenseLayer(layer.weights_q, layer.biases_q, layer.in_params, layer.lut, "tanh")
        with pytest.raises(ConfigurationError, match="unknown activation"):
            ActivationLUT(layer.lut.table, layer.lut.in_params, layer.lut.out_params, "relu")

    def test_quantized_scales_read_from_lut(self):
        layer = make_qlayer([[1, 2]], [0], preact_e=-5)
        assert layer.preact_params == layer.lut.in_params == QuantParams(-5)
        assert layer.act_params == layer.lut.out_params == QuantParams(-7)


class TestForwardFull:
    def test_zero_model_sigmoid_half(self):
        m = build_model((2, [(3, "tanh"), (1, "sigmoid")]), 0)
        for l in m.layers:
            l.weights[:] = 0
        out = forward_full(m, [0.3, -0.4]).output
        assert abs(float(out[0]) - 0.5) < 1e-7

    def test_single_layer_identity(self):
        m = Model([DenseLayer([[1.0]], [0.0], "tanh")])
        assert abs(float(forward_full(m, [0.0]).output[0])) < 1e-7

    def test_hand_computed_sigmoid(self):
        m = Model([DenseLayer([[1.0, 1.0]], [0.5], "sigmoid")])
        out = forward_full(m, [0.25, 0.25], "reference").output
        assert abs(float(out[0]) - 0.7311) <= 1e-4

    def test_matches_matrix_oracle(self, rng):
        # independent float64 recomputation of the same forward math
        for trial in range(20):
            dims = [int(rng.integers(1, 9)) for _ in range(3)]
            m = build_model((dims[0], [(dims[1], "tanh"), (dims[2], "sigmoid")]), trial)
            x = rng.uniform(-1, 1, dims[0]).astype(np.float32)
            trace = forward_full(m, x, "reference")
            a = x.astype(np.float64)
            for l in m.layers:
                z = l.weights.astype(np.float64) @ a + l.biases.astype(np.float64)
                a = np.tanh(z) if l.activation == "tanh" else 1 / (1 + np.exp(-z))
            np.testing.assert_allclose(trace.output.astype(np.float64), a, atol=1e-5)

    def test_dimension_mismatch(self):
        m = build_model("cogdist", 0)
        with pytest.raises(InvariantError):
            forward_full(m, np.zeros(5))

    def test_predict_full_matches_per_sample(self, rng):
        m = build_model("car_evaluation", 1)
        X = rng.uniform(-1, 1, size=(10, 6)).astype(np.float32)
        batch = predict_full(m, X, "reference")
        for i in range(10):
            np.testing.assert_allclose(
                batch[i], forward_full(m, X[i], "reference").output, atol=1e-6
            )


class TestLinearInt8:
    def test_zero_in_zero_out(self):
        layer = make_qlayer(np.zeros((3, 4)), np.zeros(3))
        out = linear_int8(QTensor(np.zeros(4, dtype=np.int8), QuantParams(-7)), layer)
        assert np.all(out.codes == 0)

    def test_worked_example(self):
        # acc = 48 + 2*10 + 3*20 = 128; shift -7; round(128/128) = 1
        layer = make_qlayer([[2, 3]], [48])
        out = linear_int8(QTensor(np.array([10, 20], dtype=np.int8), QuantParams(-7)), layer)
        assert layer.requantize_shift_amount == -7
        assert out.codes[0] == 1

    def test_exhaustive_small_cases(self):
        codes = (-128, -1, 0, 1, 127)
        for in_dim in (1, 2, 3):
            grids = np.array(np.meshgrid(*([codes] * in_dim))).T.reshape(-1, in_dim)
            for x in grids:
                for w_row in grids[:: max(1, len(grids) // 25)]:
                    for bias in (-(2**15), 0, 7):
                        for shift_e in (-7, -4):
                            layer = make_qlayer(
                                w_row.reshape(1, -1), [bias], preact_e=shift_e
                            )
                            got = linear_int8(
                                QTensor(x.astype(np.int8), QuantParams(-7)), layer
                            )
                            want = kernel_oracle(
                                x, w_row.reshape(1, -1), [bias],
                                layer.requantize_shift_amount,
                            )
                            assert got.codes[0] == want[0]

    def test_random_cases(self, rng):
        for _ in range(200):
            in_dim = int(rng.integers(1, 41))
            out_dim = int(rng.integers(1, 8))
            x = rng.integers(-128, 128, in_dim)
            w = rng.integers(-128, 128, (out_dim, in_dim))
            b = rng.integers(-(2**16), 2**16, out_dim)
            in_e, w_e = int(rng.integers(-10, -4)), int(rng.integers(-10, -4))
            preact_e = int(rng.integers(-8, -2))
            layer = make_qlayer(w, b, in_e=in_e, w_e=w_e, preact_e=preact_e)
            got = linear_int8(QTensor(x.astype(np.int8), QuantParams(in_e)), layer)
            want = kernel_oracle(x, w, b, layer.requantize_shift_amount)
            np.testing.assert_array_equal(got.codes.astype(np.int64), want)

    def test_single_output_matches_float_oracle(self, rng):
        # CogDist final layer shape 32 -> 1; dequantized float path within 1 code
        mism = 0
        for _ in range(1000):
            x = rng.integers(-128, 128, 32).astype(np.int8)
            w = rng.integers(-64, 65, (1, 32)).astype(np.int8)
            b = rng.integers(-(2**12), 2**12, 1)
            layer = make_qlayer(w, b, in_e=-7, w_e=-7, preact_e=-4)
            got = int(linear_int8(QTensor(x, QuantParams(-7)), layer).codes[0])
            acc_real = float(b[0]) * 2.0**-14 + (
                w.astype(np.float64) @ x.astype(np.float64)
            )[0] * 2.0**-14
            want = int(np.clip(round_half_away(acc_real / 2.0**-4), -128, 127))
            mism += abs(got - want) > 1
        assert mism == 0

    def test_params_mismatch(self):
        layer = make_qlayer([[1]], [0], in_e=-7)
        with pytest.raises(InvariantError):
            linear_int8(QTensor(np.zeros(1, dtype=np.int8), QuantParams(-6)), layer)


@pytest.mark.parametrize("rows", [1, 2, 1024])
def test_int8_kernel_returns_a_fresh_accumulator(rows):
    # a batch adds its bias codes in place on the product it has just made;
    # that add must write no array the caller or the layer holds
    m = quantize_model(build_model("car_evaluation", 3))
    rng = np.random.default_rng(rows)
    for layer in m.layers:
        a = rng.integers(-128, 128, (rows, layer.in_dim)).astype(np.float64)
        w, b = _float_codes(layer.weights_q), layer.biases_q
        before = [x.copy() for x in (a, w, b)]
        acc = _int8_kernel(a, layer)
        assert acc.dtype == np.float64 and acc.shape == (rows, layer.out_dim)
        assert not any(np.shares_memory(acc, x) for x in (a, w, b))
        for x, was in zip((a, w, b), before):
            np.testing.assert_array_equal(x, was)
        want = a.astype(np.int64) @ layer.weights_q.codes.T.astype(np.int64) + b
        np.testing.assert_array_equal(acc, want)


# refusals of bad layers and inputs, each naming its fault
@pytest.mark.parametrize("call, error, match", [
    (lambda: DenseLayer(np.zeros(2), np.zeros(2), "tanh"), InvariantError,
     r"weights must be \[out x in\], biases \[out\]"),
    (lambda: make_qlayer(np.zeros((2, 3)), np.zeros(3)), InvariantError,
     "weight rows and bias length differ"),
    (lambda: DenseLayer(np.zeros((2, 3)), np.zeros(2), "relu"), ConfigurationError,
     "unknown activation 'relu'"),
    (lambda: DenseLayer(np.zeros((2, 3)), [0.0, np.inf], "tanh"), InvariantError,
     "layer parameters must be finite"),
    (lambda: predict_full(build_model("car_evaluation", 0), np.zeros((2, 5))), InvariantError,
     r"predict_full: batch shape \(2, 5\) does not match input_dim 6"),
    (lambda: linear_int8(quantize(np.zeros(5), QuantParams(-7)),
                         make_qlayer(np.zeros((2, 6)), [0, 0])),
     InvariantError, "kernel input length does not match layer in_dim"),
], ids=["not-a-matrix", "bias-length", "unknown-activation", "non-finite",
        "batch-width", "kernel-input-length"])
def test_refusal_names_the_fault(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestBiasCodeBound:
    def test_limit_leaves_room_for_every_product(self):
        # float32 holds every integer up to the bound, and not the one past it
        assert BIAS_CODE_MAX == 2**24
        assert int(np.float32(BIAS_CODE_MAX)) == BIAS_CODE_MAX
        assert int(np.float32(BIAS_CODE_MAX + 1)) != BIAS_CODE_MAX + 1
        # the bias plus DIM_MAX products of magnitude 128 * 128 stays in int32
        assert BIAS_CODE_MAX + 128 * 128 * DIM_MAX <= 2**31 - 1
        assert -BIAS_CODE_MAX - 128 * 128 * DIM_MAX >= -(2**31)

    @pytest.mark.parametrize("in_dim", [1, 6, 40])
    def test_limit_accepted_one_past_refused(self, in_dim):
        limit = BIAS_CODE_MAX
        w = np.zeros((2, in_dim))
        make_qlayer(w, [limit, -limit])
        for bad in (limit + 1, -limit - 1):
            with pytest.raises(InvariantError, match="bias code outside"):
                make_qlayer(w, [0, bad])

    def test_int32_min_refused(self):
        # abs(int32 min) wraps to itself, so the check must not use abs
        with pytest.raises(InvariantError):
            make_qlayer(np.zeros((1, 2)), [-(2**31)])

    # the code-buffer rule (quant._whole): the int32 cast would keep 0 for 0.5
    # and turn NaN into -2**31, past the bound, with only a RuntimeWarning
    @pytest.mark.parametrize("code", [0.5, -0.5, BIAS_CODE_MAX - 0.5, np.nan])
    def test_non_whole_code_refused(self, code):
        lut = build_lut("tanh", QuantParams(-7), QuantParams(-7))
        w_q = QTensor(np.zeros((2, 1), dtype=np.int8), QuantParams(-7))
        with pytest.raises(InvariantError, match="bias code outside"):
            QDenseLayer(w_q, np.array([0.0, code]), QuantParams(-7), lut)

    def test_quantize_model_refuses_unrepresentable_bias(self):
        m = build_model((2, [(1, "sigmoid")]), 0)
        m.layers[0].biases[:] = 2.0**20  # 2**34 codes at the default 2**-14 step
        with pytest.raises(DataError, match="layer 0"):
            quantize_model(m)


class TestRequantizeShiftBound:
    @pytest.mark.parametrize("in_e, w_e, preact_e", [(-24, -24, 8), (8, 8, -16)])
    def test_out_of_range_shift_refused_when_built(self, in_e, w_e, preact_e):
        # shifts -56 and 32
        with pytest.raises(InvariantError, match="requantize shift"):
            make_qlayer([[1]], [0], in_e=in_e, w_e=w_e, preact_e=preact_e)

    @pytest.mark.parametrize("in_e, w_e, preact_e", [(-24, -7, 0), (8, 7, -16)])
    def test_extreme_shifts_accepted(self, in_e, w_e, preact_e):
        layer = make_qlayer([[1]], [0], in_e=in_e, w_e=w_e, preact_e=preact_e)
        assert abs(layer.requantize_shift_amount) == 31


class TestForwardInt8:
    def test_zero_model_gives_sigmoid_half_codes(self):
        m = build_model((2, [(3, "tanh"), (1, "sigmoid")]), 0)
        for l in m.layers:
            l.weights[:] = 0
        q = quantize_model(m)
        xq = quantize(np.zeros(2), q.layers[0].in_params)
        trace = forward_int8(q, xq)
        # sigmoid(0) = 0.5 at e=-7 is code 64
        assert trace.output.codes[0] == 64

    def test_cross_representation_agreement(self, car_splits, rng):
        train, _ = car_splits
        m = build_model("car_evaluation", 7)
        from qmlp.train import TrainConfig, train_full

        train_full(m, car_splits, TrainConfig(epochs=5, seed=7))
        X = rng.uniform(-1, 1, size=(500, 6)).astype(np.float32)
        q = quantize_model(m, calibration=X)
        out_params = q.layers[-1].act_params
        in_params = q.layers[0].in_params
        hits = 0
        for x in X:
            ref_codes = quantize(
                forward_full(m, x, "reference").output, out_params
            ).codes.astype(int)
            got = forward_int8(q, QTensor(quantize(x, in_params).codes, in_params))
            if np.max(np.abs(ref_codes - got.output.codes.astype(int))) <= 3:
                hits += 1
        assert hits / len(X) >= 0.95

    @staticmethod
    def assert_predict_int8_matches_per_sample(X, arch="car_evaluation"):
        q = quantize_model(build_model(arch, 3))
        before = X.copy()
        batch = predict_int8(q, X)
        np.testing.assert_array_equal(X, before)
        assert batch.shape == (len(X), q.output_dim) and batch.dtype == np.float32
        in_params = q.layers[0].in_params
        for i in range(len(X)):
            tr = forward_int8(q, QTensor(quantize(X[i], in_params).codes, in_params))
            assert batch[i].tobytes() == dequantize(tr.output).tobytes()

    def test_predict_int8_matches_per_sample(self, rng):
        self.assert_predict_int8_matches_per_sample(
            rng.uniform(-1.5, 1.5, size=(20, 6)).astype(np.float32)
        )

    # cogdist's one-row batch takes the kernel's dot form for a single row
    # and _requantize_lut's one-element branch (one sigmoid output)
    @pytest.mark.parametrize(
        "arch, layout",
        [
            pytest.param(arch, layout, id=layout if arch == "car_evaluation" else f"{arch}-{layout}")
            for arch in ("car_evaluation", "cogdist")
            for layout in ("0-rows", "1-row", "fortran", "negative-stride")
        ],
    )
    def test_predict_int8_matches_per_sample_in_every_layout(self, rng, arch, layout):
        rows = {"0-rows": 0, "1-row": 1}.get(layout, 20)
        X = rng.uniform(-1.5, 1.5, size=(rows, 6)).astype(np.float32)
        if layout == "fortran":
            X = np.asfortranarray(X)
        elif layout == "negative-stride":
            X = X[::-1]
        self.assert_predict_int8_matches_per_sample(X, arch)

    def test_wrong_representation(self):
        m = build_model("cogdist", 0)
        with pytest.raises(InvariantError):
            forward_int8(m, QTensor(np.zeros(6, dtype=np.int8), QuantParams(-7)))

    def test_predict_full_wrong_representation(self):
        q = quantize_model(build_model("cogdist", 0))
        with pytest.raises(InvariantError):
            predict_full(q, np.zeros((2, 6), dtype=np.float32))


# Prints one digest of predict_int8 on a batch and on one row, and of the
# forward_int8 codes of every row, for three quantized models.
_INT8_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from qmlp.nn import build_model, forward_int8, predict_int8, quantize_model
from qmlp.quant import quantize

h = hashlib.sha256()
for arch in ("car_evaluation", "cogdist", (200, [(64, "tanh"), (3, "sigmoid")])):
    m = build_model(arch, 5)
    rng = np.random.default_rng(6)
    for l in m.layers:
        l.biases[:] = rng.uniform(-0.5, 0.5, l.out_dim)
    X = rng.uniform(-1.5, 1.5, (300, m.input_dim)).astype(np.float32)
    q = quantize_model(m, calibration=X)
    h.update(predict_int8(q, X).tobytes())
    h.update(predict_int8(q, X[:1]).tobytes())
    for x in X:
        h.update(forward_int8(q, quantize(x, q.layers[0].in_params)).output.codes.tobytes())
print(h.hexdigest())
"""


def test_int8_outputs_do_not_depend_on_the_blas_kernel():
    # the int8 path sums integers below 2**31 in float64, exact in any
    # order, so every OpenBLAS core type gives the same bytes (the float
    # path does not promise this)
    digests = {}
    for core in (None, "Haswell", "Nehalem"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["OPENBLAS_NUM_THREADS"] = "1"
        if core:
            env["OPENBLAS_CORETYPE"] = core
        proc = subprocess.run(
            [sys.executable, "-c", _INT8_DIGEST_SCRIPT], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        digests[core] = proc.stdout.strip()
    assert len(set(digests.values())) == 1, digests


class TestQuantizeModel:
    def test_zero_model(self):
        m = build_model((2, [(2, "tanh"), (1, "sigmoid")]), 0)
        for l in m.layers:
            l.weights[:] = 0
        q = quantize_model(m)
        for ql in q.layers:
            assert np.all(ql.weights_q.codes == 0)
            assert np.all(ql.biases_q == 0)
            assert ql.preact_params.exponent == -4
            assert ql.act_params.exponent == -7
        assert q.layers[0].in_params.exponent == -7

    def test_weight_exponent_from_magnitude(self):
        m = build_model((2, [(1, "tanh")]), 0)
        m.layers[0].weights[:] = [[0.99, -0.2]]
        q = quantize_model(m)
        assert q.layers[0].weights_q.params.exponent == -7

    def test_weight_round_trip_half_step(self):
        m = build_model("car_evaluation", 11)
        q = quantize_model(m)
        for l, ql in zip(m.layers, q.layers):
            step = ql.weights_q.params.step
            err = np.abs(dequantize(ql.weights_q) - l.weights)
            assert np.max(err) <= step / 2 + 1e-9

    def test_bias_exponent_is_input_plus_weight(self):
        q = quantize_model(build_model("cogdist", 2))
        for ql in q.layers:
            assert ql.bias_exponent == ql.in_params.exponent + ql.weights_q.params.exponent

    def test_calibration_sets_preact_exponents(self, rng):
        m = build_model("car_evaluation", 7)
        X = rng.uniform(-1, 1, size=(64, 6)).astype(np.float32)
        q = quantize_model(m, calibration=X)
        # calibrated exponents cover the observed pre-activation range
        A = X
        for ql, l in zip(q.layers, m.layers):
            Z = A @ l.weights.T + l.biases
            assert np.max(np.abs(Z)) <= 128 * ql.preact_params.step
            A = np.tanh(Z) if l.activation == "tanh" else 1 / (1 + np.exp(-Z))

    def test_calibration_without_rows_is_a_data_error(self):
        with pytest.raises(DataError, match="calibration set has no rows"):
            quantize_model(build_model("car_evaluation", 1), np.zeros((0, 6)))

    def test_bias_ties_round_half_away_from_zero(self):
        m = build_model((2, [(4, "tanh")]), 0)
        step = 2.0 ** quantize_model(m).layers[0].bias_exponent
        # exponents come from the weights, so they survive the bias change
        m.layers[0].biases[:] = np.array([2.5, -2.5, 0.5, -1.5]) * step
        q = quantize_model(m)
        assert q.layers[0].bias_exponent == np.log2(step)
        assert q.layers[0].biases_q.tolist() == [3, -3, 1, -2]


class TestCloneModel:
    def test_clone_full_is_independent(self):
        m = build_model("cogdist", 0)
        c = clone_model(m)
        c.layers[0].weights[0, 0] += 1.0
        assert m.layers[0].weights[0, 0] != c.layers[0].weights[0, 0]

    def test_clone_quantized_owns_its_bias_codes(self):
        q = quantize_model(build_model("car_evaluation", 0))
        c = clone_model(q)
        for ql, cl in zip(q.layers, c.layers):
            # bias codes are copied; the immutable weight QTensors are shared
            assert not np.shares_memory(ql.biases_q, cl.biases_q)
            np.testing.assert_array_equal(ql.biases_q, cl.biases_q)
            assert cl.weights_q is ql.weights_q
        c.layers[0].biases_q[0] += 1
        assert q.layers[0].biases_q[0] != c.layers[0].biases_q[0]
