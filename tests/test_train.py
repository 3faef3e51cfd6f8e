import dataclasses

import numpy as np
import pytest

from qmlp.data import synth_cogdist, split
from qmlp.errors import ConfigurationError, InvariantError
from qmlp.model_io import load_model, save_model
from qmlp.nn import (
    DenseLayer,
    Model,
    build_model,
    clone_model,
    forward_full,
    forward_int8,
    predict_full,
    predict_int8,
    quantize_model,
)
from qmlp.quant import EXPONENT_MIN, quantize
from qmlp.train import (
    LR_MAX,
    EpochRecord,
    FeedbackState,
    SaturationWarning,
    TrainConfig,
    backward_hybrid,
    backward_lsgd,
    finetune_quantized,
    mse_loss,
    predict_labels,
    read_curves_csv,
    train_full,
    write_curves_csv,
)


def snapshot(m):
    return [(l.weights.copy(), l.biases.copy()) for l in m.layers]


def q_snapshot(m):
    return [(l.weights_q.codes.copy(), l.biases_q.copy()) for l in m.layers]


class TestConfig:
    def test_defaults(self):
        cfg = TrainConfig(epochs=5)
        assert cfg.learning_rate == 0.01
        assert cfg.shuffle is False

    @pytest.mark.parametrize(
        "kwargs",
        [dict(epochs=0), dict(epochs=1, learning_rate=-1),
         dict(epochs=1, activation_math="luts"), dict(epochs=-1),
         # a NaN rate passes "< 0": it made NaN weights and, through the
         # rounding cast, bias codes of -2**31
         dict(epochs=1, learning_rate=float("nan")),
         dict(epochs=1, learning_rate=float("inf")),
         dict(epochs=1, learning_rate=float("-inf")), dict(epochs=1, seed=-1),
         # finite, but the smallest bias exponent's update scale overflows float32
         dict(epochs=1, learning_rate=float(np.nextafter(LR_MAX, np.inf))),
         # range() and default_rng would refuse a float count only once the
         # run had started, and a string count fails the comparisons below
         dict(epochs=1.5), dict(epochs=2.0), dict(epochs="3"),
         dict(epochs=1, seed=1.5), dict(epochs=1, seed=2.0),
         # bool is a subclass of int, but True is not an epoch count
         dict(epochs=True), dict(epochs=1, seed=False), dict(epochs=1, seed=True),
         # True would run at rate 1.0, and a string or None fail with a bare TypeError
         dict(epochs=1, learning_rate=True), dict(epochs=1, learning_rate="0.1"),
         dict(epochs=1, learning_rate=None)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("name, value", [("seed", -1), ("epochs", 1.5)])
    def test_fields_cannot_be_assigned(self, name, value):
        # the fields are checked once, when the config is made; an assigned
        # seed or epoch count would reach numpy or range() unchecked
        cfg = TrainConfig(epochs=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
        assert (cfg.epochs, cfg.seed) == (1, 0)

    @pytest.mark.parametrize("name", ["epochs", "seed"])
    def test_non_integer_count_is_named(self, name):
        with pytest.raises(ConfigurationError, match=f"^{name} must be an integer"):
            TrainConfig(**{"epochs": 1, name: 1.5})

    def test_numpy_integer_counts_accepted(self):
        cfg = TrainConfig(epochs=np.int64(2), seed=np.int32(3))
        assert (cfg.epochs, cfg.seed) == (2, 3)

    def test_largest_learning_rate_is_accepted(self):
        scale = np.float32(LR_MAX) * np.float32(2.0 ** (-2 * EXPONENT_MIN))
        assert np.isfinite(scale)
        assert TrainConfig(epochs=1, learning_rate=LR_MAX).learning_rate == LR_MAX


class TestPredictLabels:
    def test_binary_threshold(self):
        np.testing.assert_array_equal(
            predict_labels(np.array([[0.49], [0.5], [0.99]])), [0, 1, 1]
        )

    def test_argmax_with_tie_to_lowest(self):
        out = np.array([[0.2, 0.9, 0.9, 0.1]])
        assert predict_labels(out)[0] == 1


class TestMseLoss:
    def test_examples(self):
        assert mse_loss([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mse_loss([1.0, 0.0], [0.0, 1.0]) == 1.0
        assert mse_loss([0.5], [1.0]) == 0.25

    def test_length_mismatch(self):
        with pytest.raises(InvariantError):
            mse_loss([1.0], [1.0, 2.0])

    # numpy sums 8 or more entries pairwise, in blocks of 128
    @pytest.mark.parametrize(
        "shape", [(1,), (4,), (7,), (8,), (9,), (31,), (127,), (128,), (129,), (1000,), (3, 40)]
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bits_as_mean_of_squares(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        for _ in range(50):
            # magnitudes spread over 2**-20..2**20, so summation order shows
            scale = 2.0 ** rng.integers(-20, 21, shape)
            o = (rng.normal(size=shape) * scale).astype(dtype)
            t = (rng.normal(size=shape) * scale).astype(dtype)
            want = float(np.mean((o.astype(np.float64) - t.astype(np.float64)) ** 2))
            got = mse_loss(o, t)
            assert type(got) is float
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


class TestBackwardLsgd:
    def test_perfect_prediction_no_update(self):
        m = Model([DenseLayer([[1.0]], [0.0], "sigmoid")])
        trace = forward_full(m, [0.0], "reference")
        target = trace.output.copy()
        backward_lsgd(trace, target, m, lr=1.0)
        assert m.layers[0].weights[0, 0] == 1.0
        assert m.layers[0].biases[0] == 0.0

    def test_hand_computed_single_layer(self):
        # a = sigmoid(1) = 0.7311; delta = (a-1) a (1-a) = -0.052877
        m = Model([DenseLayer([[1.0]], [0.0], "sigmoid")])
        trace = forward_full(m, [1.0], "reference")
        backward_lsgd(trace, [1.0], m, lr=1.0)
        assert abs(m.layers[0].weights[0, 0] - 1.05289) <= 2e-4
        assert abs(m.layers[0].biases[0] - 0.05289) <= 2e-4

    def test_node_delta_count_equals_neurons(self):
        m = build_model((6, [(5, "tanh"), (3, "tanh"), (1, "sigmoid")]), 0)
        trace = forward_full(m, np.zeros(6), "reference")
        count = backward_lsgd(trace, [1.0], m, lr=0.01)
        assert count == 5 + 3 + 1

    def test_gradient_against_finite_differences(self, rng):
        # central differences of the half-SSE objective in float64
        for trial in range(5):
            seed = 500 + trial
            m = build_model((6, [(5, "tanh"), (3, "tanh"), (1, "sigmoid")]), seed)
            x = rng.uniform(-1, 1, 6).astype(np.float32)
            t = np.array([float(rng.integers(0, 2))], dtype=np.float32)
            clone = clone_model(m)
            backward_lsgd(forward_full(clone, x, "reference"), t, clone, 1.0)
            g_an = np.concatenate(
                [(m.layers[i].weights - clone.layers[i].weights).ravel() for i in range(3)]
                + [(m.layers[i].biases - clone.layers[i].biases).ravel() for i in range(3)]
            ).astype(np.float64)

            params = [(l.weights.astype(np.float64), l.biases.astype(np.float64), l.activation) for l in m.layers]

            def loss(ps):
                a = x.astype(np.float64)
                for W, b, act in ps:
                    z = W @ a + b
                    a = np.tanh(z) if act == "tanh" else 1 / (1 + np.exp(-z))
                return 0.5 * np.sum((a - t.astype(np.float64)) ** 2)

            eps = 1e-4
            g_fd = []
            for which in (0, 1):
                for li in range(3):
                    arr = params[li][which]
                    for idx in np.ndindex(arr.shape):
                        ps = [(W.copy(), b.copy(), a) for W, b, a in params]
                        ps[li][which][idx] += eps
                        up = loss(ps)
                        ps[li][which][idx] -= 2 * eps
                        down = loss(ps)
                        g_fd.append((up - down) / (2 * eps))
            g_fd = np.array(g_fd)
            # one flat parameter ordering for both: weights then biases
            rel = np.abs(g_fd - g_an) / np.maximum(np.abs(g_fd) + np.abs(g_an), 1e-6)
            assert rel.max() <= 1e-3


@pytest.fixture(scope="module")
def tiny_splits():
    ds = synth_cogdist(0)
    train, val = split(ds, 0.8, seed=0)
    # a small slice keeps the loop tests fast
    from qmlp.data import Dataset

    cut = lambda d, n: Dataset(d.features[:n], d.targets[:n], d.class_names, d.norm_lo, d.norm_hi)
    return cut(train, 200), cut(val, 80)


# each entry point, called with a model of the kind it does not take:
# (full model m, its quantization q, the splits s)
OTHER_KIND_CALLS = {
    "forward_full": lambda m, q, s: forward_full(q, np.zeros(6)),
    "predict_full": lambda m, q, s: predict_full(q, np.zeros((2, 6))),
    "forward_int8": lambda m, q, s: forward_int8(m, quantize(np.zeros(6), q.layers[0].in_params)),
    "predict_int8": lambda m, q, s: predict_int8(m, np.zeros((2, 6))),
    "quantize_model": lambda m, q, s: quantize_model(q),
    "train_full": lambda m, q, s: train_full(q, s, TrainConfig(epochs=1)),
    "finetune_quantized": lambda m, q, s: finetune_quantized(m, s, TrainConfig(epochs=1)),
}


@pytest.mark.parametrize("name", OTHER_KIND_CALLS)
def test_model_of_the_other_kind_refused(name, tiny_splits):
    # nn._require is the one kind check: every entry point raises the same
    # error class, and its message names the function that was called
    m = build_model("cogdist", 0)
    with pytest.raises(InvariantError, match=f"^{name} requires a "):
        OTHER_KIND_CALLS[name](m, quantize_model(m), tiny_splits)


class TestTrainFull:
    def test_zero_lr_leaves_params(self, tiny_splits):
        m = build_model("cogdist", 1)
        before = snapshot(m)
        train_full(m, tiny_splits, TrainConfig(epochs=2, learning_rate=0.0))
        for (w0, b0), l in zip(before, m.layers):
            np.testing.assert_array_equal(w0, l.weights)
            np.testing.assert_array_equal(b0, l.biases)

    def test_deterministic_records(self, tiny_splits):
        for shuffle in (False, True):
            m1 = build_model("cogdist", 2)
            m2 = build_model("cogdist", 2)
            cfg = TrainConfig(epochs=3, seed=9, shuffle=shuffle)
            r1 = train_full(m1, tiny_splits, cfg)
            r2 = train_full(m2, tiny_splits, cfg)
            assert r1 == r2
            for a, b in zip(m1.layers, m2.layers):
                np.testing.assert_array_equal(a.weights, b.weights)

    def test_record_fields(self, tiny_splits):
        m = build_model("cogdist", 3)
        recs = train_full(m, tiny_splits, TrainConfig(epochs=4))
        assert [r.epoch for r in recs] == [0, 1, 2, 3]
        for r in recs:
            assert 0.0 <= r.train_acc <= 1.0
            assert 0.0 <= r.val_acc <= 1.0
            assert r.train_loss >= 0.0

    def test_learning_happens(self, tiny_splits):
        m = build_model("cogdist", 4)
        recs = train_full(m, tiny_splits, TrainConfig(epochs=12))
        assert recs[-1].val_acc > recs[0].val_acc

    def test_empty_split_rejected(self, tiny_splits):
        from qmlp.data import Dataset

        train, _ = tiny_splits
        empty = Dataset(
            np.zeros((0, 6), dtype=np.float32), np.zeros((0, 1), dtype=np.float32),
            train.class_names, train.norm_lo, train.norm_hi,
        )
        m = build_model("cogdist", 0)
        with pytest.raises(ConfigurationError):
            train_full(m, (train, empty), TrainConfig(epochs=1))

    def test_dim_mismatch_rejected(self, tiny_splits):
        m = build_model("car_evaluation", 0)
        with pytest.raises(ConfigurationError):
            train_full(m, tiny_splits, TrainConfig(epochs=1))


def pretrained_quantized(splits, seed=0, epochs=6):
    m = build_model("cogdist", seed)
    train_full(m, splits, TrainConfig(epochs=epochs, seed=seed))
    return m, quantize_model(m)


class TestBackwardHybrid:
    def test_zero_lr_keeps_codes(self, tiny_splits):
        _, q = pretrained_quantized(tiny_splits)
        before = q_snapshot(q)
        x = tiny_splits[0].features[0]
        xq = quantize(x, q.layers[0].in_params)
        backward_hybrid(forward_int8(q, xq), tiny_splits[0].targets[0], q, lr=0.0)
        for (w0, b0), l in zip(before, q.layers):
            np.testing.assert_array_equal(w0, l.weights_q.codes)
            np.testing.assert_array_equal(b0, l.biases_q)

    def test_small_update_absorbed_by_requantization(self):
        # documented precision floor: |update| < step/2 leaves the code alone
        m = build_model((2, [(1, "sigmoid")]), 0)
        m.layers[0].weights[:] = [[0.5, -0.25]]
        q = quantize_model(m)
        before = q.layers[0].weights_q.codes.copy()
        xq = quantize(np.array([0.01, 0.01]), q.layers[0].in_params)
        backward_hybrid(forward_int8(q, xq), np.array([1.0]), q, lr=1e-4)
        np.testing.assert_array_equal(before, q.layers[0].weights_q.codes)

    def test_codes_saturate_not_wrap(self, tiny_splits):
        _, q = pretrained_quantized(tiny_splits)
        xq = quantize(tiny_splits[0].features[0], q.layers[0].in_params)
        # absurd learning rate: codes must clamp at the int8 boundary
        backward_hybrid(forward_int8(q, xq), tiny_splits[0].targets[0], q, lr=1e6)
        for l in q.layers:
            assert l.weights_q.codes.min() >= -128
            assert l.weights_q.codes.max() <= 127

    def test_node_delta_count(self, tiny_splits):
        _, q = pretrained_quantized(tiny_splits)
        xq = quantize(tiny_splits[0].features[0], q.layers[0].in_params)
        stats = backward_hybrid(forward_int8(q, xq), tiny_splits[0].targets[0], q, lr=0.05)
        assert stats.node_deltas == 40 + 32 + 1

    def test_selective_dequantization_peak(self, tiny_splits):
        # high-water mark of float parameter storage stays at one layer
        _, q = pretrained_quantized(tiny_splits)
        xq = quantize(tiny_splits[0].features[0], q.layers[0].in_params)
        stats = backward_hybrid(forward_int8(q, xq), tiny_splits[0].targets[0], q, lr=0.05)
        sizes = [l.in_dim * l.out_dim + l.out_dim for l in q.layers]
        assert stats.peak_param_floats == max(sizes)
        assert stats.peak_param_floats < sum(sizes)


class TestFinetuneQuantized:
    def test_warns_on_random_init(self, tiny_splits):
        q = quantize_model(build_model("cogdist", 0))
        with pytest.warns(SaturationWarning):
            finetune_quantized(q, tiny_splits, TrainConfig(epochs=1, learning_rate=0.05))

    def test_no_warning_when_pretrained(self, tiny_splits, recwarn):
        _, q = pretrained_quantized(tiny_splits)
        finetune_quantized(q, tiny_splits, TrainConfig(epochs=1, learning_rate=0.05))
        assert not any(isinstance(w.message, SaturationWarning) for w in recwarn.list)

    def test_warns_on_reloaded_random_init(self, tiny_splits, tmp_path):
        # a model file carries no provenance; the untrained parameters warn
        path = tmp_path / "q.bin"
        save_model(quantize_model(build_model("cogdist", 0)), path)
        with pytest.warns(SaturationWarning):
            finetune_quantized(load_model(path), tiny_splits, TrainConfig(epochs=1))

    def test_warns_after_zero_rate_float_training(self, tiny_splits):
        # a float run at rate 0 leaves every bias at its initial zero
        m = build_model("cogdist", 0)
        train_full(m, tiny_splits, TrainConfig(epochs=1, learning_rate=0.0))
        with pytest.warns(SaturationWarning):
            finetune_quantized(quantize_model(m), tiny_splits, TrainConfig(epochs=1))

    def test_no_warning_with_one_nonzero_bias_code(self, tiny_splits, recwarn):
        q = quantize_model(build_model("cogdist", 0))
        q.layers[1].biases_q[3] = -1
        finetune_quantized(q, tiny_splits, TrainConfig(epochs=1, learning_rate=0.0))
        assert not any(isinstance(w.message, SaturationWarning) for w in recwarn.list)

    def test_zero_lr_keeps_codes_across_epochs(self, tiny_splits):
        _, q = pretrained_quantized(tiny_splits)
        before = q_snapshot(q)
        finetune_quantized(q, tiny_splits, TrainConfig(epochs=3, learning_rate=0.0))
        for (w0, b0), l in zip(before, q.layers):
            np.testing.assert_array_equal(w0, l.weights_q.codes)
            np.testing.assert_array_equal(b0, l.biases_q)

    def test_deterministic(self, tiny_splits):
        _, q1 = pretrained_quantized(tiny_splits, seed=6)
        _, q2 = pretrained_quantized(tiny_splits, seed=6)
        cfg = TrainConfig(epochs=3, learning_rate=0.05, seed=6)
        r1 = finetune_quantized(q1, tiny_splits, cfg)
        r2 = finetune_quantized(q2, tiny_splits, cfg)
        assert r1 == r2
        for a, b in zip(q1.layers, q2.layers):
            np.testing.assert_array_equal(a.weights_q.codes, b.weights_q.codes)

    def test_representation_checked(self, tiny_splits):
        m = build_model("cogdist", 0)
        with pytest.raises(InvariantError):
            finetune_quantized(m, tiny_splits, TrainConfig(epochs=1))

    def test_error_feedback_accumulates_small_updates(self):
        # per-step update ~6e-4 is below the step floor 2^-8: without
        # feedback it is absorbed forever, with feedback it accumulates
        m = build_model((1, [(1, "sigmoid")]), 0)
        m.layers[0].weights[:] = [[1.0]]
        q_plain = quantize_model(m)
        q_fb = clone_model(q_plain)
        fb = FeedbackState.for_model(q_fb)
        xq = quantize(np.array([1.0]), q_plain.layers[0].in_params)
        t = np.array([0.0])
        start = int(q_plain.layers[0].weights_q.codes[0, 0])
        lr = 0.004
        for _ in range(60):
            backward_hybrid(forward_int8(q_plain, xq), t, q_plain, lr)
            backward_hybrid(forward_int8(q_fb, xq), t, q_fb, lr, feedback=fb)
        assert int(q_plain.layers[0].weights_q.codes[0, 0]) == start
        assert int(q_fb.layers[0].weights_q.codes[0, 0]) < start


class TestCurvesCsv:
    def test_round_trip(self, tmp_path):
        recs = [EpochRecord(0, 0.5, 0.4, 1.25), EpochRecord(1, 0.75, 0.7, 0.5)]
        p = tmp_path / "curves.csv"
        write_curves_csv(recs, p)
        text = p.read_text()
        assert text.splitlines()[0] == "epoch,train_acc,val_acc,train_loss"
        assert len(text.splitlines()) == 3
        back = read_curves_csv(p)
        assert [r.epoch for r in back] == [0, 1]
        assert back[0].train_acc == 0.5
        assert back[1].train_loss == 0.5

    @pytest.mark.parametrize("body, match", [
        ("", "no epoch rows"),
        ("0,0.5,0.5,0.1\n1,0.5,inf,0.1\n", "row 3 has a non-finite value"),
        ("0,nan,0.5,0.1\n", "row 2 has a non-finite value"),
    ], ids=["header-only", "inf-cell", "nan-cell"])
    def test_empty_or_non_finite_rejected(self, tmp_path, body, match):
        from qmlp.errors import FormatError

        p = tmp_path / "c.csv"
        p.write_text("epoch,train_acc,val_acc,train_loss\n" + body)
        with pytest.raises(FormatError, match=match):
            read_curves_csv(p)

    @pytest.mark.parametrize("text, match", [
        ("0,0.5,0.5,0.1\n", "missing curves header epoch,train_acc,val_acc,train_loss"),
        ("epoch,train_acc,val_acc,train_loss\n0,0.5,0.5,0.1\n1,x,0.5,0.1\n",
         "row 3 is not numeric"),
    ], ids=["no-header", "non-numeric-row"])
    def test_malformed_file_names_the_fault(self, tmp_path, text, match):
        from qmlp.errors import FormatError

        p = tmp_path / "c.csv"
        p.write_text(text)
        with pytest.raises(FormatError, match=match):
            read_curves_csv(p)

    def test_blank_line_skipped(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("epoch,train_acc,val_acc,train_loss\n\n0,0.5,0.4,1.25\n\n")
        assert [(r.epoch, r.val_acc) for r in read_curves_csv(p)] == [(0, 0.4)]

    def test_bad_header_rejected(self, tmp_path):
        from qmlp.errors import FormatError

        p = tmp_path / "c.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(FormatError):
            read_curves_csv(p)
