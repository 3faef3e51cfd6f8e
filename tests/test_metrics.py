import numpy as np
import pytest

from qmlp.data import Dataset
from qmlp.errors import ConfigurationError, InvariantError
from qmlp.metrics import (
    confusion_matrix,
    evaluate,
    memory_report,
    metrics_from_confusion,
)
from qmlp.nn import build_model, quantize_model


class TestMetricsFromConfusion:
    def test_all_correct(self):
        cm = np.diag([5, 3, 2])
        met = metrics_from_confusion(cm)
        assert met.precision == met.recall == met.f1 == met.accuracy == 1.0
        assert met.averaging == "macro"

    def test_binary_hand_case(self):
        # TP=3, FP=1, FN=1, TN=5
        cm = np.array([[5, 1], [1, 3]])
        met = metrics_from_confusion(cm)
        assert met.averaging == "binary"
        assert met.precision == 0.75
        assert met.recall == 0.75
        assert met.f1 == 0.75
        assert met.accuracy == 0.8

    def test_three_class_macro_f1(self):
        # per-class f1 (1.0, 0.5, 0.0) -> macro 0.5
        # class 0: perfect (2 correct). class 1: p=1, r=1/3 -> f1=0.5.
        # class 2: never predicted correctly -> 0.
        cm = np.array([[2, 0, 0], [0, 1, 2], [0, 0, 0]])
        met = metrics_from_confusion(cm)
        per_f1 = (1.0, 0.5, 0.0)
        assert met.f1 == pytest.approx(np.mean(per_f1))

    def test_accuracy_is_trace_over_n(self, rng):
        y_true = rng.integers(0, 4, 300)
        y_pred = rng.integers(0, 4, 300)
        cm = confusion_matrix(y_true, y_pred, 4)
        met = metrics_from_confusion(cm)
        assert met.accuracy == np.trace(cm) / 300
        assert cm.sum() == 300

    def test_zero_samples_refused(self):
        with pytest.raises(ConfigurationError, match="cannot compute metrics over zero samples"):
            metrics_from_confusion(np.zeros((2, 2), dtype=np.int64))

    def test_zero_denominator_convention(self):
        # a class never predicted gets precision 0, not NaN
        cm = np.array([[3, 0], [2, 0]])
        met = metrics_from_confusion(cm)
        assert met.precision == 0.0
        assert met.f1 == 0.0


def _frozen_safe_div(num, den):
    return num / den if den > 0 else 0.0


def _frozen_metrics(cm):
    """Precision/recall/F1/accuracy as metrics_from_confusion computed them
    with one scalar division per class, kept to pin the vector form's bits."""
    cm = np.asarray(cm, dtype=np.int64)
    accuracy = float(np.trace(cm)) / int(cm.sum())
    if cm.shape == (2, 2):
        tp, fp, fn = cm[1, 1], cm[0, 1], cm[1, 0]
        precision = _frozen_safe_div(tp, tp + fp)
        recall = _frozen_safe_div(tp, tp + fn)
        f1 = _frozen_safe_div(2.0 * precision * recall, precision + recall)
        return precision, recall, f1, accuracy, "binary"
    per_p, per_r, per_f = [], [], []
    for k in range(cm.shape[0]):
        p = _frozen_safe_div(cm[k, k], cm[:, k].sum())
        r = _frozen_safe_div(cm[k, k], cm[k, :].sum())
        per_p.append(p)
        per_r.append(r)
        per_f.append(_frozen_safe_div(2.0 * p * r, p + r))
    return (
        float(np.mean(per_p)), float(np.mean(per_r)), float(np.mean(per_f)),
        accuracy, "macro",
    )


def _bits(x):
    return np.float64(x).view(np.uint64)


def test_scores_match_scalar_form_bit_for_bit():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(3000):
        k = int(rng.integers(2, 6))
        cm = rng.integers(0, 9, (k, k))
        # empty rows (a class never true) and columns (never predicted)
        cm[rng.random(k) < 0.25, :] = 0
        cm[:, rng.random(k) < 0.25] = 0
        if cm.sum() == 0:
            continue
        met = metrics_from_confusion(cm)
        *want, averaging = _frozen_metrics(cm)
        got = (met.precision, met.recall, met.f1, met.accuracy)
        assert [_bits(v) for v in got] == [_bits(v) for v in want], cm
        assert met.averaging == averaging
        np.testing.assert_array_equal(met.confusion, cm)
        assert met.confusion.dtype == np.int64
        checked += 1
    assert checked > 2500


class TestEvaluate:
    def _ds(self, n=64, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, size=(n, 6)).astype(np.float32)
        t = np.zeros((n, 4), dtype=np.float32)
        t[np.arange(n), rng.integers(0, 4, n)] = 1.0
        return Dataset(X, t, ("a", "b", "c", "d"), -np.ones(6), np.ones(6))

    def test_order_independence(self, rng):
        m = build_model("car_evaluation", 0)
        ds = self._ds()
        met = evaluate(m, ds)
        perm = rng.permutation(ds.n)
        ds_p = Dataset(ds.features[perm], ds.targets[perm], ds.class_names,
                       ds.norm_lo, ds.norm_hi)
        met_p = evaluate(m, ds_p)
        np.testing.assert_array_equal(met.confusion, met_p.confusion)
        assert (met.precision, met.recall, met.f1, met.accuracy) == (
            met_p.precision, met_p.recall, met_p.f1, met_p.accuracy,
        )

    def test_works_for_both_representations(self):
        m = build_model("car_evaluation", 1)
        q = quantize_model(m)
        ds = self._ds(seed=1)
        assert 0.0 <= evaluate(m, ds).accuracy <= 1.0
        assert 0.0 <= evaluate(q, ds).accuracy <= 1.0

    def test_empty_split_rejected(self):
        m = build_model("car_evaluation", 0)
        empty = Dataset(np.zeros((0, 6), dtype=np.float32),
                        np.zeros((0, 4), dtype=np.float32),
                        ("a", "b", "c", "d"), -np.ones(6), np.ones(6))
        with pytest.raises(ConfigurationError):
            evaluate(m, empty)

    def test_dim_mismatch_rejected(self):
        m = build_model("cogdist", 0)
        with pytest.raises(ConfigurationError):
            evaluate(m, self._ds())


class TestMemoryReport:
    def test_cogdist_numbers(self):
        m = build_model("cogdist", 0)
        q = quantize_model(m)
        rep = memory_report(m, q)
        assert rep.full_bytes == 1625 * 4 == 6500
        # weights 1552 + biases 73*4 + 3 LUTs of 256
        assert rep.quantized_bytes == 1552 + 292 + 768 == 2612
        assert rep.quantized_bytes_excl_lut == 1844
        assert round(rep.ratio, 2) == 2.49
        assert round(rep.ratio_excl_lut, 2) == 3.52

    def test_car_numbers(self):
        m = build_model("car_evaluation", 0)
        q = quantize_model(m)
        rep = memory_report(m, q)
        assert rep.full_bytes == 3280
        assert rep.quantized_bytes_excl_lut == 768 + 208
        assert round(rep.ratio_excl_lut, 2) == 3.36

    # counted as arrays, any other pair would still give numbers: (q, m) a
    # "0.53x" reduction, (q, q) int8 bytes plus LUTs as full_bytes
    @pytest.mark.parametrize("pair", ["full-full", "quantized-full", "quantized-quantized"])
    def test_pairs_other_than_full_then_quantized_refused(self, pair):
        m = build_model("car_evaluation", 0)
        models = {"full": m, "quantized": quantize_model(m)}
        with pytest.raises(InvariantError):
            memory_report(*(models[r] for r in pair.split("-")))

    def test_ratio_definition(self):
        m = build_model("car_evaluation", 2)
        q = quantize_model(m)
        rep = memory_report(m, q)
        assert rep.ratio == rep.full_bytes / rep.quantized_bytes

    def test_architecture_mismatch(self):
        with pytest.raises(InvariantError):
            memory_report(build_model("cogdist", 0), quantize_model(build_model("car_evaluation", 0)))
