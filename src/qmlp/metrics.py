"""Classification metrics and memory-footprint accounting, the latter as
the ``nbytes`` of the arrays a model holds.

Multi-class scores are macro-averaged (unweighted mean of per-class
precision/recall/F1); binary scores come from the positive class.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvariantError
from .data import predict_labels
from .nn import FULL, QUANTIZED, predict_full, predict_int8


@dataclass(frozen=True, eq=False)
class Metrics:
    """Confusion matrix (rows = true, cols = predicted) and derived scores."""

    confusion: np.ndarray
    precision: float
    recall: float
    f1: float
    accuracy: float
    averaging: str


def confusion_matrix(y_true, y_pred, n_classes):
    """Count matrix [n_classes x n_classes], rows true, columns predicted."""
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (np.asarray(y_true), np.asarray(y_pred)), 1)
    return cm


def metrics_from_confusion(cm):
    """Derive Metrics from a confusion matrix: per-class scores as vectors, each
    ratio 0 where its denominator is 0; class 1's for a 2x2, else their means."""
    cm = np.asarray(cm, dtype=np.int64)
    n = int(cm.sum())
    if n == 0:
        raise ConfigurationError("cannot compute metrics over zero samples")
    accuracy = float(np.trace(cm)) / n
    den = np.stack([cm.sum(axis=0), cm.sum(axis=1)])
    precision, recall = np.divide(np.diagonal(cm), den, out=np.zeros(den.shape), where=den > 0)
    pr_sum = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr_sum, out=np.zeros(pr_sum.shape), where=pr_sum > 0)
    if cm.shape == (2, 2):
        scores, averaging = (precision[1], recall[1], f1[1]), "binary"
    else:
        scores, averaging = (precision.mean(), recall.mean(), f1.mean()), "macro"
    return Metrics(cm, *map(float, scores), accuracy, averaging)


def check_fit(m, *splits):
    """Refuse a split with no rows, or whose feature or target width is not
    the model's input or output width."""
    for ds in splits:
        if ds.n == 0:
            raise ConfigurationError("dataset split is empty")
        if ds.n_features != m.input_dim or ds.n_outputs != m.output_dim:
            raise ConfigurationError(
                f"model ({m.input_dim}->{m.output_dim}) does not match dataset "
                f"({ds.n_features}->{ds.n_outputs})"
            )


def evaluate(m, ds, math_mode="reference"):
    """Run the model over a dataset split and score the predictions."""
    check_fit(m, ds)
    if m.representation == FULL:
        outputs = predict_full(m, ds.features, math_mode)
    else:
        outputs = predict_int8(m, ds.features)
    return metrics_from_confusion(
        confusion_matrix(ds.labels(), predict_labels(outputs), ds.n_classes)
    )


@dataclass(frozen=True)
class MemoryReport:
    """Parameter-storage byte counts and reduction ratios: the ``nbytes`` of
    the arrays each model holds.

    ``full_bytes`` counts float32 weights and biases; ``quantized_bytes``
    counts int8 weight codes, int32 bias codes and each layer's 256-entry
    int8 ``ActivationLUT.table``. The excluding-LUT figure is reported
    alongside, since the headline reduction claim is about parameters.
    """

    full_bytes: int
    quantized_bytes: int
    quantized_bytes_excl_lut: int
    ratio: float
    ratio_excl_lut: float


def memory_report(full_m, q_m):
    """Compare the parameter storage of a full-precision model and a
    quantized model of one architecture; any other pair raises
    InvariantError."""
    shapes = [[(l.in_dim, l.out_dim, l.activation) for l in m.layers] for m in (full_m, q_m)]
    if (full_m.representation, q_m.representation) != (FULL, QUANTIZED) or shapes[0] != shapes[1]:
        raise InvariantError(
            "memory report requires a full-precision and a quantized model of the same architecture"
        )
    full_bytes = sum(l.weights.nbytes + l.biases.nbytes for l in full_m.layers)
    q_excl = sum(l.weights_q.codes.nbytes + l.biases_q.nbytes for l in q_m.layers)
    q_bytes = q_excl + sum(l.lut.table.nbytes for l in q_m.layers)
    return MemoryReport(full_bytes, q_bytes, q_excl, full_bytes / q_bytes, full_bytes / q_excl)
