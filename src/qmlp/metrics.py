"""Classification metrics and memory-footprint accounting.

Multi-class scores are macro-averaged (unweighted mean of per-class
precision/recall/F1); binary scores come from the positive class.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvariantError
from .data import predict_labels
from .nn import FULL, predict_full, predict_int8


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
    """Parameter-storage byte counts and reduction ratios.

    ``quantized_bytes`` counts 8-bit weight codes, 32-bit bias codes, and
    the 256-byte LUT per layer; the excluding-LUT figure is reported
    alongside since the headline reduction claim is about parameters.
    """

    full_bytes: int
    quantized_bytes: int
    quantized_bytes_excl_lut: int
    ratio: float
    ratio_excl_lut: float


def model_bytes(m, include_luts=True):
    """Parameter bytes for a model in its own representation."""
    total = 0
    for layer in m.layers:
        n_w = layer.in_dim * layer.out_dim
        if m.representation == FULL:
            total += 4 * (n_w + layer.out_dim)
        else:
            total += n_w + 4 * layer.out_dim
            if include_luts:
                total += 256
    return total


def memory_report(full_m, q_m):
    """Compare parameter storage between two same-architecture models."""
    shapes_a = [(l.in_dim, l.out_dim, l.activation) for l in full_m.layers]
    shapes_b = [(l.in_dim, l.out_dim, l.activation) for l in q_m.layers]
    if shapes_a != shapes_b:
        raise InvariantError("memory report requires models of the same architecture")
    full_bytes = model_bytes(full_m)
    q_bytes = model_bytes(q_m)
    q_excl = model_bytes(q_m, include_luts=False)
    return MemoryReport(
        full_bytes,
        q_bytes,
        q_excl,
        full_bytes / q_bytes,
        full_bytes / q_excl,
    )
