"""Training: full-precision per-sample SGD with node deltas, and the hybrid
int8-forward / float-backward fine-tuning loop with selective per-layer
dequantization.

The backward pass aggregates error at the neuron level: one delta per
neuron, computed once and reused for every weight update feeding that
neuron. Updates descend the half-sum-of-squares objective (output delta
a - t), applied per sample.

A training run owns its model exclusively. Validation inside an epoch only
reads the model.
"""

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FormatError, InvariantError
from .fastmath import MATH_MODES, _round_half_away, activation_deriv
from .nn import (
    FULL,
    QUANTIZED,
    bias_code_limit,
    forward_full,
    forward_int8,
    predict_full,
    predict_int8,
    predict_labels,
)
from .quant import _CODE_HI, _CODE_LO, _from_codes, dequantize, quantize


class SaturationWarning(UserWarning):
    """Quantized training started from untrained parameters (every bias zero)."""


@dataclass
class TrainConfig:
    """Hyperparameters for a training run.

    Batch semantics are per-sample: every sample triggers an update. With
    shuffle=False (the default) samples are visited in stored order, and a
    run is fully deterministic under its seed.
    """

    epochs: int
    learning_rate: float = 0.01
    shuffle: bool = False
    seed: int = 0
    activation_math: str = "fast"
    error_feedback: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        # learning_rate 0 is allowed (a no-op run used by tests); negative is not
        if self.learning_rate < 0:
            raise ConfigurationError("learning_rate must be >= 0")
        if self.activation_math not in MATH_MODES:
            raise ConfigurationError(f"unknown activation math {self.activation_math!r}")


@dataclass
class EpochRecord:
    epoch: int
    train_acc: float
    val_acc: float
    train_loss: float


DEFAULT_FLOAT_LR = 0.01
# Fine-tuning default. Even at 0.05 most updates do not clear the weight
# quantization step: on synth-car after 100 float epochs and PTQ, 99.7% of
# non-zero weight updates left the code unchanged.
DEFAULT_FINETUNE_LR = 0.05


def mse_loss(output, target):
    """Mean squared error, (1/n) sum (o_i - t_i)^2."""
    o = np.asarray(output, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if o.shape != t.shape:
        raise InvariantError(f"loss shapes differ: {o.shape} vs {t.shape}")
    d = o - t
    return float(np.add.reduce(d * d, axis=None) / d.size)


def backward_lsgd(trace, target, m, lr):
    """One node-delta backward pass updating the model in place.

    Output layer: delta_j = (a_j - t_j) * act'(a_j); hidden layers:
    delta_j = (sum_k w_kj delta_k) * act'(a_j), all from the layer above's
    pre-update weights. Updates: w_ji -= lr * delta_j * a_i,
    b_j -= lr * delta_j. Returns the number of deltas computed (one per
    neuron; the counter backs the node-delta property test).
    """
    t = np.asarray(target, dtype=np.float32)
    n_layers = len(m.layers)
    deltas = [None] * n_layers
    count = 0
    for i in reversed(range(n_layers)):
        layer = m.layers[i]
        a = trace.acts[i]
        deriv = activation_deriv(layer.activation)(a)
        if i == n_layers - 1:
            deltas[i] = (a - t) * deriv
        else:
            deltas[i] = (m.layers[i + 1].weights.T @ deltas[i + 1]) * deriv
        count += deltas[i].size
    for i, layer in enumerate(m.layers):
        a_prev = trace.acts[i - 1] if i > 0 else trace.x
        layer.weights -= lr * (deltas[i][:, None] * a_prev)
        layer.biases -= lr * deltas[i]
    return count


def _check_splits(m, train_ds, val_ds):
    for name, ds in (("train", train_ds), ("validation", val_ds)):
        if ds.n == 0:
            raise ConfigurationError(f"{name} split is empty")
        if ds.n_features != m.input_dim:
            raise ConfigurationError(
                f"{name} split has {ds.n_features} features, model expects {m.input_dim}"
            )
        if ds.n_outputs != m.output_dim:
            raise ConfigurationError(
                f"{name} split has {ds.n_outputs} target columns, "
                f"model outputs {m.output_dim}"
            )


def _epoch_order(n, cfg, rng):
    if cfg.shuffle:
        return rng.permutation(n)
    return np.arange(n)


def train_full(m, data, cfg):
    """Full-precision training loop (per-sample forward + node-delta backward).

    ``data`` is a (train, validation) Dataset pair. Returns one EpochRecord
    per epoch; train accuracy and loss are measured on the fly from each
    sample's prediction just before its update.
    """
    if m.representation != FULL:
        raise ConfigurationError("train_full requires a full-precision model")
    train_ds, val_ds = data
    _check_splits(m, train_ds, val_ds)
    rng = np.random.default_rng(cfg.seed)
    records = []
    y_train = train_ds.labels()
    for epoch in range(cfg.epochs):
        order = _epoch_order(train_ds.n, cfg, rng)
        correct = 0
        loss_sum = 0.0
        for idx in order:
            x = train_ds.features[idx]
            t = train_ds.targets[idx]
            trace = forward_full(m, x, cfg.activation_math)
            out = trace.output
            correct += int(predict_labels(out)[0] == y_train[idx])
            loss_sum += mse_loss(out, t)
            backward_lsgd(trace, t, m, cfg.learning_rate)
        val_out = predict_full(m, val_ds.features, cfg.activation_math)
        val_acc = float(np.mean(predict_labels(val_out) == val_ds.labels()))
        records.append(
            EpochRecord(epoch, correct / train_ds.n, val_acc, loss_sum / train_ds.n)
        )
    return records


@dataclass
class HybridBackwardStats:
    """Diagnostics from one hybrid backward pass."""

    node_deltas: int
    peak_param_floats: int


@dataclass(eq=False)
class FeedbackState:
    """Optional error-feedback residuals, one float buffer per parameter tensor.

    Stores the part of each update lost to requantization so it can be
    re-applied on later steps, at the documented memory cost of a float
    shadow per parameter.
    """

    weights: list
    biases: list

    @classmethod
    def for_model(cls, m):
        return cls(
            [np.zeros((l.out_dim, l.in_dim), dtype=np.float32) for l in m.layers],
            [np.zeros(l.out_dim, dtype=np.float32) for l in m.layers],
        )


def _requantize_params(w, b, layer, feedback, layer_idx):
    """Round updated parameters, given in code units, back into their codes.

    ``w`` and ``b`` are float32 arrays in the layer's own code units: the
    real weight is ``w * 2**e_w`` and the real bias ``b * 2**e_b``, with
    e_w the weight exponent and e_b the bias exponent. Both round by
    ``_round_half_away``, the weights in float32 and the biases in float64;
    weight codes saturate at the int8 range, and bias codes at the layer's
    ``bias_code_limit``, which keeps the accumulator bound proven when the
    layer was built. The error-feedback residuals stay in real units: they
    are scaled into code units before they join the update, and what
    rounding leaves over is scaled back.
    """
    w_exp = layer.weights_q.params.exponent
    b_exp = layer.bias_exponent
    b_limit = float(bias_code_limit(layer.in_dim))
    if feedback is not None:
        w = w + feedback.weights[layer_idx] * 2.0**-w_exp
        b = b + feedback.biases[layer_idx] * 2.0**-b_exp
    b = b.astype(np.float64)
    w_codes = _round_half_away(w, _CODE_LO, _CODE_HI, np.int8)
    b_codes = _round_half_away(b, -b_limit, b_limit, np.int32)
    if feedback is not None:
        feedback.weights[layer_idx] = (w - w_codes) * 2.0**w_exp
        feedback.biases[layer_idx] = ((b - b_codes) * 2.0**b_exp).astype(np.float32)
    layer.weights_q = _from_codes(w_codes, layer.weights_q.params)
    layer.biases_q = b_codes


def backward_hybrid(qtrace, target, m, lr, feedback=None):
    """Float-precision backward pass over a quantized forward trace.

    Processes one layer at a time, last to first: dequantize the layer's
    input activations, evaluate the activation derivative and the node
    deltas in float32 (using the layer's pre-update weights for the delta
    below), apply the update, and requantize immediately back into the
    layer's existing exponents. Exponents and LUTs are never rebuilt.

    The parameters are never dequantized: they work in code units, as their
    codes cast to float32. The delta below is ``(codes.T @ delta) * 2**e_w
    * act'``, and the updates are scaled by ``float32(lr) * 2**-e``. A
    power-of-two scale commutes with float32 rounding, so ``_requantize_params``
    rounds the same values a dequantize, update and divide in real units
    would give, except where an intermediate is subnormal (below 2**-126) in
    one unit but not the other. That never moves a code, but with error
    feedback on it can change the low bits of a tiny residual.

    At most one layer's parameters and two activation vectors exist in
    float at any moment; the returned stats carry the measured high-water
    mark.
    """
    t = np.asarray(target, dtype=np.float32)
    lr = np.float32(lr)
    n_layers = len(m.layers)
    peak_params = 0
    count = 0

    a_cur = dequantize(qtrace.acts[-1])
    deriv = activation_deriv(m.layers[-1].activation)(a_cur)
    delta = (a_cur - t) * deriv
    count += delta.size

    for i in reversed(range(n_layers)):
        layer = m.layers[i]
        a_prev = dequantize(qtrace.acts[i - 1]) if i > 0 else dequantize(qtrace.x_q)
        w_exp = layer.weights_q.params.exponent
        w = layer.weights_q.codes.astype(np.float32)
        b = layer.biases_q.astype(np.float32)
        peak_params = max(peak_params, w.size + b.size)
        if i > 0:
            deriv_prev = activation_deriv(m.layers[i - 1].activation)(a_prev)
            delta_below = (w.T @ delta) * 2.0**w_exp * deriv_prev
            count += delta_below.size
        else:
            delta_below = None
        w -= (delta[:, None] * a_prev) * (lr * np.float32(2.0**-w_exp))
        b -= delta * (lr * np.float32(2.0**-layer.bias_exponent))
        _requantize_params(w, b, layer, feedback, i)
        del w, b
        delta = delta_below
    return HybridBackwardStats(count, peak_params)


def finetune_quantized(m, data, cfg):
    """Quantized fine-tuning: int8 forward, hybrid float backward, per sample.

    The model should come from quantizing a pre-trained full-precision
    model. A model whose bias codes are all zero, in every layer, carries
    ``build_model``'s initialization (Glorot weights, biases zero) and has
    never been trained; fine-tuning it raises SaturationWarning (large early
    errors clip at the fixed-point range boundaries and wreck the learning
    signal) and is allowed only for demonstration. The rule reads the
    parameters alone, so a model loaded from a file is judged like any other.
    """
    if m.representation != QUANTIZED:
        raise ConfigurationError("finetune_quantized requires a quantized model")
    train_ds, val_ds = data
    _check_splits(m, train_ds, val_ds)
    if not any(l.biases_q.any() for l in m.layers):
        warnings.warn(
            "fine-tuning a quantized model from random initialization (every "
            "bias code is zero): early training errors saturate at the "
            "fixed-point range boundaries and can invert gradient signs; "
            "initialize from a trained full-precision model instead",
            SaturationWarning,
            stacklevel=2,
        )
    rng = np.random.default_rng(cfg.seed)
    feedback = FeedbackState.for_model(m) if cfg.error_feedback else None
    in_params = m.layers[0].in_params
    out_step = np.float32(m.layers[-1].act_params.step)
    x_codes = quantize(train_ds.features, in_params).codes
    y_train = train_ds.labels()
    records = []
    for epoch in range(cfg.epochs):
        order = _epoch_order(train_ds.n, cfg, rng)
        correct = 0
        loss_sum = 0.0
        for idx in order:
            xq = _from_codes(x_codes[idx], in_params)
            qtrace = forward_int8(m, xq)
            out = qtrace.output.codes.astype(np.float32) * out_step
            t = train_ds.targets[idx]
            correct += int(predict_labels(out)[0] == y_train[idx])
            loss_sum += mse_loss(out, t)
            backward_hybrid(qtrace, t, m, cfg.learning_rate, feedback)
        val_out = predict_int8(m, val_ds.features)
        val_acc = float(np.mean(predict_labels(val_out) == val_ds.labels()))
        records.append(
            EpochRecord(epoch, correct / train_ds.n, val_acc, loss_sum / train_ds.n)
        )
    return records


CURVES_HEADER = ("epoch", "train_acc", "val_acc", "train_loss")


def _write_curves(records, fh):
    writer = csv.writer(fh)
    writer.writerow(CURVES_HEADER)
    for r in records:
        writer.writerow(
            [r.epoch, f"{r.train_acc:.6f}", f"{r.val_acc:.6f}", f"{r.train_loss:.8f}"]
        )


def write_curves_csv(records, path):
    """Export epoch records as CSV: epoch,train_acc,val_acc,train_loss.

    ``path`` may also be an open text file (e.g. stdout).
    """
    if hasattr(path, "write"):
        _write_curves(records, path)
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_curves(records, fh)


def read_curves_csv(path):
    """Parse a curves CSV back into EpochRecord objects."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != CURVES_HEADER:
        raise FormatError(f"{path}: missing curves header {','.join(CURVES_HEADER)}")
    records = []
    for i, row in enumerate(rows[1:]):
        if len(row) != 4:
            raise FormatError(f"{path}: row {i + 2} has {len(row)} columns, expected 4")
        try:
            records.append(
                EpochRecord(int(row[0]), float(row[1]), float(row[2]), float(row[3]))
            )
        except ValueError:
            raise FormatError(f"{path}: row {i + 2} is not numeric") from None
    return records
