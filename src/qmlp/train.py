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

import contextlib
import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .data import _check_seed, _read_rows, predict_labels
from .errors import ConfigurationError, FormatError, InvariantError
from .fastmath import _F32, MATH_MODES, _const, _round_half_away, activation_deriv
from .metrics import check_fit
from .nn import (
    BIAS_CODE_MAX,
    FULL,
    QUANTIZED,
    _require,
    forward_full,
    forward_int8,
    predict_full,
    predict_int8,
)
from .quant import (
    EXPONENT_MIN,
    _CODE_BOUNDS,
    _POW2,
    _from_codes,
    dequantize,
    quantize,
)

DEFAULT_FLOAT_LR = 0.01
# Fine-tuning default. Even at 0.05 most updates do not clear the weight
# quantization step: on synth-car after 100 float epochs and PTQ, 99.7% of
# non-zero weight updates left the code unchanged.
DEFAULT_FINETUNE_LR = 0.05
# The largest learning rate: the hybrid trainer scales updates by lr * 2**-e
# in float32, and a bias exponent (input + weight) is at least
# 2 * EXPONENT_MIN, so every such scale is finite up to this rate.
LR_MAX = float(np.finfo(np.float32).max) * 2.0 ** (2 * EXPONENT_MIN)

# The bias code clamp's bounds, in the float32 that bias codes round from
_BIAS_BOUNDS = (_const(-BIAS_CODE_MAX, _F32), _const(BIAS_CODE_MAX, _F32))
# A weight update below this many code units leaves every weight code as it
# is (the proof is in backward_hybrid's docstring)
_ABSORBED = 0.5 - 2.0**-8


class SaturationWarning(UserWarning):
    """Quantized training started from untrained parameters (every bias zero)."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for a training run.

    Batch semantics are per-sample: every sample triggers an update. With
    shuffle=False (the default) samples are visited in stored order, and a
    run is fully deterministic under its seed (checked by ``data._check_seed``).
    """

    epochs: int
    learning_rate: float = DEFAULT_FLOAT_LR
    shuffle: bool = False
    seed: int = 0
    activation_math: str = "fast"
    error_feedback: bool = False

    def __post_init__(self):
        # range() refuses a float only once the run has started; True is an int, False < 1
        if not isinstance(self.epochs, (int, np.integer)) or self.epochs < 1 or self.epochs is True:
            raise ConfigurationError(f"epochs must be an integer >= 1, got {self.epochs!r}")
        _check_seed(self.seed)
        # learning_rate 0 is allowed (a no-op run used by tests); negative,
        # infinite, NaN (which fails every comparison) and above LR_MAX are not
        if not 0 <= self.learning_rate <= LR_MAX:
            raise ConfigurationError(
                f"learning_rate must be finite, >= 0 and <= LR_MAX = {LR_MAX:.6g}, "
                f"got {self.learning_rate}"
            )
        if self.activation_math not in MATH_MODES:
            raise ConfigurationError(f"unknown activation math {self.activation_math!r}")


@dataclass
class EpochRecord:
    epoch: int
    train_acc: float
    val_acc: float
    train_loss: float


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
    b_j -= lr * delta_j, each layer's after it gives the delta below. Returns
    the number of deltas computed (one per neuron; the counter backs the
    node-delta property test). ``lr`` must lie in [0, LR_MAX], which
    TrainConfig checks once; this hot path does not check it again.
    """
    t = np.asarray(target, dtype=np.float32)
    lr = np.array(lr, dtype=np.float32)
    a = trace.acts[-1]
    delta = (a - t) * activation_deriv(m.layers[-1].activation)(a)
    count = delta.size
    for i in reversed(range(len(m.layers))):
        layer = m.layers[i]
        a_prev = trace.acts[i - 1] if i > 0 else trace.x
        delta_below = None
        if i > 0:
            deriv_prev = activation_deriv(m.layers[i - 1].activation)(a_prev)
            delta_below = layer.weights.T.dot(delta) * deriv_prev
            count += delta_below.size
        layer.weights -= lr * (delta[:, None] * a_prev)
        # a fresh array, not -=: an in-place update of a one-element array
        # (cogdist's output layer) costs 0.3 us more
        layer.biases = layer.biases - lr * delta
        delta = delta_below
    return count


def _run_epochs(m, data, cfg, forward, update, predict):
    """The epoch loop both trainers share; returns one EpochRecord per epoch.

    Both splits must fit the model (``metrics.check_fit``). Each epoch
    visits the training rows in stored order, or in a fresh permutation
    from the seeded generator when ``cfg.shuffle``. Per row,
    ``forward(idx)`` gives the step's trace and its float32 output; train
    accuracy and loss are measured from that output, before
    ``update(trace, target)`` applies the step. After the epoch,
    ``predict(features)`` scores the validation split.
    """
    check_fit(m, *data)
    train_ds, val_ds = data
    rng = np.random.default_rng(cfg.seed)
    y_train = train_ds.labels()
    y_val = val_ds.labels()
    records = []
    for epoch in range(cfg.epochs):
        correct = 0
        loss_sum = 0.0
        order = rng.permutation(train_ds.n) if cfg.shuffle else np.arange(train_ds.n)
        for idx in order:
            trace, out = forward(idx)
            t = train_ds.targets[idx]
            correct += int(predict_labels(out)[0] == y_train[idx])
            loss_sum += mse_loss(out, t)
            update(trace, t)
        val_acc = float(np.mean(predict_labels(predict(val_ds.features)) == y_val))
        records.append(
            EpochRecord(epoch, correct / train_ds.n, val_acc, loss_sum / train_ds.n)
        )
    return records


def train_full(m, data, cfg):
    """Full-precision training loop (per-sample forward + node-delta backward).

    ``data`` is a (train, validation) Dataset pair. Returns one EpochRecord
    per epoch; train accuracy and loss are measured on the fly from each
    sample's prediction just before its update. ``nn._require`` refuses a
    quantized model, and TrainConfig checked ``cfg.seed`` by ``data._check_seed``.
    """
    _require(m, FULL, "train_full")
    features = data[0].features
    math_mode, lr = cfg.activation_math, cfg.learning_rate

    def forward(idx):
        trace = forward_full(m, features[idx], math_mode)
        return trace, trace.output

    return _run_epochs(
        m, data, cfg, forward,
        lambda trace, t: backward_lsgd(trace, t, m, lr),
        lambda X: predict_full(m, X, math_mode),
    )


@dataclass
class HybridBackwardStats:
    """Diagnostics from one hybrid backward pass."""

    node_deltas: int
    peak_param_floats: int


@dataclass(eq=False)
class FeedbackState:
    """Optional error-feedback residuals, one float32 buffer per parameter tensor.

    Stores the part of each update lost to requantization so it can be
    re-applied on later steps, at the documented memory cost of a float
    shadow per parameter. Each residual is in its tensor's own code units
    (a residual r stands for the real value r * 2**e), as the updated
    parameter minus its new codes.
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
    e_w the weight exponent and e_b the bias exponent. Both round in
    float32 by ``_round_half_away``; weight codes saturate at the int8
    range, and bias codes at +-``BIAS_CODE_MAX``, the bound proven when
    the layer was built, up to which float32 holds every integer. The
    error-feedback residuals are in the same code units: each joins its
    update, and what rounding leaves over, x - codes, replaces it.

    ``w=None`` means the weights were absorbed: ``backward_hybrid`` proved
    that every weight code rounds back to itself, so the codes are kept and
    only the biases are written. It never comes with error feedback.
    """
    if feedback is not None:
        w = w + feedback.weights[layer_idx]
        b = b + feedback.biases[layer_idx]
    b_codes = _round_half_away(b, *_BIAS_BOUNDS, np.int32)
    if feedback is not None:
        # float32 holds every bias code; int32 - float32 alone would give float64
        feedback.biases[layer_idx] = np.subtract(b, b_codes, dtype=_F32)
    layer.biases_q = b_codes
    if w is None:
        return
    w_codes = _round_half_away(w, *_CODE_BOUNDS[_F32], np.int8)
    if feedback is not None:
        feedback.weights[layer_idx] = w - w_codes
    layer.weights_q = _from_codes(w_codes, layer.weights_q.params)


def backward_hybrid(qtrace, target, m, lr, feedback=None):
    """Float-precision backward pass over a quantized forward trace.

    Processes one layer at a time, last to first: dequantize the layer's
    input activations, evaluate the activation derivative and the node
    deltas in float32 (using the layer's pre-update weights for the delta
    below), apply the update, and requantize immediately back into the
    layer's existing exponents. Exponents and LUTs are never rebuilt.

    The parameters are never dequantized: they work in code units, as
    their codes cast to float32 where the step reads them. The delta below
    is ``(codes.T @ delta) * 2**e_w * act'``, the full path's new weights
    are ``codes - update``, and the updates are scaled by
    ``float32(lr) * 2**-e``. A power-of-two scale commutes with float32
    rounding, so ``_requantize_params`` rounds the same values a
    dequantize, update and divide in real units would give, except where
    an intermediate is subnormal (below 2**-126) in one unit but not the
    other; that never moves a code. The error-feedback residuals are kept
    in code units too.

    Without error feedback, a layer whose weight update is provably absorbed
    skips the weight write-back: no outer product, subtract or rounding, and
    ``weights_q`` is kept; layer 0 does not even read its codes, as no
    delta goes below it. Its biases are written as always. The test is one
    bound, evaluated in float32 scalars, in this order:

        B = max|delta| * 2**(e_in + 7) * s < 0.5 - 2**-8

    with s = float32(lr * 2**-e_w) the weight update's scale and
    2**(e_in + 7) = 128 * 2**e_in the largest |a_prev| the layer's int8
    input codes can hold (a bound that costs no reduction over a_prev).

    - The full path computes each update as fl(fl(delta_i * a_j) * s).
      Float32 rounding is monotone and odd, so no computed update exceeds
      B in magnitude. A NaN makes B NaN, and an overflow makes it inf (or
      NaN when s = 0): the comparison fails and the full path runs.
    - A weight code w is an integer with |w| <= 128, where float32 spacing
      is at most 2**-16. So w - Delta, exactly within 0.5 - 2**-8 of w,
      rounds to a float32 strictly inside (w - 1/2, w + 1/2), which the
      clamp to [-128, 127] keeps there and ``_round_half_away`` returns as
      w.
    - The margin keeps Delta off the ties that move a code, w - 1/2 for
      negative w and w + 1/2 for positive w. With B < 1/2 alone, w = -3 and
      Delta = 0.5 - 2**-25 would give the float32 -3.5, which rounds to -4.

    Error feedback always takes the full path, as its residual needs the
    update. ``_requantize_params`` is called once per layer either way,
    with ``w=None`` when the layer is absorbed.

    The update works on at most one layer's parameters and two activation
    vectors in float at any moment; the returned stats carry that
    high-water mark. None of those floats outlives its layer's turn. The
    one float form of the codes kept between steps is the forward kernel's
    float64 weight copy (``nn._int8_kernel``), a host cache of integer code
    values, not a float shadow. ``lr`` must lie in [0, LR_MAX], where every
    scale lr * 2**-e is finite in float32; TrainConfig checks it once, and
    this hot path does not check it again.
    """
    t = np.asarray(target, dtype=np.float32)
    # float32(lr) as a Python float: times 2**-e it is exact in float64, so
    # casting the product rounds as the float32 multiply would
    lr = float(np.float32(lr))
    n_layers = len(m.layers)
    peak_params = 0
    count = 0

    a_cur = dequantize(qtrace.acts[-1])
    deriv = activation_deriv(m.layers[-1].activation)(a_cur)
    delta = (a_cur - t) * deriv
    count += delta.size

    for i in reversed(range(n_layers)):
        layer = m.layers[i]
        a_prev = dequantize(qtrace.acts[i - 1]) if i > 0 else dequantize(qtrace.x)
        w_exp = layer.weights_q.params.exponent
        w_scale = np.array(lr * 2.0**-w_exp, dtype=np.float32)
        # B above, in numpy scalars: a 0-d array operand costs 0.6 us more
        absorbed = feedback is None and (
            np.abs(delta).max() * np.float32(2.0 ** (layer.in_params.exponent + 7))
            * w_scale[()] < _ABSORBED
        )
        w32 = None if absorbed and i == 0 else layer.weights_q.codes.astype(np.float32)
        b = layer.biases_q.astype(np.float32)
        peak_params = max(peak_params, (0 if w32 is None else w32.size) + b.size)
        if i > 0:
            deriv_prev = activation_deriv(m.layers[i - 1].activation)(a_prev)
            delta_below = w32.T.dot(delta) * _POW2[_F32][w_exp] * deriv_prev
            count += delta_below.size
        else:
            delta_below = None
        w = None if absorbed else w32 - (delta[:, None] * a_prev) * w_scale
        # a fresh array, not -=, as in backward_lsgd
        b = b - delta * np.array(lr * 2.0**-layer.bias_exponent, dtype=np.float32)
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
    ``nn._require`` refuses a full-precision model, and TrainConfig checked
    ``cfg.seed`` by ``data._check_seed``.
    """
    _require(m, QUANTIZED, "finetune_quantized")
    if not any(l.biases_q.any() for l in m.layers):
        warnings.warn(
            "fine-tuning a quantized model from random initialization (every "
            "bias code is zero): early training errors saturate at the "
            "fixed-point range boundaries and can invert gradient signs; "
            "initialize from a trained full-precision model instead",
            SaturationWarning,
            stacklevel=2,
        )
    feedback = FeedbackState.for_model(m) if cfg.error_feedback else None
    in_params = m.layers[0].in_params
    x_codes = quantize(data[0].features, in_params).codes
    lr = cfg.learning_rate

    def forward(idx):
        qtrace = forward_int8(m, _from_codes(x_codes[idx], in_params))
        return qtrace, dequantize(qtrace.output)

    return _run_epochs(
        m, data, cfg, forward,
        lambda qtrace, t: backward_hybrid(qtrace, t, m, lr, feedback),
        lambda X: predict_int8(m, X),
    )


CURVES_HEADER = ("epoch", "train_acc", "val_acc", "train_loss")


def write_curves_csv(records, path):
    """Export epoch records as CSV: epoch,train_acc,val_acc,train_loss.

    ``path`` may also be an open text file (e.g. stdout), which is left open.
    """
    with (contextlib.nullcontext(path) if hasattr(path, "write")
          else open(path, "w", newline="", encoding="utf-8")) as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVES_HEADER)
        for r in records:
            writer.writerow(
                [r.epoch, f"{r.train_acc:.6f}", f"{r.val_acc:.6f}", f"{r.train_loss:.8f}"]
            )


def read_curves_csv(path):
    """Parse a curves CSV back into EpochRecord objects.

    Rows come from ``data._read_rows``. A file with no epoch rows, or with a
    cell that is not a finite number, raises FormatError naming the row.
    """
    rows = _read_rows(path, len(CURVES_HEADER))
    if tuple(rows[0]) != CURVES_HEADER:
        raise FormatError(f"{path}: missing curves header {','.join(CURVES_HEADER)}")
    if len(rows) == 1:
        raise FormatError(f"{path}: no epoch rows after the header")
    records = []
    for r, row in enumerate(rows[1:], 2):
        try:
            rec = EpochRecord(int(row[0]), float(row[1]), float(row[2]), float(row[3]))
        except ValueError:
            raise FormatError(f"{path}: row {r} is not numeric") from None
        if not np.isfinite([rec.train_acc, rec.val_acc, rec.train_loss]).all():
            raise FormatError(f"{path}: row {r} has a non-finite value")
        records.append(rec)
    return records
