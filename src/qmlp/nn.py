"""Model representation and forward passes, full-precision and quantized.

Weight matrices are [out_dim x in_dim], row-major, so each output neuron's
weights are contiguous and the int8 kernel's dot product is a single pass
over one row. Parameters are float32 in memory; the model file round-trips
them losslessly.

Models are immutable during inference: forward passes are reentrant and may
run concurrently on a shared model. Training and quantization mutate and
need exclusive access.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InvariantError
from .fastmath import ACTIVATION_NAMES, _round_half_away, activation_fn
from .quant import (
    DEFAULT_ACTIVATION_EXPONENT,
    DEFAULT_PREACT_EXPONENT,
    DEFAULT_ZERO_EXPONENT,
    SHIFT_MAX,
    ActivationLUT,
    QTensor,
    QuantParams,
    _from_codes,
    _requantize_lut,
    apply_lut,
    build_lut,
    choose_exponent,
    quantize,
    requantize_shift,
)

FULL = "full"
QUANTIZED = "quantized"

# Reference architectures: input width, then (neurons, activation) per layer.
ARCHITECTURES = {
    "cogdist": (6, [(40, "tanh"), (32, "tanh"), (1, "sigmoid")]),
    "car_evaluation": (6, [(32, "tanh"), (16, "tanh"), (4, "sigmoid")]),
}

_INT32_MAX = 2**31 - 1
# Largest |int8 weight code * int8 input code|: 128 * 128.
_PRODUCT_MAX = 2**14


def bias_code_limit(in_dim):
    """Largest |bias code| a layer of this fan-in may carry.

    The kernel pre-loads the bias into the int32 accumulator and then adds
    in_dim products of magnitude at most 2**14 each, so |acc| <= 2**31 - 1
    holds for every input whenever |bias| <= 2**31 - 1 - 2**14 * in_dim.
    """
    return _INT32_MAX - _PRODUCT_MAX * in_dim


@dataclass(eq=False)
class DenseLayer:
    """Fully-connected layer: weights [out x in], biases [out], activation id."""

    weights: np.ndarray
    biases: np.ndarray
    activation: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float32)
        self.biases = np.asarray(self.biases, dtype=np.float32)
        if self.weights.ndim != 2 or self.biases.ndim != 1:
            raise InvariantError("weights must be [out x in], biases [out]")
        if self.weights.shape[0] != self.biases.shape[0]:
            raise InvariantError("weight rows and bias length differ")
        if self.out_dim < 1 or self.in_dim < 1:
            raise InvariantError("layer dimensions must be >= 1")
        if self.activation not in ACTIVATION_NAMES:
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.biases))):
            raise InvariantError("layer parameters must be finite")

    @property
    def in_dim(self):
        return self.weights.shape[1]

    @property
    def out_dim(self):
        return self.weights.shape[0]


@dataclass(eq=False)
class QDenseLayer:
    """Quantized dense layer.

    Bias codes are 32-bit integers at exponent (in + weight), so they add
    directly into the int32 accumulator without any per-sample shift. Their
    magnitude is bounded by ``bias_code_limit(in_dim)`` when the layer is
    built, which proves the kernel's accumulator never leaves int32; the
    kernel itself does not check it again. Code that assigns new bias codes
    afterwards (the hybrid trainer) clamps them to the same limit. The
    requantize shift, in + weight - pre-activation exponent, is proven to
    lie in [-31, 31] when the layer is built, too.

    The pre-activation and activation scales are the LUT's input and output
    scales; ``preact_params`` and ``act_params`` are read from ``lut`` once,
    when the layer is built. ``activation``, whose derivative the backward
    pass applies, is the one the LUT was built from.
    """

    weights_q: QTensor
    biases_q: np.ndarray
    in_params: QuantParams
    lut: ActivationLUT
    preact_params: QuantParams = field(init=False)
    act_params: QuantParams = field(init=False)

    def __post_init__(self):
        biases = np.asarray(self.biases_q)
        if self.weights_q.codes.ndim != 2 or biases.ndim != 1:
            raise InvariantError("weight codes must be [out x in], biases [out]")
        if self.weights_q.codes.shape[0] != biases.shape[0]:
            raise InvariantError("weight rows and bias length differ")
        limit = bias_code_limit(self.in_dim)
        # min/max rather than abs: abs(int32 min) wraps to itself
        if biases.size and (biases.min() < -limit or biases.max() > limit):
            raise InvariantError(
                f"bias code outside +-{limit}, the bound that keeps the int32 "
                f"accumulator of a {self.in_dim}-input layer from overflowing"
            )
        self.biases_q = biases.astype(np.int32)
        self.preact_params = self.lut.in_params
        self.act_params = self.lut.out_params
        shift = self.requantize_shift_amount
        if not -SHIFT_MAX <= shift <= SHIFT_MAX:
            raise InvariantError(
                f"requantize shift {shift} (input e={self.in_params.exponent} + weight "
                f"e={self.weights_q.params.exponent} - pre-activation "
                f"e={self.preact_params.exponent}) outside [-31, 31]"
            )

    @property
    def activation(self):
        return self.lut.activation

    @property
    def in_dim(self):
        return self.weights_q.codes.shape[1]

    @property
    def out_dim(self):
        return self.weights_q.codes.shape[0]

    @property
    def bias_exponent(self):
        return self.in_params.exponent + self.weights_q.params.exponent

    @property
    def requantize_shift_amount(self):
        """Shift taking the accumulator scale down to the pre-activation scale."""
        return self.bias_exponent - self.preact_params.exponent


@dataclass(eq=False)
class Model:
    """Ordered dense layers; the layers are the whole model.

    ``input_dim`` and ``representation`` are read from the layers when the
    model is built: all ``DenseLayer`` is 'full', all ``QDenseLayer`` is
    'quantized', anything else raises InvariantError. Widths must chain from
    layer to layer, and in a quantized model so must the scales: each
    layer's input exponent is the previous layer's activation exponent.
    """

    layers: list
    input_dim: int = field(init=False)
    representation: str = field(init=False)

    def __post_init__(self):
        if self.layers and all(isinstance(l, DenseLayer) for l in self.layers):
            self.representation = FULL
        elif self.layers and all(isinstance(l, QDenseLayer) for l in self.layers):
            self.representation = QUANTIZED
        else:
            raise InvariantError(
                "a model must hold DenseLayer layers only or QDenseLayer layers only"
            )
        self.input_dim = self.layers[0].in_dim
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise InvariantError(
                    f"layer chain mismatch: {a.out_dim} -> {b.in_dim}"
                )
            if self.representation == QUANTIZED and a.act_params != b.in_params:
                raise InvariantError(
                    f"layer scale chain mismatch: activation e={a.act_params.exponent} "
                    f"-> input e={b.in_params.exponent}"
                )

    @property
    def output_dim(self):
        return self.layers[-1].out_dim


def _resolve_arch(spec):
    if isinstance(spec, str):
        try:
            return ARCHITECTURES[spec]
        except KeyError:
            raise ConfigurationError(
                f"unknown architecture {spec!r}; expected one of "
                f"{sorted(ARCHITECTURES)} or an explicit (input_dim, layers) pair"
            ) from None
    input_dim, layer_specs = spec
    return int(input_dim), [(int(n), act) for n, act in layer_specs]


def build_model(spec, seed):
    """Build a full-precision model from an architecture id or explicit spec.

    ``spec`` is 'cogdist', 'car_evaluation', or (input_dim, [(out_dim,
    activation), ...]). Weights are Glorot-uniform in +-sqrt(6/(in+out)),
    biases zero; bit-identical for a given seed.
    """
    input_dim, layer_specs = _resolve_arch(spec)
    if input_dim <= 0 or any(n <= 0 for n, _ in layer_specs):
        raise ConfigurationError("layer dimensions must be positive")
    rng = np.random.default_rng(seed)
    layers = []
    fan_in = input_dim
    for out_dim, act in layer_specs:
        limit = np.sqrt(6.0 / (fan_in + out_dim))
        w = rng.uniform(-limit, limit, size=(out_dim, fan_in)).astype(np.float32)
        b = np.zeros(out_dim, dtype=np.float32)
        layers.append(DenseLayer(w, b, act))
        fan_in = out_dim
    return Model(layers)


@dataclass(eq=False)
class FullTrace:
    """Forward-pass record for the full model: the input and a per layer."""

    x: np.ndarray
    acts: list

    @property
    def output(self):
        return self.acts[-1]


@dataclass(eq=False)
class QTrace:
    """Forward-pass record for the quantized model: the input and a per
    layer, all as codes."""

    x_q: QTensor
    acts: list

    @property
    def output(self):
        return self.acts[-1]


def forward_full(m, x, math_mode="reference"):
    """Dense forward pass: z = W a + b, a = act(z); returns the full trace."""
    if m.representation != FULL:
        raise InvariantError("forward_full requires a full-precision model")
    x = np.asarray(x, dtype=np.float32)
    if x.shape != (m.input_dim,):
        raise InvariantError(
            f"input shape {x.shape} does not match input_dim {m.input_dim}"
        )
    a = x
    acts = []
    for layer in m.layers:
        a = activation_fn(layer.activation, math_mode)(layer.weights @ a + layer.biases)
        acts.append(a)
    return FullTrace(x, acts)


def predict_full(m, X, math_mode="reference"):
    """Batched forward pass returning final outputs only, [n x output_dim]."""
    if m.representation != FULL:
        raise InvariantError("predict_full requires a full-precision model")
    A = np.asarray(X, dtype=np.float32)
    if A.ndim != 2 or A.shape[1] != m.input_dim:
        raise InvariantError(f"batch shape {A.shape} does not match input_dim")
    for layer in m.layers:
        Z = A @ layer.weights.T
        Z += layer.biases
        A = activation_fn(layer.activation, math_mode)(Z)
    return A


def _int8_kernel(codes, layer):
    """The int8 kernel on input codes [in] or [n x in]: the multiply-
    accumulate, as a fresh float64 array of integer accumulators.

    The products are summed by float64 BLAS, which is exact here: each
    product is an integer of magnitude at most 2**14, so every partial sum
    is an integer below 2**14 * in_dim < 2**31 < 2**53 (``bias_code_limit``
    is non-negative for every layer that exists), whatever order or fused
    multiply-add the BLAS uses. The bias codes are added to that float64
    sum, which stays exact because the total is an integer bounded by
    2**31 - 1, as ``bias_code_limit`` proves. Both callers requantize it
    to the pre-activation scale.
    """
    w = layer.weights_q.codes.astype(np.float64)
    return codes.astype(np.float64) @ w.T + layer.biases_q


def linear_int8(x_q, layer):
    """Int8 fully-connected kernel producing pre-activation codes.

    Per output neuron: the int8 dot product plus the pre-shifted bias code,
    an accumulator that stays inside int32, requantized (rounding shift +
    clamp) down to the pre-activation scale. The out_dim == 1 case runs the
    same path as multi-output layers.
    """
    if x_q.params != layer.in_params:
        raise InvariantError(
            f"kernel input params mismatch: got e={x_q.params.exponent}, "
            f"layer expects e={layer.in_params.exponent}"
        )
    if x_q.codes.shape != (layer.in_dim,):
        raise InvariantError("kernel input length does not match layer in_dim")
    acc = _int8_kernel(x_q.codes, layer)
    return _from_codes(requantize_shift(acc, layer.requantize_shift_amount), layer.preact_params)


def forward_int8(m, x_q):
    """Quantized forward pass: alternate the int8 kernel and LUT activations."""
    if m.representation != QUANTIZED:
        raise InvariantError("forward_int8 requires a quantized model")
    cur = x_q
    acts = []
    for layer in m.layers:
        cur = apply_lut(linear_int8(cur, layer), layer.lut)
        acts.append(cur)
    return QTrace(x_q, acts)


def predict_int8(m, X):
    """Batched quantized forward pass; returns dequantized outputs [n x c].

    Quantizes the float inputs at the model's input scale, then runs the
    multiply-accumulate of linear_int8 on the whole batch, followed by one
    gather per layer that requantizes and applies the LUT together
    (``quant._requantize_lut``); the codes equal forward_int8's row by row.
    """
    if m.representation != QUANTIZED:
        raise InvariantError("predict_int8 requires a quantized model")
    X = np.asarray(X, dtype=np.float32)
    if X.ndim != 2 or X.shape[1] != m.input_dim:
        raise InvariantError(f"batch shape {X.shape} does not match input_dim")
    codes = quantize(X, m.layers[0].in_params).codes
    for layer in m.layers:
        acc = _int8_kernel(codes, layer)
        codes = _requantize_lut(acc, layer.requantize_shift_amount, layer.lut)
    return codes.astype(np.float32) * np.float32(m.layers[-1].act_params.step)


def predict_labels(outputs):
    """Decision rule: threshold 0.5 for a single sigmoid output, else argmax
    (ties broken by lowest index)."""
    arr = np.atleast_2d(np.asarray(outputs))
    if arr.shape[1] == 1:
        return (arr[:, 0] >= 0.5).astype(np.int64)
    return np.argmax(arr, axis=1)


def _exponent_for_max(max_abs):
    """Smallest exponent whose code range covers max_abs (see choose_exponent)."""
    if max_abs <= 0:
        return DEFAULT_ZERO_EXPONENT
    return choose_exponent(np.array([max_abs])).exponent


def quantize_model(m, calibration=None, math_mode="reference"):
    """Post-training quantization of a full-precision model.

    Weight exponents come from each layer's max|w|. Activation-side
    exponents default to -4 for pre-activation sums and -7 for activation
    outputs and model inputs; when a calibration input set [n x d] is given,
    input and pre-activation exponents are calibrated from a max-abs
    forward pass instead. LUTs are built per layer. ``math_mode`` selects
    the activation math used both for calibration and LUT construction.
    """
    if m.representation != FULL:
        raise InvariantError("quantize_model requires a full-precision model")

    input_exp = DEFAULT_ZERO_EXPONENT
    preact_exps = [DEFAULT_PREACT_EXPONENT] * len(m.layers)
    if calibration is not None:
        X = np.asarray(calibration, dtype=np.float32)
        if X.ndim != 2 or X.shape[1] != m.input_dim:
            raise InvariantError("calibration set shape does not match input_dim")
        input_exp = _exponent_for_max(float(np.max(np.abs(X))) if X.size else 0.0)
        A = X
        for i, layer in enumerate(m.layers):
            Z = A @ layer.weights.T + layer.biases
            preact_exps[i] = _exponent_for_max(float(np.max(np.abs(Z))))
            A = activation_fn(layer.activation, math_mode)(Z)

    qlayers = []
    in_params = QuantParams(input_exp)
    for layer, preact_exp in zip(m.layers, preact_exps):
        w_params = choose_exponent(layer.weights)
        w_q = quantize(layer.weights, w_params)
        bias_step = 2.0 ** (in_params.exponent + w_params.exponent)
        b_q = _round_half_away(layer.biases.astype(np.float64) / bias_step)
        act_params = QuantParams(DEFAULT_ACTIVATION_EXPONENT)
        lut = build_lut(layer.activation, QuantParams(preact_exp), act_params, math_mode)
        qlayers.append(QDenseLayer(weights_q=w_q, biases_q=b_q, in_params=in_params, lut=lut))
        in_params = act_params
    return Model(qlayers)


def clone_model(m):
    """Independent copy safe to train without touching the original."""
    if m.representation == FULL:
        layers = [
            DenseLayer(l.weights.copy(), l.biases.copy(), l.activation)
            for l in m.layers
        ]
    else:
        # QTensor/LUT components are immutable and training replaces rather
        # than mutates them, so sharing the initial buffers is safe.
        layers = [
            QDenseLayer(l.weights_q, l.biases_q.copy(), l.in_params, l.lut)
            for l in m.layers
        ]
    return Model(layers)
