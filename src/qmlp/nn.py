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

from .data import _check_seed
from .errors import ConfigurationError, DataError, InvariantError, _integer
from .fastmath import ACTIVATION_NAMES, _round_half_away, activation_fn
from .quant import (
    DEFAULT_ACTIVATION_EXPONENT,
    DEFAULT_PREACT_EXPONENT,
    DEFAULT_ZERO_EXPONENT,
    SHIFT_MAX,
    ActivationLUT,
    QTensor,
    QuantParams,
    _float_codes,
    _from_codes,
    _requantize_lut,
    _whole,
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

# Largest layer dimension: the model file stores in_dim and out_dim as u16.
DIM_MAX = 2**16 - 1
# Largest |bias code|: float32 holds every integer up to 2**24, so the hybrid
# trainer rounds bias codes in float32 like weight codes. The kernel adds at
# most DIM_MAX products of magnitude at most 128 * 128 = 2**14 to the bias,
# and 2**24 + 2**14 * DIM_MAX < 2**31, so no accumulator leaves int32.
BIAS_CODE_MAX = 2**24


def _check_layer_shape(weights, biases):
    """The shape every kernel assumes: weights [out x in], biases [out],
    and 1 <= out, in <= DIM_MAX."""
    if weights.ndim != 2 or biases.ndim != 1:
        raise InvariantError("weights must be [out x in], biases [out]")
    if weights.shape[0] != biases.shape[0]:
        raise InvariantError("weight rows and bias length differ")
    if 0 in weights.shape:
        raise InvariantError("layer dimensions must be >= 1")
    if max(weights.shape) > DIM_MAX:
        raise InvariantError(f"layer dimensions must be <= {DIM_MAX}, got {weights.shape}")


@dataclass(eq=False)
class DenseLayer:
    """Fully-connected layer: weights [out x in], biases [out], activation id."""

    weights: np.ndarray
    biases: np.ndarray
    activation: str

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float32)
        self.biases = np.asarray(self.biases, dtype=np.float32)
        _check_layer_shape(self.weights, self.biases)
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
    directly into the int32 accumulator without any per-sample shift. When
    the layer is built they must be whole numbers (``quant._whole``) of
    magnitude at most ``BIAS_CODE_MAX``, which proves the kernel's
    accumulator never leaves int32, and are copied to writable int32. Code
    that assigns new bias codes afterwards (the hybrid trainer) clamps them
    to the same bound. The requantize shift, in + weight - pre-activation
    exponent, is proven to lie in [-31, 31] when the layer is built, too.

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
        _check_layer_shape(self.weights_q.codes, biases)
        if not _whole(biases, -BIAS_CODE_MAX, BIAS_CODE_MAX):
            raise InvariantError(
                f"bias code outside +-{BIAS_CODE_MAX}, the bound that keeps the "
                f"int32 accumulator from overflowing, or not a whole number"
            )
        self.biases_q = biases.astype(np.int32)
        self.preact_params = self.lut.in_params
        self.act_params = self.lut.out_params
        e = (self.in_params.exponent, self.weights_q.params.exponent, self.preact_params.exponent)
        what = "requantize shift (input e={} + weight e={} - pre-activation e={})".format(*e)
        _integer(self.requantize_shift_amount, -SHIFT_MAX, SHIFT_MAX, what, InvariantError)

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
    'quantized', and no layers or a mix raises InvariantError. Widths must
    chain from layer to layer, and in a quantized model so must the scales:
    each layer's input exponent is the previous layer's activation exponent.
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
                "a model needs one or more layers, all DenseLayer or all QDenseLayer"
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
    width = lambda n: _integer(n, 1, None, "layer width", ConfigurationError)
    return width(input_dim), [(width(n), act) for n, act in layer_specs]


def build_model(spec, seed):
    """Build a full-precision model from an architecture id or explicit spec.

    ``spec`` is 'cogdist', 'car_evaluation', or (input_dim, [(out_dim,
    activation), ...]), widths integers >= 1 (``errors._integer``). Weights
    are Glorot-uniform in +-sqrt(6/(in+out)), biases zero; bit-identical for a given seed.
    """
    input_dim, layer_specs = _resolve_arch(spec)
    if not layer_specs:
        raise ConfigurationError("a model needs one or more layers")
    rng = np.random.default_rng(_check_seed(seed))
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
class Trace:
    """Forward-pass record: the input and each layer's activation, as
    float32 arrays (``forward_full``) or QTensor codes (``forward_int8``)."""

    x: object
    acts: list

    @property
    def output(self):
        return self.acts[-1]


def _require(m, representation, what):
    """The kind rule: ``what`` needs a model of the given representation,
    and any other raises InvariantError."""
    if m.representation != representation:
        raise InvariantError(f"{what} requires a {representation} model")


def _batch(m, X, representation, what):
    """``X`` as a float32 batch [n x input_dim] for a model of the given
    representation (``_require``); anything else raises InvariantError."""
    _require(m, representation, what)
    X = np.asarray(X, dtype=np.float32)
    if X.ndim != 2 or X.shape[1] != m.input_dim:
        raise InvariantError(
            f"{what}: batch shape {X.shape} does not match input_dim {m.input_dim}"
        )
    return X


def _float_layers(m, A, math_mode):
    """The float layer loop, on a row [in] or a batch [n x in]: yields each
    layer's pre-activation Z = A W^T + b and its activation act(Z).

    A row's product goes through ``dot``, which skips matmul's ufunc set-up
    (about 0.3 us of a 0.7 us call); a batch's through ``@``, whose BLAS
    call is up to 25% faster on 1024 rows. Both give the same bits.
    """
    for layer in m.layers:
        Z = A.dot(layer.weights.T) if A.ndim == 1 else A @ layer.weights.T
        Z += layer.biases
        A = activation_fn(layer.activation, math_mode)(Z)
        yield Z, A


def forward_full(m, x, math_mode="reference"):
    """Dense forward pass on one row, the n = 1 case of ``predict_full``'s
    loop; returns the full trace."""
    _require(m, FULL, "forward_full")
    x = np.asarray(x, dtype=np.float32)
    if x.shape != (m.input_dim,):
        raise InvariantError(
            f"input shape {x.shape} does not match input_dim {m.input_dim}"
        )
    return Trace(x, [a for _, a in _float_layers(m, x, math_mode)])


def predict_full(m, X, math_mode="reference"):
    """Batched forward pass returning final outputs only, [n x output_dim]."""
    A = _batch(m, X, FULL, "predict_full")
    for _, A in _float_layers(m, A, math_mode):
        pass
    return A


def _int8_kernel(a, layer):
    """The int8 kernel on input codes held in float64, [in] or [n x in]:
    the multiply-accumulate, as a fresh float64 array of integer
    accumulators. The weight codes are read as their float64 copy, which
    ``quant._float_codes`` makes once per ``weights_q``: the one float form
    of a code kept between calls, read by every serving row and again by
    the next forward after a step that absorbed the layer's weight update.

    The products are summed by float64 BLAS, which is exact here: each
    product is an integer of magnitude at most 2**14, so every partial sum
    is an integer of magnitude at most 2**14 * DIM_MAX < 2**31 < 2**53,
    whatever order or fused multiply-add the BLAS uses. The bias codes are
    added to that float64 sum, which stays exact because the total is an
    integer of magnitude at most BIAS_CODE_MAX + 2**14 * DIM_MAX < 2**31.
    Both callers requantize it to the pre-activation scale.

    A single row, [in] or [1 x in], goes through ``dot``, whose set-up
    costs less (0.9 us against 1.5 us for ``@`` on car's 16 x 32 layer),
    and adds the bias codes fresh: in place costs more on one element (the
    cogdist output row). A larger batch goes through ``@``, 6% faster on
    1024 rows, and adds them in place. Any order gives the same bits.
    """
    w = _float_codes(layer.weights_q).T
    if a.ndim == 1 or len(a) == 1:
        return a.dot(w) + layer.biases_q
    acc = a @ w
    acc += layer.biases_q
    return acc


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
    acc = _int8_kernel(x_q.codes.astype(np.float64), layer)
    return _from_codes(requantize_shift(acc, layer.requantize_shift_amount), layer.preact_params)


def forward_int8(m, x_q):
    """Quantized forward pass: alternate the int8 kernel and LUT activations."""
    _require(m, QUANTIZED, "forward_int8")
    cur = x_q
    acts = []
    for layer in m.layers:
        cur = apply_lut(linear_int8(cur, layer), layer.lut)
        acts.append(cur)
    return Trace(x_q, acts)


def predict_int8(m, X):
    """Batched quantized forward pass; returns dequantized outputs [n x c].

    Quantizes the float inputs at the model's input scale and casts the
    codes to float64 once, then runs the multiply-accumulate of
    linear_int8 on the whole batch, followed by one gather per layer that
    requantizes and applies the LUT together (``quant._requantize_lut``):
    a hidden layer passes ``ActivationLUT.fused``, float64 codes, the form
    the next kernel reads, and the last layer ``ActivationLUT.fused_values``,
    its float32 output values. The codes equal forward_int8's row by row.
    """
    X = _batch(m, X, QUANTIZED, "predict_int8")
    a = quantize(X, m.layers[0].in_params).codes.astype(np.float64)
    *hidden, last = m.layers
    for layer in hidden:
        a = _requantize_lut(_int8_kernel(a, layer), layer.requantize_shift_amount, layer.lut.fused)
    acc = _int8_kernel(a, last)
    return _requantize_lut(acc, last.requantize_shift_amount, last.lut.fused_values)


def quantize_model(m, calibration=None):
    """Post-training quantization of a full-precision model.

    Weight exponents come from each layer's max|w|. Activation-side
    exponents default to -4 for pre-activation sums and -7 for activation
    outputs and model inputs; when a calibration input set [n x d], n >= 1,
    is given, input and pre-activation exponents are calibrated from a
    max-abs forward pass instead. The calibration pass and the per-layer
    LUTs use the reference activations.
    """
    _require(m, FULL, "quantize_model")

    input_exp = DEFAULT_ZERO_EXPONENT
    preact_exps = [DEFAULT_PREACT_EXPONENT] * len(m.layers)
    if calibration is not None:
        X = _batch(m, calibration, FULL, "quantize_model's calibration set")
        if not len(X):
            raise DataError("calibration set has no rows")
        input_exp = choose_exponent(X).exponent
        for i, (Z, _) in enumerate(_float_layers(m, X, "reference")):
            preact_exps[i] = choose_exponent(Z).exponent

    qlayers = []
    in_params = QuantParams(input_exp)
    for i, (layer, preact_exp) in enumerate(zip(m.layers, preact_exps)):
        w_params = choose_exponent(layer.weights)
        w_q = quantize(layer.weights, w_params)
        bias_step = 2.0 ** (in_params.exponent + w_params.exponent)
        b_q = _round_half_away(layer.biases.astype(np.float64) / bias_step)
        act_params = QuantParams(DEFAULT_ACTIVATION_EXPONENT)
        lut = build_lut(layer.activation, QuantParams(preact_exp), act_params)
        try:
            qlayers.append(QDenseLayer(weights_q=w_q, biases_q=b_q, in_params=in_params, lut=lut))
        except InvariantError as e:  # a bias or scale no QDenseLayer holds
            raise DataError(f"layer {i}: {e}") from None
        in_params = act_params
    return Model(qlayers)


def clone_model(m):
    """Independent copy safe to train without touching the original. A quantized
    copy shares the QTensors and LUTs, which are immutable and which training
    replaces rather than mutates; QDenseLayer's int32 cast copies the bias codes."""
    if m.representation == FULL:
        return Model(
            [DenseLayer(l.weights.copy(), l.biases.copy(), l.activation) for l in m.layers]
        )
    return Model([QDenseLayer(l.weights_q, l.biases_q, l.in_params, l.lut) for l in m.layers])
