"""Binary model file format, lossless for both representations.

Layout (little-endian):

    magic "DCV1" | version u16 | representation u8 (0=full, 1=quantized)
    | layer count u16 | per layer: in_dim u16, out_dim u16, activation u8
    | then per-layer parameter blocks:
        full:      weights f32[out*in] (row-major), biases f32[out]
        quantized: weight exponent i8, in/preact/act exponents i8 each,
                   weight codes i8[out*in], bias codes i32[out], LUT i8[256]

Any structural problem (bad magic, unknown version, truncation, trailing
bytes, a non-finite float parameter, inconsistent exponents, a requantize
shift outside [-31, 31], a bias code outside the layer's int32 accumulator
bound) raises FormatError with the byte offset; no partial model is ever
returned.
"""

import struct
from pathlib import Path

import numpy as np

from .errors import FormatError
from .nn import FULL, QUANTIZED, DenseLayer, Model, QDenseLayer, bias_code_limit
from .quant import (
    EXPONENT_MAX,
    EXPONENT_MIN,
    SHIFT_MAX,
    ActivationLUT,
    QTensor,
    QuantParams,
)

MAGIC = b"DCV1"
FORMAT_VERSION = 1

# The value each byte stands for, indexed by the byte.
_REPRESENTATIONS = (FULL, QUANTIZED)
_ACTIVATIONS = ("tanh", "sigmoid")


def save_model(m, path):
    """Serialize a Model to ``path``; see module docstring for the layout."""
    out = bytearray()
    out += MAGIC
    repr_byte = _REPRESENTATIONS.index(m.representation)
    out += struct.pack("<HBH", FORMAT_VERSION, repr_byte, len(m.layers))
    for layer in m.layers:
        act_byte = _ACTIVATIONS.index(layer.activation)
        out += struct.pack("<HHB", layer.in_dim, layer.out_dim, act_byte)
    for layer in m.layers:
        if m.representation == FULL:
            out += layer.weights.astype("<f4").tobytes()
            out += layer.biases.astype("<f4").tobytes()
        else:
            out += struct.pack(
                "<bbbb",
                layer.weights_q.params.exponent,
                layer.in_params.exponent,
                layer.preact_params.exponent,
                layer.act_params.exponent,
            )
            out += layer.weights_q.codes.tobytes()
            out += layer.biases_q.astype("<i4").tobytes()
            out += layer.lut.table.tobytes()
    Path(path).write_bytes(bytes(out))


class _Reader:
    def __init__(self, data):
        self.data = data
        self.offset = 0

    def take(self, n, what):
        if self.offset + n > len(self.data):
            raise FormatError(f"truncated model file while reading {what}", offset=self.offset)
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, dtype, count, what):
        itemsize = np.dtype(dtype).itemsize
        raw = self.take(itemsize * count, what)
        return np.frombuffer(raw, dtype=dtype, count=count).copy()


def _check_exponent(e, what, offset):
    if not EXPONENT_MIN <= e <= EXPONENT_MAX:
        raise FormatError(f"{what} exponent {e} out of range", offset=offset)


def load_model(path):
    """Parse a model file back into a Model.

    The file holds the layers' parameters and nothing else; the Model reads
    its input width and representation from them.
    """
    data = Path(path).read_bytes()
    r = _Reader(data)

    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    (version,) = r.unpack("<H", "format version")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}", offset=4)
    (repr_byte,) = r.unpack("<B", "representation")
    if repr_byte >= len(_REPRESENTATIONS):
        raise FormatError(f"unknown representation byte {repr_byte}", offset=6)
    representation = _REPRESENTATIONS[repr_byte]
    (layer_count,) = r.unpack("<H", "layer count")
    if layer_count == 0:
        raise FormatError("model file declares zero layers", offset=7)

    headers = []
    for i in range(layer_count):
        at = r.offset
        in_dim, out_dim, act_byte = r.unpack("<HHB", f"layer {i} header")
        if in_dim == 0 or out_dim == 0:
            raise FormatError(f"layer {i} has zero dimension", offset=at)
        if act_byte >= len(_ACTIVATIONS):
            raise FormatError(f"layer {i} unknown activation byte {act_byte}", offset=at + 4)
        if headers and headers[-1][1] != in_dim:
            raise FormatError(f"layer chain mismatch between layers {i - 1} and {i}", offset=at)
        headers.append((in_dim, out_dim, _ACTIVATIONS[act_byte]))

    layers = []
    prev_act_exp = None
    for i, (in_dim, out_dim, act) in enumerate(headers):
        if representation == FULL:
            at = r.offset
            w = r.array("<f4", out_dim * in_dim, f"layer {i} weights")
            b = r.array("<f4", out_dim, f"layer {i} biases")
            # weights, then biases, are contiguous: value j starts at byte at + 4 * j
            bad = np.flatnonzero(~np.isfinite(np.concatenate([w, b])))
            if bad.size:
                j = int(bad[0])
                what = "weight" if j < w.size else "bias"
                raise FormatError(f"layer {i} {what} is not finite", offset=at + 4 * j)
            layers.append(DenseLayer(w.reshape(out_dim, in_dim), b, act))
        else:
            at = r.offset
            w_exp, in_exp, preact_exp, act_exp = exps = r.unpack("<bbbb", f"layer {i} exponents")
            for k, name in enumerate(("weight", "input", "pre-activation", "activation")):
                _check_exponent(exps[k], f"layer {i} {name}", at + k)  # one byte each
            if prev_act_exp is not None and in_exp != prev_act_exp:
                raise FormatError(
                    f"layer {i} input exponent {in_exp} does not chain from "
                    f"previous activation exponent {prev_act_exp}",
                    offset=at + 1,
                )
            shift = in_exp + w_exp - preact_exp
            if not -SHIFT_MAX <= shift <= SHIFT_MAX:
                raise FormatError(
                    f"layer {i} requantize shift {shift} (input {in_exp} + weight "
                    f"{w_exp} - pre-activation {preact_exp}) outside [-{SHIFT_MAX}, {SHIFT_MAX}]",
                    offset=at + 2,
                )
            prev_act_exp = act_exp
            codes = r.array(np.int8, out_dim * in_dim, f"layer {i} weight codes")
            at = r.offset
            biases = r.array("<i4", out_dim, f"layer {i} bias codes")
            limit = bias_code_limit(in_dim)
            bad = np.flatnonzero((biases < -limit) | (biases > limit))
            if bad.size:
                j = int(bad[0])
                raise FormatError(
                    f"layer {i} bias code {biases[j]} outside +-{limit}, the bound "
                    f"that keeps the int32 accumulator of a {in_dim}-input layer "
                    f"from overflowing",
                    offset=at + 4 * j,
                )
            table = r.array(np.int8, 256, f"layer {i} LUT")
            layers.append(
                QDenseLayer(
                    weights_q=QTensor(codes.reshape(out_dim, in_dim), QuantParams(w_exp)),
                    biases_q=biases,
                    in_params=QuantParams(in_exp),
                    lut=ActivationLUT(table, QuantParams(preact_exp), QuantParams(act_exp), act),
                )
            )

    if r.offset != len(data):
        raise FormatError("trailing bytes after model payload", offset=r.offset)
    return Model(layers)
