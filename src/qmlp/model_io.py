"""Binary model file format, lossless for both representations.

The layout is declared once, as little-endian numpy record types: the file
header ``_HEADER``, one ``_LAYER`` header per layer, then one parameter
block per layer, ``_block(representation, in_dim, out_dim)``. ``save_model``
fills these records and writes their bytes; ``load_model`` reads them back.

Any structural problem (bad magic, unknown version, truncation, trailing
bytes, a non-finite float parameter, inconsistent exponents, a requantize
shift outside [-31, 31], a bias code outside +-``nn.BIAS_CODE_MAX``, the
bound that keeps the int32 accumulator from overflowing) raises FormatError
with the byte offset of the field at fault; no partial model is ever
returned.
"""

from pathlib import Path

import numpy as np

from .errors import FormatError
from .nn import BIAS_CODE_MAX, FULL, QUANTIZED, DenseLayer, Model, QDenseLayer
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

# Field names are the words the error messages use.
_HEADER = np.dtype(
    [("magic", "S4"), ("format version", "<u2"), ("representation", "u1"), ("layer count", "<u2")]
)
_LAYER = np.dtype([("in_dim", "<u2"), ("out_dim", "<u2"), ("activation", "u1")])
_EXPONENTS = ("weight exponent", "input exponent", "pre-activation exponent", "activation exponent")


def _block(representation, in_dim, out_dim):
    """The record type of one layer's parameter block."""
    if representation == FULL:
        return np.dtype([("weights", "<f4", (out_dim, in_dim)), ("biases", "<f4", (out_dim,))])
    values = [("weight codes", "i1", (out_dim, in_dim)), ("bias codes", "<i4", (out_dim,))]
    return np.dtype([(name, "i1") for name in _EXPONENTS] + values + [("LUT", "i1", (256,))])


def _fault(message, at, record, name, index=0):
    """FormatError at item ``index`` of field ``name`` of the ``record`` at byte ``at``."""
    offset = at + record.fields[name][1] + int(index) * record[name].base.itemsize
    return FormatError(message, offset=offset)


def save_model(m, path):
    """Serialize a Model to ``path``; see module docstring for the layout."""
    head = (MAGIC, FORMAT_VERSION, _REPRESENTATIONS.index(m.representation), len(m.layers))
    records = [np.array(head, _HEADER)]
    for layer in m.layers:
        act_byte = _ACTIVATIONS.index(layer.activation)
        records.append(np.array((layer.in_dim, layer.out_dim, act_byte), _LAYER))
    for layer in m.layers:
        block = _block(m.representation, layer.in_dim, layer.out_dim)
        if m.representation == FULL:
            records.append(np.array((layer.weights, layer.biases), block))
        else:
            exps = (layer.weights_q.params, layer.in_params, layer.preact_params, layer.act_params)
            values = (layer.weights_q.codes, layer.biases_q, layer.lut.table)
            records.append(np.array((*(p.exponent for p in exps), *values), block))
    Path(path).write_bytes(b"".join(r.tobytes() for r in records))


def _read(data, at, record, what):
    """The ``record`` that starts at byte ``at``; a file too short for it is
    reported at the first field it cannot hold."""
    if at + record.itemsize > len(data):
        fields = record.fields
        name = next(n for n in record.names if at + fields[n][1] + record[n].itemsize > len(data))
        raise _fault(f"truncated model file while reading {what}{name}", at, record, name)
    return np.frombuffer(data, record, 1, at)[0]


def load_model(path):
    """Parse a model file back into a Model.

    The file holds the layers' parameters and nothing else; the Model reads
    its input width and representation from them.
    """
    data = Path(path).read_bytes()

    # the magic is checked before the header's length: a short file of another
    # kind reads as a bad magic
    magic = data[: len(MAGIC)]
    if magic != MAGIC and len(magic) == len(MAGIC):
        raise _fault(f"bad magic {magic!r}, expected {MAGIC!r}", 0, _HEADER, "magic")
    _, version, repr_byte, layer_count = _read(data, 0, _HEADER, "").item()
    if version != FORMAT_VERSION:
        raise _fault(f"unsupported format version {version}", 0, _HEADER, "format version")
    if repr_byte >= len(_REPRESENTATIONS):
        raise _fault(f"unknown representation byte {repr_byte}", 0, _HEADER, "representation")
    representation = _REPRESENTATIONS[repr_byte]
    if layer_count == 0:
        raise _fault("model file declares zero layers", 0, _HEADER, "layer count")

    headers = []
    at = _HEADER.itemsize
    for i in range(layer_count):
        in_dim, out_dim, act_byte = _read(data, at, _LAYER, f"layer {i} ").item()
        if in_dim == 0 or out_dim == 0:
            raise _fault(f"layer {i} has zero dimension", at, _LAYER, "in_dim")
        if act_byte >= len(_ACTIVATIONS):
            raise _fault(f"layer {i} unknown activation byte {act_byte}", at, _LAYER, "activation")
        if headers and headers[-1][1] != in_dim:
            message = f"layer chain mismatch between layers {i - 1} and {i}"
            raise _fault(message, at, _LAYER, "in_dim")
        headers.append((in_dim, out_dim, _ACTIVATIONS[act_byte]))
        at += _LAYER.itemsize

    layers = []
    prev_act_exp = None
    for i, (in_dim, out_dim, act) in enumerate(headers):
        # numpy describes no record past 2 GiB: a block the file cannot hold
        # gets just enough rows to overrun it, and _read refuses it as cut
        rows = min(out_dim, (len(data) - at) // in_dim + 1)
        block = _block(representation, in_dim, rows)
        rec = _read(data, at, block, f"layer {i} ")
        if representation == FULL:
            for name, what in (("weights", "weight"), ("biases", "bias")):
                bad = np.flatnonzero(~np.isfinite(rec[name]))
                if bad.size:
                    raise _fault(f"layer {i} {what} is not finite", at, block, name, bad[0])
            # copies: the record is a read-only view of the file, and training writes these
            layers.append(DenseLayer(rec["weights"].copy(), rec["biases"].copy(), act))
        else:
            w_exp, in_exp, preact_exp, act_exp = exps = [int(rec[name]) for name in _EXPONENTS]
            for name, e in zip(_EXPONENTS, exps):
                if not EXPONENT_MIN <= e <= EXPONENT_MAX:
                    raise _fault(f"layer {i} {name} {e} out of range", at, block, name)
            if prev_act_exp is not None and in_exp != prev_act_exp:
                message = (
                    f"layer {i} input exponent {in_exp} does not chain from "
                    f"previous activation exponent {prev_act_exp}"
                )
                raise _fault(message, at, block, "input exponent")
            shift = in_exp + w_exp - preact_exp
            if not -SHIFT_MAX <= shift <= SHIFT_MAX:
                message = (
                    f"layer {i} requantize shift {shift} (input {in_exp} + weight "
                    f"{w_exp} - pre-activation {preact_exp}) outside [-{SHIFT_MAX}, {SHIFT_MAX}]"
                )
                raise _fault(message, at, block, "pre-activation exponent")
            prev_act_exp = act_exp
            biases = rec["bias codes"]
            bad = np.flatnonzero((biases < -BIAS_CODE_MAX) | (biases > BIAS_CODE_MAX))
            if bad.size:
                message = (
                    f"layer {i} bias code {biases[bad[0]]} outside +-{BIAS_CODE_MAX}, the "
                    f"bound that keeps the int32 accumulator from overflowing"
                )
                raise _fault(message, at, block, "bias codes", bad[0])
            weights_q = QTensor(rec["weight codes"], QuantParams(w_exp))
            lut = ActivationLUT(rec["LUT"], QuantParams(preact_exp), QuantParams(act_exp), act)
            layers.append(QDenseLayer(weights_q, biases, QuantParams(in_exp), lut))
        at += block.itemsize

    if at != len(data):
        raise FormatError("trailing bytes after model payload", offset=at)
    return Model(layers)
