"""Symmetric power-of-two fixed-point quantization.

Real values are stored as signed 8-bit codes q with a per-tensor exponent e,
value ~= q * 2**e. There is no zero-point: scales are pure powers of two so
all rescaling reduces to integer shifts. Codes use the full [-128, 127]
range with saturation at both ends.

QTensor and ActivationLUT are immutable after construction and safe to share
across concurrent readers. A QTensor keeps one float form of its codes, the
float64 copy the int8 kernel reads, made on first use (``_float_codes``);
readers racing to make it make equal copies. Every other float form of a
QTensor's codes is cast where it is read.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError, InvariantError
from .fastmath import _F32, _F64, ACTIVATION_NAMES, _const, _round_half_away, activation_fn

EXPONENT_MIN = -24
EXPONENT_MAX = 8

# Exponent conventions used throughout: a zero/empty tensor quantizes at -7
# (step 1/128, range [-1, 1]), which is also the default scale for activation
# outputs; pre-activation sums default to -4 (range [-8, 8]).
DEFAULT_ZERO_EXPONENT = -7
DEFAULT_ACTIVATION_EXPONENT = -7
DEFAULT_PREACT_EXPONENT = -4

CODE_MIN = -128
CODE_MAX = 127
# The code clamp's bounds in each precision a code is rounded from
_CODE_BOUNDS = {
    dt: (_const(CODE_MIN, dt), _const(CODE_MAX, dt)) for dt in (_F32, _F64)
}

# A layer's requantize shift is proven to lie in [-SHIFT_MAX, SHIFT_MAX] when
# the layer is built or loaded.
SHIFT_MAX = 31

# 2**e as 0-d arrays, by exponent, in each precision: every power-of-two
# scale the library applies (exponents, shifts, shift + 1 and their
# negations, bias exponents) lies in [-_POW2_MAX, _POW2_MAX], where float32
# holds it exactly as a normal number.
_POW2_MAX = 64
_POW2 = {
    dt: {e: _const(2.0**e, dt) for e in range(-_POW2_MAX, _POW2_MAX + 1)}
    for dt in (_F32, _F64)
}

_FUSED_OFFSET = _const(256, np.intp)
# the identity LUT's fused table, the codes requantize_shift returns (see _fused_index)
_FUSED_CODES = _round_half_away(np.arange(-256, 256) / 2, *_CODE_BOUNDS[_F64], np.int8)
_FUSED_CODES.setflags(write=False)
# flips the top bit of an int8 code's uint8 view, see _lut_gather
_TOP_BIT = _const(128, np.uint8)


@dataclass(frozen=True)
class QuantParams:
    """Per-tensor quantization descriptor: value = code * 2**exponent."""

    exponent: int

    def __post_init__(self):
        if not EXPONENT_MIN <= self.exponent <= EXPONENT_MAX:
            raise ConfigurationError(
                f"quantization exponent {self.exponent} outside "
                f"[{EXPONENT_MIN}, {EXPONENT_MAX}]"
            )

    @property
    def step(self):
        """Smallest representable value difference, 2**exponent."""
        return 2.0 ** self.exponent


def _int8_codes(values):
    """A read-only int8 copy of ``values``, which must be whole numbers in
    [-128, 127]: the cast would round or wrap anything else."""
    codes = np.asarray(values)
    if codes.dtype != np.int8 and codes.size and not (
        np.all(np.trunc(codes) == codes) and CODE_MIN <= codes.min() and codes.max() <= CODE_MAX
    ):
        raise InvariantError(f"codes must be whole numbers in [{CODE_MIN}, {CODE_MAX}]")
    codes = codes.astype(np.int8)
    codes.setflags(write=False)
    return codes


@dataclass(frozen=True, eq=False)
class QTensor:
    """Signed 8-bit code buffer plus its quantization parameters.

    The constructor copies caller-supplied codes, which must be whole
    numbers in [-128, 127]; codes the library computes itself are wrapped
    by ``_from_codes`` instead.
    """

    codes: np.ndarray
    params: QuantParams
    # the float64 copy of codes that _float_codes makes on first use
    _codes_f64 = None

    def __post_init__(self):
        object.__setattr__(self, "codes", _int8_codes(self.codes))


def _float_codes(t):
    """``t.codes`` as a read-only float64 array, the form ``nn._int8_kernel``
    reads: made on first use and kept on ``t``.

    A QTensor never changes its codes, and every code write makes a new
    QTensor, so the copy cannot go stale and needs no invalidation. It is
    stored in the instance dict, as ``functools.cached_property`` stores
    its values, which the frozen dataclass's ``__setattr__`` does not
    guard.
    """
    copy = t._codes_f64
    if copy is None:
        copy = t.codes.astype(_F64)
        copy.setflags(False)  # write=False; the keyword costs 0.1 us more
        t.__dict__["_codes_f64"] = copy
    return copy


def _from_codes(codes, params):
    """Wrap int8 codes the library has just computed as a read-only QTensor.

    ``codes`` must be a fresh int8 array (or a view of one the library owns)
    with every entry already in range, so the public constructor's
    validating copy is skipped; only the write flag is cleared.
    """
    codes.setflags(write=False)
    t = object.__new__(QTensor)
    object.__setattr__(t, "codes", codes)
    object.__setattr__(t, "params", params)
    return t


@dataclass(frozen=True, eq=False)
class ActivationLUT:
    """256-entry int8 -> int8 activation table, indexed by input code + 128,
    and the name of the activation it was built from. The table's entries
    must be whole numbers in [-128, 127], as for ``QTensor``.

    Two 512-entry tables are derived from ``table`` when the LUT is built;
    ``_requantize_lut(acc, shift, table)`` requantizes and looks up in one
    gather of the one its caller passes: ``fused``, fused[k] =
    table[_FUSED_CODES[k] + 128] as exact float64 codes, the form the next
    layer's kernel reads, and ``fused_values``, the same codes' output
    values fused[k] * 2**e_out in float32 (exact), the form a batch's
    output takes. Both are read-only and live in host memory only
    (4 KB + 2 KB); the model file and the memory report do not count them.
    """

    table: np.ndarray
    in_params: QuantParams
    out_params: QuantParams
    activation: str
    fused: np.ndarray = field(init=False, repr=False)
    fused_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.activation not in ACTIVATION_NAMES:
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        table = _int8_codes(self.table)
        if table.shape != (256,):
            raise InvariantError(f"LUT table must have 256 entries, got {table.shape}")
        object.__setattr__(self, "table", table)
        codes = _lut_gather(table, _FUSED_CODES)
        fused = codes.astype(np.float64)
        values = _code_values(codes, self.out_params)
        for name, t in (("fused", fused), ("fused_values", values)):
            t.setflags(write=False)
            object.__setattr__(self, name, t)


def choose_exponent(values):
    """Pick the finest power-of-two exponent whose range covers the data.

    Returns the smallest e with max|v| <= 128 * 2**e (so the extreme negative
    value lands exactly on code -128; the positive end may saturate one step
    at 127). All-zero input defaults to e = -7.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise DataError("choose_exponent requires a non-empty buffer")
    if not np.all(np.isfinite(arr)):
        raise DataError("choose_exponent requires finite values")
    m = float(np.max(np.abs(arr)))
    if m == 0.0:
        return QuantParams(DEFAULT_ZERO_EXPONENT)
    mant, ex = math.frexp(m)  # m = mant * 2**ex, mant in [0.5, 1)
    ceil_log2 = ex - 1 if mant == 0.5 else ex
    e = min(max(ceil_log2 - 7, EXPONENT_MIN), EXPONENT_MAX)
    return QuantParams(e)


def quantize(values, params):
    """Quantize a real buffer: q = clamp(round_half_away(v / 2**e), -128, 127)."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise DataError("quantize requires finite values")
    codes = _round_half_away(arr / _POW2[_F64][params.exponent], *_CODE_BOUNDS[_F64], np.int8)
    return _from_codes(codes, params)


def _code_values(codes, params):
    """The values of int8 codes at ``params``, v = q * 2**e in float32 (exact):
    the one code-to-value rule."""
    return codes.astype(np.float32) * _POW2[_F32][params.exponent]


def dequantize(t):
    """Recover real values from a QTensor: v = q * 2**e (exact in float32)."""
    return _code_values(t.codes, t.params)


def _fused_index(acc, shift, out=None):
    """k = trunc(acc * 2**(shift + 1)) + 256 as intp, for integer
    accumulators |acc| < 2**31: the requantize index of rows and batches,
    which every reader gathers with ``take(k, mode="clip")``. With
    z = acc * 2**shift and y = 2z, exact in float64 for every shift in
    [-31, 31] (not checked here), ``_FUSED_CODES[clamp(k, 0, 511)]`` is
    clamp(round_half_away(z), -128, 127):

    - The intp cast is defined and truncates, as |y| < 2**31 * 2**32.
    - clamp(trunc(y) + 256, 0, 511) = trunc(clip(y, -256, 255)) + 256, as
      trunc is monotone and the bounds are integers. The clip changes no
      code: y = -256 and y = 255 already round to -128 and 128, at or past
      the code bounds, and rounding is monotone too.
    - round_half_away(z) = round_half_away(trunc(y) / 2), because the
      rounded magnitude floor(|z| + 1/2) = floor((|y| + 1) / 2) depends on
      |y| only through floor(|y|) = |trunc(y)|.

    The offset moves the in-range indices to [0, 511], which the clip mode
    leaves as they are. ``take`` reads intp indices as they are and casts
    any other index array first: int16 indices made the gather 5.8 times
    as slow on 32k indices (140 us against 24 us) and twice as slow on 32
    (0.50 against 0.26 us).

    ``out`` (float64, acc's shape; acc itself, say) takes the multiply in
    place, and the offset is then added in place on the fresh index; without
    it both are fresh: numpy pays 0.3 us when a one-element output aliases.
    """
    k = np.multiply(acc, _POW2[_F64][shift + 1], out=out).astype(np.intp)
    return k + _FUSED_OFFSET if out is None else np.add(k, _FUSED_OFFSET, out=k)


def requantize_shift(acc, shift):
    """Rescale a 32-bit accumulator to an 8-bit code by a power-of-two shift.

    Returns clamp(round_half_away(acc * 2**shift), -128, 127) for |acc| < 2**31
    (unspecified beyond), one gather of the identity LUT's fused table whose
    index clamp is the code clamp (see ``_fused_index``), without writing acc:
    an int for an int, a fresh int8 array for an integer or float64 array.
    """
    shift = int(shift)
    if not -SHIFT_MAX <= shift <= SHIFT_MAX:
        raise InvariantError(f"requantize shift {shift} outside [-{SHIFT_MAX}, {SHIFT_MAX}]")
    codes = _FUSED_CODES.take(_fused_index(acc, shift), mode="clip")
    return int(codes) if codes.ndim == 0 else codes


def _requantize_lut(acc, shift, table):
    """lut.table[requantize_shift(acc, shift) + 128], as one gather of
    ``table`` at ``_fused_index``'s k, whose index clamp is the code clamp:
    the caller names one of the LUT's fused tables, ``ActivationLUT.fused``
    for float64 codes or ``ActivationLUT.fused_values`` for their float32
    output values. The multiply runs in place on ``acc``, a float64 array
    the caller owns. A one-element ``acc`` (a single row of a one-neuron
    layer) takes the fresh steps instead, which cost less there. The shift
    is not checked; ``QDenseLayer`` proves it lies in [-31, 31] when built.
    """
    return table.take(_fused_index(acc, shift, acc if acc.size > 1 else None), mode="clip")


def build_lut(activation, in_params, out_params):
    """Precompute the quantized activation table for one layer.

    Each entry is quantize(act(dequantize(code)), out_params) over all 256
    input codes, with act the reference activation: the table is built once,
    off the device, so the fast approximation would save nothing there.
    """
    x = np.arange(CODE_MIN, CODE_MAX + 1, dtype=np.float64) * in_params.step
    table = quantize(activation_fn(activation)(x), out_params).codes
    return ActivationLUT(table, in_params, out_params, activation)


def _lut_gather(table, codes):
    """table[codes + 128] for int8 codes of any shape, without a widening copy.

    Flipping the top bit of a code's uint8 view gives code + 128.
    """
    return table.take(codes.view(np.uint8) ^ _TOP_BIT)


def apply_lut(t, lut):
    """Map a QTensor through an activation LUT entry by entry."""
    if t.params != lut.in_params:
        raise InvariantError(
            f"LUT input params mismatch: tensor e={t.params.exponent}, "
            f"LUT e={lut.in_params.exponent}"
        )
    return _from_codes(_lut_gather(lut.table, t.codes), lut.out_params)
