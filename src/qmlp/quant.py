"""Symmetric power-of-two fixed-point quantization.

Real values are stored as signed 8-bit codes q with a per-tensor exponent e,
value ~= q * 2**e. There is no zero-point: scales are pure powers of two so
all rescaling reduces to integer shifts. Codes use the full [-128, 127]
range with saturation at both ends.

QTensor and ActivationLUT are immutable after construction and safe to share
across concurrent readers.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError, InvariantError
from .fastmath import ACTIVATION_NAMES, _round_half_away, activation_fn

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
_CODE_LO, _CODE_HI = float(CODE_MIN), float(CODE_MAX)  # clamp bounds, see _round_half_away

# A layer's requantize shift is proven to lie in [-SHIFT_MAX, SHIFT_MAX] when
# the layer is built or loaded.
SHIFT_MAX = 31

# _requantize_lut clamps 2z to [-256, 255], the range of the fused table's
# index before its offset of 256.
_FUSED_LO, _FUSED_HI = -256.0, 255.0
_FUSED_OFFSET = 256
# The code that fused-table entry k + 256 reads from the LUT,
# clamp(round_half_away(k / 2)); the same for every LUT.
_FUSED_CODES = _round_half_away(
    np.arange(-_FUSED_OFFSET, _FUSED_OFFSET, dtype=np.float64) / 2, _CODE_LO, _CODE_HI, np.int8
)
_FUSED_CODES.setflags(write=False)


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

    def __post_init__(self):
        object.__setattr__(self, "codes", _int8_codes(self.codes))

    @property
    def shape(self):
        return self.codes.shape


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

    ``fused`` is derived from ``table`` when the LUT is built: 512 int8
    entries, fused[k + 256] = table[clamp(round_half_away(k / 2)) + 128] for
    k in [-256, 255], which ``_requantize_lut`` reads to requantize and look
    up in one gather. It lives in host memory only; the model file and the
    memory report do not count it.
    """

    table: np.ndarray
    in_params: QuantParams
    out_params: QuantParams
    activation: str
    fused: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.activation not in ACTIVATION_NAMES:
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        table = _int8_codes(self.table)
        if table.shape != (256,):
            raise InvariantError(f"LUT table must have 256 entries, got {table.shape}")
        object.__setattr__(self, "table", table)
        fused = _lut_gather(table, _FUSED_CODES)
        fused.setflags(write=False)
        object.__setattr__(self, "fused", fused)


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
    codes = _round_half_away(arr / params.step, _CODE_LO, _CODE_HI, np.int8)
    return _from_codes(codes, params)


def dequantize(t):
    """Recover real values from a QTensor: v = q * 2**e (exact in float32)."""
    return t.codes.astype(np.float32) * t.params.step


def requantize_shift(acc, shift):
    """Rescale a 32-bit accumulator to an 8-bit code by a power-of-two shift.

    Returns clamp(round_half_away(acc * 2**shift), -128, 127). z =
    acc * 2**shift is exact in float64 for every integer |acc| < 2**31 and
    every shift in [-31, 31], and ``_round_half_away`` is exact for every
    finite z. ``acc`` may be an int, an integer array, or a float64 array
    of integers.
    """
    shift = int(shift)
    if not -SHIFT_MAX <= shift <= SHIFT_MAX:
        raise InvariantError(f"requantize shift {shift} outside [-{SHIFT_MAX}, {SHIFT_MAX}]")
    z = np.multiply(acc, 2.0**shift, dtype=np.float64)
    codes = _round_half_away(z, _CODE_LO, _CODE_HI, np.int8)
    if codes.ndim == 0:
        return int(codes)
    return codes


def _requantize_lut(acc, shift, lut):
    """lut.table[requantize_shift(acc, shift) + 128], in one gather.

    ``acc`` is a float64 array of integer accumulators, |acc| < 2**31,
    that the caller owns: every step works in place on it. The shift is
    not checked; ``QDenseLayer`` proves it lies in [-31, 31] when built.

    With z = acc * 2**shift and y = 2z, both exact in float64:

    - round_half_away(z) = round_half_away(trunc(y) / 2), because the
      rounded magnitude floor(|z| + 1/2) = floor((|y| + 1) / 2) depends on
      |y| only through floor(|y|) = |trunc(y)|.
    - Clamping y to [-256, 255] before the truncation changes no result:
      trunc and round_half_away are monotone, and y = -256 and y = 255
      already round to -128 and 128, at or past the code bounds, so every
      y beyond either bound clamps to the same code as the bound itself.

    So the result is lut.fused[trunc(clip(y, -256, 255)) + 256]; the int16
    cast truncates, and the offset keeps the gather's indices non-negative.
    """
    y = np.multiply(acc, 2.0 ** (shift + 1), out=acc)
    y.clip(_FUSED_LO, _FUSED_HI, out=y)
    k = y.astype(np.int16)
    k += _FUSED_OFFSET
    return lut.fused.take(k)


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
    return table.take(codes.view(np.uint8) ^ 128)


def apply_lut(t, lut):
    """Map a QTensor through an activation LUT entry by entry."""
    if t.params != lut.in_params:
        raise InvariantError(
            f"LUT input params mismatch: tensor e={t.params.exponent}, "
            f"LUT e={lut.in_params.exponent}"
        )
    return _from_codes(_lut_gather(lut.table, t.codes), lut.out_params)
