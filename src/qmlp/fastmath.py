"""FPU-free style math approximations: round, power-of-two, exponential,
and the tanh/sigmoid activations (fast and reference twins) built on them.

All functions accept scalars or numpy arrays and are pure; safe to call
concurrently.
"""

import numpy as np

from .errors import ConfigurationError


def _const(value, dtype):
    """A read-only 0-d array of ``dtype``: the form of every constant that
    meets an array in a ufunc on the per-sample path.

    numpy converts a Python or NumPy scalar operand to an array on every
    call, a third of a small ufunc call's cost; a 0-d array is used as it
    is. Its dtype must be that of the array it meets, so that the result
    dtype and bits are those the weak Python scalar gave (NEP 50, and numpy
    1.x value-based casting alike). Read-only, so that no ``out=`` can
    write into a constant every later call shares.
    """
    c = np.array(value, dtype=dtype)
    c.setflags(write=False)
    return c


_F32 = np.dtype(np.float32)
_F64 = np.dtype(np.float64)
_ONE32 = _const(1.0, np.float32)
_HALF32 = _const(0.5, np.float32)
_ONE64 = _const(1.0, np.float64)

_F32_ONE_BITS = _const(127 << 23, np.int32)  # exponent-field bias of float32 1.0
# Maps the natural-exp argument onto the float32 exponent field: 2^23 / ln 2.
_EXP_SLOPE = _const(float(1 << 23) / np.log(2.0), np.float64)

# fast_exp input clamp; beyond this the assembled bit pattern would leave the
# finite float32 range. The clamp is applied on the scaled axis z = x*slope:
# the float64 multiply by a positive constant is monotone, so clamping z to
# the scaled bounds gives the z that clamping x first would.
_EXP_X_MIN = -87.0
_EXP_X_MAX = 88.0
_EXP_Z_MIN = _const(_EXP_X_MIN * _EXP_SLOPE, np.float64)
_EXP_Z_MAX = _const(_EXP_X_MAX * _EXP_SLOPE, np.float64)
# _fast_exp_neg's float32 bound on |x| for each k, 87/k, as (87/k)*k = 87,
# and its float64 slope -k*slope
_EXP_NEG_AX_MAX = {k: _const(-_EXP_X_MIN / k, np.float32) for k in (1, 2)}
_EXP_NEG_SLOPE = {k: _const(-k * _EXP_SLOPE, np.float64) for k in (1, 2)}


# h, the largest float below 0.5 in each precision _round_half_away serves
_BELOW_HALF = {
    _F32: _const(0.5 - 2.0**-25, np.float32),
    _F64: _const(0.5 - 2.0**-54, np.float64),
}


def _round_half_away(x, lo=None, hi=None, dtype=None):
    """Round to nearest, ties away from zero: the one rounding rule of qmlp.

    Computed as trunc(x + copysign(h, x)), where h is the largest float
    below 0.5 in x's precision (float32 or float64, p significand bits).
    This is exact for every finite x. Taking x >= 0 and s = x + h exactly:

    - x < 0.5: s <= 2h < 1, so the result is 0.
    - 0.5 <= x < 2**(p-1): x + 0.5 = n + f, with n an integer and f a
      multiple of x's float spacing g, and s is 2**-(p+1) below it. The
      float spacing just below n + 1 is at most 2g, so s, more than g below
      n + 1, cannot round up to it. For f > 0, s > n. For f = 0, s is at
      most half a spacing below n and rounds to n (a tie only at n = 1,
      which ties-to-even keeps).
    - x >= 2**(p-1): x is an integer and h is under half its spacing, so s
      rounds back to x.

    ``x + copysign(0.5, x)`` fails the first and last cases: the add ties to
    even, so the largest float below 0.5 rounds to 1, and odd integers in
    [2**(p-1), 2**p) round up by one.

    Corollary for z <= 0: copysign(h, z) is -h (z = +0 gives 0 either way),
    and z - h is the exact negation of |z| + h, so the rule is trunc(z - h),
    one subtraction with no copysign pass. ``_fast_exp_neg``, whose z is
    never positive, is its one user.

    ``lo``/``hi``, whole numbers as 0-d arrays of x's dtype (see
    ``_const``), clamp before the truncation, in one ``clip`` pass.
    ``dtype`` truncates by casting instead of by ``np.trunc``; the values
    must fit it.
    """
    r = np.add(x, np.copysign(_BELOW_HALF[x.dtype], x))
    if lo is not None:
        r = r.clip(lo, hi)
    if dtype is None:
        return np.trunc(r)
    return r.astype(dtype)


def fast_round(x):
    """Round to the nearest integer, ties away from zero (``_round_half_away``).

    Caller contract: |x| < 2^31 - 1; behavior outside that range is
    unspecified.
    """
    out = _round_half_away(np.asarray(x, dtype=np.float64), dtype=np.int32)
    if np.ndim(x) == 0:
        return int(out)
    return out


def fast_power_of_two(k):
    """2**k via left shift. k must be an integer in [0, 62]."""
    k = int(k)
    if not 0 <= k <= 62:
        raise ValueError(f"fast_power_of_two exponent {k} outside [0, 62]")
    return 1 << k


def _exp_bits(bits):
    """The float32s whose bits are bits + bits(1.0), for int32 bits = round(z)
    with z in [_EXP_Z_MIN, _EXP_Z_MAX]; bits is overwritten. round(z) lies in
    [-1_052_891_675, 1_064_993_878], so the sum stays inside int32 (below
    2**31) and gives the bits of a positive finite float32.
    """
    bits += _F32_ONE_BITS
    return bits.view(np.float32)


def fast_exp(x):
    """Approximate e**x by assembling a float32 bit pattern.

    round(slope*x) + bits(1.0) is interpreted as the bits of a float32: the
    integer part of slope*x lands in the exponent field and the remainder
    linearly interpolates the mantissa. z = slope*x is computed in float64
    and clamped to [-87*slope, 88*slope], which equals clamping x to
    [-87, 88] first, and keeps the pattern inside the finite range and the
    sum inside int32 (see ``_exp_bits``). fast_exp(0) == 1.0 exactly. NaN
    input gives an unspecified output.
    """
    # The clip method, not np.clip: it skips np.clip's dispatch layers, which
    # cost more than the clamp itself on a step-sized array.
    z = np.multiply(x, _EXP_SLOPE, dtype=np.float64).clip(_EXP_Z_MIN, _EXP_Z_MAX)
    return _exp_bits(_round_half_away(z, dtype=np.int32))


def _fast_exp_neg(ax, k):
    """fast_exp(-k*ax) for a float32 array ax >= 0 (ndim >= 1), k in {1, 2};
    ax is overwritten.

    ax is clamped to 87/k in float32, then multiplied in float64 by -k*slope
    (exact, as k is a power of two). Below the bound this is the z fast_exp
    computes from the float32 -k*ax (exact in float32 unless it overflows to
    -inf, which clamps), and it is never below -87*slope. At the bound it is
    (87/k)*(k*slope) = 87*slope as reals, so z rounds to _EXP_Z_MIN, the z
    the scaled-axis clamp gives. As z <= 0, ``_round_half_away`` is
    trunc(z - h).
    """
    ax = np.minimum(ax, _EXP_NEG_AX_MAX[k], out=ax)
    z = np.multiply(ax, _EXP_NEG_SLOPE[k], dtype=np.float64)
    z -= _BELOW_HALF[_F64]
    return _exp_bits(z.astype(np.int32))


def tanh_f(x):
    """tanh via fast_exp: (1 - e^{-2|x|}) / (1 + e^{-2|x|}), sign restored.

    Evaluating on |x| keeps the function odd to float32 exactness even
    though fast_exp(-y) * fast_exp(y) is only approximately 1. NaN input
    gives an unspecified output.
    """
    xf = np.asarray(x, dtype=np.float32)
    if xf.ndim == 0:
        return tanh_f(xf.reshape(1))[0]
    e = _fast_exp_neg(np.abs(xf), 2)
    return np.copysign((_ONE32 - e) / (_ONE32 + e), xf)


def sigmoid_f(x):
    """Logistic function via fast_exp, symmetric by construction.

    The p >= 0.5 branch is computed from 1/(1 + e^{-|x|}) and mirrored as
    0.5 + copysign(p - 0.5, x): for p in [0.5, 1], p - 0.5 and 1 - p are
    exact (Sterbenz), so this is p for x >= 0 and 1 - p for x < 0 (at
    x = -0, p = 0.5), and sigmoid_f(x) + sigmoid_f(-x) == 1 in float32
    exactly. NaN input gives an unspecified output.
    """
    xf = np.asarray(x, dtype=np.float32)
    if xf.ndim == 0:
        return sigmoid_f(xf.reshape(1))[0]
    p = _ONE32 / (_ONE32 + _fast_exp_neg(np.abs(xf), 1))
    return _HALF32 + np.copysign(p - _HALF32, xf)


def tanh_ref(x):
    """Exact-math twin of tanh_f (platform tanh, float32 result)."""
    return np.tanh(np.asarray(x, dtype=np.float32))


def sigmoid_ref(x):
    """Exact-math twin of sigmoid_f (platform exp in float64, float32 result)."""
    xf = np.asarray(x, dtype=np.float32)
    with np.errstate(over="ignore"):
        return (_ONE64 / (_ONE64 + np.exp(-xf.astype(np.float64)))).astype(np.float32)


def tanh_deriv(y):
    """tanh derivative in output form: 1 - y**2, y = tanh(x)."""
    return _ONE32 - np.square(np.asarray(y, dtype=np.float32))


def sigmoid_deriv(y):
    """Sigmoid derivative in output form: y * (1 - y), y = sigmoid(x)."""
    yf = np.asarray(y, dtype=np.float32)
    return yf * (_ONE32 - yf)


_ACTIVATIONS = {
    ("tanh", "reference"): tanh_ref,
    ("tanh", "fast"): tanh_f,
    ("sigmoid", "reference"): sigmoid_ref,
    ("sigmoid", "fast"): sigmoid_f,
}

_DERIVATIVES = {"tanh": tanh_deriv, "sigmoid": sigmoid_deriv}

ACTIVATION_NAMES = ("tanh", "sigmoid")
MATH_MODES = ("reference", "fast")


def activation_fn(name, math_mode="reference"):
    """Look up an activation by name and math mode ('reference' or 'fast')."""
    try:
        return _ACTIVATIONS[(name, math_mode)]
    except KeyError:
        raise ConfigurationError(
            f"unknown activation/math combination: {name!r}, {math_mode!r}"
        ) from None


def activation_deriv(name):
    """Output-form derivative for a named activation."""
    try:
        return _DERIVATIVES[name]
    except KeyError:
        raise ConfigurationError(f"unknown activation: {name!r}") from None
