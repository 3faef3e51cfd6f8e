"""FPU-free style math approximations: round, power-of-two, exponential,
and the tanh/sigmoid activations (fast and reference twins) built on them.

All functions accept scalars or numpy arrays and are pure; safe to call
concurrently.
"""

import numpy as np

from .errors import ConfigurationError

_F32_ONE_BITS = 127 << 23  # exponent-field bias of float32 1.0
# Maps the natural-exp argument onto the float32 exponent field: 2^23 / ln 2.
_EXP_SLOPE = float(1 << 23) / np.log(2.0)

# fast_exp input clamp; beyond this the assembled bit pattern would leave the
# finite float32 range.
_EXP_X_MIN = -87.0
_EXP_X_MAX = 88.0


def _round_half_away(arr):
    """Elementwise round to nearest, ties away from zero, in float."""
    return np.trunc(arr + np.copysign(0.5, arr))


def fast_round(x):
    """Round to the nearest integer, ties away from zero.

    Computed as truncate(x + 0.5*sign(x)). Caller contract: |x| < 2^31 - 1;
    behavior outside that range is unspecified.
    """
    arr = np.asarray(x, dtype=np.float64)
    out = _round_half_away(arr).astype(np.int32)
    if np.ndim(x) == 0:
        return int(out)
    return out


def fast_power_of_two(k):
    """2**k via left shift. k must be an integer in [0, 62]."""
    k = int(k)
    if not 0 <= k <= 62:
        raise ValueError(f"fast_power_of_two exponent {k} outside [0, 62]")
    return 1 << k


def fast_exp(x):
    """Approximate e**x by assembling a float32 bit pattern.

    round(slope*x) + bits(1.0) is interpreted as the bits of a float32: the
    integer part of slope*x lands in the exponent field and the remainder
    linearly interpolates the mantissa. Inputs are clamped to (-87, 88) to
    keep the pattern inside the finite range. fast_exp(0) == 1.0 exactly.
    """
    # The clip method, not np.clip: it skips np.clip's dispatch layers, which
    # cost more than the clamp itself on a step-sized array.
    arr = np.asarray(x, dtype=np.float64).clip(_EXP_X_MIN, _EXP_X_MAX)
    scaled = _round_half_away(arr * _EXP_SLOPE).astype(np.int64)
    bits = (scaled + _F32_ONE_BITS).astype(np.int32)
    out = bits.view(np.float32)
    if np.ndim(x) == 0:
        return np.float32(out[()])
    return out


def tanh_f(x):
    """tanh via fast_exp: (1 - e^{-2|x|}) / (1 + e^{-2|x|}), sign restored.

    Evaluating on |x| keeps the function odd to float32 exactness even
    though fast_exp(-y) * fast_exp(y) is only approximately 1.
    """
    xf = np.asarray(x, dtype=np.float32)
    e = fast_exp(-2.0 * np.abs(xf))
    t = (1.0 - e) / (1.0 + e)
    out = np.copysign(t, xf).astype(np.float32)
    if np.ndim(x) == 0:
        return np.float32(out[()])
    return out


def sigmoid_f(x):
    """Logistic function via fast_exp, symmetric by construction.

    The p >= 0.5 branch is computed from 1/(1 + e^{-|x|}) and mirrored, so
    sigmoid_f(x) + sigmoid_f(-x) == 1 in float32 exactly.
    """
    xf = np.asarray(x, dtype=np.float32)
    p = 1.0 / (1.0 + fast_exp(-np.abs(xf)))
    out = np.where(xf >= 0, p, 1.0 - p).astype(np.float32)
    if np.ndim(x) == 0:
        return np.float32(out[()])
    return out


def tanh_ref(x):
    """Exact-math twin of tanh_f (platform tanh, float32 result)."""
    return np.tanh(np.asarray(x, dtype=np.float32))


def sigmoid_ref(x):
    """Exact-math twin of sigmoid_f (platform exp in float64, float32 result)."""
    xf = np.asarray(x, dtype=np.float32)
    with np.errstate(over="ignore"):
        out = (1.0 / (1.0 + np.exp(-xf.astype(np.float64)))).astype(np.float32)
    if np.ndim(x) == 0:
        return np.float32(out[()])
    return out


def tanh_deriv(y):
    """tanh derivative in output form: 1 - y**2, y = tanh(x)."""
    yf = np.asarray(y, dtype=np.float32)
    out = 1.0 - np.square(yf)
    if np.ndim(y) == 0:
        return np.float32(out[()])
    return out


def sigmoid_deriv(y):
    """Sigmoid derivative in output form: y * (1 - y), y = sigmoid(x)."""
    yf = np.asarray(y, dtype=np.float32)
    out = yf * (1.0 - yf)
    if np.ndim(y) == 0:
        return np.float32(out[()])
    return out


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
