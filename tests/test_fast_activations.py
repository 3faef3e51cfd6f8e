"""Bit identity of ``fast_exp``, ``tanh_f`` and ``sigmoid_f`` with a frozen oracle.

The oracle below is the earlier implementation, kept as it was: clamp x in
float64, multiply by the slope, round half away from zero into int64, add
bits(1.0), cast to int32; tanh and sigmoid build -2|x| and -|x| in float32
and call that exp. The library assembles the bits in int32. ``fast_exp``
clamps on the scaled axis z = slope*x and rounds with ``_round_half_away``.
Behind tanh and sigmoid, ``_fast_exp_neg`` clamps |x| to 87/k in float32,
folds -k into the slope, and rounds its z <= 0 by trunc(z - h), one
subtraction. Every non-NaN float32 input must give the oracle's output bits
(NaN output is unspecified). The tier-1 cases cover the signed zeros and
infinities, the subnormal and normal extremes, the float32 neighbours of
the clamp bounds, a million random bit patterns, and ``predict_full``'s
fast batches against an oracle pipeline; the sweep of every float32 is
marked ``slow``.
"""

import numpy as np
import pytest

from qmlp.fastmath import fast_exp, sigmoid_f, tanh_f
from qmlp.nn import ARCHITECTURES, build_model, predict_full

ORACLE_SLOPE = float(1 << 23) / np.log(2.0)
ORACLE_ONE_BITS = 127 << 23
ORACLE_BELOW_HALF = 0.5 - 2.0**-54


def oracle_exp(x):
    arr = np.asarray(x, dtype=np.float64).clip(-87.0, 88.0)
    z = arr * ORACLE_SLOPE
    scaled = (z + np.copysign(ORACLE_BELOW_HALF, z)).astype(np.int64)
    bits = (scaled + ORACLE_ONE_BITS).astype(np.int32)
    out = bits.view(np.float32)
    if np.ndim(x) == 0:
        return np.float32(out[()])
    return out


def oracle_tanh(x):
    xf = np.asarray(x, dtype=np.float32)
    e = oracle_exp(-2.0 * np.abs(xf))
    t = (1.0 - e) / (1.0 + e)
    out = np.copysign(t, xf).astype(np.float32)
    if np.ndim(x) == 0:
        return np.float32(out[()])
    return out


def oracle_sigmoid(x):
    xf = np.asarray(x, dtype=np.float32)
    p = 1.0 / (1.0 + oracle_exp(-np.abs(xf)))
    out = np.where(xf >= 0, p, 1.0 - p).astype(np.float32)
    if np.ndim(x) == 0:
        return np.float32(out[()])
    return out


PAIRS = [
    pytest.param(fast_exp, oracle_exp, id="fast_exp"),
    pytest.param(tanh_f, oracle_tanh, id="tanh_f"),
    pytest.param(sigmoid_f, oracle_sigmoid, id="sigmoid_f"),
]

F32 = np.finfo(np.float32)
EDGES = np.array(
    [
        0.0,
        np.inf,
        F32.smallest_subnormal,
        np.nextafter(F32.smallest_normal, np.float32(0)),  # largest subnormal
        F32.smallest_normal,
        F32.max,
    ],
    dtype=np.float32,
)
# where the clamps bind: -2|x| = -87 for tanh, -|x| = -87 for sigmoid,
# x = -87 and x = 88 for fast_exp
CLAMP_POINTS = (43.5, 87.0, 88.0)
NEIGHBOURS = 8  # float32 steps taken on each side of a clamp point


def signed(x):
    return np.concatenate([x, -x])


def clamp_neighbours():
    """[len(CLAMP_POINTS) x (2*NEIGHBOURS + 1)] float32s around each clamp point."""
    centres = np.array(CLAMP_POINTS, dtype=np.float32).view(np.uint32)
    steps = np.arange(-NEIGHBOURS, NEIGHBOURS + 1, dtype=np.int64)
    return (centres[:, None].astype(np.int64) + steps).astype(np.uint32).view(np.float32)


def check_bits(fn, oracle, x):
    x = np.asarray(x, dtype=np.float32)
    with np.errstate(over="ignore"):  # the oracle's -2|x| overflows near FLT_MAX
        want = oracle(x)
    got = fn(x)
    assert got.dtype == np.float32 and got.shape == x.shape
    bad = got.view(np.uint32) != want.view(np.uint32)
    assert not bad.any(), f"{bad.sum()} mismatches, first at x={x[bad][:4]}"


@pytest.mark.parametrize("fn, oracle", PAIRS)
class TestSameBitsAsOracle:
    def test_zeros_infinities_and_extremes(self, fn, oracle):
        check_bits(fn, oracle, signed(EDGES))

    def test_neighbours_of_the_clamp_bounds(self, fn, oracle):
        check_bits(fn, oracle, signed(clamp_neighbours().ravel()))

    def test_neighbours_of_the_clamp_bounds_as_a_batch(self, fn, oracle):
        # one row per clamp point and sign, NEIGHBOURS steps either side
        check_bits(fn, oracle, signed(clamp_neighbours()))

    def test_random_bit_patterns(self, fn, oracle):
        bits = np.random.default_rng(2024).integers(0, 1 << 32, 1_000_000, dtype=np.uint32)
        x = bits.view(np.float32)
        check_bits(fn, oracle, x[~np.isnan(x)])

    def test_multidimensional_batch(self, fn, oracle):
        x = np.random.default_rng(5).normal(0.0, 30.0, (64, 32)).astype(np.float32)
        check_bits(fn, oracle, x)

    @pytest.mark.parametrize("x", [0.0, -0.0, 0.75, -43.5, 88.0, float("inf")])
    def test_scalar_inputs(self, fn, oracle, x):
        want = oracle(np.float32(x))
        for arg in (x, np.float32(x), np.array(x, dtype=np.float32)):
            got = fn(arg)
            assert type(got) is np.float32
            assert got.view(np.uint32) == want.view(np.uint32)


ORACLE_ACTIVATIONS = {"tanh": oracle_tanh, "sigmoid": oracle_sigmoid}


@pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
def test_predict_full_fast_matches_the_oracle_pipeline(arch):
    rng = np.random.default_rng(7)
    m = build_model(arch, seed=3)
    for layer in m.layers:
        layer.biases[:] = rng.normal(0.0, 2.0, layer.biases.shape)
    # wide inputs, so the first layer's pre-activations pass the clamp points
    X = rng.normal(0.0, 40.0, (1024, m.input_dim)).astype(np.float32)
    X[:4] = [[43.5], [-87.0], [88.0], [-1e30]]
    A = X
    for layer in m.layers:
        A = ORACLE_ACTIVATIONS[layer.activation](A @ layer.weights.T + layer.biases)
    got = predict_full(m, X, "fast")
    assert got.dtype == np.float32 and got.shape == A.shape
    np.testing.assert_array_equal(got.view(np.uint32), A.view(np.uint32))


@pytest.mark.slow
@pytest.mark.parametrize("fn, oracle", PAIRS)
def test_every_float32(fn, oracle):
    chunk = 1 << 24
    for start in range(0, 1 << 32, chunk):
        x = np.arange(start, start + chunk, dtype=np.uint32).view(np.float32)
        check_bits(fn, oracle, x[~np.isnan(x)])
