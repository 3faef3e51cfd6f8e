from fractions import Fraction

import numpy as np
import pytest

from qmlp.errors import ConfigurationError
from qmlp.fastmath import (
    activation_deriv,
    activation_fn,
    fast_exp,
    fast_power_of_two,
    fast_round,
    sigmoid_deriv,
    sigmoid_f,
    sigmoid_ref,
    tanh_deriv,
    tanh_f,
    tanh_ref,
)


def round_half_away_oracle(x):
    """Reference round-to-nearest with ties away from zero."""
    x = np.asarray(x, dtype=np.float64)
    return np.copysign(np.floor(np.abs(x) + 0.5), x).astype(np.int64)


class TestFastRound:
    @pytest.mark.parametrize(
        "x,expected",
        [(0.0, 0), (2.5, 3), (-1.5, -2), (1.4999, 1), (-0.5, -1), (0.5, 1)],
    )
    def test_examples(self, x, expected):
        assert fast_round(x) == expected

    def test_dense_grid(self):
        # integer-spaced grid over [-1e6, 1e6] plus offsets that land on ties
        base = np.arange(-1_000_000.0, 1_000_001.0, 97.0)
        for off in (0.0, 0.25, 0.5, 0.75, -0.5):
            grid = base + off
            np.testing.assert_array_equal(fast_round(grid), round_half_away_oracle(grid))

    def test_random_samples(self, rng):
        xs = rng.uniform(-1e6, 1e6, 100_000)
        np.testing.assert_array_equal(fast_round(xs), round_half_away_oracle(xs))

    def test_scalar_type(self):
        assert isinstance(fast_round(3.2), int)


class TestFastPowerOfTwo:
    def test_exhaustive(self):
        for k in range(63):
            assert fast_power_of_two(k) == 2**k

    @pytest.mark.parametrize("k,expected", [(0, 1), (5, 32), (30, 1073741824)])
    def test_examples(self, k, expected):
        assert fast_power_of_two(k) == expected

    @pytest.mark.parametrize("k", [-1, 63, 100])
    def test_out_of_range(self, k):
        with pytest.raises(ValueError):
            fast_power_of_two(k)


class TestFastExp:
    def test_zero_is_exact(self):
        assert fast_exp(0.0) == np.float32(1.0)
        # bit-exact, not merely close
        assert np.float32(fast_exp(0.0)).view(np.int32) == np.float32(1.0).view(np.int32)

    @pytest.mark.parametrize("x", [1.0, -2.0])
    def test_relative_error_examples(self, x):
        assert abs(float(fast_exp(x)) - np.exp(x)) / np.exp(x) <= 0.07

    def test_error_budget_over_grid(self):
        xs = np.arange(-10.0, 10.0 + 1e-12, 1e-3)
        rel = np.abs(fast_exp(xs).astype(np.float64) - np.exp(xs)) / np.exp(xs)
        assert rel.max() <= 0.07

    def test_monotone_non_decreasing(self, rng):
        xs = np.sort(rng.uniform(-85.0, 85.0, 20_000))
        ys = fast_exp(xs)
        assert np.all(np.diff(ys) >= 0)

    def test_out_of_range_inputs_clamp(self):
        assert np.isfinite(fast_exp(1000.0))
        assert np.isfinite(fast_exp(-1000.0))
        assert fast_exp(1000.0) == fast_exp(88.0)
        assert fast_exp(-1000.0) == fast_exp(-87.0)


class TestActivations:
    def test_trivial_points(self):
        assert abs(float(tanh_f(0.0))) <= 1e-6
        assert abs(float(sigmoid_f(0.0)) - 0.5) <= 1e-6

    def test_tanh_f_budget(self):
        assert abs(float(tanh_f(1.0)) - 0.7616) <= 0.02

    def test_tanh_f_odd(self):
        xs = np.linspace(-10.0, 10.0, 4001)
        s = tanh_f(xs).astype(np.float64) + tanh_f(-xs).astype(np.float64)
        assert np.max(np.abs(s)) <= 1e-5

    def test_sigmoid_f_symmetry(self):
        xs = np.linspace(-10.0, 10.0, 4001)
        s = sigmoid_f(xs).astype(np.float64) + sigmoid_f(-xs).astype(np.float64)
        assert np.max(np.abs(s - 1.0)) <= 1e-5

    def test_ranges(self, rng):
        # strict interior on the test grid; float32 saturates to {0, 1}
        # beyond |x| ~ 17 for any float32 sigmoid, so wide inputs get the
        # closed bounds
        xs = rng.uniform(-10, 10, 10_000)
        s = sigmoid_f(xs)
        assert np.all(s > 0.0) and np.all(s < 1.0)
        wide = rng.uniform(-50, 50, 10_000)
        t = tanh_f(wide)
        sw = sigmoid_f(wide)
        assert np.all(t >= -1.0) and np.all(t <= 1.0)
        assert np.all(sw >= 0.0) and np.all(sw <= 1.0)

    def test_reference_twins_match_numpy(self, rng):
        xs = rng.uniform(-5, 5, 1000)
        np.testing.assert_allclose(tanh_ref(xs), np.tanh(xs), atol=1e-6)
        np.testing.assert_allclose(sigmoid_ref(xs), 1 / (1 + np.exp(-xs)), atol=1e-6)

    def test_fast_vs_reference_budget(self, rng):
        # propagated fast_exp error (rel <= 6.15%): |d tanh| = 2 E d/(1+E)^2
        # peaks near 0.031, |d sigmoid| = E d/(1+E)^2 near 0.016
        xs = rng.uniform(-8, 8, 5000)
        assert np.max(np.abs(tanh_f(xs) - tanh_ref(xs))) <= 0.035
        assert np.max(np.abs(sigmoid_f(xs) - sigmoid_ref(xs))) <= 0.02


class TestDerivatives:
    def test_examples(self):
        assert tanh_deriv(0.0) == 1.0
        assert sigmoid_deriv(0.5) == 0.25
        assert abs(float(tanh_deriv(0.7616)) - 0.4200) <= 1e-3

    def test_matches_finite_difference(self):
        # derivative in output form equals d act / d x evaluated via FD
        for x in np.linspace(-2.0, 2.0, 41):
            eps = 1e-5
            fd_t = (np.tanh(x + eps) - np.tanh(x - eps)) / (2 * eps)
            assert abs(float(tanh_deriv(np.tanh(x))) - fd_t) < 1e-4
            sig = lambda v: 1 / (1 + np.exp(-v))
            fd_s = (sig(x + eps) - sig(x - eps)) / (2 * eps)
            assert abs(float(sigmoid_deriv(sig(x))) - fd_s) < 1e-4


    @pytest.mark.parametrize("name", ["tanh", "sigmoid"])
    def test_every_activation_code_is_the_exact_formula(self, name):
        # At the default activation scale y = c / 128, and both 1 - y**2 and
        # y * (1 - y) are c-polynomials over 2**14 with at most 16 significant
        # bits, so float32 holds the formula's exact value for all 256 codes.
        formula = {"tanh": lambda y: 1 - y * y, "sigmoid": lambda y: y * (1 - y)}[name]
        codes = range(-128, 128)
        want = np.array(
            [float(formula(Fraction(c, 128))) for c in codes], dtype=np.float32
        )
        deriv = activation_deriv(name)
        ys = np.arange(-128, 128, dtype=np.float32) / np.float32(128)
        got = deriv(ys)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
        for y, w in zip(ys, want):
            for scalar in (y, float(y)):
                g = deriv(scalar)
                assert type(g) is np.float32
                assert g.view(np.uint32) == w.view(np.uint32)

    @pytest.mark.parametrize("fn", [tanh_deriv, sigmoid_deriv, sigmoid_ref])
    @pytest.mark.parametrize(
        "x", [0.25, np.float32(0.25), np.array(0.25), np.array(0.25, dtype=np.float32)],
        ids=["float", "np.float32", "0-d float64", "0-d float32"],
    )
    def test_scalar_in_float32_scalar_out(self, fn, x):
        got = fn(x)
        assert type(got) is np.float32
        assert got == fn(np.array([x], dtype=np.float32))[0]


class TestRegistry:
    def test_lookup(self):
        assert activation_fn("tanh", "fast") is tanh_f
        assert activation_fn("sigmoid", "reference") is sigmoid_ref
        assert activation_deriv("tanh") is tanh_deriv

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            activation_fn("relu")
        with pytest.raises(ConfigurationError):
            activation_fn("tanh", "approximate")
        with pytest.raises(ConfigurationError):
            activation_deriv("softmax")
