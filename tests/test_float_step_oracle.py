"""Bit identity of the float per-sample step with a frozen oracle.

The oracle below is the float layer loop, ``forward_full`` and
``backward_lsgd`` as they were written with Python scalar constants and the
``@`` operator: ``Z = A @ W.T; Z += b``, the output-form derivatives
``1.0 - y**2`` and ``y * (1.0 - y)``, and updates ``w -= lr * (delta ⊗ a)``
with ``lr`` a Python float. The fast activations are the frozen oracles of
``test_fast_activations``. The library multiplies by read-only 0-d
constants of its operands' dtypes (float32 ``lr`` included) and sums by
``dot``; every trace, update and count must keep the oracle's bits, on
random 1-3-layer models, both math modes and both activations. Most of the
learning rates are not exact in float32, so a float32 ``lr`` must round as
the weak Python float did, and a float64 one would not.
"""

import numpy as np
import pytest

from qmlp.nn import DenseLayer, Model, clone_model, forward_full, predict_full
from qmlp.train import backward_lsgd
from test_fast_activations import oracle_sigmoid, oracle_tanh

LEARNING_RATES = (0.0, 1e-4, 0.01, 0.05, 1 / 3, 1e6)
STEPS = 6


def oracle_tanh_ref(x):
    return np.tanh(np.asarray(x, dtype=np.float32))


def oracle_sigmoid_ref(x):
    xf = np.asarray(x, dtype=np.float32)
    with np.errstate(over="ignore"):
        return (1.0 / (1.0 + np.exp(-xf.astype(np.float64)))).astype(np.float32)


ORACLE_ACTIVATIONS = {
    ("tanh", "fast"): oracle_tanh,
    ("sigmoid", "fast"): oracle_sigmoid,
    ("tanh", "reference"): oracle_tanh_ref,
    ("sigmoid", "reference"): oracle_sigmoid_ref,
}
ORACLE_DERIVATIVES = {
    "tanh": lambda y: 1.0 - np.square(y),
    "sigmoid": lambda y: y * (1.0 - y),
}


def oracle_layers(m, A, math_mode):
    for layer in m.layers:
        Z = A @ layer.weights.T
        Z += layer.biases
        A = ORACLE_ACTIVATIONS[(layer.activation, math_mode)](Z)
        yield Z, A


def oracle_forward(m, x, math_mode):
    x = np.asarray(x, dtype=np.float32)
    return x, [a for _, a in oracle_layers(m, x, math_mode)]


def oracle_backward(x, acts, target, m, lr):
    t = np.asarray(target, dtype=np.float32)
    n_layers = len(m.layers)
    deltas = [None] * n_layers
    count = 0
    for i in reversed(range(n_layers)):
        layer = m.layers[i]
        a = acts[i]
        deriv = ORACLE_DERIVATIVES[layer.activation](a)
        if i == n_layers - 1:
            deltas[i] = (a - t) * deriv
        else:
            deltas[i] = (m.layers[i + 1].weights.T @ deltas[i + 1]) * deriv
        count += deltas[i].size
    for i, layer in enumerate(m.layers):
        a_prev = acts[i - 1] if i > 0 else x
        layer.weights -= lr * (deltas[i][:, None] * a_prev)
        layer.biases -= lr * deltas[i]
    return count


def random_model(rng):
    """1-3 layers of random widths and activations, weights and biases of
    several magnitudes, so that some pre-activations pass the fast exp's
    clamp points."""
    dims = rng.integers(1, 13, rng.integers(2, 5))
    layers = []
    for fan_in, out in zip(dims, dims[1:]):
        scale = rng.choice([0.3, 2.0, 30.0])
        layers.append(DenseLayer(
            rng.normal(0.0, scale, (out, fan_in)).astype(np.float32),
            rng.normal(0.0, scale, out).astype(np.float32),
            str(rng.choice(["tanh", "sigmoid"])),
        ))
    return Model(layers)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


@pytest.mark.parametrize("math_mode", ["fast", "reference"])
@pytest.mark.parametrize("lr", LEARNING_RATES)
@pytest.mark.parametrize("seed", range(8))
def test_step_matches_the_oracle(seed, lr, math_mode):
    rng = np.random.default_rng([seed, 16])
    m = random_model(rng)
    ref = clone_model(m)
    for _ in range(STEPS):
        x = rng.uniform(-1.5, 1.5, m.input_dim).astype(np.float32)
        target = rng.uniform(0.0, 1.0, m.output_dim).astype(np.float32)
        x_ref, acts_ref = oracle_forward(ref, x, math_mode)
        want = oracle_backward(x_ref, acts_ref, target, ref, lr)
        trace = forward_full(m, x, math_mode)
        acts = list(trace.acts)
        got = backward_lsgd(trace, target, m, lr)
        assert got == want
        for a, a_ref in zip(acts, acts_ref):
            assert_same_bits(a, a_ref)
        for layer, layer_ref in zip(m.layers, ref.layers):
            assert_same_bits(layer.weights, layer_ref.weights)
            assert_same_bits(layer.biases, layer_ref.biases)


@pytest.mark.parametrize("math_mode", ["fast", "reference"])
@pytest.mark.parametrize("seed", range(4))
def test_predict_full_batch_matches_the_oracle(seed, math_mode):
    rng = np.random.default_rng([seed, 1024])
    m = random_model(rng)
    X = rng.normal(0.0, 3.0, (1024, m.input_dim)).astype(np.float32)
    for _, want in oracle_layers(m, X, math_mode):
        pass
    got = predict_full(m, X, math_mode)
    assert_same_bits(got, want)
