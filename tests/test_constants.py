"""Module constants are read-only, and the per-sample path keeps its dtypes.

The per-sample and batched paths multiply, clamp and round by module-level
0-d arrays (``fastmath._const``). A constant that ``out=`` wrote into by
mistake would silently change every later call, so none may be writeable.
A constant of the wrong dtype would promote its float32 operand to float64
(NEP 50), so the dtype-keyed tables hold their key's dtype, and the results
keep theirs on a 1-entry array, a step-sized array and a batch.
"""

import numpy as np
import pytest

from qmlp import fastmath, nn, quant, train
from qmlp.nn import _int8_kernel, build_model, predict_int8, quantize_model
from qmlp.quant import (
    QTensor,
    QuantParams,
    _requantize_lut,
    dequantize,
    quantize,
    requantize_shift,
)

MODULES = (fastmath, quant, nn, train)
SHAPES = [(1,), (32,), (1024, 32)]


def arrays_in(value, path):
    """(path, array) for every ndarray in value, inside dicts and tuples too."""
    if isinstance(value, np.ndarray):
        yield path, value
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from arrays_in(v, f"{path}[{k!r}]")
    elif isinstance(value, tuple):
        for i, v in enumerate(value):
            yield from arrays_in(v, f"{path}[{i}]")


def test_no_module_array_is_writeable():
    found = [
        (path, a)
        for module in MODULES
        for name, value in vars(module).items()
        for path, a in arrays_in(value, f"{module.__name__}.{name}")
    ]
    assert len(found) > 250  # the power-of-two tables alone hold 258
    assert [path for path, a in found if a.flags.writeable] == []


def test_dtype_keyed_tables_hold_their_dtype():
    for table in (fastmath._BELOW_HALF, quant._POW2, quant._CODE_BOUNDS):
        for dtype, value in table.items():
            assert {a.dtype for _, a in arrays_in(value, "")} == {dtype}
    # the bound _fast_exp_neg clamps a float32 |x| to
    assert {a.dtype for a in fastmath._EXP_NEG_AX_MAX.values()} == {np.dtype(np.float32)}


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_activations_and_derivatives_stay_float32(shape):
    x = np.random.default_rng(0).normal(0.0, 4.0, shape).astype(np.float32)
    for fn in (*fastmath._ACTIVATIONS.values(), *fastmath._DERIVATIVES.values()):
        y = fn(x)
        assert y.dtype == np.float32 and y.shape == shape, fn.__name__


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_codes_stay_int8_and_values_float32(shape):
    rng = np.random.default_rng(1)
    params = QuantParams(-7)
    codes = quantize(rng.uniform(-1.5, 1.5, shape), params).codes
    assert codes.dtype == np.int8 and codes.shape == shape
    values = dequantize(QTensor(codes, params))
    assert values.dtype == np.float32 and values.shape == shape
    acc = rng.integers(-(2**20), 2**20, shape).astype(np.float64)
    assert requantize_shift(acc, -9).dtype == np.int8

    m = quantize_model(build_model((shape[-1], [(4, "tanh")]), 0))
    layer = m.layers[0]
    acc = _int8_kernel(codes, layer)
    assert acc.dtype == np.float64 and acc.shape == (*shape[:-1], 4)
    out = _requantize_lut(acc.copy(), layer.requantize_shift_amount, layer.lut.fused)
    assert out.dtype == np.float64
    out = _requantize_lut(acc, layer.requantize_shift_amount, layer.lut.fused_values)
    assert out.dtype == np.float32
    X = rng.uniform(-1.0, 1.0, (int(np.prod(shape[:-1])), shape[-1]))
    assert predict_int8(m, X).dtype == np.float32
