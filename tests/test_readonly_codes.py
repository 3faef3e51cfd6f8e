"""QTensors the library makes are read-only and own their codes.

quantize, linear_int8, apply_lut and the hybrid trainer's requantize step
wrap freshly computed codes without the public constructor's validating
copy; these tests pin down that no caller buffer leaks into, or out of,
the tensors they return.
"""

import numpy as np
import pytest

from qmlp.nn import build_model, linear_int8, quantize_model
from qmlp.quant import QTensor, QuantParams, apply_lut, build_lut, quantize
from qmlp.train import _requantize_params


def assert_read_only(t):
    assert not t.codes.flags.writeable
    with pytest.raises(ValueError):
        t.codes[...] = 0


@pytest.fixture
def qlayer():
    return quantize_model(build_model("car_evaluation", 3)).layers[0]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_quantize(dtype):
    x = np.linspace(-1, 1, 12, dtype=dtype)
    t = quantize(x, QuantParams(-7))
    assert_read_only(t)
    assert not np.shares_memory(t.codes, x)
    before = t.codes.copy()
    x[:] = 0.5
    np.testing.assert_array_equal(t.codes, before)


def test_linear_int8(qlayer):
    x = QTensor(np.arange(-3, 3, dtype=np.int8), qlayer.in_params)
    z = linear_int8(x, qlayer)
    assert_read_only(z)
    assert not np.shares_memory(z.codes, x.codes)
    assert not np.shares_memory(z.codes, qlayer.weights_q.codes)


def test_apply_lut():
    lut = build_lut("tanh", QuantParams(-4), QuantParams(-7))
    z = QTensor(np.arange(-64, 64, dtype=np.int8), QuantParams(-4))
    a = apply_lut(z, lut)
    assert_read_only(a)
    assert not np.shares_memory(a.codes, z.codes)
    assert not np.shares_memory(a.codes, lut.table)


def test_requantize_params(qlayer):
    old = qlayer.weights_q
    # code units: the real weight is w * 2**e_w
    w = old.codes.astype(np.float32) + np.float32(0.25)
    b = np.zeros(qlayer.out_dim, dtype=np.float32)
    _requantize_params(w, b, qlayer, None, 0)
    new = qlayer.weights_q
    assert new is not old
    assert_read_only(new)
    assert not np.shares_memory(new.codes, old.codes)
    assert not np.shares_memory(new.codes, w)
    before = new.codes.copy()
    w[:] = 0
    np.testing.assert_array_equal(new.codes, before)
