"""The integer rule, owned by ``errors._integer``: every integer argument is a
Python or numpy integer, not a bool, in its range, and any other value is
refused where it arrives instead of being truncated, parsed or failing later."""

import numpy as np
import pytest

from qmlp.errors import ConfigurationError, InvariantError, _integer
from qmlp.fastmath import fast_power_of_two
from qmlp.nn import build_model
from qmlp.quant import QuantParams, quantize, requantize_shift

# each site that takes an integer argument, and the error its refusal raises
SITES = {
    "quant-params": (QuantParams, ConfigurationError),
    "requantize-shift": (lambda v: requantize_shift(100, v), InvariantError),
    "fast-power-of-two": (fast_power_of_two, ValueError),
    "input-width": (lambda v: build_model((v, [(2, "tanh")]), 0), ConfigurationError),
    "layer-width": (lambda v: build_model((6, [(v, "tanh")]), 0), ConfigurationError),
}


# int() would truncate a float, take a bool as 0 or 1, parse a string and
# fail on None with a bare TypeError
@pytest.mark.parametrize("value", [1.5, 2.0, True, "3", None])
@pytest.mark.parametrize("site", SITES)
def test_non_integer_refused(site, value):
    call, error = SITES[site]
    with pytest.raises(error, match="must be an integer"):
        call(value)


def test_range_is_inclusive_and_numpy_integers_become_ints():
    for value in (np.int8(-3), np.uint8(3), -3, 3):
        out = _integer(value, -3, 3, "x", ValueError)
        assert type(out) is int and out == value
    assert _integer(2**70, 0, None, "x", ValueError) == 2**70
    for value in (-4, 4, np.int64(4)):
        with pytest.raises(ValueError, match=r"^x must be an integer in \[-3, 3\], got "):
            _integer(value, -3, 3, "x", ValueError)
    with pytest.raises(ConfigurationError, match=r"^y must be an integer >= 1, got 0$"):
        _integer(0, 1, None, "y", ConfigurationError)


def test_quant_params_store_an_int():
    # the exponent keys the power-of-two tables: a float exponent would pass
    # a range check and then fail in quantize with a bare KeyError
    params = QuantParams(np.int8(-7))
    assert type(params.exponent) is int and params == QuantParams(-7)
    np.testing.assert_array_equal(quantize([0.5], params).codes, [64])
