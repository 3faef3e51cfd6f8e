"""Records that hold numpy arrays compare by identity.

A generated dataclass ``__eq__`` compares fields as tuples, so two distinct
records with equal arrays would reach ``bool(array == array)`` and raise
``ValueError`` for any array of more than one element. Those records are
declared ``eq=False``: equality is identity, and the frozen ones hash by
identity. Records of scalars only, such as ``QuantParams``, keep value
equality.
"""

import copy

import numpy as np
import pytest

from qmlp.data import Dataset
from qmlp.metrics import metrics_from_confusion
from qmlp.nn import build_model, forward_full, forward_int8, quantize_model
from qmlp.quant import QuantParams, build_lut, quantize
from qmlp.train import FeedbackState


def _records():
    m = build_model("car_evaluation", 0)
    q = quantize_model(m)
    x = np.linspace(-1.0, 1.0, m.input_dim, dtype=np.float32)
    x_q = quantize(x, q.layers[0].in_params)
    return {
        "DenseLayer": m.layers[0],
        "QDenseLayer": q.layers[0],
        "Model": q,
        "Trace-full": forward_full(m, x, "fast"),
        "Trace-int8": forward_int8(q, x_q),
        "QTensor": x_q,
        "ActivationLUT": build_lut("tanh", QuantParams(-4), QuantParams(-7)),
        "Dataset": Dataset(np.zeros((3, 2)), np.ones((3, 1)), ("no", "yes")),
        "FeedbackState": FeedbackState.for_model(q),
        "Metrics": metrics_from_confusion(np.array([[3, 1], [2, 4]])),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_is_identity(name):
    rec = RECORDS[name]
    twin = copy.deepcopy(rec)
    assert type(twin) is type(rec)
    assert rec == rec
    assert not rec != rec
    assert rec != twin
    assert not rec == twin
    # one hash per object, as for object(); none of these is hashed by value
    assert hash(rec) == hash(rec) and len({rec, twin}) == 2


def test_scalar_records_keep_value_equality():
    assert QuantParams(-7) == QuantParams(-7)
    assert QuantParams(-7) != QuantParams(-4)
    assert len({QuantParams(-7), QuantParams(-7)}) == 1
