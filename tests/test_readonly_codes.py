"""QTensors the library makes are read-only and own their codes.

quantize, linear_int8, apply_lut and the hybrid trainer's requantize step
wrap freshly computed codes without the public constructor's validating
copy; these tests pin down that no caller buffer leaks into, or out of,
the tensors they return. The float64 copy of a QTensor's codes that the
int8 kernel reads is read-only too, never outlives the codes it copies,
and is the only float form of them a QTensor keeps.
"""

import numpy as np
import pytest

from qmlp import train as train_mod
from qmlp.data import split, synth_cogdist
from qmlp.nn import (
    Trace,
    build_model,
    clone_model,
    linear_int8,
    predict_int8,
    quantize_model,
)
from qmlp.quant import (
    QTensor,
    QuantParams,
    _float_codes,
    apply_lut,
    build_lut,
    dequantize,
    quantize,
)
from qmlp.train import (
    FeedbackState,
    TrainConfig,
    _requantize_params,
    backward_hybrid,
    finetune_quantized,
    train_full,
)
from test_properties import oracle_backward_hybrid, reference_kernel


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


def test_float_copy_is_read_only_and_kept(qlayer):
    t = qlayer.weights_q
    copy = _float_codes(t)
    assert copy.dtype == np.float64
    assert copy.tobytes() == t.codes.astype(np.float64).tobytes()
    assert not copy.flags.writeable
    with pytest.raises(ValueError):
        copy[...] = 0
    assert _float_codes(t) is copy


@pytest.mark.parametrize("arch, error_feedback", [("car_evaluation", False), ("cogdist", True)])
def test_finetuning_keeps_no_float32_weight_copy(request, monkeypatch, arch, error_feedback):
    # the backward casts the weight codes where it reads them, so after no
    # step of an epoch does a QTensor keep a float32 form: neither one whose
    # update was absorbed (car, without error feedback) nor a written one
    if arch == "cogdist":
        splits = split(synth_cogdist(0), 0.8, seed=0)
    else:
        splits = request.getfixturevalue("car_splits")
    m = build_model(arch, 1)
    train_full(m, splits, TrainConfig(epochs=2))
    q = quantize_model(m)
    kept = []

    def step(*args, **kwargs):
        stats = backward_hybrid(*args, **kwargs)
        kept.extend(
            i for i, l in enumerate(q.layers) for v in vars(l.weights_q).values()
            if isinstance(v, np.ndarray) and v.dtype == np.float32
        )
        return stats

    monkeypatch.setattr(train_mod, "backward_hybrid", step)
    cfg = TrainConfig(epochs=1, learning_rate=0.05, error_feedback=error_feedback)
    finetune_quantized(q, splits, cfg)
    assert not kept


def reference_trace(m, x_q):
    """forward_int8's trace by python-int arithmetic on the codes as they
    are now, with no float copy read."""
    acts, codes = [], x_q.codes.tolist()
    for l in m.layers:
        codes = [int(l.lut.table[c + 128]) for c in reference_kernel(codes, l)]
        acts.append(QTensor(codes, l.act_params))
    return Trace(x_q, acts)


def write_with_requantize_params(layer, i, codes):
    _requantize_params(codes.astype(np.float32), layer.biases_q.astype(np.float32), layer, None, i)


def write_by_assignment(layer, i, codes):
    layer.weights_q = QTensor(codes, layer.weights_q.params)


@pytest.mark.parametrize("write", [write_with_requantize_params, write_by_assignment])
def test_readers_see_codes_written_after_their_copies(write):
    q = quantize_model(build_model("car_evaluation", 3))
    X = np.random.default_rng(4).uniform(-1.5, 1.5, (5, 6)).astype(np.float32)
    in_params = q.layers[0].in_params
    target = np.array([1, 0, 0, 0], dtype=np.float32)
    # every reader reads the old codes first: at rate 0, error feedback
    # takes the full path, which reads every layer's codes, and the kernels
    # then keep their float64 copies
    old = reference_trace(q, quantize(X[0], in_params))
    backward_hybrid(old, target, q, 0.0, FeedbackState.for_model(q))
    predict_int8(q, X)
    predict_int8(q, X[:1])
    for x, l in zip([old.x, *old.acts], q.layers):
        linear_int8(x, l)
    for i, l in enumerate(q.layers):
        new = np.clip(-l.weights_q.codes.astype(int) - 1, -128, 127)
        write(l, i, new)
        assert np.array_equal(l.weights_q.codes, new)

    traces = [reference_trace(q, quantize(x, in_params)) for x in X]
    want = np.array([dequantize(t.output) for t in traces])
    assert predict_int8(q, X).tobytes() == want.tobytes()
    assert predict_int8(q, X[:1]).tobytes() == want[:1].tobytes()
    trace = traces[0]
    for x, l in zip([trace.x, *trace.acts], q.layers):
        assert linear_int8(x, l).codes.tolist() == reference_kernel(x.codes.tolist(), l)

    oracle = clone_model(q)
    backward_hybrid(trace, target, q, lr=1.0)
    oracle_backward_hybrid(trace, target, oracle, lr=1.0)
    for l, r in zip(q.layers, oracle.layers):
        assert l.weights_q.codes.tolist() == r.weights_q.codes.tolist()
        assert l.biases_q.tolist() == r.biases_q.tolist()

