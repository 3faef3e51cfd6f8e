"""The int8 dense kernel and the fully quantized forward pass.

The kernel starts each output neuron's int32 accumulator from the
pre-shifted bias code, accumulates the int8 dot product, and requantizes
with a rounding shift; single-output layers run the same path. A whole
forward pass alternates the kernel with LUT activations and stays in int8
end to end.
"""

import numpy as np

from qmlp import (
    QTensor,
    QuantParams,
    build_model,
    dequantize,
    forward_full,
    forward_int8,
    linear_int8,
    quantize,
    quantize_model,
)
from qmlp.nn import QDenseLayer
from qmlp.quant import build_lut

print("worked kernel example (all exponents -7):")
preact, out = QuantParams(-7), QuantParams(-7)
layer = QDenseLayer(
    weights_q=QTensor(np.array([[2, 3]], dtype=np.int8), QuantParams(-7)),
    biases_q=np.array([48], dtype=np.int32),
    in_params=QuantParams(-7),
    lut=build_lut("tanh", preact, out),
    activation="tanh",
)
x = QTensor(np.array([10, 20], dtype=np.int8), QuantParams(-7))
z = linear_int8(x, layer)
print(f"  acc = 48 + 2*10 + 3*20 = 128; shift {layer.requantize_shift_amount} "
      f"-> code {z.codes[0]} (= {dequantize(z)[0]})")

print("\nfull int8 forward vs quantized float forward (random model):")
rng = np.random.default_rng(0)
m = build_model("car_evaluation", 7)
X = rng.uniform(-1, 1, size=(200, 6)).astype(np.float32)
q = quantize_model(m, calibration=X)

in_params = q.layers[0].in_params
out_params = q.layers[-1].act_params
diffs = []
for xrow in X:
    trace = forward_int8(q, QTensor(quantize(xrow, in_params).codes, in_params))
    ref = quantize(forward_full(m, xrow, "reference").output, out_params).codes
    diffs.append(np.abs(ref.astype(int) - trace.output.codes.astype(int)).max())
diffs = np.array(diffs)
print(f"  final-code disagreement over {len(X)} inputs: "
      f"mean {diffs.mean():.2f}, max {diffs.max()} (codes of 1/128)")
print(f"  intermediate tensors all int8: "
      f"{[a.codes.dtype.name for a in trace.acts]}")
