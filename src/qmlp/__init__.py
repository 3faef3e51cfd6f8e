"""Int8 quantized training for tiny fully-connected networks.

Float32 per-sample SGD with node-delta backpropagation, an int8 forward
pass built on a saturating fixed-point linear kernel and 256-entry
activation LUTs, and a hybrid fine-tuning loop that keeps the forward pass
quantized while computing losses, deltas, and parameter updates in float32
one layer at a time.

The package re-exports the names the README and the demos use; everything
else is public in its own module (``qmlp.nn``, ``qmlp.train``, ...).
"""

from .data import generate_car_surrogate, load_car_evaluation, split
from .errors import FormatError, InvariantError
from .fastmath import (
    fast_exp,
    fast_power_of_two,
    fast_round,
    sigmoid_f,
    sigmoid_ref,
    tanh_f,
    tanh_ref,
)
from .metrics import evaluate, memory_report
from .model_io import save_model
from .nn import (
    build_model,
    clone_model,
    forward_full,
    forward_int8,
    linear_int8,
    predict_full,
    predict_int8,
    quantize_model,
)
from .quant import (
    ActivationLUT,
    QTensor,
    QuantParams,
    apply_lut,
    build_lut,
    choose_exponent,
    dequantize,
    quantize,
    requantize_shift,
)
from .train import (
    TrainConfig,
    backward_hybrid,
    finetune_quantized,
    train_full,
    write_curves_csv,
)

__version__ = "0.1.0"
