"""Int8 quantized training for tiny fully-connected networks.

Float32 per-sample SGD with node-delta backpropagation, an int8 forward
pass built on a saturating fixed-point linear kernel and 256-entry
activation LUTs, and a hybrid fine-tuning loop that keeps the forward pass
quantized while computing losses, deltas, and parameter updates in float32
one layer at a time.
"""

from .data import (
    Dataset,
    generate_car_surrogate,
    load_car_evaluation,
    load_csv_generic,
    split,
    synth_cogdist,
)
from .errors import (
    ConfigurationError,
    DataError,
    FormatError,
    InvariantError,
    QmlpError,
)
from .fastmath import (
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
from .metrics import (
    MemoryReport,
    Metrics,
    evaluate,
    memory_report,
)
from .model_io import load_model, save_model
from .nn import (
    ARCHITECTURES,
    DenseLayer,
    Model,
    QDenseLayer,
    build_model,
    clone_model,
    forward_full,
    forward_int8,
    linear_int8,
    predict_full,
    predict_int8,
    predict_labels,
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
    EpochRecord,
    SaturationWarning,
    TrainConfig,
    backward_hybrid,
    backward_lsgd,
    finetune_quantized,
    mse_loss,
    read_curves_csv,
    train_full,
    write_curves_csv,
)

__version__ = "0.1.0"
