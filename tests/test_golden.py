"""Golden outputs: a short seed-7 pipeline per architecture must reproduce,
byte for byte, the model files and curves CSVs recorded before the int8 step
path was reworked for speed.

Each pipeline runs float training, post-training quantization and hybrid
fine-tuning, and saves both models and both curves. car_evaluation uses the
default (uncalibrated) quantization without error feedback; cogdist is
calibrated on its training rows and fine-tuned with error feedback.

To re-baseline on purpose (and say so in CHANGES.md), run
``PYTHONPATH=src python tests/test_golden.py`` and paste its output over
GOLDEN.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from qmlp.data import generate_car_surrogate, load_car_evaluation, split, synth_cogdist
from qmlp.model_io import save_model
from qmlp.nn import build_model, quantize_model
from qmlp.train import (
    DEFAULT_FINETUNE_LR,
    DEFAULT_FLOAT_LR,
    TrainConfig,
    finetune_quantized,
    train_full,
    write_curves_csv,
)

SEED = 7

# arch -> (float epochs, fine-tune epochs, calibrate, error feedback)
PIPELINES = {
    "car_evaluation": (4, 3, False, False),
    "cogdist": (2, 2, True, True),
}

GOLDEN = {
    "car_evaluation": {
        "float.bin": "c50c6c8dbf5930ad9ee9622e1a2c87f98de246a9c42de96fa6165d9a6881cd35",
        "float.csv": "59c8b40777e0dcda7dc8478ff58517c78be14b3057a3bb199561e5b9e9e8a4e8",
        "int8.bin": "79ae4ba814f43b422ee517a35a49522eb85a6229e849fe19ee1561a48101e8a8",
        "int8.csv": "675c3dbf509e1aeef4552f1f146118b4dfa8c12ac13b12348f2b69ff8f086d7e",
    },
    "cogdist": {
        "float.bin": "66e94a911288761337cdd0e52d65ab811960796d94c3283de8dbd4681211f3c5",
        "float.csv": "947355d7bd5bf3d913961e280cc61c199bf346e0f43cd8738176b90ac787c7c0",
        "int8.bin": "fa8594091af6b2592e321891191f0af2979ddd0afa0312a43797dbc952c00453",
        "int8.csv": "e9328e1f4978c99bc71790e994dddd8612d098d95dd73606c45a1cc810254086",
    },
}


def _dataset(arch, workdir):
    if arch == "car_evaluation":
        return load_car_evaluation(generate_car_surrogate(Path(workdir) / "car.csv"))
    return synth_cogdist(SEED)


def run_pipeline(arch, workdir):
    """Run one pipeline into ``workdir``; return {file name: SHA-256 hex}."""
    float_epochs, ft_epochs, calibrate, error_feedback = PIPELINES[arch]
    out = Path(workdir)
    splits = split(_dataset(arch, out), 0.8, SEED)
    m = build_model(arch, SEED)
    records = train_full(
        m, splits, TrainConfig(epochs=float_epochs, learning_rate=DEFAULT_FLOAT_LR, seed=SEED)
    )
    save_model(m, out / "float.bin")
    write_curves_csv(records, out / "float.csv")
    q = quantize_model(m, splits[0].features if calibrate else None)
    records = finetune_quantized(
        q, splits,
        TrainConfig(
            epochs=ft_epochs, learning_rate=DEFAULT_FINETUNE_LR, seed=SEED,
            error_feedback=error_feedback,
        ),
    )
    save_model(q, out / "int8.bin")
    write_curves_csv(records, out / "int8.csv")
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in GOLDEN[arch]
    }


@pytest.mark.parametrize("arch", sorted(PIPELINES))
def test_pipeline_outputs_are_byte_identical(arch, tmp_path):
    assert run_pipeline(arch, tmp_path) == GOLDEN[arch]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        for arch in sorted(PIPELINES):
            sub = Path(d) / arch
            sub.mkdir()
            sys.stdout.write(f"    {arch!r}: {{\n")
            for name, digest in run_pipeline(arch, sub).items():
                sys.stdout.write(f"        {name!r}: {digest!r},\n")
            sys.stdout.write("    },\n")
