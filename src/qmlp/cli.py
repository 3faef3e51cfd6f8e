"""Command-line entry point tying the pipeline together.

Subcommands: train, quantize, finetune, eval, report-memory, curves.
``train`` and ``eval`` take ``--activation-math``; ``quantize`` builds its
LUTs and calibrates with the reference activations, as the tables are built
once, off the device.

Exit codes: 0 success, 1 a warning that a warnings filter (such as
``python -W error``) raised as an error, 2 usage/configuration error, 3
data, file-format or I/O error (a file that cannot be read or written, or
is not UTF-8 text), 4 invariant violation. All errors go to stderr as one
line with the prefix ``error[<category>]:``.
"""

import argparse
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

from . import data as data_mod
from .errors import ConfigurationError, DataError, QmlpError
from .fastmath import MATH_MODES
from .metrics import evaluate, memory_report
from .model_io import load_model, save_model
from .nn import ARCHITECTURES, FULL, QUANTIZED, build_model, quantize_model
from .train import (
    DEFAULT_FINETUNE_LR,
    DEFAULT_FLOAT_LR,
    TrainConfig,
    finetune_quantized,
    read_curves_csv,
    train_full,
    write_curves_csv,
)

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _seed(text):
    """--seed: an integer >= 0, as numpy's generators require."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1  # reported as not an integer >= 0, below
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return seed


def _add_common(p, *, shuffle=True):
    p.add_argument(
        "--dataset",
        help="'car' (canonical CSV at $QMLP_CAR_CSV or data/car.csv), "
        "'synth-car' (deterministic surrogate with the canonical schema), "
        "'synth-cogdist' (seeded synthetic binary task), or a CSV path "
        "(loader chosen by --arch)",
    )
    p.add_argument("--arch", choices=sorted(ARCHITECTURES))
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--split", type=float, default=0.8, help="train fraction (default 0.8)")
    if shuffle:
        p.add_argument(
            "--shuffle", action="store_true",
            help="visit training samples in a fresh seeded order each epoch "
            "(default: stored order)",
        )


def _resolve_dataset(args):
    name = args.dataset
    if not name:
        raise ConfigurationError("--dataset is required for this command")
    if name == "synth-cogdist":
        return data_mod.synth_cogdist(args.seed)
    if name == "synth-car":
        with tempfile.TemporaryDirectory() as tmp:
            path = data_mod.generate_car_surrogate(Path(tmp) / "car_surrogate.csv")
            return data_mod.load_car_evaluation(path)
    if name == "car":
        path = Path(os.environ.get("QMLP_CAR_CSV", "data/car.csv"))
        if not path.exists():
            raise DataError(
                f"canonical car CSV not found at {path}; download the UCI "
                "car evaluation file there, set QMLP_CAR_CSV, or use "
                "--dataset synth-car"
            )
        return data_mod.load_car_evaluation(path)
    if args.arch == "car_evaluation":
        return data_mod.load_car_evaluation(name)
    if args.arch == "cogdist":
        return data_mod.load_csv_generic(name, 6)
    raise ConfigurationError(
        "loading a dataset from a path needs --arch to pick the loader"
    )


def _splits(args):
    ds = _resolve_dataset(args)
    return data_mod.split(ds, args.split, args.seed)


def _finish_run(m, records, args, default_out, what):
    """Save a trained model and its curves, then print the run summary."""
    out = Path(args.out or default_out)
    save_model(m, out)
    curves = Path(args.curves) if args.curves else out.with_suffix(out.suffix + ".curves.csv")
    write_curves_csv(records, curves)
    print(f"{what} written to {out}; curves written to {curves}")
    last = records[-1]
    print(
        f"epochs={len(records)} final train_acc={last.train_acc:.4f} "
        f"val_acc={last.val_acc:.4f} train_loss={last.train_loss:.6f}"
    )
    return 0


def cmd_train(args):
    if not args.arch:
        raise ConfigurationError("train requires --arch")
    splits = _splits(args)
    m = build_model(args.arch, args.seed)
    cfg = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.lr,
        shuffle=args.shuffle,
        seed=args.seed,
        activation_math=args.activation_math,
    )
    return _finish_run(m, train_full(m, splits, cfg), args, "model.bin", "model")


def cmd_quantize(args):
    m = load_model(args.model)
    if m.representation != FULL:
        raise ConfigurationError("quantize expects a full-precision model file")
    calibration = None
    if args.calibration:
        calibration = data_mod.read_numeric_csv(args.calibration, m.input_dim)
    q = quantize_model(m, calibration)
    out = Path(args.out) if args.out else Path(args.model).with_suffix(".int8.bin")
    save_model(q, out)
    print(f"quantized model written to {out}")
    return 0


def cmd_finetune(args):
    if args.random_init:
        if not args.arch:
            raise ConfigurationError("--random-init requires --arch")
        m = quantize_model(build_model(args.arch, args.seed))
    else:
        m = load_model(args.model)
        if m.representation != QUANTIZED:
            raise ConfigurationError("finetune expects a quantized model file")
    splits = _splits(args)
    cfg = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.lr,
        shuffle=args.shuffle,
        seed=args.seed,
        error_feedback=args.error_feedback,
    )
    return _finish_run(
        m, finetune_quantized(m, splits, cfg), args, "finetuned.bin", "fine-tuned model"
    )


def cmd_eval(args):
    m = load_model(args.model)
    if args.on == "all":
        ds = _resolve_dataset(args)
        if ds.norm_lo is None:
            raise ConfigurationError(
                "--on all needs a dataset with fixed normalization; use --on train/val"
            )
    else:
        train_ds, val_ds = _splits(args)
        ds = train_ds if args.on == "train" else val_ds
    met = evaluate(m, ds, math_mode=args.activation_math)
    if args.json:
        print(
            json.dumps(
                {
                    "precision": met.precision,
                    "recall": met.recall,
                    "f1": met.f1,
                    "accuracy": met.accuracy,
                    "confusion": met.confusion.tolist(),
                }
            )
        )
        return 0
    print(f"samples    {int(met.confusion.sum())}  ({met.averaging} averaging)")
    for name in ("precision", "recall", "f1", "accuracy"):
        print(f"{name:<10} {getattr(met, name):.6f}")
    print("confusion (rows true, cols predicted):")
    for row in met.confusion:
        print("  " + " ".join(f"{v:6d}" for v in row))
    return 0


def cmd_report_memory(args):
    # the byte counts depend only on the layer shapes, not the weights
    full = build_model(args.arch, 0) if args.arch else load_model(args.model)
    if full.representation != FULL:
        raise ConfigurationError("report-memory expects a full-precision model file or --arch")
    rep = memory_report(full, quantize_model(full))
    print(f"full-precision parameters: {rep.full_bytes} B")
    print(
        f"quantized parameters + LUTs: {rep.quantized_bytes} B "
        f"(ratio {rep.ratio:.2f}x)"
    )
    print(
        f"quantized parameters only: {rep.quantized_bytes_excl_lut} B "
        f"(ratio {rep.ratio_excl_lut:.2f}x)"
    )
    return 0


def _sparkline(values):
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    idx = [int(round((v - lo) / span * (len(_SPARK_BLOCKS) - 1))) for v in values]
    return "".join(_SPARK_BLOCKS[i] for i in idx)


def cmd_curves(args):
    records = read_curves_csv(args.curves_file)
    write_curves_csv(records, sys.stdout)
    if args.sparkline:
        accs = [r.val_acc for r in records]
        print(f"val_acc  {_sparkline(accs)}  [{min(accs):.4f}, {max(accs):.4f}]")
        trains = [r.train_acc for r in records]
        print(f"train_acc {_sparkline(trains)} [{min(trains):.4f}, {max(trains):.4f}]")
    return 0


def build_parser():
    parser = _Parser(
        prog="qmlp",
        description="Train tiny dense networks in float32, quantize them to "
        "int8 with LUT activations, and fine-tune with an int8 forward / "
        "float32 backward pass. Multi-class metrics use macro averaging "
        "(inferred convention; the reference results are consistent with it).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="full-precision training run")
    _add_common(p)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=DEFAULT_FLOAT_LR, help="default %(default)s")
    p.add_argument("--activation-math", choices=MATH_MODES, default="fast")
    p.add_argument("--out", help="model file path (default model.bin)")
    p.add_argument("--curves", help="curve CSV path (default <out>.curves.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("quantize", help="full model file -> quantized model file")
    p.add_argument("model")
    p.add_argument("--calibration", help="numeric CSV of normalized input rows")
    p.add_argument("--out")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("finetune", help="quantized training run (int8 forward, float backward)")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("model", nargs="?")
    source.add_argument("--random-init", action="store_true",
                        help="fine-tune a randomly initialized quantized model "
                        "(demonstrates the saturation warning)")
    _add_common(p)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--lr", type=float, default=DEFAULT_FINETUNE_LR, help="default %(default)s")
    p.add_argument("--error-feedback", action="store_true",
                   help="keep float residuals of updates lost to requantization")
    p.add_argument("--out", help="model file path (default finetuned.bin)")
    p.add_argument("--curves")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="metrics table for a model on a dataset split")
    p.add_argument("model")
    _add_common(p, shuffle=False)
    p.add_argument("--on", choices=("train", "val", "all"), default="val")
    p.add_argument("--activation-math", choices=MATH_MODES, default="reference")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report-memory", help="parameter-storage comparison")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("model", nargs="?", help="full-precision model file")
    source.add_argument("--arch", choices=sorted(ARCHITECTURES))
    p.set_defaults(func=cmd_report_memory)

    p = sub.add_parser("curves", help="print a curve CSV, optionally with a sparkline")
    p.add_argument("curves_file")
    p.add_argument("--sparkline", action="store_true")
    p.set_defaults(func=cmd_curves)

    return parser


def cli_main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error[usage]: {e}", file=sys.stderr)
        return 2
    except SystemExit as e:  # --help
        return int(e.code or 0)
    # Warnings print as one "warning: <message>" line; catch_warnings
    # restores the filters, but not formatwarning.
    fmt = warnings.formatwarning
    try:
        with warnings.catch_warnings():
            warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
            return args.func(args)
    except QmlpError as e:
        print(f"error[{e.category}]: {e}", file=sys.stderr)
        return e.exit_code
    except (OSError, UnicodeDecodeError) as e:
        # a file that cannot be opened, read or written, or is not UTF-8 text
        print(f"error[io]: {e}", file=sys.stderr)
        return 3
    except Warning as e:
        # a library warning that a filter such as python -W error raised
        print(f"error[warning]: {e}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = fmt


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
