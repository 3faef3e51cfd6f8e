"""Command-line entry point tying the pipeline together.

Subcommands: train, quantize, finetune, eval, report-memory, curves.
Exit codes: 0 success, 2 usage/configuration error, 3 data or file-format
error, 4 invariant violation. All errors go to stderr as one line with the
prefix ``error[<category>]:``.
"""

import argparse
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from . import data as data_mod
from .errors import ConfigurationError, DataError, QmlpError
from .metrics import evaluate, memory_report
from .model_io import load_model, save_model
from .nn import ARCHITECTURES, FULL, QUANTIZED, build_model, quantize_model
from .train import (
    DEFAULT_FINETUNE_LR,
    DEFAULT_FLOAT_LR,
    SaturationWarning,
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


def _add_common(p, *, split=True):
    p.add_argument(
        "--dataset",
        help="'car' (canonical CSV at $QMLP_CAR_CSV or data/car.csv), "
        "'synth-car' (deterministic surrogate with the canonical schema), "
        "'synth-cogdist' (seeded synthetic binary task), or a CSV path "
        "(loader chosen by --arch)",
    )
    p.add_argument("--arch", choices=sorted(ARCHITECTURES))
    p.add_argument("--seed", type=int, default=0)
    if split:
        p.add_argument("--split", type=float, default=0.8, help="train fraction (default 0.8)")
    shuffle = p.add_mutually_exclusive_group()
    shuffle.add_argument(
        "--no-shuffle", dest="shuffle", action="store_false",
        help="visit training samples in stored order (default)",
    )
    shuffle.add_argument("--shuffle", dest="shuffle", action="store_true")
    p.set_defaults(shuffle=False)


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
    path = Path(name)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    if args.arch == "car_evaluation":
        return data_mod.load_car_evaluation(path)
    if args.arch == "cogdist":
        return data_mod.load_csv_generic(path, 6)
    raise ConfigurationError(
        "loading a dataset from a path needs --arch to pick the loader"
    )


def _splits(args):
    ds = _resolve_dataset(args)
    return data_mod.split(ds, args.split, args.seed)


def _print_records(records):
    last = records[-1]
    print(
        f"epochs={len(records)} final train_acc={last.train_acc:.4f} "
        f"val_acc={last.val_acc:.4f} train_loss={last.train_loss:.6f}"
    )


def cmd_train(args):
    if not args.arch:
        raise ConfigurationError("train requires --arch")
    splits = _splits(args)
    m = build_model(args.arch, args.seed)
    cfg = TrainConfig(
        epochs=args.epochs,
        learning_rate=DEFAULT_FLOAT_LR if args.lr is None else args.lr,
        shuffle=args.shuffle,
        seed=args.seed,
        activation_math=args.activation_math,
    )
    records = train_full(m, splits, cfg)
    out = Path(args.out or "model.bin")
    save_model(m, out)
    curves = Path(args.curves) if args.curves else out.with_suffix(out.suffix + ".curves.csv")
    write_curves_csv(records, curves)
    print(f"model written to {out}; curves written to {curves}")
    _print_records(records)
    return 0


def _read_feature_csv(path, n_features):
    rows = data_mod._read_rows(path, has_header=False)
    out = np.empty((len(rows), n_features), dtype=np.float64)
    for r, row in enumerate(rows):
        if len(row) != n_features:
            raise DataError(
                f"{path}: calibration row {r + 1} has {len(row)} columns, "
                f"expected {n_features}"
            )
        for c, cell in enumerate(row):
            try:
                out[r, c] = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: calibration row {r + 1}, column {c + 1}: "
                    f"cannot parse {cell.strip()!r}"
                ) from None
    return out


def cmd_quantize(args):
    m = load_model(args.model)
    if m.representation != FULL:
        raise ConfigurationError("quantize expects a full-precision model file")
    calibration = None
    if args.calibration:
        calibration = _read_feature_csv(args.calibration, m.input_dim)
    q = quantize_model(m, calibration, math_mode=args.activation_math)
    out = Path(args.out) if args.out else Path(args.model).with_suffix(".int8.bin")
    save_model(q, out)
    print(f"quantized model written to {out}")
    return 0


def cmd_finetune(args):
    warnings.simplefilter("always", SaturationWarning)
    if args.random_init:
        if not args.arch:
            raise ConfigurationError("--random-init requires --arch")
        m = quantize_model(build_model(args.arch, args.seed))
    else:
        if not args.model:
            raise ConfigurationError("finetune needs a quantized model file or --random-init")
        m = load_model(args.model)
        if m.representation != QUANTIZED:
            raise ConfigurationError("finetune expects a quantized model file")
    splits = _splits(args)
    cfg = TrainConfig(
        epochs=args.epochs,
        learning_rate=DEFAULT_FINETUNE_LR if args.lr is None else args.lr,
        shuffle=args.shuffle,
        seed=args.seed,
        error_feedback=args.error_feedback,
    )
    records = finetune_quantized(m, splits, cfg)
    out = Path(args.out or "finetuned.bin")
    save_model(m, out)
    curves = Path(args.curves) if args.curves else out.with_suffix(out.suffix + ".curves.csv")
    write_curves_csv(records, curves)
    print(f"fine-tuned model written to {out}; curves written to {curves}")
    _print_records(records)
    return 0


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
    if args.arch and not args.model:
        full = build_model(args.arch, args.seed)
        q = quantize_model(full)
    else:
        if not args.model:
            raise ConfigurationError("report-memory needs a model file or --arch")
        full = load_model(args.model)
        if args.quantized:
            q = load_model(args.quantized)
        elif full.representation == FULL:
            q = quantize_model(full)
        else:
            raise ConfigurationError("give the full model plus --quantized, or --arch")
    rep = memory_report(full, q)
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
    if args.out:
        write_curves_csv(records, args.out)
        print(f"curves re-emitted to {args.out}")
    else:
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
    p.add_argument("--lr", type=float, default=None, help=f"default {DEFAULT_FLOAT_LR}")
    p.add_argument("--activation-math", choices=("fast", "reference"), default="fast")
    p.add_argument("--out", help="model file path (default model.bin)")
    p.add_argument("--curves", help="curve CSV path (default <out>.curves.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("quantize", help="full model file -> quantized model file")
    p.add_argument("model")
    p.add_argument("--calibration", help="numeric CSV of normalized input rows")
    p.add_argument(
        "--activation-math", choices=("fast", "reference"), default="reference",
        help="math used for calibration and LUT construction",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("finetune", help="quantized training run (int8 forward, float backward)")
    p.add_argument("model", nargs="?")
    _add_common(p)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--lr", type=float, default=None, help=f"default {DEFAULT_FINETUNE_LR}")
    p.add_argument("--error-feedback", action="store_true",
                   help="keep float residuals of updates lost to requantization")
    p.add_argument("--random-init", action="store_true",
                   help="fine-tune a randomly initialized quantized model "
                   "(demonstrates the saturation warning)")
    p.add_argument("--out", help="model file path (default finetuned.bin)")
    p.add_argument("--curves")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="metrics table for a model on a dataset split")
    p.add_argument("model")
    _add_common(p)
    p.add_argument("--on", choices=("train", "val", "all"), default="val")
    p.add_argument("--activation-math", choices=("fast", "reference"), default="reference")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report-memory", help="parameter-storage comparison")
    p.add_argument("model", nargs="?")
    p.add_argument("--quantized", help="quantized model file")
    p.add_argument("--arch", choices=sorted(ARCHITECTURES))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_report_memory)

    p = sub.add_parser("curves", help="re-emit a curve CSV, optionally with a sparkline")
    p.add_argument("curves_file")
    p.add_argument("--out")
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
    try:
        return args.func(args)
    except QmlpError as e:
        print(f"error[{e.category}]: {e}", file=sys.stderr)
        return e.exit_code


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
