import json
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qmlp.cli import build_parser, cli_main
from qmlp.data import generate_car_surrogate
from qmlp.model_io import save_model
from qmlp.nn import build_model, quantize_model


@pytest.fixture(scope="module")
def car_file(tmp_path_factory):
    return str(generate_car_surrogate(tmp_path_factory.mktemp("cli") / "car.csv"))


def run(args, capsys):
    code = cli_main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def trained(tmp_path_factory, car_file):
    """One small CLI training run shared by the downstream command tests."""
    out_dir = tmp_path_factory.mktemp("models")
    model = out_dir / "model.bin"
    curves = out_dir / "curves.csv"
    code = cli_main([
        "train", "--arch", "car_evaluation", "--dataset", car_file,
        "--epochs", "8", "--seed", "7", "--out", str(model), "--curves", str(curves),
    ])
    assert code == 0
    return model, curves


class TestTrain:
    def test_outputs_exist(self, trained):
        model, curves = trained
        assert model.exists() and curves.exists()
        lines = curves.read_text().splitlines()
        assert lines[0] == "epoch,train_acc,val_acc,train_loss"
        assert len(lines) == 1 + 8

    def test_deterministic_artifacts(self, tmp_path, car_file, capsys):
        outs = []
        for name in ("a", "b"):
            model = tmp_path / f"{name}.bin"
            curves = tmp_path / f"{name}.csv"
            code, _, _ = run([
                "train", "--arch", "car_evaluation", "--dataset", car_file,
                "--epochs", "2", "--seed", "3", "--out", str(model),
                "--curves", str(curves),
            ], capsys)
            assert code == 0
            outs.append((model.read_bytes(), curves.read_bytes()))
        assert outs[0] == outs[1]

    def test_requires_arch(self, car_file, capsys):
        code, _, err = run(["train", "--dataset", car_file], capsys)
        assert code == 2
        assert err.startswith("error[config]:")


class TestQuantizeFinetuneEval:
    def test_quantize_then_finetune(self, trained, tmp_path, car_file, capsys):
        model, _ = trained
        qfile = tmp_path / "q.bin"
        code, _, _ = run(["quantize", str(model), "--out", str(qfile)], capsys)
        assert code == 0 and qfile.exists()

        tuned = tmp_path / "tuned.bin"
        code, out, err = run([
            "finetune", str(qfile), "--arch", "car_evaluation", "--dataset",
            car_file, "--epochs", "3", "--seed", "7", "--out", str(tuned),
        ], capsys)
        assert code == 0 and tuned.exists()
        assert "SaturationWarning" not in err

    def test_finetune_random_init_warns(self, car_file, tmp_path, capsys):
        tuned = tmp_path / "r.bin"
        filters, fmt = list(warnings.filters), warnings.formatwarning
        with pytest.warns(Warning):
            code = cli_main([
                "finetune", "--random-init", "--arch", "car_evaluation",
                "--dataset", car_file, "--epochs", "1", "--out", str(tuned),
            ])
        capsys.readouterr()
        assert code == 0
        # the command leaves no warning filter or format behind
        assert warnings.filters == filters
        assert warnings.formatwarning is fmt

    def test_warning_is_one_stderr_line(self, car_file, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "qmlp.cli", "finetune", "--random-init", "--arch",
             "car_evaluation", "--dataset", car_file, "--epochs", "1",
             "--out", str(tmp_path / "r.bin")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr.startswith("warning: fine-tuning a quantized model from random")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("case", ["saturation", "car-row-count"])
    def test_warning_as_error_is_one_error_line(self, case, car_file, tmp_path):
        # python -W error raises a library warning as an exception
        if case == "saturation":
            args = ["finetune", "--random-init", "--dataset", car_file]
            message = "fine-tuning a quantized model from random initialization"
        else:
            short = tmp_path / "short.csv"
            lines = Path(car_file).read_text(encoding="utf-8").splitlines(keepends=True)
            short.write_text("".join(lines[:100]), encoding="utf-8")
            args = ["train", "--dataset", str(short)]
            message = f"{short}: 100 rows; the canonical car-acceptability file has 1728"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "qmlp.cli", *args,
             "--arch", "car_evaluation", "--epochs", "1", "--out", str(tmp_path / "m.bin")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(f"error[warning]: {message}")
        assert not (tmp_path / "m.bin").exists()

    def test_eval_table_and_json(self, trained, car_file, capsys):
        model, _ = trained
        code, out, _ = run([
            "eval", str(model), "--arch", "car_evaluation", "--dataset",
            car_file, "--seed", "7",
        ], capsys)
        assert code == 0
        assert "precision" in out and "accuracy" in out and "macro" in out

        code, out, _ = run([
            "eval", str(model), "--arch", "car_evaluation", "--dataset",
            car_file, "--seed", "7", "--json",
        ], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"precision", "recall", "f1", "accuracy", "confusion"}
        assert len(payload["confusion"]) == 4

    def test_eval_calibrated_quantized(self, trained, tmp_path, car_file, capsys):
        model, _ = trained
        # calibration CSV: normalized feature rows
        rng = np.random.default_rng(0)
        cal = tmp_path / "cal.csv"
        cal.write_text("\n".join(
            ",".join(f"{v:.4f}" for v in row) for row in rng.uniform(-1, 1, (32, 6))
        ) + "\n")
        qfile = tmp_path / "qc.bin"
        code, _, _ = run(["quantize", str(model), "--calibration", str(cal),
                          "--out", str(qfile)], capsys)
        assert code == 0
        code, out, _ = run(["eval", str(qfile), "--arch", "car_evaluation",
                            "--dataset", car_file, "--seed", "7", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["accuracy"] >= 0.0


class TestReportMemoryBenchCurves:
    def test_report_memory_arch(self, capsys):
        code, out, _ = run(["report-memory", "--arch", "cogdist"], capsys)
        assert code == 0
        assert "6500 B" in out
        assert "3.52x" in out and "2.49x" in out

    def test_report_memory_files(self, trained, capsys):
        model, _ = trained
        code, out, _ = run(["report-memory", str(model)], capsys)
        assert code == 0
        assert "3.36x" in out

    def test_curves_reemit_and_sparkline(self, trained, capsys):
        _, curves = trained
        code, out, _ = run(["curves", str(curves), "--sparkline"], capsys)
        assert code == 0
        # the CSV part of stdout is byte-identical to the file qmlp wrote
        csv_bytes = curves.read_bytes()
        assert out.encode("utf-8")[: len(csv_bytes)] == csv_bytes
        sparklines = out[len(csv_bytes.decode("utf-8")):].splitlines()
        assert [line.split()[0] for line in sparklines] == ["val_acc", "train_acc"]

    def test_curves_stdout(self, trained, capsys):
        _, curves = trained
        code, out, _ = run(["curves", str(curves)], capsys)
        assert code == 0
        assert out.startswith("epoch,train_acc,val_acc,train_loss")


class TestErrorPaths:
    def test_usage_error(self, capsys):
        code, _, err = run(["train", "--no-such-flag"], capsys)
        assert code == 2
        assert err.startswith("error[usage]:")

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(["explode"], capsys)
        assert code == 2
        assert err.startswith("error[usage]:")

    def test_finetune_has_no_activation_math(self, capsys):
        # the fine-tuner evaluates no activation: LUT forward, output-form backward
        code, _, err = run(
            ["finetune", "--random-init", "--arch", "cogdist", "--activation-math", "fast"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error[usage]:")

    def test_missing_dataset_file(self, capsys):
        code, _, err = run([
            "train", "--arch", "cogdist", "--dataset", "/nope/missing.csv",
            "--epochs", "1",
        ], capsys)
        assert code == 3
        assert err.startswith("error[io]:")

    def test_format_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOPE" + b"\x00" * 16)
        code, _, err = run(["eval", str(bad), "--dataset", "synth-cogdist"], capsys)
        assert code == 3
        assert err.startswith("error[format]:")

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("low,low,2,2,small,low,unacc\nlow,???,2,2,small,low,acc\n")
        code, _, err = run([
            "train", "--arch", "car_evaluation", "--dataset", str(bad),
            "--epochs", "1",
        ], capsys)
        assert code == 3
        assert err.startswith("error[data]:")


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """Placeholder -> path for the bad-input table below."""
    d = tmp_path_factory.mktemp("bad_inputs")
    paths = {
        "missing": d / "missing.bin",
        "dir": d / "a_directory",
        "latin1": d / "latin1.csv",
        "header_only": d / "header_only.csv",
        "nan_curves": d / "nan_curves.csv",
        "curves": d / "curves.csv",
        "cal3": d / "cal3.csv",
        "calnan": d / "calnan.csv",
        "model": d / "model.bin",
        "qmodel": d / "q.bin",
        "out": d / "out.bin",
        "nodir_out": d / "no" / "such" / "dir" / "out.bin",
    }
    paths["dir"].mkdir()
    paths["latin1"].write_bytes("1,2,3,4,5,6,caf\xe9\n".encode("latin-1"))
    paths["header_only"].write_text("epoch,train_acc,val_acc,train_loss\n")
    paths["nan_curves"].write_text(
        "epoch,train_acc,val_acc,train_loss\n0,0.5,0.5,0.1\n1,0.6,nan,0.1\n"
    )
    paths["curves"].write_text("epoch,train_acc,val_acc,train_loss\n0,0.5,0.5,0.1\n")
    paths["cal3"].write_text("0.1,0.2,0.3\n")
    paths["calnan"].write_text("0.1,0.2,0.3,0.4,0.5,0.6\n0.1,0.2,0.3,0.4,0.5,nan\n")
    save_model(build_model("car_evaluation", 7), paths["model"])
    save_model(quantize_model(build_model("car_evaluation", 7)), paths["qmodel"])
    return paths


# subcommand x bad input -> exit code, category, and a part of the message
BAD_INPUTS = [
    pytest.param(["eval", "{missing}", "--dataset", "synth-cogdist"], 3, "io", "{missing}",
                 id="eval-missing-model"),
    pytest.param(["quantize", "{missing}"], 3, "io", "{missing}", id="quantize-missing-model"),
    pytest.param(["finetune", "{missing}", "--arch", "car_evaluation", "--dataset", "{car}",
                  "--out", "{out}"], 3, "io", "{missing}", id="finetune-missing-model"),
    pytest.param(["report-memory", "{missing}"], 3, "io", "{missing}",
                 id="report-memory-missing-model"),
    pytest.param(["curves", "{missing}"], 3, "io", "{missing}", id="curves-missing-file"),
    pytest.param(["train", "--arch", "cogdist", "--dataset", "{dir}", "--out", "{out}"],
                 3, "io", "{dir}", id="train-dataset-is-a-directory"),
    pytest.param(["train", "--arch", "cogdist", "--dataset", "{latin1}", "--out", "{out}"],
                 3, "io", "'utf-8' codec can't decode", id="train-dataset-not-utf8"),
    pytest.param(["train", "--arch", "car_evaluation", "--dataset", "{car}", "--epochs", "1",
                  "--out", "{nodir_out}"], 3, "io", "{nodir_out}",
                 id="train-out-in-missing-directory"),
    pytest.param(["curves", "{header_only}", "--sparkline"], 3, "format",
                 "{header_only}: no epoch rows", id="curves-header-only"),
    pytest.param(["curves", "{nan_curves}", "--sparkline"], 3, "format",
                 "{nan_curves}: row 3 has a non-finite value", id="curves-nan-cell"),
    pytest.param(["quantize", "{model}", "--calibration", "{cal3}", "--out", "{out}"], 3,
                 "format", "{cal3}: row 1 has 3 columns, expected 6",
                 id="quantize-calibration-column-count"),
    pytest.param(["quantize", "{model}", "--calibration", "{calnan}", "--out", "{out}"], 3,
                 "data", "{calnan}: row 2, column 6: 'nan' is not a finite number",
                 id="quantize-calibration-nan-cell"),
    pytest.param(["train", "--arch", "car_evaluation", "--dataset", "{car}", "--lr", "nan",
                  "--out", "{out}"], 2, "config", "learning_rate must be finite",
                 id="train-lr-nan"),
    pytest.param(["finetune", "{qmodel}", "--arch", "car_evaluation", "--dataset", "{car}",
                  "--lr", "inf", "--out", "{out}"], 2, "config",
                 "learning_rate must be finite", id="finetune-lr-inf"),
    pytest.param(["train", "--arch", "car_evaluation", "--dataset", "{car}", "--seed", "-1",
                  "--out", "{out}"], 2, "usage", "seed must be an integer >= 0",
                 id="train-negative-seed"),
    pytest.param(["eval", "{model}", "--arch", "car_evaluation", "--dataset", "{car}",
                  "--seed", "-1"], 2, "usage", "seed must be an integer >= 0",
                 id="eval-negative-seed"),
    # deleted options, and inputs that exclude one another
    pytest.param(["quantize", "{model}", "--activation-math", "fast", "--out", "{out}"], 2,
                 "usage", "unrecognized arguments: --activation-math fast",
                 id="quantize-activation-math"),
    pytest.param(["report-memory", "{model}", "--quantized", "{qmodel}"], 2, "usage",
                 "unrecognized arguments: --quantized", id="report-memory-quantized"),
    pytest.param(["curves", "{curves}", "--out", "{out}"], 2, "usage",
                 "unrecognized arguments: --out", id="curves-out"),
    pytest.param(["train", "--arch", "car_evaluation", "--dataset", "{car}", "--no-shuffle",
                  "--out", "{out}"], 2, "usage", "unrecognized arguments: --no-shuffle",
                 id="train-no-shuffle"),
    pytest.param(["report-memory", "{model}", "--arch", "car_evaluation"], 2, "usage",
                 "argument --arch: not allowed with argument model",
                 id="report-memory-model-and-arch"),
    pytest.param(["finetune", "{qmodel}", "--random-init", "--arch", "car_evaluation",
                  "--dataset", "{car}", "--out", "{out}"], 2, "usage",
                 "argument --random-init: not allowed with argument model",
                 id="finetune-model-and-random-init"),
    # a model file or an option that does not fit the command
    pytest.param(["quantize", "{qmodel}", "--out", "{out}"], 2, "config",
                 "quantize expects a full-precision model file", id="quantize-quantized-model"),
    pytest.param(["finetune", "{model}", "--arch", "car_evaluation", "--dataset", "{car}",
                  "--out", "{out}"], 2, "config", "finetune expects a quantized model file",
                 id="finetune-full-model"),
    pytest.param(["finetune", "--random-init", "--dataset", "{car}", "--out", "{out}"], 2,
                 "config", "--random-init requires --arch", id="finetune-random-init-no-arch"),
    pytest.param(["report-memory", "{qmodel}"], 2, "config",
                 "report-memory expects a full-precision model file or --arch",
                 id="report-memory-quantized-model"),
    pytest.param(["eval", "{model}", "--on", "all", "--dataset", "synth-cogdist"], 2, "config",
                 "--on all needs a dataset with fixed normalization", id="eval-on-all-cogdist"),
    pytest.param(["eval", "{model}", "--dataset", "{car}"], 2, "config",
                 "loading a dataset from a path needs --arch", id="eval-dataset-path-no-arch"),
    pytest.param(["train", "--arch", "car_evaluation", "--out", "{out}"], 2, "config",
                 "--dataset is required for this command", id="train-no-dataset"),
]


@pytest.mark.parametrize("command, code, category, needle", BAD_INPUTS)
def test_bad_input_ends_in_one_error_line(
    command, code, category, needle, bad_inputs, car_file, capsys
):
    names = {k: str(v) for k, v in bad_inputs.items()}
    names["car"] = car_file
    got, out, err = run([a.format(**names) for a in command], capsys)
    assert (got, len(err.splitlines())) == (code, 1), err
    assert err.startswith(f"error[{category}]: ")
    assert needle.format(**names) in err
    assert "Traceback" not in err
    assert out == ""
    assert not bad_inputs["out"].exists()


@pytest.fixture(scope="module")
def bad_bias_model(tmp_path_factory):
    """A quantized car_evaluation model file whose first bias code is 2**31 - 1.

    The largest int32 overflows the kernel's accumulator once any input adds
    to it; the file is well-formed in every other respect.
    """
    q = quantize_model(build_model("car_evaluation", 7))
    path = tmp_path_factory.mktemp("bad_bias") / "q.bin"
    save_model(q, path)
    first = q.layers[0]
    # magic, version, representation, layer count | layer headers
    # | layer 0 exponents and weight codes
    offset = 9 + 5 * len(q.layers) + 4 + first.out_dim * first.in_dim
    data = bytearray(path.read_bytes())
    data[offset : offset + 4] = struct.pack("<i", 2**31 - 1)
    path.write_bytes(bytes(data))
    return path, offset


class TestOutOfBoundBiasCode:
    @pytest.mark.parametrize("command", [
        ["eval", "{model}", "--arch", "car_evaluation", "--dataset", "{data}"],
        ["finetune", "{model}", "--arch", "car_evaluation", "--dataset", "{data}",
         "--epochs", "1", "--out", "{out}"],
    ])
    def test_cli_exits_with_one_format_error_line(
        self, command, bad_bias_model, car_file, tmp_path, capsys
    ):
        model, offset = bad_bias_model
        out = tmp_path / "never.bin"
        args = [a.format(model=model, data=car_file, out=out) for a in command]
        code, _, err = run(args, capsys)
        assert code == 3
        assert len(err.splitlines()) == 1
        assert err.startswith("error[format]: layer 0 bias code 2147483647")
        assert f"byte offset {offset})" in err
        assert not out.exists()

    def test_refused_without_asserts(self, bad_bias_model, car_file):
        # python -O strips assert statements; the bound must still hold
        model, _ = bad_bias_model
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "qmlp.cli", "eval", str(model),
             "--arch", "car_evaluation", "--dataset", car_file],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error[format]:")
        assert proc.stdout == ""


class TestOutOfRangeRequantizeShift:
    def test_eval_exits_with_one_format_error_line(self, car_file, tmp_path, capsys):
        path = tmp_path / "q.bin"
        save_model(quantize_model(build_model("car_evaluation", 7)), path)
        # magic, version, representation, layer count | three layer headers
        # | layer 0 weight, input and pre-activation exponents: shift -56
        offset = 9 + 5 * 3
        data = bytearray(path.read_bytes())
        data[offset : offset + 3] = struct.pack("<bbb", -24, -24, 8)
        path.write_bytes(bytes(data))
        code, out, err = run(
            ["eval", str(path), "--arch", "car_evaluation", "--dataset", car_file], capsys
        )
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error[format]: layer 0 requantize shift -56 ")
        assert f"byte offset {offset + 2})" in err


class TestNonFiniteFloatParameter:
    def test_eval_exits_with_one_format_error_line(self, car_file, tmp_path, capsys):
        path = tmp_path / "m.bin"
        save_model(build_model("car_evaluation", 7), path)
        # magic, version, representation, layer count | three layer headers
        offset = 9 + 5 * 3
        data = bytearray(path.read_bytes())
        data[offset : offset + 4] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(data))
        code, out, err = run(
            ["eval", str(path), "--arch", "car_evaluation", "--dataset", car_file], capsys
        )
        assert code == 3
        assert out == ""
        assert err.splitlines() == [
            f"error[format]: layer 0 weight is not finite (at byte offset {offset})"
        ]


def test_readme_flags_are_accepted():
    # every --flag in the README's CLI usage block and "Shared flags"
    # paragraph is an option of at least one subcommand
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    usage = readme.split("## Quick start (CLI)", 1)[1].split("\n## ", 1)[0]
    flags = set(re.findall(r"--[a-z][a-z-]*", usage))
    assert {"--dataset", "--lr", "--shuffle", "--random-init"} <= flags
    sub = next(a for a in build_parser()._actions if a.choices and "train" in a.choices)
    accepted = {o for p in sub.choices.values() for o in p._option_string_actions}
    assert sorted(flags - accepted) == []


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qmlp.cli", "report-memory", "--arch", "car_evaluation"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "3.36x" in proc.stdout

    def test_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qmlp.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "train" in proc.stdout and "quantize" in proc.stdout
