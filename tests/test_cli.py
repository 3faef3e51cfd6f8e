import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from qmlp.cli import cli_main
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
        with pytest.warns(Warning):
            code = cli_main([
                "finetune", "--random-init", "--arch", "car_evaluation",
                "--dataset", car_file, "--epochs", "1", "--out", str(tuned),
            ])
        capsys.readouterr()
        assert code == 0

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

    def test_report_memory_files(self, trained, tmp_path, capsys):
        model, _ = trained
        qfile = tmp_path / "q.bin"
        assert cli_main(["quantize", str(model), "--out", str(qfile)]) == 0
        capsys.readouterr()
        code, out, _ = run(["report-memory", str(model), "--quantized", str(qfile)], capsys)
        assert code == 0
        assert "3.36x" in out

    def test_curves_reemit_and_sparkline(self, trained, tmp_path, capsys):
        _, curves = trained
        out_path = tmp_path / "re.csv"
        code, out, _ = run([
            "curves", str(curves), "--out", str(out_path), "--sparkline",
        ], capsys)
        assert code == 0
        assert out_path.read_bytes() == curves.read_bytes()
        assert "val_acc" in out

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
        assert err.startswith("error[data]:")

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
