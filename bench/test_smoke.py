"""Smoke tests of the benchmark itself: python3 -m pytest -q bench/test_smoke.py"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, bench=HERE):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_and_passes_its_checks(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "metric error_rate 0.0 ratio" in lines

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert f"metric {m['name']} {printed['value']} {m['unit']}" in lines
    if trace:
        assert any(l.startswith("digest int8 model ") for l in lines)


def test_tracer_leaves_no_wrapper_behind(tmp_path):
    sys.path.insert(0, str(HERE))
    try:
        import workloads as w
    finally:
        sys.path.remove(str(HERE))
    bindings = [
        (w.nn, "forward_full"), (w.train, "forward_int8"), (w.nn, "requantize_shift"),
        (w.train, "_requantize_params"), (w.quant.QTensor, "__post_init__"),
    ]
    originals = [getattr(owner, key) for owner, key in bindings]
    originals += list(w.fastmath._ACTIVATIONS.values()) + list(w.fastmath._DERIVATIVES.values())

    wl = w.WORKLOADS["car-pipeline"]
    run = w.Run(w.replace(wl, **w.TINY), seed=3, trace=True, seconds=0, workdir=tmp_path)
    run.set_traced(True)
    assert w.nn.forward_full is not originals[0]
    run.set_traced(False)

    current = [getattr(owner, key) for owner, key in bindings]
    current += list(w.fastmath._ACTIVATIONS.values()) + list(w.fastmath._DERIVATIVES.values())
    assert all(a is b for a, b in zip(current, originals))
    assert run.tracer.leaked() == []
    assert all(ok for _, ok, _ in run.checks)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("car-pipeline", 0, cwd=tmp_path, bench=tmp_path / "bench")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
