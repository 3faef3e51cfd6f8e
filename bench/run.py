"""Run one qmlp benchmark workload and print its result.

    python3 bench/run.py --workload car-pipeline --seed 7 --seconds 20 --trace 0

The workload runs in a child process (bench/workloads.py) whose BLAS thread
variables are pinned to one thread and whose malloc thresholds are fixed;
this process only sets them, waits for the child and passes on its exit
code. The child prints the metrics and, as
its last line, the JSON result. See bench/README.md.
"""

import os
import subprocess
import sys
from pathlib import Path

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
BLAS_THREADS = "1"
# glibc adapts its mmap and trim thresholds to the process's allocation
# history, and numpy's batch-sized temporaries (a few hundred KiB) then come
# either from fresh zeroed pages or from the heap: a 2-4x difference in
# batched inference time that depends on what ran before. Fixing both at
# the ceiling glibc's own adjustment reaches (32 MiB, twice that for trim)
# makes every run measure the warmed-up heap.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}
CHILD_TIMEOUT_S = 170


def main(argv):
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in BLAS_THREAD_VARS})
    env.update(MALLOC_ENV)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    script = Path(__file__).resolve().parent / "workloads.py"
    child = subprocess.Popen([sys.executable, str(script), *argv], env=env)
    try:
        return child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
