"""Run one qmlp benchmark workload in this process and print its result.

bench/run.py starts this script with the BLAS thread variables pinned;
bench/README.md describes the workloads and every metric. The program is
driven only through the public functions of qmlp's modules, on arrays this
script generates from ``--seed``. The last line of standard output is the
JSON result: ``correct``, ``attempted`` and ``failed`` count the output
checks, and ``metrics`` holds the end-to-end metrics (``--trace 0``) or the
per-module metrics (``--trace 1``).
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 7
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
)


def _import_qmlp():
    """Import qmlp from this checkout's sources, never from anywhere else."""
    if not (SRC / "qmlp" / "__init__.py").is_file():
        raise SystemExit(f"error: qmlp sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import qmlp
    from qmlp import data, fastmath, metrics, model_io, nn, quant, train

    if Path(qmlp.__file__).resolve().parent != (SRC / "qmlp").resolve():
        raise SystemExit(f"error: imported qmlp from {qmlp.__file__}, not from {SRC}")
    return data, fastmath, metrics, model_io, nn, quant, train


data, fastmath, metrics, model_io, nn, quant, train = _import_qmlp()
sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; every run reports the same metrics.

    Every round runs ``STEP_PASSES`` passes of the per-sample step loops,
    with a serving slice of ``slice_batches`` batches after each chunk of
    steps. The pipelines first train, quantize and fine-tune, set up
    ``round_setup_reps`` times after each pass, so set-up times sample the
    whole run, and end with one whole serving block. The serving workload
    trains its models in set-up and round-trips them through the model
    file; each of its rounds sets up ``round_setup_reps`` times, runs the
    step passes and then serves ``serve_repeats`` whole blocks from the
    loaded models.
    """

    name: str
    arch: str
    dataset: str
    float_epochs: int
    finetune_epochs: int
    error_feedback: bool
    trains_in_setup: bool
    setup_reps: int
    round_setup_reps: int
    serve_batches: int
    serve_repeats: int
    slice_batches: int
    float_floor: float
    int8_floor: float
    train_rows: int = 0  # 0 keeps the whole training split

    def __post_init__(self):
        # Trainers run one epoch per call, and error-feedback residuals do
        # not survive from one call to the next.
        if self.error_feedback and self.finetune_epochs > 1:
            raise ValueError("error feedback needs finetune_epochs == 1")


# Each accuracy floor lies below every value seen over 160-210 random seeds
# (lowest: car float 0.781 and int8 0.729, cogdist float 0.917 and int8
# 0.918). Hybrid fine-tuning at the default rate moves car validation
# accuracy by several points from one epoch to the next, so the car int8
# floor is the share of synth-car's majority class, 0.70: below it the model
# is worse than answering "unacc" for every row.
WORKLOADS = {
    "car-pipeline": Workload(
        "car-pipeline", "car_evaluation", "synth-car", float_epochs=6, finetune_epochs=2,
        error_feedback=False, trains_in_setup=False, setup_reps=3,
        round_setup_reps=8, serve_batches=64,
        serve_repeats=1, slice_batches=2, float_floor=0.74, int8_floor=0.70,
    ),
    "cogdist-pipeline": Workload(
        "cogdist-pipeline", "cogdist", "synth-cogdist", float_epochs=12, finetune_epochs=1,
        error_feedback=True, trains_in_setup=False, setup_reps=3,
        round_setup_reps=8, serve_batches=64,
        serve_repeats=1, slice_batches=2, float_floor=0.87, int8_floor=0.9,
    ),
    "int8-serve": Workload(
        "int8-serve", "car_evaluation", "synth-car", float_epochs=6, finetune_epochs=2,
        error_feedback=False, trains_in_setup=True, setup_reps=1,
        round_setup_reps=1, serve_batches=32,
        serve_repeats=2, slice_batches=6, float_floor=0.74, int8_floor=0.70,
    ),
}

# Smoke-test size: same code paths, a few hundred training rows, loose floors.
TINY = dict(
    float_epochs=1, finetune_epochs=1, setup_reps=2, round_setup_reps=1,
    serve_batches=2, serve_repeats=1, float_floor=0.3, int8_floor=0.3,
    train_rows=300,
)

SPLIT_FRACTION = 0.8
STEP_PASSES = 3
SERVE_BATCH = 1024
SERVE_ROWS = 600
STEP_CHUNK = 96
SLICE_ROWS = 20
WINDOW_STEPS = 24
WINDOW_ROWS = 10
BATCH_CHECK_ROWS = 32


def model_bytes(m):
    """Parameter bytes of a model, for exact comparisons."""
    if m.representation == nn.FULL:
        parts = [p.tobytes() for l in m.layers for p in (l.weights, l.biases)]
    else:
        parts = [p.tobytes() for l in m.layers for p in (l.weights_q.codes, l.biases_q)]
    return b"".join(parts)


def sha256(b):
    return hashlib.sha256(b).hexdigest()


@dataclass
class Setup:
    train_ds: object
    val_ds: object
    built: object
    trained: object = None
    served_full: object = None
    served_int8: object = None


@dataclass
class Trained:
    """Models and figures from one float-train / quantize / fine-tune pass."""

    full: object
    int8: object
    ptq: object
    full_after_one: bytes
    int8_after_one: bytes
    float_rates: list
    finetune_rates: list
    float_acc: float
    int8_acc: float


@dataclass
class Samples:
    """Raw measurements, kept apart for untraced and traced parts of a run."""

    setup_s: list = field(default_factory=list)
    float_sps: list = field(default_factory=list)
    finetune_sps: list = field(default_factory=list)
    float_step_ns: list = field(default_factory=list)
    hybrid_step_ns: list = field(default_factory=list)
    full_batch_ns: list = field(default_factory=list)
    int8_batch_ns: list = field(default_factory=list)
    int8_row_ns: list = field(default_factory=list)
    round_s: list = field(default_factory=list)
    accs: list = field(default_factory=list)
    node_deltas: int = 0
    steps: int = 0
    peak_param_floats: int = 0


class Run:
    def __init__(self, wl, seed, trace, seconds, workdir):
        self.wl = wl
        self.seed = seed
        self.trace = trace
        self.seconds = seconds
        self.workdir = workdir
        self.in_dims = [l.in_dim for l in nn.build_model(wl.arch, 0).layers]
        self.tracer = Tracer() if trace else None
        self.active = False
        self.checks = []
        self.digests = {}
        self.plain = Samples()
        self.traced = Samples()

    @property
    def samples(self):
        return self.traced if self.active else self.plain

    def span(self, name):
        return self.tracer.span(name) if self.active else nullcontext()

    def phase(self, name):
        return self.tracer.phase(name) if self.active else nullcontext()

    def set_traced(self, on):
        if on and not self.active:
            instrument(self.tracer, self.in_dims)
        elif not on and self.active:
            self.tracer.restore()
            leaked = self.tracer.leaked()
            self.check("tracer wrappers removed", not leaked, ", ".join(leaked))
        self.active = on

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def digest(self, label, digest):
        """Record a model digest; every later one under the label must match."""
        first = self.digests.setdefault(label, digest)
        self.check(f"{label} digest repeats", digest == first, digest)


def instrument(tr, in_dims):
    """Wrap the bindings each caller looks up, so every call records a span."""
    linear_ids = {d: tr.name_id(f"nn.linear_int8.L{i}") for i, d in enumerate(in_dims)}
    requant_ids = [tr.name_id(f"train.requantize_params.L{i}") for i in range(len(in_dims))]
    labels_ids = (tr.name_id("train.predict_labels"), tr.name_id("train.validation.labels"))

    def clamp_hook(args, out, _):
        acc = np.asarray(args[0], dtype=np.int64)
        shift = int(args[1])
        if shift >= 0:
            val = acc << shift
            over = np.count_nonzero((val > quant.CODE_MAX) | (val < quant.CODE_MIN))
        else:
            mag = (np.abs(acc) + (1 << (-shift - 1))) >> -shift
            over = np.count_nonzero((acc >= 0) & (mag > quant.CODE_MAX))
            over += np.count_nonzero((acc < 0) & (mag > -quant.CODE_MIN))
        tr.count("quant.requant_clamped", over)
        tr.count("quant.requant_codes", acc.size)

    def lut_hook(args, out, _):
        table = args[1].table
        codes = out.codes
        flat_ends = np.count_nonzero(codes == table[0]) + np.count_nonzero(codes == table[-1])
        tr.count("quant.lut_saturated", flat_ends)
        tr.count("quant.lut_lookups", codes.size)

    def codes_before(args):
        return args[2].weights_q.codes

    def codes_after(args, out, old):
        tr.count("train.codes_changed", np.count_nonzero(args[2].weights_q.codes != old))
        tr.count("train.codes_total", old.size)

    def rows_hook(key):
        return lambda args, out, _: tr.count(key, len(args[1]))

    def bytes_hook(args, out, _):
        tr.count("model_io.bytes", os.path.getsize(args[1]))
        tr.count("model_io.files", 1)

    tr.wrap(data, "split", "data.split")
    tr.wrap(nn, "build_model", "nn.build_model")
    tr.wrap(nn, "quantize_model", "nn.quantize_model")
    for owner in (nn, train):
        tr.wrap(owner, "forward_full", "nn.forward_full")
        tr.wrap(owner, "forward_int8", "nn.forward_int8")
    tr.wrap(nn, "linear_int8", name_of=lambda a: linear_ids[a[1].in_dim])
    tr.wrap(nn, "requantize_shift", "quant.requantize_shift", after=clamp_hook)
    tr.wrap(nn, "apply_lut", "quant.apply_lut", after=lut_hook)
    for owner in (nn, train, quant):
        tr.wrap(owner, "quantize", "quant.quantize")
    for owner in (train, quant):
        tr.wrap(owner, "dequantize", "quant.dequantize")
    tr.wrap(nn, "predict_full", "nn.predict_full", after=rows_hook("nn.predict_full.rows"))
    tr.wrap(nn, "predict_int8", "nn.predict_int8", after=rows_hook("nn.predict_int8.rows"))
    tr.wrap(train, "train_full", "train.train_full")
    tr.wrap(train, "finetune_quantized", "train.finetune_quantized")
    tr.wrap(train, "backward_lsgd", "train.backward_lsgd")
    tr.wrap(train, "backward_hybrid", "train.backward_hybrid")
    tr.wrap(
        train, "_requantize_params", name_of=lambda a: requant_ids[a[4]],
        before=codes_before, after=codes_after,
    )
    tr.wrap(train, "mse_loss", "train.mse_loss")
    tr.wrap(train, "predict_labels", name_of=lambda a: labels_ids[np.ndim(a[0]) != 1])
    tr.wrap(train, "predict_full", "train.validation")
    tr.wrap(train, "predict_int8", "train.validation")
    for key in list(fastmath._ACTIVATIONS):
        tr.wrap(fastmath._ACTIVATIONS, key, "fastmath.act")
    for key in list(fastmath._DERIVATIVES):
        tr.wrap(fastmath._DERIVATIVES, key, "fastmath.deriv")
    tr.count_calls(quant.QTensor, "__post_init__", "quant.qtensor_init")
    tr.wrap(model_io, "save_model", "model_io.save", after=bytes_hook)
    tr.wrap(model_io, "load_model", "model_io.load")
    tr.wrap(metrics, "evaluate", "metrics.evaluate")


# -- workload pieces ------------------------------------------------------------


def load_dataset(run):
    if run.wl.dataset == "synth-car":
        path = data.generate_car_surrogate(run.workdir / "car_surrogate.csv")
        return data.load_car_evaluation(path)
    return data.synth_cogdist(run.seed)


def set_up(run):
    wl = run.wl
    with run.span("data.load"):
        ds = load_dataset(run)
    train_ds, val_ds = data.split(ds, SPLIT_FRACTION, run.seed)
    if wl.train_rows:
        n = wl.train_rows
        train_ds = data.Dataset(
            train_ds.features[:n], train_ds.targets[:n], train_ds.class_names,
            train_ds.norm_lo, train_ds.norm_hi,
        )
    s = Setup(train_ds, val_ds, nn.build_model(wl.arch, run.seed))
    if wl.trains_in_setup:
        s.trained = train_models(run, s)
        s.served_full = round_trip(run, s.trained.full, "float model")
        s.served_int8 = round_trip(run, s.trained.int8, "int8 model")
    return s


def train_models(run, s):
    """train_full, quantize_model, finetune_quantized, then evaluate both.

    Each trainer runs one epoch per call, which is the same arithmetic as
    one multi-epoch call: samples are visited in stored order, and error
    feedback is only used with a single fine-tuning epoch. Every call is
    timed, and the model after the first is kept for the step-loop check.
    """
    wl, pair = run.wl, (s.train_ds, s.val_ds)

    def epoch_calls(fn, m, epochs, lr, error_feedback):
        cfg = train.TrainConfig(
            epochs=1, learning_rate=lr, seed=run.seed, activation_math="fast",
            error_feedback=error_feedback,
        )
        rates = []
        for epoch in range(epochs):
            t0 = time.perf_counter()
            fn(m, pair, cfg)
            rates.append(s.train_ds.n / (time.perf_counter() - t0))
            if epoch == 0:
                after_one = model_bytes(m)
        return after_one, rates

    full = nn.clone_model(s.built)
    with run.phase("train_full"):
        full_after_one, float_rates = epoch_calls(
            train.train_full, full, wl.float_epochs, train.DEFAULT_FLOAT_LR, False
        )
    ptq = nn.quantize_model(full)
    int8 = nn.clone_model(ptq)
    with run.phase("finetune"):
        int8_after_one, finetune_rates = epoch_calls(
            train.finetune_quantized, int8, wl.finetune_epochs,
            train.DEFAULT_FINETUNE_LR, wl.error_feedback,
        )
    float_acc = metrics.evaluate(full, s.val_ds, "fast").accuracy
    int8_acc = metrics.evaluate(int8, s.val_ds).accuracy
    return Trained(
        full, int8, ptq, full_after_one, int8_after_one, float_rates, finetune_rates,
        float_acc, int8_acc,
    )


def record_training(run, t):
    smp = run.samples
    smp.float_sps.extend(t.float_rates)
    smp.finetune_sps.extend(t.finetune_rates)
    smp.accs.append((t.float_acc, t.int8_acc))
    for name, acc, floor in (
        ("float_val_acc", t.float_acc, run.wl.float_floor),
        ("int8_val_acc", t.int8_acc, run.wl.int8_floor),
    ):
        run.check(f"{name} >= {floor}", acc >= floor, f"{acc:.4f}")


def round_trip(run, m, label):
    """save -> load -> save; the two files must be byte-identical."""
    slug = label.replace(" ", "_")
    first, second = run.workdir / f"{slug}.bin", run.workdir / f"{slug}.again.bin"
    model_io.save_model(m, first)
    loaded = model_io.load_model(first)
    model_io.save_model(loaded, second)
    blob = first.read_bytes()
    run.check(f"{label} save->load->save identical", blob == second.read_bytes())
    run.digest(label, sha256(blob))
    return loaded


def float_loop(run, s, t):
    """One pass of float per-sample steps, each timed, yielding after each chunk.

    The loop starts from the built model, so after the pass it must equal
    ``train_full``'s model after one epoch.
    """
    ds, smp = s.train_ds, run.samples
    feats, targs = ds.features, ds.targets
    forward, backward = nn.forward_full, train.backward_lsgd
    lr, clock = train.DEFAULT_FLOAT_LR, time.perf_counter_ns
    m = nn.clone_model(s.built)
    for start in range(0, ds.n, STEP_CHUNK):
        lat = []
        with run.phase("float_steps"):
            for i in range(start, min(start + STEP_CHUNK, ds.n)):
                x, target = feats[i], targs[i]
                t0 = clock()
                n = backward(forward(m, x, "fast"), target, m, lr)
                lat.append(clock() - t0)
                smp.node_deltas += n
        smp.float_step_ns.append(lat)
        yield
    smp.steps += ds.n
    run.check("float step loop equals train_full epoch 1", model_bytes(m) == t.full_after_one)


def hybrid_loop(run, s, t):
    """One pass of hybrid per-sample steps, each timed, yielding after each chunk.

    The loop starts from the post-training-quantized model, so after the
    pass it must equal ``finetune_quantized``'s model after one epoch.
    """
    ds, smp = s.train_ds, run.samples
    targs = ds.targets
    forward, backward = nn.forward_int8, train.backward_hybrid
    lr, clock = train.DEFAULT_FINETUNE_LR, time.perf_counter_ns
    q = nn.clone_model(t.ptq)
    in_params = q.layers[0].in_params
    feedback = train.FeedbackState.for_model(q) if run.wl.error_feedback else None
    codes = quant.quantize(ds.features, in_params).codes
    for start in range(0, ds.n, STEP_CHUNK):
        lat = []
        with run.phase("hybrid_steps"):
            for i in range(start, min(start + STEP_CHUNK, ds.n)):
                xq, target = quant.QTensor(codes[i], in_params), targs[i]
                t0 = clock()
                stats = backward(forward(q, xq), target, q, lr, feedback)
                lat.append(clock() - t0)
                smp.node_deltas += stats.node_deltas
                smp.peak_param_floats = max(smp.peak_param_floats, stats.peak_param_floats)
        smp.hybrid_step_ns.append(lat)
        yield
    smp.steps += ds.n
    run.check("hybrid step loop equals finetune epoch 1", model_bytes(q) == t.int8_after_one)


def step_passes(run, s, t, server):
    """One pass of each step loop, in turns of one chunk, with a serving slice
    after every turn, so that every timing samples the whole pass."""
    for _ in zip_longest(float_loop(run, s, t), hybrid_loop(run, s, t)):
        server.slice()


def serving_inputs(run, s):
    """Batches and single rows resampled from the dataset rows, from the seed."""
    rows = np.concatenate([s.train_ds.features, s.val_ds.features])
    rng = np.random.default_rng([run.seed, 1])
    wl = run.wl
    batches = [rows[rng.integers(0, len(rows), SERVE_BATCH)] for _ in range(wl.serve_batches)]
    singles = [rows[i : i + 1] for i in rng.integers(0, len(rows), SERVE_ROWS)]
    return batches, singles, rng


class Server:
    """Batched predict_full/predict_int8 and single-row predict_int8 calls on
    one pair of loaded models, each call timed.

    ``block()`` serves every batch and row and checks the outputs; ``slice()``
    serves the next few of each, and its int8 outputs must repeat those of
    the same batch's first call.
    """

    def __init__(self, run, full, int8, batches, singles, rng):
        self.run, self.full, self.int8 = run, full, int8
        self.batches, self.singles, self.rng = batches, singles, rng
        self.first_out = {}
        self.repeats = True
        self.next_batch = self.next_row = 0

    def _serve(self, batch_ids, rows):
        smp = self.run.samples
        predict_full, predict_int8 = nn.predict_full, nn.predict_int8
        full, int8, clock = self.full, self.int8, time.perf_counter_ns
        full_lat, int8_lat, row_lat, outputs = [], [], [], []
        with self.run.phase("serve_batch"):
            for b in batch_ids:
                X = self.batches[b]
                t0 = clock()
                predict_full(full, X, "fast")
                full_lat.append(clock() - t0)
            for b in batch_ids:
                X = self.batches[b]
                t0 = clock()
                out = predict_int8(int8, X)
                int8_lat.append(clock() - t0)
                outputs.append(out)
        with self.run.phase("serve_row"):
            for X in rows:
                t0 = clock()
                predict_int8(int8, X)
                row_lat.append(clock() - t0)
        smp.full_batch_ns.append(full_lat)
        smp.int8_batch_ns.append(int8_lat)
        smp.int8_row_ns.append(row_lat)
        for b, out in zip(batch_ids, outputs):
            self.repeats &= np.array_equal(self.first_out.setdefault(b, out), out)
        return outputs

    def slice(self):
        nb, nr, k_batches = len(self.batches), len(self.singles), self.run.wl.slice_batches
        ids = [(self.next_batch + k) % nb for k in range(k_batches)]
        rows = [self.singles[(self.next_row + k) % nr] for k in range(SLICE_ROWS)]
        self.next_batch = (self.next_batch + k_batches) % nb
        self.next_row = (self.next_row + SLICE_ROWS) % nr
        self._serve(ids, rows)

    def block(self):
        run, int8 = self.run, self.int8
        outputs = self._serve(range(len(self.batches)), self.singles)
        with run.phase("check"):
            X, out = self.batches[0], outputs[0]
            in_params = int8.layers[0].in_params
            same = True
            for i in self.rng.choice(len(X), min(BATCH_CHECK_ROWS, len(X)), replace=False):
                trace = nn.forward_int8(int8, quant.quantize(X[i], in_params))
                same &= np.array_equal(quant.dequantize(trace.output), out[i])
            run.check("batched predict_int8 equals per-row forward_int8", same)
        run.check("repeated predict_int8 batches give the same outputs", self.repeats)
        run.digest("int8 batch outputs", sha256(b"".join(o.tobytes() for o in outputs)))


def pipeline_round(run, s, batches, singles, rng):
    t = train_models(run, s)
    record_training(run, t)
    full = round_trip(run, t.full, "float model")
    int8 = round_trip(run, t.int8, "int8 model")
    server = Server(run, full, int8, batches, singles, rng)
    for _ in range(STEP_PASSES):
        step_passes(run, s, t, server)
        setups(run)
    server.block()


def serve_round(run, s, batches, singles, rng):
    setups(run)
    server = Server(run, s.served_full, s.served_int8, batches, singles, rng)
    for _ in range(STEP_PASSES):
        step_passes(run, s, s.trained, server)
    for _ in range(run.wl.serve_repeats):
        server.block()


def timed_setup(run):
    t0 = time.perf_counter()
    with run.phase("setup"):
        s = set_up(run)
    run.samples.setup_s.append(time.perf_counter() - t0)
    run.digest("built model", sha256(model_bytes(s.built)))
    if run.wl.trains_in_setup:
        record_training(run, s.trained)
    return s


def setups(run):
    for _ in range(run.wl.round_setup_reps):
        timed_setup(run)


def run_workload(run):
    """Set up several times, then repeat rounds while the next one, at the
    mean round time so far, still ends within ``run.seconds`` of the start.

    With tracing, the first set-up and the first round run untraced and the
    rest traced, so one run yields both, and the model digests of the two
    must match.
    """
    wl = run.wl
    start = time.perf_counter()
    for rep in range(wl.setup_reps):
        run.set_traced(run.trace and rep > 0)
        made = timed_setup(run)
        run.set_traced(False)
        if rep == 0:
            s = made
    batches, singles, rng = serving_inputs(run, s)

    one_round = serve_round if wl.trains_in_setup else pipeline_round

    min_rounds = 2 if run.trace else 1
    rounds, loop_start = 0, time.perf_counter()
    while True:
        run.set_traced(run.trace and rounds > 0)
        t0 = time.perf_counter()
        one_round(run, s, batches, singles, rng)
        run.samples.round_s.append(time.perf_counter() - t0)
        run.set_traced(False)
        rounds += 1
        now = time.perf_counter()
        if rounds >= min_rounds and now - start + (now - loop_start) / rounds > run.seconds:
            return rounds


# -- metrics ---------------------------------------------------------------------


def best_window_us(passes_ns, size, q):
    """Lowest q-th percentile, in µs, over windows of ``size`` consecutive calls.

    Windows never span two passes; a pass shorter than one window is one
    window.
    """
    best = np.inf
    for lat in passes_ns:
        arr = np.asarray(lat, dtype=np.float64)
        n = len(arr) // size
        windows = arr[: n * size].reshape(n, size) if n else arr[None, :]
        best = min(best, float(np.percentile(windows, q, axis=1).min()))
    return best / 1e3


def rows_per_s(blocks_ns):
    """Rows per second of the fastest batched call of the run."""
    return SERVE_BATCH * 1e9 / min(min(lat) for lat in blocks_ns)


def end_to_end(run):
    p = run.plain
    float_acc, int8_acc = p.accs[-1]
    return {
        "setup_s": statistics.median(p.setup_s),
        "float_step_us_p50": best_window_us(p.float_step_ns, WINDOW_STEPS, 50),
        "float_step_us_p90": best_window_us(p.float_step_ns, WINDOW_STEPS, 90),
        "hybrid_step_us_p50": best_window_us(p.hybrid_step_ns, WINDOW_STEPS, 50),
        "hybrid_step_us_p90": best_window_us(p.hybrid_step_ns, WINDOW_STEPS, 90),
        "float_val_acc": float_acc,
        "int8_val_acc": int8_acc,
        "predict_full_rows_per_s": rows_per_s(p.full_batch_ns),
        "predict_int8_rows_per_s": rows_per_s(p.int8_batch_ns),
        "int8_row_us_p50": best_window_us(p.int8_row_ns, WINDOW_ROWS, 50),
        "int8_row_us_p90": best_window_us(p.int8_row_ns, WINDOW_ROWS, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def training_throughput(run):
    """Best one-epoch trainer call, in samples per second.

    Printed for information only: a call lasts 0.1-1 s, too long to find a
    window free of other tenants' load, so these spread more across runs
    than the bounds in BENCHMARK.json allow.
    """
    p = run.plain
    return {"float_train_sps": max(p.float_sps), "finetune_sps": max(p.finetune_sps)}


def _div(num, den, what):
    if not den:
        raise RuntimeError(f"traced run recorded no {what}")
    return num / den


def per_module(run):
    """Per-module metrics from the traced spans and counts; see README.md."""
    tr, t, smp = run.tracer, run.tracer.table(), run.traced
    n_layers = len(run.in_dims)
    linear = tuple(f"nn.linear_int8.L{i}" for i in range(n_layers))

    def ms_per_call(name):
        return _div(t.total_ns(name), t.calls(name), name) / 1e6

    def self_us(name, parent=None, phase=None):
        return _div(t.self_total_ns(name, parent, phase), t.calls(name, parent, phase), name) / 1e3

    def per_call(name, parent):
        return _div(t.calls(name, parent), t.calls(parent), parent)

    def frac(num, den):
        return _div(tr.counted(num), tr.counted(den), den)

    def us_per_krow(name):
        rows = tr.counted(f"{name}.rows", phase="serve_batch")
        return _div(t.total_ns(name, phase="serve_batch"), rows, f"{name} rows")

    out = {
        "data.load_ms": ms_per_call("data.load"),
        "data.split_ms": ms_per_call("data.split"),
        "nn.build_model_ms": ms_per_call("nn.build_model"),
        "nn.quantize_model_ms": ms_per_call("nn.quantize_model"),
        "model_io.save_ms": ms_per_call("model_io.save"),
        "model_io.load_ms": ms_per_call("model_io.load"),
        "model_io.bytes": frac("model_io.bytes", "model_io.files"),
        "nn.forward_full.self_us": self_us("nn.forward_full"),
        "fastmath.act.self_us": self_us("fastmath.act", "nn.forward_full"),
        "fastmath.act.calls_per_step": per_call("fastmath.act", "nn.forward_full"),
        "train.backward_lsgd.self_us": self_us("train.backward_lsgd"),
        "nn.forward_int8.self_us": self_us("nn.forward_int8"),
        "quant.requantize_shift.self_us": self_us("quant.requantize_shift", linear),
        "quant.apply_lut.self_us": self_us("quant.apply_lut"),
        "quant.dequantize.self_us": self_us("quant.dequantize", "train.backward_hybrid"),
        "quant.dequantize.calls_per_step": per_call("quant.dequantize", "train.backward_hybrid"),
        "fastmath.deriv.self_us": self_us("fastmath.deriv", "train.backward_hybrid"),
        "train.backward_hybrid.self_us": self_us("train.backward_hybrid"),
        "quant.qtensor_inits_per_step": _div(
            tr.counted("quant.qtensor_init", phase="hybrid_steps"),
            t.calls("train.backward_hybrid", phase="hybrid_steps"), "hybrid steps",
        ),
        "train.bookkeeping.self_us": _div(
            t.self_total_ns("train.mse_loss") + t.self_total_ns("train.predict_labels"),
            t.calls("train.mse_loss"), "train.mse_loss",
        ) / 1e3,
        "train.validation_ms": _div(
            t.total_ns("train.validation") + t.total_ns("train.validation.labels"),
            t.calls("train.validation"), "train.validation",
        ) / 1e6,
        "nn.predict_full.us_per_krow": us_per_krow("nn.predict_full"),
        "nn.predict_int8.us_per_krow": us_per_krow("nn.predict_int8"),
        "quant.quantize.self_us": self_us("quant.quantize", "nn.predict_int8", "serve_row"),
        "train.node_deltas_per_step": _div(smp.node_deltas, smp.steps, "steps"),
        "train.peak_param_floats": smp.peak_param_floats,
        "train.code_change_frac": frac("train.codes_changed", "train.codes_total"),
        "quant.requant_clamp_frac": frac("quant.requant_clamped", "quant.requant_codes"),
        "quant.lut_saturated_frac": frac("quant.lut_saturated", "quant.lut_lookups"),
        "trace.overhead_frac": statistics.median(run.traced.round_s)
        / statistics.median(run.plain.round_s) - 1.0,
    }
    for i in range(n_layers):
        out[f"nn.linear_int8.L{i}.self_us"] = self_us(f"nn.linear_int8.L{i}")
        out[f"train.requantize_params.L{i}.self_us"] = self_us(f"train.requantize_params.L{i}")
    return out


# -- environment and output ----------------------------------------------------


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
            return next(l.split()[0] for l in packed if l.endswith(" " + ref[5:]))
        return ref
    except (OSError, StopIteration):
        return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint():
    try:
        blas_cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_cfg.get('name')} {blas_cfg.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke-test size")
    args = ap.parse_args(argv)

    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    if args.scale == "tiny":
        wl = replace(wl, **TINY)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir()
    run = Run(wl, args.seed, bool(args.trace), args.seconds, workdir)
    try:
        rounds = run_workload(run)
        if run.trace:
            values = per_module(run)
            run.tracer.dump(OUT / f"spans-{wl.name}.npz")
        else:
            values = end_to_end(run)
    finally:
        run.set_traced(False)
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["per_layer" if run.trace else "end_to_end"]}
    if set(values) != set(units):
        differ = sorted(set(values) ^ set(units))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {differ}")
    table = {name: (values[name], unit) for name, unit in units.items()}
    env = fingerprint()
    failed = [c for c in run.checks if not c[1]]
    setups = len(run.plain.setup_s) + len(run.traced.setup_s)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace} scale {args.scale} "
          f"rounds {rounds} setups {setups}")
    for key, value in env.items():
        print(f"env {key} {value}")
    for label, digest in run.digests.items():
        print(f"digest {label} {digest}")
    for name, ok, detail in run.checks:
        if not ok:
            print(f"check FAILED {name} {detail}")
    print(f"checks {len(run.checks) - len(failed)}/{len(run.checks)} passed")
    print(f"metric error_rate {len(failed) / len(run.checks)} ratio")
    for name, (value, unit) in table.items():
        print(f"metric {name} {value} {unit}")
    info = {} if run.trace else training_throughput(run)
    for name, value in info.items():
        print(f"info {name} {value} 1/s")

    result = {
        "correct": not failed,
        "attempted": len(run.checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in table.items()},
    }
    record = dict(result, info=info, workload=wl.name, seed=args.seed, trace=args.trace,
                  scale=args.scale, rounds=rounds, env=env, digests=run.digests,
                  checks=[{"name": n, "ok": ok, "detail": d} for n, ok, d in run.checks])
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
