"""Set-up, the three measured parts (train, infer, pipeline), the reference
kernel that calibrates their timings, and the metrics computed from them.

Every run reports every end-to-end metric, so every run has all three parts.
The workload named on the command line is the run's focus: its part gets
FOCUS_SHARE times the measured time of each other part, and the other two
run at that lower rate only for their own metrics.  The parts' iterations
are interleaved over the whole run.  There is one client and the loop is closed:
the next operation starts when the previous one has returned.

Every step (a set-up, a training call, an inference round or one CLI
command) is bracketed by a run of a fixed reference kernel (see
``reference_s``), and every timing is reported in reference seconds: the
measured seconds times REFERENCE_S over the reference kernel's time around
that step.  On a shared host whose speed drifts by up to 1.6x for seconds to
minutes at a time, this takes the host's state out of the figures and leaves
the program's own cost.  The raw seconds stay in the run record.

The program is driven only through public functions of ``wignernet``, always
looked up as module attributes at call time, so the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from wignernet import cli, data, network, training

import spans as sp

# Fixed epoch count for every training run; below the stock patience of 20,
# so early stopping never cuts it short.  The pipeline's `train` command uses
# the same count, which makes its model file bit-identical to the train part's.
# One epoch keeps steps short, so every part gets many samples in a run.
EPOCHS = 1

# One infer round: calls per batch size, interleaved so that drift on the
# machine hits every size alike.  The working set runs from a few KB (B = 1)
# to about 20 MB of activations per layer (B = 10k).
INFER_CALLS_PER_ROUND = {1: 64, 64: 16, 1000: 8, 10000: 2}

SETUP_REPEATS = 5
PIPELINE_STAGES = ("generate", "train", "eval", "sweep", "phasespace")
# One pass: every command but the long `train` runs twice, so the short ones
# collect samples at twice the rate.
PIPELINE_PASS = PIPELINE_STAGES + tuple(s for s in PIPELINE_STAGES if s != "train")

# Share of the measured time the focus part gets, against 1 for each other part.
FOCUS_SHARE = 2.0
# Whole iterations every part runs at least, so repeats can be compared.
MIN_ITERATIONS = 2

# The reference kernel's time on the reference host (Intel Xeon, family 6,
# model 207, numpy 2.4 with one OpenBLAS thread) when nothing else disturbs
# it.  Only its constancy matters: it fixes the scale of reference seconds.
REFERENCE_S = 1.4e-3

_REF_RNG = np.random.default_rng(0)
_REF_WEIGHTS = _REF_RNG.standard_normal((256, 256))
_REF_ROWS = _REF_RNG.standard_normal((256, 256))


def reference_kernel() -> None:
    """Fixed work in the four kinds the program does: interpreter loops,
    numpy calls on tiny arrays as in a forward at B = 1, small matrix
    products as in a training step, and a larger product that streams
    memory as in the big forwards."""
    total = 0
    for i in range(1000):
        total += i * i
    row = _REF_ROWS[:1]
    for _ in range(40):
        np.maximum(row @ _REF_WEIGHTS, 0.0)
    for _ in range(2):
        np.maximum(_REF_ROWS[:64] @ _REF_WEIGHTS, 0.0)
    np.maximum(_REF_ROWS @ _REF_WEIGHTS, 0.0)


def reference_s() -> float:
    """Fastest of three runs of the reference kernel, in seconds."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


# Traced functions, by the part whose spans give their per-layer metrics.
PART_TARGETS = {
    "train": (
        "training.train",
        "training.evaluate",
        "network.MlpModel.forward_train",
        "network.MlpModel.forward",
        "network.MlpModel.snapshot",
        "network.DenseLayer.forward",
        "network.BatchNormLayer.forward_train",
        "network.BatchNormLayer.forward_infer",
        "network.BatchNormLayer.backward",
        "network.backward",
        "network.mse_loss",
        "network.Adam.step",
    ),
    "infer": (
        "network.MlpModel.forward",
        "network.DenseLayer.forward",
        "network.BatchNormLayer.forward_infer",
    ),
    "pipeline": (
        "cli.main",
        "cli.cmd_generate",
        "cli.cmd_train",
        "cli.cmd_eval",
        "cli.cmd_sweep",
        "cli.cmd_phasespace",
        "training.train",
        "network.MlpModel.forward",
        "network.save_model",
        "network.load_model",
        "data.sample_inputs",
        "data.build_dataset",
        "data.save_dataset",
        "data.load_dataset",
        "data.save_splits",
        "data.load_splits",
        "oscillator.evolve_batch",
        "oscillator.wigner_grid",
        "experiments.hbar_sweep",
        "experiments.convergence_report",
        "experiments.phase_space_grids",
        "experiments.save_sweep",
        "experiments.save_phase_space",
    ),
}
TRACE_TARGETS = tuple(dict.fromkeys(t for targets in PART_TARGETS.values() for t in targets))

# Per focus part, the timed series whose traced and untraced medians give
# the tracing overhead.
OVERHEAD_SERIES = {
    "train": ("train_call_s",),
    "infer": ("infer_round_s",),
    "pipeline": tuple(f"{stage}_s" for stage in PIPELINE_STAGES),
}
TRACED = "+traced"


class Run:
    """Counts attempted and failed operations, and keeps every timing with
    the step it was taken in.  An operation fails when it raises or when any
    check on its output fails."""

    def __init__(self):
        self.tracer: sp.Tracer | None = None  # set while a traced step runs
        self.attempted = 0
        self.failed_ops: set[str] = set()
        self.errors: list[str] = []
        self.step = 0
        # reference[k] and reference[k + 1] bracket step k.
        self.reference: list[float] = [reference_s()]
        self.samples: dict[str, list[tuple[int, float]]] = {}

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def next_step(self) -> None:
        self.reference.append(reference_s())
        self.step += 1

    def record(self, series: str, seconds: float) -> None:
        """Keep one timing; a traced step's go to a series of their own."""
        key = series + TRACED if self.tracer is not None else series
        self.samples.setdefault(key, []).append((self.step, seconds))

    def calibrated(self, series: str) -> list[float]:
        """The series in reference seconds."""
        out = []
        for step, seconds in self.samples.get(series, []):
            around = (self.reference[step] + self.reference[step + 1]) / 2
            out.append(seconds * REFERENCE_S / around)
        return out

    def timed(self, op: str, fn, *args):
        """Call fn(*args) as one operation; returns (result or None, seconds)."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.iteration = op
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            elapsed = time.perf_counter() - start
            self.expect(False, op, f"{type(exc).__name__}: {exc}")
            return None, elapsed
        return result, time.perf_counter() - start

    def check(self, ok: bool, op: str, message: str) -> bool:
        """A check that is an operation of its own."""
        self.attempted += 1
        return self.expect(ok, op, message)

    def expect(self, ok: bool, op: str, message: str) -> bool:
        """A check on the output of an operation already counted."""
        if not ok:
            self.failed_ops.add(op)
            if len(self.errors) < 20:
                self.errors.append(f"{op}: {message}")
        return ok


@dataclasses.dataclass
class Inputs:
    stock: cli.RunConfig
    dataset: data.Dataset
    splits: data.SplitIndices
    dataset_sha256: str
    dataset_bytes: int
    queries: np.ndarray
    model: network.MlpModel
    config_path: Path


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def make_queries(stock: cli.RunConfig, seed: int) -> np.ndarray:
    """The seeded inputs: infer batches, and the sweep and phase-space states."""
    return data.sample_inputs(stock.ranges, max(INFER_CALLS_PER_ROUND), seed)


def _state(row: np.ndarray) -> dict[str, float]:
    return {"x0": row[0], "p0": row[1], "sigma_x0": row[2]}


def set_up(workdir: Path, seed: int, run: Run, op: str) -> Inputs:
    """Stock dataset written and read back, seeded queries, a warm model.

    The training data are the stock dataset whatever the seed, so the trained
    model, and with it test_mse, is the same on every run; the seed draws the
    query side (inference batches and the sweep and phase-space states).
    """
    stock = cli.RunConfig.from_dict(cli.default_config())
    inputs = data.sample_inputs(stock.ranges, stock.n_samples, stock.data_seed)
    dataset = data.build_dataset(stock.oscillator, inputs, ranges=stock.ranges, seed=stock.data_seed)
    splits = data.split_indices(stock.n_samples, stock.split_seed)
    dataset_path = workdir / cli.DATASET_FILE
    data.save_dataset(dataset, dataset_path)
    data.save_splits(splits, workdir / cli.SPLITS_FILE)
    loaded = data.load_dataset(dataset_path)
    loaded_splits = data.load_splits(workdir / cli.SPLITS_FILE)
    run.expect(
        np.array_equal(loaded.inputs, dataset.inputs)
        and np.array_equal(loaded.targets, dataset.targets)
        and all(
            np.array_equal(getattr(loaded_splits, f), getattr(splits, f))
            for f in ("train", "validation", "test")
        ),
        op,
        "dataset or splits did not round-trip bit-exactly",
    )

    queries = make_queries(stock, seed)
    model = network.init_model(stock.arch, stock.init_seed)
    for batch in INFER_CALLS_PER_ROUND:
        model.forward(queries[:batch])

    config_path = workdir / "config.json"
    config_path.write_text(
        json.dumps({"sweep": _state(queries[0]), "phasespace": _state(queries[1])}), encoding="utf-8"
    )
    return Inputs(
        stock=stock,
        dataset=loaded,
        splits=loaded_splits,
        dataset_sha256=sha256_file(dataset_path),
        dataset_bytes=dataset_path.stat().st_size,
        queries=queries,
        model=model,
        config_path=config_path,
    )


def _state_sha256(model: network.MlpModel) -> str:
    digest = hashlib.sha256()
    for array in model.state_arrays():
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class TrainPart:
    """One iteration: train a fresh stock model for EPOCHS epochs."""

    def __init__(self, inp: Inputs, run: Run, workdir: Path):
        self.inp, self.run, self.workdir = inp, run, workdir
        self.config = dataclasses.replace(inp.stock.train_config, max_epochs=EPOCHS)
        n_train = inp.splits.train.size
        drop = 1 if n_train % self.config.batch_size == 1 else 0  # train() skips a 1-row batch
        self.rows = EPOCHS * (n_train - drop)
        self.test_mse: set[float] = set()
        self.state_sha256: set[str] = set()
        self.model = None
        self.model_sha256: str | None = None
        self.model_bytes: int | None = None
        self.iterations = 0

    def step(self) -> None:
        op = f"train-{self.iterations}"
        self.iterations += 1
        stock = self.inp.stock
        fresh = network.init_model(stock.arch, stock.init_seed)
        result, elapsed = self.run.timed(op, training.train, fresh, self.inp.dataset, self.inp.splits, self.config)
        if result is None:
            return
        self.model, report = result
        self.run.expect(report.stopped_epoch == EPOCHS, op, f"stopped at epoch {report.stopped_epoch}")
        self.run.expect(math.isfinite(report.test_loss), op, f"test MSE {report.test_loss}")
        self.run.record("train_call_s", elapsed)
        self.test_mse.add(report.test_loss)
        self.state_sha256.add(_state_sha256(self.model))

    def finish(self) -> None:
        self.run.check(len(self.test_mse) == 1, "train-repeat-mse", f"test MSE differs across repeats: {self.test_mse}")
        self.run.check(len(self.state_sha256) == 1, "train-repeat-state", "trained state differs across repeats")
        if self.model is not None:
            path = self.workdir / "train-model.txt"
            network.save_model(self.model, path)
            self.model_sha256 = sha256_file(path)
            self.model_bytes = path.stat().st_size


class InferPart:
    """One iteration: a round of MlpModel.forward calls at every batch size."""

    def __init__(self, inp: Inputs, run: Run, workdir: Path):
        self.inp, self.run = inp, run
        self.first: dict[int, np.ndarray] = {}
        self.iterations = 0

    def step(self) -> None:
        run, model = self.run, self.inp.model
        round_s = 0.0
        for batch, calls in INFER_CALLS_PER_ROUND.items():
            x = self.inp.queries[:batch]
            for call in range(calls):
                op = f"infer-{self.iterations}-b{batch}-{call}"
                y, elapsed = run.timed(op, model.forward, x)
                round_s += elapsed
                if y is None:
                    continue
                if batch not in self.first:
                    self.first[batch] = y
                    run.expect(bool(np.isfinite(y).all()), op, "non-finite output")
                elif not run.expect(np.array_equal(y, self.first[batch]), op, "output changed between calls"):
                    continue
                run.record(f"infer_b{batch}_s", elapsed)
        run.record("infer_round_s", round_s)
        self.iterations += 1

    def finish(self) -> None:
        largest = max(self.first, default=None)
        for batch, y in self.first.items():
            self.run.check(
                np.allclose(y, self.first[largest][:batch], rtol=1e-9, atol=1e-12),
                f"infer-b{batch}",
                f"rows predicted at B={batch} disagree with the same rows at B={largest}",
            )


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stderr.getvalue().strip()


def _eval_file(path: Path) -> dict[str, list[float]]:
    fields = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, *values = line.split()
        fields[key] = [float(v) for v in values]
    return fields


class PipelinePart:
    """One iteration: a pass, the commands of PIPELINE_PASS at stock settings
    in a fresh directory, back to back as a user would run them, then the
    checks on its outputs.  Each command is a step of its own."""

    def __init__(self, inp: Inputs, run: Run, workdir: Path):
        self.inp, self.run, self.workdir = inp, run, workdir
        self.test_mse: set[float] = set()
        self.hashes: dict[str, str] | None = None
        self.iterations = 0

    def _common(self, n: int) -> list[str]:
        return ["--config", str(self.inp.config_path), "--out-dir", str(self.workdir / f"pipeline-{n}")]

    def step(self) -> None:
        run, n = self.run, self.iterations
        self.iterations += 1
        for index, stage in enumerate(PIPELINE_PASS):
            if index:
                run.next_step()
            op = f"pipeline-{n}-{index}-{stage}"
            extra = ["--max-epochs", str(EPOCHS)] if stage == "train" else []
            result, elapsed = run.timed(op, _quiet_cli, [stage, *self._common(n), *extra])
            if result is not None and run.expect(result[0] == 0, op, f"exit {result[0]}: {result[1]}"):
                run.record(f"{stage}_s", elapsed)
        self._check_pass(n)

    def _check_pass(self, n: int) -> None:
        run, out_dir = self.run, self.workdir / f"pipeline-{n}"
        op = f"pipeline-{n}-check"
        run.attempted += 1
        try:
            self.test_mse.add(_eval_file(out_dir / cli.EVAL_FILE)["test_mse"][0])
            hashes = {f.name: sha256_file(f) for f in sorted(out_dir.iterdir())}
        except (OSError, KeyError, ValueError, IndexError) as exc:
            run.expect(False, op, f"unreadable outputs: {exc}")
        else:
            if self.hashes is None:
                self.hashes = hashes
            run.expect(hashes == self.hashes, op, "output files differ from the first pass")

        op = f"pipeline-{n}-oracle"
        result, _ = run.timed(op, _quiet_cli, ["eval", "--oracle", *self._common(n)])
        if result is not None and run.expect(result[0] == 0, op, f"exit {result[0]}: {result[1]}"):
            fields = _eval_file(out_dir / cli.EVAL_FILE)
            run.expect(
                fields.get("test_mse") == [0.0] and fields.get("per_output_test_mse") == [0.0] * 4,
                op,
                f"oracle test MSE is not exactly 0: {fields}",
            )
        shutil.rmtree(out_dir, ignore_errors=True)

    def finish(self) -> None:
        pass


PARTS = {"train": TrainPart, "infer": InferPart, "pipeline": PipelinePart}


@dataclasses.dataclass
class Measurement:
    workload: str
    run: Run
    inputs: Inputs
    parts: dict


def measure(workload: str, seed: int, seconds: float, workdir: Path, tracer: sp.Tracer | None = None) -> Measurement:
    """Set up SETUP_REPEATS times, then interleave the parts' iterations for
    `seconds`, always running the part furthest behind its time share.

    With a tracer, every other iteration of each part runs with the tracer
    installed; the untraced ones give the baseline for the tracing overhead.
    """
    run = Run()
    inputs = None
    for i in range(SETUP_REPEATS):
        op = f"setup-{i}"
        inputs, elapsed = run.timed(op, set_up, workdir, seed, run, op)
        if inputs is None:
            raise RuntimeError("set-up failed: " + "; ".join(run.errors))
        run.record("setup_s", elapsed)
        run.next_step()

    parts = {name: cls(inputs, run, workdir) for name, cls in PARTS.items()}
    share = {name: FOCUS_SHARE if name == workload else 1.0 for name in parts}
    spent = dict.fromkeys(parts, 0.0)
    deadline = time.perf_counter() + seconds
    while True:
        candidates = list(parts)
        if time.perf_counter() >= deadline:
            candidates = [n for n, p in parts.items() if p.iterations < MIN_ITERATIONS]
            if not candidates:
                break
        name = min(candidates, key=lambda n: spent[n] / share[n])
        part = parts[name]
        start = time.perf_counter()
        if tracer is not None and part.iterations % 2 == 1:
            run.tracer = tracer
            try:
                with tracer.installed(TRACE_TARGETS):
                    part.step()
            finally:
                run.tracer = None
        else:
            part.step()
        run.next_step()
        spent[name] += time.perf_counter() - start
    for part in parts.values():
        part.finish()

    train, pipe = parts["train"], parts["pipeline"]
    run.check(
        pipe.test_mse == train.test_mse,
        "cross-check-mse",
        f"eval test MSE {pipe.test_mse} differs from training's {train.test_mse}",
    )
    hashes = pipe.hashes or {}
    run.check(
        hashes.get(cli.MODEL_FILE) == train.model_sha256,
        "cross-check-model",
        "pipeline model file differs from the train part's",
    )
    run.check(
        hashes.get(cli.DATASET_FILE) == inputs.dataset_sha256,
        "cross-check-dataset",
        "generated dataset differs from the set-up's stock dataset",
    )
    return Measurement(workload, run, inputs, parts)


def _median(values, scale: float = 1.0) -> float | None:
    return statistics.median(values) * scale if values else None


def _inverse(scale: float, value: float | None) -> float | None:
    return scale / value if value else None


def end_to_end_metrics(m: Measurement) -> dict[str, tuple[float | None, str]]:
    """Medians of the untraced timings, in reference seconds."""
    run, train = m.run, m.parts["train"]

    def median(series: str, scale: float = 1.0) -> float | None:
        return _median(run.calibrated(series), scale)

    metrics = {
        "setup_s": (median("setup_s"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "train_samples_per_s": (_inverse(train.rows, median("train_call_s")), "1/s"),
        "test_mse": (next(iter(train.test_mse)) if len(train.test_mse) == 1 else None, "1"),
        "infer_b1_us_p50": (median("infer_b1_s", 1e6), "us"),
        "infer_b1k_rows_per_s": (_inverse(1000, median("infer_b1000_s")), "rows/s"),
        "infer_b10k_rows_per_s": (_inverse(10000, median("infer_b10000_s")), "rows/s"),
    }
    for stage in PIPELINE_STAGES:
        metrics[f"{stage}_s"] = (median(f"{stage}_s"), "s")
    return metrics


def sample_details(m: Measurement) -> dict[str, dict]:
    """Per timed series: sample count, and the median and tail percentile in
    reference seconds next to the median of the raw seconds."""
    run, details = m.run, {}
    for name, samples in sorted(run.samples.items()):
        values = run.calibrated(name)
        pct, tail, n = sp.tail_percentile(values)
        details[name] = {"n": n, "p50": _median(values), "tail_pct": pct, "tail": tail,
                         "raw_p50": _median([s for _, s in samples])}
    ref = run.reference
    details["reference_kernel_s"] = {"n": len(ref), "min": min(ref), "p50": _median(ref), "max": max(ref)}
    return details


def _training_steps(spans, part: str = "train") -> tuple[list[int], list[int]]:
    """Step durations (forward_train start to Adam.step end) and epoch
    durations (closed by each validation forward) inside training.train,
    over the spans of one part."""
    steps, epochs = [], []
    epoch_start: dict[int, int] = {}
    step_start: dict[int, int] = {}
    for i, span in enumerate(spans):
        if sp.part_of(span) != part:
            continue
        name, parent = span[sp.NAME], span[sp.PARENT]
        if name == "training.train":
            epoch_start[i] = span[sp.START]
        elif parent in epoch_start:
            if name == "network.MlpModel.forward_train":
                step_start[parent] = span[sp.START]
            elif name == "network.Adam.step" and parent in step_start:
                steps.append(span[sp.END] - step_start.pop(parent))
            elif name == "network.MlpModel.forward":
                epochs.append(span[sp.END] - epoch_start[parent])
                epoch_start[parent] = span[sp.END]
    return steps, epochs


def per_layer_metrics(tracer: sp.Tracer, m: Measurement) -> dict[str, tuple[float | None, str]]:
    """Per part, each traced function's calls, self time and median duration,
    from that part's spans only; derived training figures; computed sizes;
    and the tracing overhead on the focus part."""
    metrics: dict[str, tuple[float | None, str]] = {}
    for part, targets in PART_TARGETS.items():
        for name, entry in tracer.summary(targets, part).items():
            if name in tracer.absent:
                continue
            metrics[f"{part}.{name}.calls"] = (entry["calls"], "count")
            metrics[f"{part}.{name}.self_s"] = (entry["self_s"], "s")
            metrics[f"{part}.{name}.p50_ms"] = (entry.get("p50_ms"), "ms")

    steps, epochs = _training_steps(tracer.spans)
    step_p50 = _median(steps, 1e-9)
    metrics["train.training.step_ms_p50"] = (_median(steps, 1e-6), "ms")
    metrics["train.training.step_ms_p99"] = (sp.nearest_rank(steps, 99) / 1e6 if steps else None, "ms")
    metrics["train.training.steps"] = (len(steps), "count")
    metrics["train.training.epoch_s_p50"] = (_median(epochs, 1e-9), "s")

    # Computed from the stock architecture, not measured.
    stock = m.inputs.stock
    model = network.init_model(stock.arch, stock.init_seed)
    params = sum(p.size for p in model.parameters())
    macs = sum(dense.weights.size for dense, _ in model.blocks) + model.output_layer.weights.size
    batch = stock.train_config.batch_size
    metrics["network.params"] = (params, "count")
    metrics["network.macs_per_row"] = (macs, "count")
    # Forward 2 FLOPs per MAC, backward 4 (input and weight gradients).
    metrics["network.step_gflops"] = (6 * macs * batch / step_p50 / 1e9 if step_p50 else None, "GFLOP/s")
    # Adam reads parameter, gradient and both moments, and writes three back.
    metrics["network.adam_bytes_per_step"] = (7 * 8 * params, "bytes")
    metrics["data.dataset_bytes"] = (m.inputs.dataset_bytes, "bytes")
    metrics["data.model_bytes"] = (m.parts["train"].model_bytes, "bytes")

    ratios = []
    for series in OVERHEAD_SERIES[m.workload]:
        traced = _median(m.run.calibrated(series + TRACED))
        plain = _median(m.run.calibrated(series))
        if traced and plain:
            ratios.append(traced / plain)
    metrics["trace.overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0) if ratios else None, "%")
    return metrics
