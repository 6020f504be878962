"""Benchmark of the wignernet pipeline: train, infer and pipeline workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 35 --trace 0

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 every other iteration of each part runs
with every public wignernet function wrapped, and the JSON holds the
per-layer metrics and the tracing overhead.  The exit code is 0 only when
every output check passed.  Run records and span dumps go to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def cap_blas_threads() -> int:
    """Run BLAS single-threaded; must run before numpy is imported.

    The training matrices are small (B = 64 by 256), where a second OpenBLAS
    thread gains nothing, and its spin-waiting turns any other busy process
    on the cores into several-fold slowdowns of the whole run.
    """
    threads = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def environment(threads: int, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    cpu = next(
        (line.split(":", 1)[1].strip() for line in (_read("/proc/cpuinfo") or "").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size and kind != "Instruction":
            caches[f"L{level}" + ("d" if kind == "Data" else "")] = size
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "blas_threads_reported": _openblas_threads(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches_per_core": caches,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "infer", "pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wignernet" / "__init__.py").is_file():
        print(f"error: {SRC / 'wignernet'} is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import wignernet

    if Path(wignernet.__file__).resolve().parent != SRC / "wignernet":
        print(f"error: imported wignernet from {wignernet.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import spans
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = spans.Tracer() if args.trace else None
    try:
        m = workloads.measure(args.workload, args.seed, args.seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{tag}.json", args.workload)
        metrics = workloads.per_layer_metrics(tracer, m)
        absent = list(tracer.absent)
    else:
        metrics = workloads.end_to_end_metrics(m)
        absent = []

    # A per-layer metric may be absent once the program drops a name; an
    # end-to-end metric never may.
    missing = [name for name, (value, _) in metrics.items() if value is None]
    absent += missing
    run = m.run
    correct = run.failed == 0 and (tracer is not None or not missing)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if value is not None
        },
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(threads, args.seed),
        "reference_s": workloads.REFERENCE_S,
        "samples": workloads.sample_details(m),
        "fingerprints": {
            "model_sha256": m.parts["train"].model_sha256,
            "dataset_sha256": m.inputs.dataset_sha256,
        },
        "absent": absent,
        "errors": run.errors,
        "result": result,
    }
    (OUT_DIR / f"record-{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps(record["environment"]), file=sys.stderr)
    for line in run.errors:
        print(f"check failed: {line}", file=sys.stderr)
    for name in absent:
        print(f"absent: {name}", file=sys.stderr)
    for name, entry in result["metrics"].items():
        print(f"{name:48s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
