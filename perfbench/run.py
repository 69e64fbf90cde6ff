"""Benchmark of the mopp pipeline at paper-default sizes: planner latency,
evaluate throughput, training rates and CLI time, with a traced per-layer run.

Run from the repository root (workloads are listed in BENCHMARK.json):

    python3 perfbench/run.py --workload paper-default --seed 1 --seconds 45 --trace 0

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run. Earlier lines
give the machine fingerprint and a report (episode returns, held-out model
error, sample counts). The program is imported from ``src/`` of the
checkout; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: with two on a 2-vCPU VM, OpenBLAS GEMMs stall for about
# 100 ms every few seconds and the run-to-run spread of every timing doubles.
BLAS_THREADS = 1


def limit_blas_threads() -> None:
    """Fix the BLAS thread count; must run before numpy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def blas_threads(np) -> int:
    """Threads the bundled OpenBLAS reports, or the requested count if it cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def fingerprint(np, bench, nproc: int) -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    peak, size = bench.sgemm_peak()
    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(np),
        "sgemm_peak_gflops": peak,
        "sgemm_size": size,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    limit_blas_threads()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if not os.path.isfile(os.path.join(SRC, "mopp", "__init__.py")):
        print(f"error: no mopp sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np

    import bench
    import tracing

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2

    machine = fingerprint(np, bench, nproc)
    print("fingerprint " + json.dumps(machine), flush=True)
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        ops, metrics, report = bench.run(
            args.workload,
            args.seed,
            args.seconds,
            work,
            machine["sgemm_peak_gflops"],
            tracer=tracing.Tracer() if args.trace else None,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(work_root):
            os.rmdir(work_root)
    if not args.trace:
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["ok_frac"] = ((ops.attempted - ops.failed) / ops.attempted, "ratio")
    print("report " + json.dumps(report), flush=True)
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
