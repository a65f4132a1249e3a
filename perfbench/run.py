"""Registration and certification benchmark for tlsreg.

Run from the repository root:

    python3 perfbench/run.py --workload known99_n1000 --seed 1 --seconds 15 --trace 0

One process sends one public call at a time (a closed loop with a single
client) on inputs generated from --seed, checks every output against the
generator's ground truth, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 every
call runs twice, once plain and once with spans around the package's
layer functions, and the metrics are the per-layer ones.  A line before
the result records the environment; the whole record, with the spans of
a traced run, is written under .perfbench/ in the working directory.

BLAS is pinned to one thread: at the certifier's 404x404 eigensolves one
thread was faster than two on a 2-core machine, and a single client
needs no more.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 2  # extra set-ups in fresh interpreters; setup_s is the median


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help="time one set-up, print it and exit"
    )
    return parser.parse_args(argv)


def import_bench():
    """Import the benchmark and the package from this checkout's sources."""
    sys.path.insert(0, str(SRC))
    import bench
    import tlsreg

    if Path(tlsreg.__file__).resolve().parent != SRC / "tlsreg":
        raise SystemExit(f"tlsreg imported from {tlsreg.__file__}, not from {SRC}")
    return bench


def environment() -> dict:
    import numpy
    import scipy

    import tlsreg.clique

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "blas_env": {k: os.environ[k] for k in BLAS_ENV},
        "clique_compiled_kernel": bool(tlsreg.clique.COMPILED_KERNEL),
    }


def setup_probes(args) -> list[float]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-probe",
    ]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.split()[-1]))
    return out


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)
    bench = import_bench()
    if args.workload not in bench.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
    w = bench.WORKLOADS[args.workload]
    first_block = bench.make_block(w, args.seed, 0)
    setup_own = time.perf_counter() - t_start
    if args.setup_probe:
        print(f"{setup_own:.9f}")
        return 0

    trace = bool(args.trace)
    setup = [setup_own] + ([] if trace else setup_probes(args))
    rec = bench.measure(w, args.seed, args.seconds, first_block, trace)
    summary = bench.summarize(w, rec)
    if trace:
        metrics = bench.per_layer(w, rec)
    else:
        metrics = bench.end_to_end(w, rec, statistics.median(setup))
    result = {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment()
    kinds = dict(Counter(o.kind for o in rec.outcomes))

    out_dir = Path.cwd() / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "setup_samples_s": setup,
        "calls_by_kind": kinds,
        "candidates_skipped": rec.candidates_skipped,
        "calls": [dataclasses.asdict(o) for o in rec.outcomes],
        "result": result,
        "spans": rec.tracer.to_records() if trace else [],
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record)
    )

    print("env " + json.dumps(env))
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: calls {kinds} "
        f"(plain), candidates skipped {rec.candidates_skipped}, "
        f"attempted {result['attempted']}, failed {result['failed']}, "
        f"success_rate {summary['success_rate']:.3f}, correct {result['correct']}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
