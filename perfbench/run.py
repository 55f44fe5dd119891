"""Run one workload of the muprop benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload sop-train --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports `muprop` from `src/`. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end metrics of an untraced pass. With `--trace 1` the run splits its
time between an untraced pass and a traced pass over the same inputs,
prints the per-layer metrics of the traced pass plus the tracing overhead,
and writes the spans to `perfbench/.out/`.
"""
import os
import sys
import time

_LOAD_AT_START = os.getloadavg()[0]
# Single-threaded BLAS, set before NumPy loads: one process, no extra threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")
WORKLOAD_NAMES = ("sop-train", "sbn-cat-train", "oracle")
SETUP_REPEATS = 3  # fresh processes timed for setup_s


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up, print the monotonic clock at the first timed operation, and exit
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _import_program():
    """Import muprop from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "muprop", "__init__.py")):
        sys.exit(f"perfbench: no muprop sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import muprop

    if os.path.dirname(os.path.dirname(os.path.abspath(muprop.__file__))) != SRC:
        sys.exit(f"perfbench: imported muprop from {muprop.__file__}, not from {SRC}")


def _now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _setup_seconds(args) -> float:
    """Median over fresh processes of the time from spawning `run.py` to its
    first timed operation: interpreter start, imports, data generation,
    graph builds and warm-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = _now()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                             timeout=120)
        times.append(float(out.stdout.split()[-1]) - t0)
    return statistics.median(times)


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "loadavg_1min_at_start": _LOAD_AT_START,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    import tracer as tracing
    import workloads as W

    wl = W.WORKLOADS[args.workload]
    inputs = W.setup(wl, args.seed)
    if args.setup_probe:
        print(repr(_now()))
        return 0
    setup_s = _setup_seconds(args)
    env = _environment()

    seconds = args.seconds / 2 if args.trace else args.seconds
    os.makedirs(OUT, exist_ok=True)
    run_root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        plain = W.Pass(wl, args.seed, inputs, run_root).run(seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes = [plain]
        if args.trace:
            tr = tracing.Tracer()
            tr.install()
            try:
                traced = W.Pass(wl, args.seed, inputs, run_root, tracer=tr).run(seconds)
            finally:
                tr.uninstall()
            passes.append(traced)
            tr.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz"))
    finally:
        shutil.rmtree(run_root, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for msg in p.failures:
            print(f"perfbench: FAILED {msg}", file=sys.stderr)

    rates = W.throughput(plain)
    if args.trace:
        traced_rates = W.throughput(traced)
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in tracing.per_layer(tr, traced.units).items()}
        for name, v in rates.items():
            slowdown = (v / traced_rates[name] - 1.0) * 100.0 if traced_rates[name] else 0.0
            metrics[f"tracing_overhead.{name}"] = {"value": slowdown, "unit": "%"}
    else:
        metrics = {name: {"value": v, "unit": W.THROUGHPUT_UNITS[name]}
                   for name, v in rates.items()}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
        metrics["ops_ok_frac"] = {"value": (attempted - failed) / attempted, "unit": "ratio"}

    print("# env " + json.dumps(env, sort_keys=True))
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "runs": {k: len(v) for k, v in plain.runs.items()},
                             "evals": len(plain.evals), "oracle_graphs": len(plain.configs),
                             "moment_calls": len(plain.draws)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
