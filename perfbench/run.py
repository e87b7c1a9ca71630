"""Benchmark runner: one workload, one process, one thread.

    python3 perfbench/run.py --workload transport --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory. Untraced (``--trace 0``), the runner sets up, runs
instances of the workload for ``--seconds`` of wall time and reports the
end-to-end metrics, with times scaled to a reference host speed (see
``REF_KERNEL_S``). Traced (``--trace 1``), it runs a fixed number of
instances twice, untraced and then with the layer wrappers installed, and
reports the per-layer metrics and the tracing overhead. Every instance
checks its residual against its tolerance. The last line of standard
output is the result object; the line before it holds the details.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402  (the clock starts before the imports)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS/OpenMP thread, set before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3  # cold set-ups per run: this process plus two probes
# The speed of a shared host drifts by up to 2x within seconds, and a slower
# host slows the kernel below and the library alike. End-to-end times are
# therefore scaled by REF_KERNEL_S / (kernel time measured next to them):
# they read as times on a host where the kernel takes REF_KERNEL_S. The
# wall-clock figures are in the detail line.
REF_KERNEL_S = 0.8e-3
PROBE_TIMEOUT_S = 150
P90_MIN_SAMPLES = 100


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def import_workloads():
    """Import the workloads on the checkout's own library, or explain why not."""
    if not (SRC / "stringtop" / "__init__.py").is_file():
        raise SystemExit(f"error: no library sources under {SRC}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import stringtop

    if not Path(stringtop.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported stringtop from {stringtop.__file__}, not from {SRC}")
    from perfbench import workloads

    return workloads


def set_up(workloads, name: str):
    """Fixtures plus one untimed warm-up instance from a seed-independent stream."""
    from perfbench.inputs import WARMUP_SEED

    workload = workloads.WORKLOADS[name]
    fixtures = workload.fixtures()
    warm = workloads.RunStats()
    if not workloads.run_one(workload, warm, WARMUP_SEED, 0, fixtures):
        raise SystemExit(f"error: warm-up instance failed: {warm.errors[0]}")
    return workload, fixtures


def setup_probe(args) -> tuple[float, float]:
    """(scaled, wall) set-up time of a fresh process, the same as this one's."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["wall_setup_s"]


def environment() -> dict:
    import numpy
    import platform
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def kernel_s() -> float:
    """Median of three timings of a fixed, standard-library-only kernel."""
    times = []
    for _ in range(3):
        start = perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 200):
            acc += Fraction(i, i + 1)
            table[i & 63] = table.get(i & 63, 0) + i
        sum(i * i for i in range(2000))
        times.append(perf_counter() - start)
    return statistics.median(times)


def measure(workloads, workload, fixtures, seed: int, seconds: float):
    """Instances 0, 1, 2, ... until ``seconds`` of wall time have passed.

    Each instance is timed on the wall clock and also scaled to the
    reference host speed by the kernel timings taken just before and just
    after it. Returns the stats, the wall time, the scaled time of every
    instance and of every completed one, and the kernel timings.
    """
    stats = workloads.RunStats()
    scaled, scaled_ok, kernels = [], [], [kernel_s()]
    start = perf_counter()
    k = 0
    while perf_counter() - start < seconds:
        begin = perf_counter()
        ok = workloads.run_one(workload, stats, seed, k, fixtures)
        took = perf_counter() - begin
        kernels.append(kernel_s())
        scaled.append(took * REF_KERNEL_S * 2 / (kernels[-2] + kernels[-1]))
        if ok:
            scaled_ok.append(scaled[-1])
        k += 1
    return stats, perf_counter() - start, scaled, scaled_ok, kernels


def run_untraced(args, workloads, workload, fixtures, setup: tuple[float, float]):
    stats, wall, scaled, scaled_ok, kernels = measure(workloads, workload, fixtures, args.seed, args.seconds)
    setups = [setup] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    completed = len(scaled_ok)
    metrics = {
        "instances_per_s": (completed / sum(scaled), "1/s"),
        "instance_ms_p50": (statistics.median(scaled_ok) * 1e3 if scaled_ok else 0.0, "ms"),
        "setup_s": (statistics.median(scaled for scaled, _ in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "kernel_ms_median": statistics.median(kernels) * 1e3,
        "kernel_ms_reference": REF_KERNEL_S * 1e3,
        "wall_s": wall,
        "wall_instances_per_s": completed / wall,
        "wall_instance_ms_p50": statistics.median(stats.times_s) * 1e3 if stats.times_s else 0.0,
        "wall_setup_s": statistics.median(wall_s for _, wall_s in setups),
        "samples": {"instance_ms_p50": completed, "setup_s": len(setups), "kernel": len(kernels)},
    }
    # a 90th percentile needs ten samples beyond it to be worth reporting
    if completed >= P90_MIN_SAMPLES:
        detail["instance_ms_p90"] = statistics.quantiles(scaled_ok, n=10)[8] * 1e3
        detail["samples"]["instance_ms_p90"] = completed
    return stats, metrics, detail


def run_traced(args, workloads, workload, fixtures):
    from perfbench.tracing import Tracer

    count = workload.trace_instances
    plain = workloads.RunStats()
    start = perf_counter()
    for k in range(count):
        workloads.run_one(workload, plain, args.seed, k, fixtures)
    untraced_wall = perf_counter() - start
    stats = workloads.RunStats()
    tracer = Tracer()
    with tracer:
        start = perf_counter()
        for k in range(count):
            workloads.run_one(workload, stats, args.seed, k, fixtures)
        traced_wall = perf_counter() - start
    metrics = {}
    for name, value in tracer.aggregate().items():
        metrics[name] = (value, "s" if name.endswith("_s") else "count")
    metrics["retries.collinear"] = (stats.retries["collinear"], "count")
    metrics["retries.vertex"] = (stats.retries["vertex"], "count")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    detail = {"trace_instances": count, "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall}
    return stats, metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload, fixtures = set_up(workloads, args.workload)
    wall_setup_s = perf_counter() - T_START
    setup_s = wall_setup_s * REF_KERNEL_S / kernel_s()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "wall_setup_s": wall_setup_s}))
        return 0
    if args.seed is None:
        from perfbench.inputs import DEFAULT_SEED

        args.seed = DEFAULT_SEED
    if args.trace:
        stats, metrics, detail = run_traced(args, workloads, workload, fixtures)
    else:
        stats, metrics, detail = run_untraced(args, workloads, workload, fixtures, (setup_s, wall_setup_s))
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        instances_attempted=stats.attempted,
        instances_failed=stats.failed,
        failed_over_attempted=f"{stats.failed}/{stats.attempted}",
        resid_over_tol_max=stats.resid_over_tol_max,
        retries=dict(stats.retries),
        errors=stats.errors,
        environment=environment(),
    )
    print(json.dumps({"detail": detail}))
    result = {
        "correct": stats.failed == 0 and stats.attempted > 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
