"""Benchmark of the antipodal package: one workload per run.

    python3 perfbench/run.py --workload spectral-sweep --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all

Run from a checkout: the package is imported from ``src/``.  A run measures
set-up (import plus input building, median of several), then repeats full
passes of the workload until ``--seconds`` have elapsed, timing a fixed
calibration loop between passes to scale out the machine's speed drift, then
checks every pass's output against brute-force references.  With ``--trace 0`` it
reports the end-to-end metrics, with ``--trace 1`` it alternates untraced
and traced passes and reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# set-up samples, spread over the run: this machine's speed drifts over
# seconds, and samples taken back to back would all see the same phase.  An
# import takes about 0.1 s and varies more than an input build, so it is
# sampled more often
BUILD_SAMPLES = 5
IMPORT_SAMPLES = 15
# The speed of a shared 2-vCPU VM drifts by 20-60% over minutes with other
# tenants' load, and the workloads' times drift with it.  A fixed pure-Python
# loop, timed before the first pass and after every pass for CALIBRATION_SHARE
# of that pass's time, follows the same drift.  The workloads slow by less
# than the loop: over ten runs of each, their log times rose by 0.24-0.67 of
# the loop's log time, and scaling by the square root of the loop's slowdown
# gave the smallest run-to-run spread.  So reported times are measured *
# (CALIBRATION_REF_S / median loop time of the run) ** CALIBRATION_EXPONENT,
# where CALIBRATION_REF_S is the loop's median on an Intel Xeon 2.1 GHz
# 2-vCPU VM with CPython 3.11 in a fast phase.
CALIBRATION_LOOPS = 500_000
CALIBRATION_REF_S = 0.04
CALIBRATION_SHARE = 0.1
CALIBRATION_EXPONENT = 0.5
# BLAS/OpenMP thread cap for this process and its children, set before NumPy
# loads.  The package's timed NumPy paths are single-threaded either way; the
# cap keeps BLAS calls (fits, reference eigensolves) from spawning threads
# that contend on a 2-CPU machine
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "success_rate": "frac",
}
# per-layer metrics measured by the benchmark itself rather than from spans
RUN_LAYER_METRICS = {
    "trace.overhead_frac": "frac",
    "annuli.cells_missed": "count",
}


def _import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import antipodal; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip())


def _calibration_seconds() -> float:
    """Time of the fixed calibration loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:  # no git on this machine
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "thread_cap": THREAD_CAP,
        "commit": _git_commit(),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


class _PassFailed:
    """Output of a pass that raised; every operation of it counts as failed."""


def _run_pass(workload):
    try:
        return workload.run_pass()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return _PassFailed()


def _failed(workload, output) -> int:
    """Failed operations of one pass; output that cannot be parsed fails all."""
    if isinstance(output, _PassFailed):
        return workload.ops
    try:
        return workload.check(output)
    except (ValueError, IndexError, KeyError, TypeError):
        traceback.print_exc(file=sys.stderr)
        return workload.ops


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One benchmark run of `workload`; returns the result object."""
    import pb_trace

    def build_seconds():
        t0 = time.perf_counter()
        workload.setup(seed, workdir)
        return time.perf_counter() - t0

    def calibrate(budget: float):
        """At least one loop sample, and as many as fit in `budget` seconds."""
        spent = 0.0
        while not calibration or spent < budget:
            calibration.append(_calibration_seconds())
            spent += calibration[-1]

    builds, imports, calibration = [build_seconds()], [_import_seconds()], []
    calibrate(0.0)
    outputs, plain, traced, profiles = [], [], [], []
    start = time.perf_counter()
    while True:
        tracing = trace and len(traced) < len(plain)
        t0 = time.perf_counter()
        if tracing:
            with pb_trace.Tracer() as tracer:
                outputs.append(tracer.call(pb_trace.ROOT_SPAN, _run_pass, workload))
            profile = pb_trace.Profile(tracer.spans, tracer.absent)
            profiles.append(profile)
            traced.append(profile.wall())
        else:
            outputs.append(_run_pass(workload))
            plain.append(time.perf_counter() - t0)
        calibrate(CALIBRATION_SHARE * (time.perf_counter() - t0))
        elapsed = time.perf_counter() - start
        for samples, count, sample in ((builds, BUILD_SAMPLES, build_seconds),
                                       (imports, IMPORT_SAMPLES, _import_seconds)):
            while len(samples) < count and elapsed >= len(samples) * seconds / count:
                samples.append(sample())
                elapsed = time.perf_counter() - start
        if elapsed >= seconds and (traced or not trace):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = workload.ops * len(outputs)
    failed = sum(_failed(workload, out) for out in outputs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "passes": len(outputs)}
    if trace:
        result["metrics"] = _layer_metrics(workload, profiles, outputs, traced, plain)
        result["profile"] = profiles[0]
    else:
        scale = (CALIBRATION_REF_S / statistics.median(calibration)) ** CALIBRATION_EXPONENT
        setup = statistics.median(imports) + statistics.median(builds)
        result["measured"] = {"wall_s": statistics.median(plain), "setup_s": setup,
                              "calibration_s": statistics.median(calibration)}
        values = {
            "wall_s": statistics.median(plain) * scale,
            "setup_s": setup * scale,
            "peak_rss_mib": peak_rss_mib,
            "success_rate": 1.0 - failed / attempted,
        }
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in END_TO_END.items()}
    return result


def _layer_metrics(workload, profiles, outputs, traced, plain) -> dict:
    import pb_trace

    per_pass = [pb_trace.layer_metrics(p) for p in profiles]
    metrics = {}
    for name, (unit, _) in pb_trace.LAYER_METRICS.items():
        values = [m[name] for m in per_pass if m[name] is not None]
        metrics[name] = {"value": statistics.median(values) if values else None,
                         "unit": unit}
    missed = 0
    if hasattr(workload, "missed_cells"):
        good = [o for o in outputs if not isinstance(o, _PassFailed)]
        missed = workload.missed_cells(good[0]) if good else None
    values = {
        "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
        "annuli.cells_missed": missed,
    }
    metrics.update({name: {"value": values[name], "unit": unit}
                    for name, unit in RUN_LAYER_METRICS.items()})
    return metrics


def _print_table(name: str, result: dict) -> None:
    print(f"{name}: {result['passes']} passes, {result['attempted']} operations, "
          f"{result['failed']} failed")
    for metric, entry in result["metrics"].items():
        value = "absent" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"  {metric:42s} {value:>14s} {entry['unit']}")
    for name, seconds in result.get("measured", {}).items():
        print(f"  {'measured ' + name:42s} {seconds:14.6g} s  (unscaled)")
    if "profile" in result:
        wall = result["profile"].wall()
        print(f"  self time by module, first traced pass (sum = traced wall "
              f"{wall:.6g} s):")
        modules = result["profile"].module_self_times()
        for module, seconds in sorted(modules.items(), key=lambda kv: -kv[1]):
            print(f"    {module:12s} {seconds:12.6g} s  {seconds / wall:7.2%}")


def _final_line(result: dict) -> str:
    """The result object; a metric of a layer the program no longer has is
    left out rather than scored."""
    metrics = {name: entry for name, entry in result["metrics"].items()
               if entry["value"] is not None}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def _run_all(args) -> int:
    """Every workload, each in a fresh interpreter so that peak memory is its own."""
    import pb_workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in pb_workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exit {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    if not (SRC / "antipodal" / "__init__.py").is_file():
        print(f"error: no antipodal package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pb_workloads

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in pb_workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(pb_workloads.WORKLOADS)} or all")
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    try:
        workload = pb_workloads.WORKLOADS[args.workload]()
        result = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("env: " + json.dumps(environment(args.seed)))
    _print_table(args.workload, result)
    print(_final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
