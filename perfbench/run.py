#!/usr/bin/env python3
"""sectorsim benchmark driver.

    python3 perfbench/run.py --workload dense-oracle --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Runs one workload (or, with ``all``, each in turn) as a closed loop with
one client in one process: the next job starts when the previous one has
returned and been checked.  Jobs come from a seeded generator
(``workloads.py``) and call the package from ``src/`` of the checkout
this file sits in; nothing is installed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
prefix of the job list alternately untraced and traced (``tracing.py``)
and reports the per-layer metrics.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("dense-oracle", "structured-deep", "oracle-battery")
END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_s.p50", "s"),
    ("job_s.p90", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_PROBES = 7  # fresh interpreters per run; setup_s is their median
MIN_JOBS = 100  # so that at least ten samples lie beyond job_s.p90
TIME_LIMIT_S = 140.0  # a run stops timing jobs here whatever MIN_JOBS says
JOB_CYCLES = 20  # length of the generated job list, in workload cycles; runs wrap around
# Jobs per pass of a traced run: whole workload cycles, so counts are
# exact and repeat for a seed.
TRACE_JOBS = {"dense-oracle": 20, "structured-deep": 25, "oracle-battery": 10}


def percentile(values, q: float) -> float:
    """q-th percentile (0 to 100), interpolating linearly between ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes() -> dict[str, int]:
    """Per-core L1d, L2 and shared L3 sizes as the kernel reports them."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        out[f"l{level}{'d' if kind == 'Data' else ''}_bytes"] = int(size.rstrip("KMG")) * scale
    return out


def environment(workload: str, working_sets: dict[str, int]) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_threads": _blas_threads(),
        "cpu_model": _cpu_model(),
        **_cache_bytes(),
        "working_set_bytes": working_sets,
    }


# ---------------------------------------------------------------------------
# Set-up and the job loop
# ---------------------------------------------------------------------------

def set_up(workload: str, seed: int):
    """Import the package, generate the job list, warm up each job type.

    Returns the workloads module, the job list, the number of warm-up
    jobs and the list of failures so far.
    """
    sys.path.insert(0, str(SRC))
    import workloads

    jobs = workloads.make_jobs(workload, seed, len(workloads.CYCLES[workload]) * JOB_CYCLES)
    warmups = workloads.make_warmups(workload, seed)
    failures = []
    run_pass(workloads, warmups, failures)
    return workloads, jobs, len(warmups), failures


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time, over fresh interpreters, from process start to the
    point where the first timed job would begin."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        started = time.time_ns()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        lines = done.stdout.split()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr.strip()}")
        times.append((int(lines[-1]) - started) / 1e9)
    return statistics.median(times)


def run_pass(workloads, jobs, failures: list, tracer=None) -> list[float]:
    """Run each job once; returns job wall times and appends failures."""
    times = []
    for k, job in enumerate(jobs):
        inputs = workloads.prepare(job)
        if tracer is not None:
            tracer.job_id = k
        elapsed, reason = workloads.run_job(job, inputs)
        times.append(elapsed)
        if reason:
            failures.append((job, reason))
    return times


def timed_loop(workloads, jobs, cycle: int, seconds: float, failures: list) -> list[float]:
    """Closed loop over the job list for ``seconds`` and at least MIN_JOBS
    jobs, stopping only after a whole cycle of the job mix, so every run
    times the same mix."""
    times = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= TIME_LIMIT_S or (
                len(times) % cycle == 0 and elapsed >= seconds and len(times) >= MIN_JOBS):
            return times
        times += run_pass(workloads, [jobs[len(times) % len(jobs)]], failures)


def _report_failures(failures) -> None:
    for job, reason in failures[:10]:
        print(f"FAILED {job.type} {dict(job.params)}: {reason}", file=sys.stderr)


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setup_s = measure_setup(workload, seed)
    workloads, jobs, warmups, failures = set_up(workload, seed)
    warmup_failed = len(failures)
    times = timed_loop(workloads, jobs, len(workloads.CYCLES[workload]), seconds, failures)
    _report_failures(failures)
    completed = len(times) - (len(failures) - warmup_failed)
    p50, p90 = percentile(times, 50), percentile(times, 90)
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": completed / sum(times),
        "job_s.p50": p50,
        "job_s.p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh-interpreter set-ups",
        "jobs_per_s": f"{completed} jobs completed in {sum(times):.2f} s of job time",
        "job_s.p50": f"{len(times)} samples, {sum(t > p50 for t in times)} beyond",
        "job_s.p90": f"{len(times)} samples, {sum(t > p90 for t in times)} beyond",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    print(f"environment {json.dumps(environment(workload, workloads.working_set_bytes(workload)))}")
    for name, unit in END_TO_END:
        print(f"  {name:<12} {metrics[name]:>12.6g} {unit:<4} {notes[name]}")
    attempted = len(times) + warmups
    print(f"jobs: {attempted} attempted ({len(times)} timed, {warmups} warm-up), "
          f"{len(failures)} failed")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
    }


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    import tracing

    workloads, jobs, attempted, failures = set_up(workload, seed)
    subset = jobs[:TRACE_JOBS[workload]]
    reps = []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        untraced = run_pass(workloads, subset, failures)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(workloads, subset, failures, tracer)
        finally:
            tracer.uninstall()
        attempted += 2 * len(subset)
        reps.append(tracer.metrics(sum(traced), sum(untraced)))
        now = time.perf_counter()
        if now - start >= seconds or now + (now - rep_start) - start >= TIME_LIMIT_S:
            break
    tracer.save(OUT / f"trace-{workload}-seed{seed}.npz")
    _report_failures(failures)
    # counts repeat exactly from one repetition to the next; times vary
    metrics = {name: reps[0][name] if unit in ("count", "B")
               else statistics.median(rep[name] for rep in reps)
               for name, unit, _ in tracing.PER_LAYER}
    print(f"environment {json.dumps(environment(workload, workloads.working_set_bytes(workload)))}")
    print(f"traced: {len(reps)} repetitions of {len(subset)} jobs, untraced then traced; "
          f"medians over repetitions; spans of the last in {OUT.name}/")
    for name, unit, _ in tracing.PER_LAYER:
        print(f"  {name:<52} {metrics[name]:>14.6g} {unit}")
    print(f"jobs: {attempted} attempted, {len(failures)} failed")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in tracing.PER_LAYER},
    }


def run_all(args) -> dict:
    """Each workload in its own process; prints each table and a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"{workload} exited {done.returncode}")
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "sectorsim" / "cli.py").is_file():
        print(f"cannot find the sectorsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        set_up(args.workload, args.seed)
        print(time.time_ns(), flush=True)
        return 0
    if args.workload == "all":
        result = run_all(args)
    elif args.trace:
        result = per_layer(args.workload, args.seed, args.seconds)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
