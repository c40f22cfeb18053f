"""Measuring process of the rsri benchmark: runs the jobs of one workload.

run.py starts this script in a fresh interpreter after it has written the
inputs, so peak RSS covers this workload's jobs alone.  Usage:

    python3 perfbench/measure.py SPEC.json RESULT.json

A job is one pass through the workload (setup, solve) with outside
timers only.  Jobs repeat until the next one would end past the time
budget.  The traced run alternates untraced and traced jobs, and the
tracing overhead is the difference of their median wall times.
"""
from __future__ import annotations

import itertools
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import Patched, SpanRecorder, layer_metrics, span_table, write_spans
from workloads import PARAMS, WORKLOADS, solver_seed

ROOT = Path(__file__).resolve().parent.parent
SETUP_BURST = 8


def import_library():
    """The rsri package of this checkout, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rsri

    if Path(rsri.__file__).resolve().parent != (src / "rsri").resolve():
        raise ImportError(f"rsri imported from {rsri.__file__}, not from {src}")
    return rsri


def pool_width() -> int:
    """Trial pool width the harness uses: RSRI_THREADS, else os.cpu_count()."""
    env = os.environ.get("RSRI_THREADS")
    return max(1, int(env)) if env else (os.cpu_count() or 1)


def run_job(lib, wl, params, inputs, oracle, seed) -> dict:
    start = perf_counter()
    try:
        state = wl.setup(lib, params, inputs)
        setup_s = perf_counter() - start
        out = wl.solve(lib, params, inputs, state, seed)
        wall_s = perf_counter() - start
        msq, checks = wl.evaluate(lib, params, inputs, state, out, oracle)
    except Exception:
        return dict(ok=False, error=traceback.format_exc(), wall_s=perf_counter() - start)
    failed = [f"{c.name}: {c.detail}" for c in checks if not c.ok]
    return dict(ok=not failed, failed_checks=failed, setup_s=setup_s,
                solve_s=out.solve_s, wall_s=wall_s, msq=msq,
                column_accesses=out.column_accesses)


def pooled_rmse_rel(jobs) -> float:
    """RMSE over the trials of all jobs relative to the oracle norm, as a
    geometric mean over the sparsity levels m (jobs run equal trials)."""
    levels = jobs[0]["msq"]
    rmse = [np.sqrt(statistics.fmean(j["msq"][m] for j in jobs)) for m in levels]
    return float(np.exp(np.mean(np.log(rmse))))


def repeat(job, seconds: float, between=lambda: None) -> list:
    """Run job() until the next run would likely end after `seconds`,
    calling between() before the first job and after each one."""
    start, jobs = perf_counter(), []
    between()
    while True:
        jobs.append(job())
        between()
        elapsed = perf_counter() - start
        if elapsed + statistics.median(j["wall_s"] for j in jobs) > seconds:
            return jobs


def measure_plain(job, setup, seconds: float, log) -> tuple[list, dict]:
    """End-to-end metrics over jobs: median setup, mean solve and wall times
    (the inverse of throughput), RMSE pooled over all trials.
    Jobs that failed a gate still count; jobs that raised have no figures."""
    extra = []

    def setup_burst():
        # Setups that cost well under a job get extra samples, taken between
        # jobs so that they meet the host's fast and slow phases alike.
        spent = 0.0
        for _ in range(SETUP_BURST):
            if extra and (statistics.median(extra) > seconds / 600 or spent > seconds / 200):
                return
            start = perf_counter()
            setup()
            extra.append(perf_counter() - start)
            spent += extra[-1]

    jobs = repeat(job, seconds, setup_burst)
    done = [j for j in jobs if "error" not in j]
    if not done:
        return jobs, {}
    setups = extra + [j["setup_s"] for j in done]
    print_samples(log, done, setups)
    return jobs, {
        "setup_s": statistics.median(setups),
        # means, not medians: the host alternates fast and slow phases of a few
        # seconds, and a median of short jobs flips between the two modes
        "solve_s": statistics.fmean(j["solve_s"] for j in done),
        "wall_s": statistics.fmean(j["wall_s"] for j in done),
        "rmse_rel": pooled_rmse_rel(done),
        "column_accesses": statistics.median(j["column_accesses"] for j in done),
    }


def measure_traced(job, seconds: float, spans_path: Path, log) -> tuple[list, dict]:
    """Per-layer metrics: medians over traced jobs, which alternate with
    untraced ones so both see the same warm-up and host load.  Spans of the
    last traced job are written to spans_path."""
    recorder, jobs, plain, traced, last = SpanRecorder(), [], [], [], []

    def pair():
        plain.append(job())
        with Patched(recorder):
            result = job()
        last[:] = recorder.take()
        if "error" not in result:
            traced.append((result, layer_metrics(last, result["solve_s"])))
        jobs.extend([plain[-1], result])
        return dict(wall_s=plain[-1]["wall_s"] + result["wall_s"])

    repeat(pair, seconds)
    write_spans(spans_path, last)
    if not traced:
        return jobs, {}
    layer = {k: statistics.median(m[k] for _, m in traced) for k in traced[0][1]}
    layer["trace.overhead_s"] = (statistics.median(r["wall_s"] for r, _ in traced)
                                 - statistics.median(j["wall_s"] for j in plain))
    print_trace(log, last, layer)
    return jobs, layer


def main(spec_path, result_path):
    spec = json.loads(Path(spec_path).read_text())
    lib = import_library()
    wl = WORKLOADS[spec["workload"]]
    params = PARAMS[spec["scale"]][spec["workload"]]
    inputs, seconds = spec["inputs"], spec["seconds"]
    oracle = np.load(inputs["oracle"])

    count = itertools.count()

    def job():
        seed = solver_seed(spec["workload"], spec["seed"], spec["reseed"], next(count))
        return run_job(lib, wl, params, inputs, oracle, seed)

    log = sys.stderr
    width, nproc = pool_width(), len(os.sched_getaffinity(0))
    print(f"== {spec['workload']} seed={spec['seed']} reseed={spec['reseed']} "
          f"scale={spec['scale']} trace={spec['trace']} pool_width={width} nproc={nproc}",
          file=log)
    if width > nproc:
        print(f"note: the trial pool has {width} threads for {nproc} usable cores", file=log)

    if spec["trace"]:
        jobs, metrics = measure_traced(job, seconds, Path(spec["spans"]), log)
    else:
        jobs, metrics = measure_plain(job, lambda: wl.setup(lib, params, inputs), seconds, log)

    failed = sum(1 for j in jobs if not j["ok"])
    for j in jobs:
        for line in j.get("failed_checks", []):
            print(f"GATE FAILED {line}", file=log)
        if "error" in j:
            print(f"JOB FAILED\n{j['error']}", file=log)
    if not spec["trace"]:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["ok_frac"] = (len(jobs) - failed) / len(jobs)
    Path(result_path).write_text(json.dumps(dict(
        correct=failed == 0, attempted=len(jobs), failed=failed, metrics=metrics,
        info=dict(pool_width=width, nproc=nproc, jobs=len(jobs)),
    )))


def print_samples(log, jobs, setups):
    print(f"{'sample':<16}{'n':>4}{'min':>12}{'median':>12}{'mean':>12}{'max':>12}", file=log)
    for key, values in [("setup_s", setups), *[(k, [j[k] for j in jobs]) for k in
                        ("solve_s", "wall_s", "column_accesses")]]:
        print(f"{key:<16}{len(values):>4}{min(values):>12.5g}{statistics.median(values):>12.5g}"
              f"{statistics.fmean(values):>12.5g}{max(values):>12.5g}", file=log)


def print_trace(log, spans, layer):
    print(f"{'span (last traced job)':<32}{'calls':>9}{'total_s':>11}{'self_s':>11}", file=log)
    for name, calls, total, self_s in span_table(spans):
        print(f"{name:<32}{calls:>9}{total:>11.4f}{self_s:>11.4f}", file=log)
    print("per-layer metrics (median over traced jobs):", file=log)
    for key, value in layer.items():
        print(f"  {key:<34}{value:>14.6g}", file=log)


if __name__ == "__main__":
    main(*sys.argv[1:3])
