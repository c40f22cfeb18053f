"""Benchmark entry point for rsri.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's inputs (untimed, a pure function of the seed) under
perfbench/_work, then measures in a fresh interpreter (measure.py) and
prints, as the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end_to_end metrics of BENCHMARK.json, with --trace 1 its
per_layer metrics.  A human-readable report goes to standard error, and
the full result, with the trial pool width, to perfbench/_work.

--reseed keeps the inputs and changes only the solver's random stream;
--scale tiny shrinks every workload for the smoke test.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
TIME_LIMIT_S = 170  # a run must end within 180 s


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reseed", action="store_true")
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def main(argv=None) -> int:
    started = perf_counter()
    bench_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "rsri" / "__init__.py").is_file():
        fail(f"no rsri sources under {ROOT / 'src'}; run from a checkout of the repository")
    if not bench_path.is_file():
        fail(f"{bench_path} not found")
    bench = json.loads(bench_path.read_text())
    sys.path.insert(0, str(HERE))
    from measure import import_library
    from workloads import PARAMS, WORKLOADS

    args = parse_args(argv, WORKLOADS)
    lib = import_library()
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tmp = Path(tmp)
        params = PARAMS[args.scale][args.workload]
        inputs = WORKLOADS[args.workload].generate(lib, tmp, params, args.seed)
        spec = dict(workload=args.workload, seed=args.seed, scale=args.scale,
                    seconds=args.seconds, trace=args.trace, inputs=inputs, reseed=args.reseed,
                    spans=str(WORK / f"spans-{args.workload}.jsonl"))
        (tmp / "spec.json").write_text(json.dumps(spec))
        result_path = tmp / "result.json"
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "measure.py"), str(tmp / "spec.json"),
                 str(result_path)],
                stdout=sys.stderr, timeout=max(TIME_LIMIT_S - (perf_counter() - started), 1))
        except subprocess.TimeoutExpired:
            fail("measuring process timed out and was stopped", 1)
        if proc.returncode != 0 or not result_path.is_file():
            fail(f"measuring process exited with code {proc.returncode}", 1)
        result = json.loads(result_path.read_text())

    result.update(workload=args.workload, seed=args.seed, trace=args.trace, reseed=args.reseed)
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        fail(f"no value for {', '.join(missing)} (every job failed?)", 1)
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"{name:<32}{m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
