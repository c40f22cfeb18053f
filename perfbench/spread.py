"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads file_200k,implicit_50m --seeds 1-10
    python3 perfbench/spread.py --workloads sweep_small_m --seeds 1-5 --reseed

For every end-to-end metric it prints the median of the runs, the
quartiles (statistics.quantiles(values, n=4)), the spread (Q3 - Q1) as a
share of the median, and that spread against a third of the metric's
bound in BENCHMARK.json.  Runs go one at a time.  With --reseed each seed
runs twice, on the normal and on the second solver stream, and the
report adds the median relative change of every metric between the two:
a change of sampler acts like such a reseed, so the rmse_rel bound must
cover it.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, reseed) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if reseed:
        cmd.append("--reseed")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"{workload} seed {seed}{' reseed' if reseed else ''}: "
          f"{result['failed']} of {result['attempted']} jobs failed; "
          + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    return values


def spread(values) -> tuple[float, float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    p.add_argument("--reseed", action="store_true")
    args = p.parse_args()
    seeds = seed_list(args.seeds)
    for workload in args.workloads.split(","):
        runs = [one_run(workload, s, args.seconds, False) for s in seeds]
        print(f"== {workload}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}")
        print(f"{'metric':<18}{'median':>13}{'q1':>13}{'q3':>13}{'spread':>9}{'bound/3':>9}")
        for metric in BENCH["end_to_end"]:
            name = metric["name"]
            med, q1, q3, rel = spread([r[name] for r in runs])
            flag = "" if rel < metric["bound"] / 3 or name == "setup_s" else "  WIDE"
            print(f"{name:<18}{med:>13.6g}{q1:>13.6g}{q3:>13.6g}{rel:>9.4f}"
                  f"{metric['bound'] / 3:>9.4f}{flag}")
        if args.reseed:
            again = [one_run(workload, s, args.seconds, True) for s in seeds]
            print("reseed: median relative change per metric (second stream vs first)")
            for metric in BENCH["end_to_end"]:
                name = metric["name"]
                shifts = [b[name] / a[name] - 1.0 for a, b in zip(runs, again)]
                before = statistics.median(r[name] for r in runs)
                after = statistics.median(r[name] for r in again)
                print(f"  {name:<18}{statistics.median(shifts):>+10.4f}  medians "
                      f"{before:.6g} -> {after:.6g} ({after / before - 1.0:+.4f})")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
