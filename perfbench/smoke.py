"""Fast smoke test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/smoke.py

Checks that every workload runs, in both modes, and prints exactly the
metric names and units of BENCHMARK.json; that each correctness gate
fails when the library output it guards is corrupted; and that the
benchmark refuses to run, without printing a result, when the library
sources are missing.  Exits non-zero on the first failure.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from measure import import_library  # noqa: E402
from workloads import PARAMS, WORKLOADS, solver_seed  # noqa: E402


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=180)


def check_output(workload, trace):
    proc = run(["--workload", workload, "--seed", "7", "--seconds", "0.5",
                "--trace", str(trace), "--scale", "tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    spec = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec], list(result["metrics"])
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got
        if not trace:
            assert got["value"] > 0, (workload, m["name"], got)
    if trace:
        assert result["metrics"]["sparsify.calls"]["value"] > 0
        assert (HERE / "_work" / f"spans-{workload}.jsonl").stat().st_size > 0
    print(f"ok   {workload} trace={trace}")


def job_checks(lib, name, tmp):
    """Failed gate names of one tiny job run against the given library."""
    wl, params = WORKLOADS[name], PARAMS["tiny"][name]
    inputs = wl.generate(lib, tmp, params, 3)
    state = wl.setup(lib, params, inputs)
    out = wl.solve(lib, params, inputs, state, solver_seed(name, 3, False, 0))
    _, checks = wl.evaluate(lib, params, inputs, state, out, np.load(inputs["oracle"]))
    return {c.name for c in checks if not c.ok}


def check_gates(lib, tmp):
    for name in WORKLOADS:
        assert not job_checks(lib, name, tmp), name
    real_rsri, real_load, real_reference = lib.rsri, lib.load_matrix_market, lib.reference_solve

    def biased_rsri(*args, **kwargs):
        report = real_rsri(*args, **kwargs)
        est = report.estimate
        report.estimate = lib.SparseVector(est.dim, est.indices, est.values * 1.5)
        report.column_accesses *= 10**6
        return report

    def perturbed_load(path):
        A = real_load(path)
        data = A.data.copy()
        data[0] = np.nextafter(data[0], 2.0)
        return lib.CscMatrix(A.dim, A.indptr, A.indices, data)

    try:
        lib.rsri = biased_rsri
        failed = job_checks(lib, "file_200k", tmp)
        assert {"rsri_vs_oracle", "mass_identity", "column_accesses"} <= failed, failed
        failed = job_checks(lib, "implicit_50m", tmp)
        assert {"rmse", "mass_identity_trial0", "accesses_trial0"} <= failed, failed
        lib.rsri = real_rsri
        lib.load_matrix_market = perturbed_load
        assert "matrix_market_round_trip" in job_checks(lib, "file_200k", tmp)
        lib.load_matrix_market = real_load
        lib.reference_solve = lambda A, b: real_reference(A, b) * 1.001
        assert "reference_vs_oracle" in job_checks(lib, "solve_large_m", tmp)
    finally:
        lib.rsri, lib.load_matrix_market = real_rsri, real_load
        lib.reference_solve = real_reference
    print("ok   gates fail on corrupted output")


def check_refuses_without_sources(tmp):
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(["--workload", "file_200k", "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok   refuses to run without the library sources")


def main():
    lib = import_library()
    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        tmp = Path(tmp)
        check_refuses_without_sources(tmp)
        check_gates(lib, tmp)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_output(workload, trace)
    print("smoke test passed")


if __name__ == "__main__":
    main()
