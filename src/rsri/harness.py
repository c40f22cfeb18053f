"""Experiment driver: RMSE estimation over trials, m-sweeps, tail reports.

Trials run in lockstep through one batched solver step, trial k on
spawn_stream(seed, k) and, while the dimension is at most
DENSE_ACCUMULATOR_LIMIT, bit-identical to rsri on that stream alone;
the matched-cost Monte Carlo trials run one after another.  Sweep CSVs
are byte-stable across identical runs: everything written is a pure
function of the flags and seed, which is why measured wall-clock times
go to the returned rows and the log, not into the file.
"""
from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .baselines import mc_surfer
from .sampling import RandomStream, spawn_stream
from .solvers import RsriConfig, _rsri_trials, reference_solve
from .svgplot import svg_line_plot
from .vectors import SparseVector, tail_sums

__all__ = [
    "SweepRow",
    "RmseEstimate",
    "estimate_rmse",
    "matched_walk_count",
    "run_sweep",
    "sweep_csv_text",
    "tail_report",
]

CSV_HEADER = "m,rmse,bias_norm,variance_est,mc_rmse,wall_clock_s,column_accesses"


@dataclass(frozen=True)
class SweepRow:
    m: int
    rmse: float
    bias_norm: float
    variance_est: float
    mc_rmse: float
    wall_clock_s: float
    column_accesses: int


@dataclass(frozen=True)
class RmseEstimate:
    rmse: float
    bias_norm: float
    variance_est: float
    column_accesses: int
    wall_clock_s: float


def estimate_rmse(problem, cfg: RsriConfig, oracle: np.ndarray) -> RmseEstimate:
    """Root-mean-square error, bias norm, and sample variance over trials.

    Trial k draws from spawn_stream(seed, k), so the estimate is
    reproducible and trials are independent.
    """
    if cfg.trials < 2:
        raise ValueError("estimate_rmse needs at least 2 trials")
    oracle = np.asarray(oracle, dtype=np.float64)
    master = RandomStream(cfg.seed)
    start = time.perf_counter()
    streams = [spawn_stream(master, k) for k in range(cfg.trials)]
    average, accesses = _rsri_trials(problem.A, problem.b, cfg, streams)
    wall = time.perf_counter() - start
    estimates = average.to_dense().reshape(cfg.trials, problem.A.dim)
    errors = estimates - oracle
    rmse = float(np.sqrt(np.mean(np.sum(errors * errors, axis=1))))
    mean_est = estimates.mean(axis=0)
    bias_norm = float(np.linalg.norm(mean_est - oracle))
    centered = estimates - mean_est
    variance_est = float(np.sum(centered * centered) / (cfg.trials - 1))
    mean_accesses = round(float(np.mean(accesses)))
    return RmseEstimate(rmse, bias_norm, variance_est, mean_accesses, wall)


def matched_walk_count(column_accesses: int, alpha: float) -> int:
    """Surfer count whose expected column reads match the solver's.

    A walk moves a geometric number of times with mean alpha/(1 - alpha),
    each move reading one column, so walks = accesses (1 - alpha) / alpha.
    """
    return max(1, round(column_accesses * (1.0 - alpha) / alpha))


def _mc_rmse(problem, walks: int, trials: int, seed: int, oracle: np.ndarray) -> float:
    master = RandomStream(seed)
    total = 0.0
    for k in range(trials):
        # separate spawn namespace from the solver trials
        stream = spawn_stream(master, 2**31 + k)
        est = mc_surfer(problem.P, problem.s, problem.alpha, walks, stream)
        diff = est.to_dense() - oracle
        total += float(np.dot(diff, diff))
    return math.sqrt(total / trials)


def run_sweep(
    problem,
    base_cfg: RsriConfig,
    m_list: Sequence[int],
    oracle: Optional[np.ndarray] = None,
    csv_path=None,
    svg_path=None,
    log=sys.stderr,
    oracle_tol: float = 1e-12,
) -> list[SweepRow]:
    """One RMSE row per sparsity level, optionally written as CSV and SVG.

    The problem must carry a transition matrix (P, s, alpha) so a
    matched-cost Monte Carlo column can be produced.  Nothing is written
    until every row exists, and each file is then replaced atomically, so
    a sweep that fails midway leaves existing files untouched.
    """
    if not m_list or list(m_list) != sorted(m_list):
        raise ValueError("m_list must be nonempty and ascending")
    if oracle is None:
        oracle = reference_solve(problem.A, problem.b, tol=oracle_tol)
    rows = []
    for m in m_list:
        cfg = replace(base_cfg, m=int(m))
        est = estimate_rmse(problem, cfg, oracle)
        walks = matched_walk_count(est.column_accesses, problem.alpha)
        mc = _mc_rmse(problem, walks, cfg.trials, cfg.seed, oracle)
        rows.append(
            SweepRow(
                m=int(m),
                rmse=est.rmse,
                bias_norm=est.bias_norm,
                variance_est=est.variance_est,
                mc_rmse=mc,
                wall_clock_s=est.wall_clock_s,
                column_accesses=est.column_accesses,
            )
        )
        if log is not None:
            print(
                f"sweep m={m}: rmse={est.rmse:.3e} mc_rmse={mc:.3e} "
                f"accesses={est.column_accesses} wall={est.wall_clock_s:.2f}s",
                file=log,
            )
    text = sweep_csv_text(rows, base_cfg, problem.alpha)
    if csv_path is not None:
        _write_atomic(csv_path, text)
    if svg_path is not None:
        svg = svg_line_plot(
            [
                ("rsri rmse", [r.m for r in rows], [r.rmse for r in rows]),
                ("mc rmse", [r.m for r in rows], [r.mc_rmse for r in rows]),
            ],
            title="error vs sparsity level",
            xlabel="m",
            ylabel="rmse",
        )
        _write_atomic(svg_path, svg)
    return rows


def _write_atomic(path, text: str):
    """Replace path with text in one step: a failed write leaves it as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def sweep_csv_text(rows: Sequence[SweepRow], cfg: RsriConfig, alpha: float) -> str:
    """Deterministic CSV serialization of sweep rows.

    wall_clock_s is pinned to 0 here so identical flags and seed always
    produce byte-identical files; measured timings live on the SweepRow
    objects and in the log stream.
    """
    lines = [
        f"# rsri sweep: alpha={_fmt(alpha)} t={cfg.t} t_min={cfg.t_min} "
        f"trials={cfg.trials} seed={cfg.seed} rng=pcg64",
        "# mc walks matched by: walks = round(column_accesses * (1 - alpha) / alpha)",
        "# wall_clock_s pinned to 0 in this file for byte-stable output",
        CSV_HEADER,
    ]
    for r in rows:
        lines.append(
            f"{r.m},{_fmt(r.rmse)},{_fmt(r.bias_norm)},{_fmt(r.variance_est)},"
            f"{_fmt(r.mc_rmse)},{_fmt(0.0)},{r.column_accesses}"
        )
    return "\n".join(lines) + "\n"


def tail_report(x) -> str:
    """CSV 'i,tail' of the decreasing-rearrangement tails of x."""
    if isinstance(x, SparseVector):
        vec = x
    else:
        vec = SparseVector.from_dense(np.asarray(x, dtype=np.float64))
    tails = tail_sums(vec)
    lines = ["i,tail"]
    lines.extend(f"{i},{_fmt(t)}" for i, t in enumerate(tails))
    return "\n".join(lines) + "\n"
