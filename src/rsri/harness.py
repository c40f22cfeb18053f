"""Experiment driver: RMSE estimation over trials, m-sweeps, tail reports.

Trials run in lockstep through one batched solver step, trial k on
spawn_stream(seed, k) and bit-identical to rsri on that stream alone;
a sweep runs the trials of all its sparsity levels in that one loop.
The matched-cost Monte Carlo column runs one surfer loop per trial,
which advances that trial's walkers of every level at once.  Sweep CSVs
are byte-stable across identical runs: everything written is a pure
function of the flags and seed, which is why measured wall-clock times
go to the returned rows and the log, not into the file.
"""
from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .baselines import _ColumnStore, _surfer_runs
from .sampling import RandomStream, spawn_stream
from .solvers import RsriConfig, _rsri_trials, reference_solve
from .svgplot import svg_line_plot
from .vectors import SparseVector, check_int, tail_sums

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
    reproducible and trials are independent.  This is the one-level case
    of the lockstep loop a sweep runs.
    """
    return _estimate_levels(problem, cfg, [cfg.m], oracle)[0]


def _estimate_levels(
    problem, cfg: RsriConfig, levels: Sequence[int], oracle: np.ndarray
) -> list[RmseEstimate]:
    """One RmseEstimate per sparsity level, every (level, trial) run
    advanced in one lockstep loop.

    Trial k of each level runs on its own spawn_stream(seed, k), so each
    level's figures equal a run of that level alone, wall time aside.
    The loop's wall time is shared equally among the levels.
    """
    if cfg.trials < 2:
        raise ValueError("estimate_rmse needs at least 2 trials")
    oracle = np.asarray(oracle, dtype=np.float64)
    if oracle.shape != (problem.A.dim,):
        raise ValueError(f"oracle shape {oracle.shape} is not ({problem.A.dim},)")
    master = RandomStream(cfg.seed)
    start = time.perf_counter()
    streams = [spawn_stream(master, k) for _ in levels for k in range(cfg.trials)]
    average, accesses = _rsri_trials(
        problem.A, problem.b, cfg, streams, np.repeat(levels, cfg.trials)
    )
    wall = (time.perf_counter() - start) / len(levels)
    out = []
    for i in range(len(levels)):
        # one level's trials x dim rows at a time, a view of a dense sum
        estimates = average.rows(i * cfg.trials, (i + 1) * cfg.trials)
        errors = estimates - oracle
        rmse = float(np.sqrt(np.mean(np.sum(errors * errors, axis=1))))
        mean_est = estimates.mean(axis=0)
        bias_norm = float(np.linalg.norm(mean_est - oracle))
        centered = estimates - mean_est
        variance_est = float(np.sum(centered * centered) / (cfg.trials - 1))
        runs = accesses[i * cfg.trials : (i + 1) * cfg.trials]
        out.append(RmseEstimate(rmse, bias_norm, variance_est, round(float(np.mean(runs))), wall))
    return out


def matched_walk_count(column_accesses: int, alpha: float) -> int:
    """Surfer count whose expected column reads match the solver's.

    A walk moves a geometric number of times with mean alpha/(1 - alpha),
    each move reading one column, so walks = accesses (1 - alpha) / alpha.
    """
    return max(1, round(column_accesses * (1.0 - alpha) / alpha))


def _mc_rmse_levels(
    problem, walks: Sequence[int], trials: int, seed: int, oracle: np.ndarray
) -> list[float]:
    """Monte Carlo RMSE per walk count, one surfer loop per trial.

    Trial k of every walk count draws from spawn_stream(seed, 2**31 + k),
    a spawn namespace apart from the solver trials, and one _surfer_runs
    call advances the walkers of all counts, so each figure equals a loop
    of lone mc_surfer runs bit for bit.  Grouping by trial keeps memory
    to one trial's walkers across all levels: for a doubling m list the
    counts double too, so that is under twice the largest count's.  The
    trials share one _ColumnStore, so each column of P is read, checked
    and summed once per sweep.
    """
    master = RandomStream(seed)
    store = _ColumnStore(problem.P)
    totals = [0.0] * len(walks)
    for k in range(trials):
        streams = [spawn_stream(master, 2**31 + k) for _ in walks]
        runs = _surfer_runs(problem.P, problem.s, problem.alpha, walks, streams, store)
        for i, est in enumerate(runs):
            diff = est.to_dense() - oracle
            totals[i] += float(np.dot(diff, diff))
    return [math.sqrt(total / trials) for total in totals]


def run_sweep(
    problem,
    base_cfg: RsriConfig,
    m_list: Sequence[int],
    oracle: Optional[np.ndarray] = None,
    csv_path=None,
    svg_path=None,
    log=sys.stderr,
) -> list[SweepRow]:
    """One RMSE row per sparsity level, optionally written as CSV and SVG.

    The levels must be strictly increasing.  Every (level, trial) run
    advances in one lockstep loop, trial k of each level on
    spawn_stream(seed, k), so each row equals estimate_rmse at its level
    except for wall_clock_s: the loop's wall time divided by the number
    of levels, so the rows sum to it.  The Monte Carlo column runs after
    the loop, one surfer loop per trial over the walkers of every level,
    each level's figure equal to a loop of lone mc_surfer runs.  The
    problem must carry a transition matrix (P, s, alpha) so a
    matched-cost Monte Carlo column can be produced.  Nothing is
    written until every row exists, and each file is then replaced
    atomically, so a sweep that fails midway leaves existing files
    untouched.
    """
    levels = [check_int(m, "m_list entry") for m in m_list]
    if not levels or any(lo >= hi for lo, hi in zip(levels, levels[1:])):
        raise ValueError(f"m_list must be nonempty and strictly increasing, got {levels}")
    if oracle is None:
        oracle = reference_solve(problem.A, problem.b)
    shared = f" (1/{len(levels)} of the loop the levels share)" if len(levels) > 1 else ""
    estimates = _estimate_levels(problem, base_cfg, levels, oracle)
    walks = [matched_walk_count(est.column_accesses, problem.alpha) for est in estimates]
    mc_rmse = _mc_rmse_levels(problem, walks, base_cfg.trials, base_cfg.seed, oracle)
    rows = []
    for m, est, mc in zip(levels, estimates, mc_rmse):
        rows.append(SweepRow(m=m, mc_rmse=mc, **vars(est)))
        if log is not None:
            print(
                f"sweep m={m}: rmse={est.rmse:.3e} mc_rmse={mc:.3e} "
                f"accesses={est.column_accesses} wall={est.wall_clock_s:.2f}s{shared}",
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
    tails = tail_sums(x if isinstance(x, SparseVector) else SparseVector.from_dense(x))
    lines = ["i,tail"]
    lines.extend(f"{i},{_fmt(t)}" for i, t in enumerate(tails))
    return "\n".join(lines) + "\n"
