"""Comparison algorithms: Monte Carlo surfer sampling and push coordinate descent.

Both work on a column-stochastic transition matrix P and teleport vector s.
The surfer estimator averages indicators of walk endpoints and converges
at the usual square-root rate; the push method drives the residual down
one deterministically chosen coordinate at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .operators import ColumnMatrix
from .pagerank import STOCHASTIC_TOL
from .sampling import RandomStream
from .vectors import SparseVector

__all__ = ["ResidualTrace", "WalkCapError", "mc_surfer", "push_cd"]


class WalkCapError(RuntimeError):
    """A surfer exceeded the safety cap on walk length."""


@dataclass(frozen=True)
class ResidualTrace:
    """Per-step (step, residual sup-norm, optional Euclidean error) records."""

    steps: np.ndarray
    residual_inf: np.ndarray
    error_2: Optional[np.ndarray] = None


def _validate_walk_inputs(s: SparseVector, alpha: float):
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if s.nnz == 0 or np.any(s.values < 0.0) or abs(float(s.values.sum()) - 1.0) > STOCHASTIC_TOL:
        raise ValueError("s must be a probability vector")


def _stochastic_column(P: ColumnMatrix, j: int) -> SparseVector:
    col = P.column(j)
    total = float(col.values.sum()) if col.nnz else 0.0
    if abs(total - 1.0) > STOCHASTIC_TOL or (col.nnz and col.values.min() < 0.0):
        raise ValueError(f"column {j} of P is not stochastic (sum {total!r})")
    return col


def mc_surfer(
    P: ColumnMatrix, s: SparseVector, alpha: float, m: int, rng: RandomStream
) -> SparseVector:
    """Average of m independent surfer endpoints; unbiased for the
    stationary ranking vector of x = alpha P x + (1 - alpha) s.

    Each walk starts from s and at every step either moves through the
    current column of P (probability alpha) or stops.  Columns are
    checked for stochasticity as they are touched.
    """
    _validate_walk_inputs(s, alpha)
    if m < 1:
        raise ValueError("m must be >= 1")
    if s.dim != P.dim:
        raise ValueError("dimension mismatch between P and s")
    cap = math.ceil(1e4 / (1.0 - alpha))

    start_cdf = np.cumsum(s.values)
    pos = np.searchsorted(start_cdf, rng.random(m) * start_cdf[-1], side="right")
    states = s.indices[np.minimum(pos, s.indices.size - 1)]
    final = np.empty(m, dtype=np.int64)
    alive = np.arange(m)
    cdf_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    step = 0
    while alive.size:
        if step > cap:
            raise WalkCapError(f"walk exceeded {cap} steps; transition matrix suspect")
        move = rng.random(alive.size) < alpha
        stopped = alive[~move]
        final[stopped] = states[stopped]
        alive = alive[move]
        if alive.size == 0:
            break
        current = states[alive]
        moved = current.copy()
        for j in np.unique(current):
            j = int(j)
            if j not in cdf_cache:
                col = _stochastic_column(P, j)
                cdf_cache[j] = (col.indices, np.cumsum(col.values))
            idx, cdf = cdf_cache[j]
            mask = current == j
            picks = np.searchsorted(cdf, rng.random(int(mask.sum())) * cdf[-1], side="right")
            moved[mask] = idx[np.minimum(picks, idx.size - 1)]
        states[alive] = moved
        step += 1

    counts = np.bincount(final, minlength=P.dim)
    return SparseVector.from_dense(counts / m)


def push_cd(
    P: ColumnMatrix,
    s: SparseVector,
    alpha: float,
    steps: int,
    oracle_x: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, ResidualTrace]:
    """Greedy residual pushes: repeatedly zero the largest residual entry.

    The residual r = (1 - alpha) s - (I - alpha P) x_hat is maintained
    incrementally; pushing rho = r_i sets r_i to zero and adds
    alpha rho P(:, i).  Selection is argmax with lowest-index tie break,
    so runs are fully deterministic.  The trace records the initial state
    and every push; Euclidean errors are included when an oracle solution
    is supplied.
    """
    _validate_walk_inputs(s, alpha)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if s.dim != P.dim:
        raise ValueError("dimension mismatch between P and s")
    n = P.dim
    x_hat = np.zeros(n)
    r = np.zeros(n)
    r[s.indices] = (1.0 - alpha) * s.values

    track_error = oracle_x is not None
    rec_steps = np.arange(steps + 1)
    rec_res = np.empty(steps + 1)
    rec_err = np.empty(steps + 1) if track_error else None
    columns: dict[int, SparseVector] = {}

    done = 0
    for step in range(steps + 1):
        i = int(np.argmax(r))
        rec_res[step] = r[i]
        if track_error:
            rec_err[step] = float(np.linalg.norm(x_hat - oracle_x))
        done = step
        if step == steps:
            break
        rho = r[i]
        if rho <= 0.0:
            break
        x_hat[i] += rho
        r[i] = 0.0
        if i not in columns:
            columns[i] = _stochastic_column(P, i)
        col = columns[i]
        r[col.indices] += alpha * rho * col.values

    trace = ResidualTrace(
        steps=rec_steps[: done + 1],
        residual_inf=rec_res[: done + 1],
        error_2=rec_err[: done + 1] if track_error else None,
    )
    return x_hat, trace
