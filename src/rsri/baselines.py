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
from .vectors import SparseVector, _stable_order

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


def _stochastic_columns(P: ColumnMatrix, cols: np.ndarray):
    """Flat (rows, values, per-column counts) of columns cols of P, read by
    one gather; raises ValueError naming the first that is not stochastic."""
    rows, vals, counts = P.gather(cols, np.ones(cols.size))
    starts = counts.cumsum() - counts
    totals, lows = np.zeros(cols.size), np.zeros(cols.size)
    full = counts > 0
    if rows.size:
        totals[full] = np.add.reduceat(vals, starts[full])
        lows[full] = np.minimum.reduceat(vals, starts[full])
    bad = ((np.abs(totals - 1.0) > STOCHASTIC_TOL) | (lows < 0.0)).nonzero()[0]
    if bad.size:
        k = bad[0]
        raise ValueError(f"column {cols[k]} of P is not stochastic (sum {float(totals[k])!r})")
    return rows, vals, counts


def _surfer_moves(P: ColumnMatrix, current: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Next state of every walker: in its column j of P, the entry at
    ``searchsorted(cdf_j, u * cdf_j[-1], "right")`` with cdf_j the cumulative
    sum of the column, found by one vectorised bisection for all walkers.

    Each touched column is read and checked once per call.  The cumulative
    sums are row-wise ``cumsum``s over the columns zero-padded to the next
    power of two of their length, one band per width, so each equals the
    cumulative sum of its column alone and the padding stays below the
    number of entries read.
    """
    cols, which = np.unique(current, return_inverse=True)
    rows, vals, counts = _stochastic_columns(P, cols)
    starts = counts.cumsum() - counts
    cdf = np.empty(rows.size)
    shift = np.frexp(counts - 1)[1]  # the width 2**shift is the least power of two >= count
    for e in np.unique(shift).tolist():
        band = (shift == e).nonzero()[0]
        n = counts[band]
        offset = np.arange(n.sum()) - np.repeat(n.cumsum() - n, n)  # entry within its column
        entry = np.repeat(starts[band], n) + offset
        slot = np.repeat(np.arange(band.size) << e, n) + offset
        padded = np.zeros(band.size << e)
        padded[slot] = vals[entry]
        cdf[entry] = padded.reshape(band.size, 1 << e).cumsum(axis=1).ravel()[slot]
    base, n = starts[which], counts[which]
    target = u * cdf[base + n - 1]
    lo, hi = np.zeros(current.size, dtype=np.int64), n.copy()
    for _ in range(int(counts.max()).bit_length()):
        mid = (lo + hi) >> 1
        le = (lo < hi) & (cdf[base + np.minimum(mid, n - 1)] <= target)
        hi = np.where((lo < hi) & ~le, mid, hi)
        lo = np.where(le, mid + 1, lo)
    return rows[base + np.minimum(lo, n - 1)]


def mc_surfer(
    P: ColumnMatrix, s: SparseVector, alpha: float, m: int, rng: RandomStream
) -> SparseVector:
    """Average of m independent surfer endpoints; unbiased for the
    stationary ranking vector of x = alpha P x + (1 - alpha) s.

    Each walk starts from s and at every step either moves through the
    current column of P (probability alpha) or stops.  Columns are
    checked for stochasticity as they are touched.  A step reads one
    uniform per moving walker, handed out by ascending state and then by
    walker, as a loop over the distinct states would read them.
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
        u = np.empty(alive.size)
        u[_stable_order(current, P.dim)] = rng.random(alive.size)
        states[alive] = _surfer_moves(P, current, u)
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
    columns: dict[int, tuple[np.ndarray, np.ndarray]] = {}

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
            columns[i] = _stochastic_columns(P, np.array([i]))[:2]
        rows, vals = columns[i]
        r[rows] += alpha * rho * vals

    trace = ResidualTrace(
        steps=rec_steps[: done + 1],
        residual_inf=rec_res[: done + 1],
        error_2=rec_err[: done + 1] if track_error else None,
    )
    return x_hat, trace
