"""Comparison algorithms: Monte Carlo surfer sampling and push coordinate descent.

Both work on a column-stochastic transition matrix P and teleport vector s.
The surfer estimator averages indicators of walk endpoints and converges
at the usual square-root rate; the push method drives the residual down
one deterministically chosen coordinate at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .operators import ColumnMatrix, _grown
from .pagerank import STOCHASTIC_TOL
from .sampling import RandomStream
from .vectors import SparseVector, _stable_order, check_int

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
    if s.nnz == 0 or not (np.all(s.values >= 0.0) and abs(s.values.sum() - 1.0) <= STOCHASTIC_TOL):
        raise ValueError("s must be a probability vector")


def _stochastic_columns(P: ColumnMatrix, cols: np.ndarray):
    """Flat (rows, values, per-column counts) of columns cols of P, read by
    one gather; raises ValueError naming the first that is not stochastic."""
    rows, vals, counts = P.gather(cols, np.ones(cols.size))
    ids = np.repeat(np.arange(cols.size), counts)
    totals = np.bincount(ids, weights=vals, minlength=cols.size)
    # NaN fails every comparison, so both tests are written to reject it
    negative = np.bincount(ids[~(vals >= 0.0)], minlength=cols.size)
    bad = (~(np.abs(totals - 1.0) <= STOCHASTIC_TOL) | (negative > 0)).nonzero()[0]
    if bad.size:
        k = bad[0]
        raise ValueError(f"column {cols[k]} of P is not stochastic (sum {float(totals[k])!r})")
    return rows, vals, counts


class _ColumnStore:
    """Rows and cumulative sums of the columns of P read so far.

    Each column is read, checked for stochasticity and summed once, when
    a walker first stands on it; column j's entries then sit at
    ``base[j] .. base[j] + count[j] - 1`` of ``rows`` and ``cdf``, and
    ``count[j]`` is 0 until it is read.  The cumulative sums are
    row-wise ``cumsum``s over the columns zero-padded to the next power
    of two of their length, one band per width, so each equals the
    cumulative sum of its column alone and the padding stays below the
    number of entries read.
    """

    def __init__(self, P: ColumnMatrix):
        self.P = P
        self.base = np.zeros(P.dim, dtype=np.int64)
        self.count = np.zeros(P.dim, dtype=np.int64)
        self.rows = np.empty(0, dtype=np.int64)
        self.cdf = np.empty(0)
        self.size = 0

    def _read(self, cols: np.ndarray):
        rows, vals, counts = _stochastic_columns(self.P, cols)
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
        end = self.size + rows.size
        self.rows, self.cdf = (_grown(arr, self.size, end) for arr in (self.rows, self.cdf))
        self.rows[self.size : end] = rows
        self.cdf[self.size : end] = cdf
        self.base[cols] = self.size + starts
        self.count[cols] = counts
        self.size = end

    def moves(self, current: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next state of every walker: in its column j of P, the entry at
        ``searchsorted(cdf_j, u * cdf_j[-1], "right")``, or the last entry
        if that is past the end, found by one vectorised bisection for all
        walkers.  Columns not read yet are read first, in ascending order."""
        fresh = current[self.count[current] == 0]
        if fresh.size:
            self._read(np.unique(fresh))
        lo = self.base[current]
        hi = lo + self.count[current] - 1  # the last entry is the pick when no other is
        target = u * self.cdf[hi]
        for _ in range(int((hi - lo).max()).bit_length()):
            mid = (lo + hi) >> 1
            open_ = lo < hi
            le = self.cdf[mid] <= target
            hi = np.where(open_ & ~le, mid, hi)
            lo = np.where(open_ & le, mid + 1, lo)
        return self.rows[lo]


def _surfer_runs(
    P: ColumnMatrix,
    s: SparseVector,
    alpha: float,
    walks: Sequence[int],
    streams: Sequence[RandomStream],
    store: Optional[_ColumnStore] = None,
) -> list[SparseVector]:
    """One mc_surfer estimate per run, every run's walkers advanced in one loop.

    Run k averages walks[k] walks and reads from streams[k] exactly the
    uniforms a lone ``mc_surfer(P, s, alpha, walks[k], streams[k])``
    reads, in the same order, so each estimate equals that run's bit
    for bit.  The walkers of run k are keyed ``k * P.dim + state``: one
    stable ordering of the keys per step hands each run's uniforms out
    by ascending state and then by walker.  Every column is read and
    checked once, when a walker of any run first stands on it; a caller
    that makes several calls on P may pass one _ColumnStore of P to all
    of them, so each column is read once across the calls, and the
    estimates do not change.  Memory grows with the walkers of all runs
    together.
    """
    _validate_walk_inputs(s, alpha)
    if len(walks) != len(streams):
        raise ValueError("need one walk count per stream")
    if min(walks) < 1:
        raise ValueError("m must be >= 1")
    if s.dim != P.dim:
        raise ValueError("dimension mismatch between P and s")
    cap = math.ceil(1e4 / (1.0 - alpha))
    dim, runs = P.dim, len(streams)
    ends = np.cumsum(walks)  # run k's walkers are ends[k] - walks[k] .. ends[k] - 1

    def draws(alive: np.ndarray) -> np.ndarray:
        # one uniform per alive walker, run after run, each from its own stream
        cuts = np.searchsorted(alive, ends).tolist()
        return np.concatenate(
            [rng.random(hi - lo) for rng, lo, hi in zip(streams, [0] + cuts, cuts) if hi > lo]
        )

    start_cdf = np.cumsum(s.values)
    alive = np.arange(ends[-1])
    pos = np.searchsorted(start_cdf, draws(alive) * start_cdf[-1], side="right")
    states = s.indices[np.minimum(pos, s.indices.size - 1)]  # a stopped walker's stays
    store = _ColumnStore(P) if store is None else store

    step = 0
    while alive.size:
        if step > cap:
            raise WalkCapError(f"walk exceeded {cap} steps; transition matrix suspect")
        alive = alive[draws(alive) < alpha]
        if alive.size == 0:
            break
        current = states[alive]
        keys = np.searchsorted(ends, alive, side="right") * dim + current
        u = np.empty(alive.size)
        u[_stable_order(keys, runs * dim)] = draws(alive)
        del keys  # one walker-sized array less during the search
        states[alive] = store.moves(current, u)
        step += 1

    return [
        SparseVector.from_dense(np.bincount(states[end - m : end], minlength=dim) / m)
        for m, end in zip(walks, ends.tolist())
    ]


def mc_surfer(
    P: ColumnMatrix, s: SparseVector, alpha: float, m: int, rng: RandomStream
) -> SparseVector:
    """Average of m independent surfer endpoints; unbiased for the
    stationary ranking vector of x = alpha P x + (1 - alpha) s.

    Each walk starts from s and at every step either moves through the
    current column of P (probability alpha) or stops.  Columns are
    checked for stochasticity as they are first touched.  A step reads
    one uniform per moving walker, handed out by ascending state and
    then by walker, as a loop over the distinct states would read them.
    This is the one-run case of _surfer_runs, which the harness uses to
    advance the walkers of several runs in one loop.
    """
    return _surfer_runs(P, s, alpha, [check_int(m, "m")], [rng])[0]


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
    if check_int(steps, "steps") < 0:
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
