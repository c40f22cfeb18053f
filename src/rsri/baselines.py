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

from .operators import ColumnMatrix, _ReadOnce
from .pagerank import STOCHASTIC_TOL
from .sampling import RandomStream
from .vectors import SparseVector, _check_stack, _stable_order, check_int

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
    ids = np.arange(cols.size).repeat(counts)
    totals = np.bincount(ids, weights=vals, minlength=cols.size)
    ok = np.abs(totals - 1.0) <= STOCHASTIC_TOL  # a NaN or infinite value fails here
    ok[ids[vals < 0.0]] = False
    if np.count_nonzero(ok) < ok.size:
        k = ok.argmin()  # the first column that is not
        raise ValueError(f"column {cols[k]} of P is not stochastic (sum {float(totals[k])!r})")
    return rows, vals, counts


class _SurferStore(_ReadOnce):
    """P's columns read so far, each checked for stochasticity when read,
    plus per entry ``cdf``, the cumulative sum of its column up to it, and
    ``row_slot``, the slot its row takes, unread, when the column is read.
    A stochastic column is never empty, so ``count`` is 0 exactly on the
    unread slots.  The sums are row-wise ``cumsum``s over the columns
    zero-padded to the next power of two of their length, one band per
    width, so each equals its column's own and the padding stays below
    the number of entries read.
    """

    def __init__(self, P: ColumnMatrix):
        super().__init__(P, lambda cols: _stochastic_columns(P, cols))
        self.cdf, self.row_slot = np.empty(0), np.empty(0, dtype=np.int64)

    def _entries(self, rows: np.ndarray, vals: np.ndarray, counts: np.ndarray) -> dict:
        starts = counts.cumsum() - counts
        cdf = np.empty(rows.size)
        shift = np.frexp(counts - 1)[1]  # the width 2**shift is the least power of two >= count
        for e in np.unique(shift).tolist():
            band = (shift == e).nonzero()[0]
            n = counts[band]
            offset = np.arange(n.sum()) - np.repeat(n.cumsum() - n, n)  # entry within its column
            entry = np.repeat(starts[band], n) + offset
            cell = np.repeat(np.arange(band.size) << e, n) + offset
            padded = np.zeros(band.size << e)
            padded[cell] = vals[entry]
            cdf[entry] = padded.reshape(band.size, 1 << e).cumsum(axis=1).ravel()[cell]
        return {"rows": rows, "vals": vals, "cdf": cdf, "row_slot": self.slots(rows.tolist())}

    def moves(self, current: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next slot of every walker: in its column j, the entry at
        ``searchsorted(cdf_j, u * cdf_j[-1], "right")``, or the last entry
        if that is past the end, found by one vectorised bisection for all
        walkers.  Unread columns are read first, in ascending order of ids."""
        count = self.count[current]
        if not count.all():
            fresh = np.unique(current[count == 0])
            self._read(fresh[np.argsort(self.ids[fresh])])
            count = self.count[current]
        lo = self.start[current]
        hi = lo + count - 1  # the last entry is the pick when no other is
        target = u * self.cdf[hi]
        for _ in range(int(count.max() - 1).bit_length()):
            mid = (lo + hi) >> 1
            le = self.cdf[mid] <= target
            hi = np.where(le, hi, mid)  # once lo >= hi, mid == hi: hi stays
            lo = np.where(le, mid + 1, lo)  # and lo may pass it, by one
        return self.row_slot[np.minimum(lo, hi)]


def _surfer_runs(
    P: ColumnMatrix,
    s: SparseVector,
    alpha: float,
    walks: Sequence[int],
    streams: Sequence[RandomStream],
    store: Optional[_SurferStore] = None,
) -> list[SparseVector]:
    """One mc_surfer estimate per run, every run's walkers advanced in one loop.

    Run k averages walks[k] walks and reads from streams[k] exactly the
    uniforms a lone ``mc_surfer(P, s, alpha, walks[k], streams[k])``
    reads, in the same order, so each estimate equals that run's bit
    for bit.  Walkers stand on slots of a _SurferStore; those of run k
    are keyed ``k * P.dim + ids[slot]`` (int64, so ``runs * P.dim`` must
    not pass 2**63 - 1), and one stable ordering of the keys per step
    hands each run's uniforms out by ascending state, then by walker.
    Every column is read and checked once, when a walker first stands on
    it; several calls on P may share one store, and the estimates do not
    change.  Memory grows with the walkers and the columns read, not
    with P.dim.
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
    _check_stack(runs, dim)
    ends = np.cumsum(walks)  # run k's walkers are ends[k] - walks[k] .. ends[k] - 1

    def draws(alive: np.ndarray) -> tuple[np.ndarray, list[int]]:
        # one uniform per alive walker, run after run, each from its own stream
        cuts = np.searchsorted(alive, ends).tolist()
        sizes = [hi - lo for lo, hi in zip([0] + cuts, cuts)]  # alive walkers of each run
        return np.concatenate([rng.random(n) for rng, n in zip(streams, sizes) if n]), sizes

    start_cdf = np.cumsum(s.values)
    alive = np.arange(ends[-1])
    pos = np.searchsorted(start_cdf, draws(alive)[0] * start_cdf[-1], side="right")
    store = _SurferStore(P) if store is None else store
    states = store.slots(s.indices.tolist())[np.minimum(pos, s.nnz - 1)]  # a stopped walker's stays

    for _ in range(cap + 1):
        alive = alive[draws(alive)[0] < alpha]
        if alive.size == 0:
            break
        uniforms, sizes = draws(alive)
        current = states[alive]
        keys = (np.arange(runs) * dim).repeat(sizes) + store.ids[current]
        u = np.empty(alive.size)
        u[_stable_order(keys, runs * dim)] = uniforms
        del keys, uniforms  # two walker-sized arrays fewer during the search
        states[alive] = store.moves(current, u)
    else:
        raise WalkCapError(f"walk exceeded {cap} steps; transition matrix suspect")

    by_id = np.argsort(store.ids[: len(store.slot)])  # the slots in ascending order of ids
    id_of = store.ids[by_id]
    hits = [np.bincount(states[end - m : end], minlength=by_id.size)[by_id]
            for m, end in zip(walks, ends.tolist())]
    return [SparseVector(dim, id_of[h > 0], h[h > 0] / m) for h, m in zip(hits, walks)]


def mc_surfer(
    P: ColumnMatrix, s: SparseVector, alpha: float, m: int, rng: RandomStream
) -> SparseVector:
    """Average of m independent surfer endpoints; unbiased for the
    stationary ranking vector of x = alpha P x + (1 - alpha) s.

    Each walk starts from s and at every step either moves through the
    current column of P (probability alpha) or stops.  Columns are read
    and checked for stochasticity as they are first touched, so memory
    grows with m and the columns read, not with P.dim.  A step reads one
    uniform per moving walker, handed out by ascending state and then by
    walker, as a loop over the distinct states would read them.  This is
    the one-run case of _surfer_runs.
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
    so runs are fully deterministic.  Each pushed column is read once,
    into a _ReadOnce store; r and x_hat stay dense, and every push scans
    r.  The trace records the initial state and every push, with the
    Euclidean errors when an oracle solution of shape (P.dim,) is given.
    """
    _validate_walk_inputs(s, alpha)
    if check_int(steps, "steps") < 0:
        raise ValueError("steps must be nonnegative")
    if s.dim != P.dim:
        raise ValueError("dimension mismatch between P and s")
    n = P.dim
    if oracle_x is not None and np.shape(oracle_x) != (n,):
        raise ValueError(f"oracle shape {np.shape(oracle_x)} is not ({n},)")
    x_hat = np.zeros(n)
    r = np.zeros(n)
    r[s.indices] = (1.0 - alpha) * s.values

    rec_res = np.empty(steps + 1)
    rec_err = None if oracle_x is None else np.empty(steps + 1)
    store = _ReadOnce(P, lambda cols: _stochastic_columns(P, cols))

    for step in range(steps + 1):
        i = int(r.argmax())
        rho = rec_res[step] = r.item(i)
        if rec_err is not None:
            rec_err[step] = float(np.linalg.norm(x_hat - oracle_x))
        if step == steps or rho <= 0.0:
            break
        x_hat[i] += rho
        r[i] = 0.0
        rows, vals = store.entries(i)
        r[rows] += alpha * rho * vals

    return x_hat, ResidualTrace(
        steps=np.arange(step + 1),
        residual_inf=rec_res[: step + 1],
        error_2=None if rec_err is None else rec_err[: step + 1],
    )
