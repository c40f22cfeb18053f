"""Richardson iteration, its randomly sparsified variant, and bias oracles.

The sparsified solver never forms G = I - A.  Each iterate is computed as

    X = b + phi - sum_j phi_j * A(:, j)   over j in support(phi),

so an iteration touches at most m columns of A and costs O(m q) when the
columns hold at most q nonzeros.  Averaging the iterates from the burn-in
onward gives the returned estimate.  One loop advances any number of runs
on separate streams in lockstep: rsri is the case of one stream, and the
experiment harness runs all its trials at once.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .operators import ColumnMatrix, _read_once, apply
from .sampling import RandomStream
from .sparsify import sparsify
from .vectors import SparseVector, _check_stack, check_int, coalesce, dot

__all__ = [
    "RsriConfig",
    "SolveReport",
    "LinearProblem",
    "NonConvergenceError",
    "richardson",
    "reference_solve",
    "rsri",
    "rsri_functionals",
    "expected_average",
]

DENSE_ACCUMULATOR_LIMIT = 10_000_000


@dataclass(frozen=True)
class RsriConfig:
    """Run parameters: sparsity m, iterations t, burn-in t_min, seed, trials."""

    m: int
    t: int
    t_min: int
    seed: int = 0
    trials: int = 10

    def __post_init__(self):
        for name in ("m", "t", "t_min", "seed", "trials"):
            check_int(getattr(self, name), name)
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if not 0 <= self.t_min < self.t:
            raise ValueError("t_min must satisfy 0 <= t_min < t")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass
class SolveReport:
    estimate: SparseVector
    column_accesses: int
    wall_clock: float
    rng_kind: str


@dataclass(frozen=True)
class LinearProblem:
    """A column oracle plus right-hand side, for harness consumption."""

    A: ColumnMatrix
    b: SparseVector


class NonConvergenceError(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _richardson_steps(A: ColumnMatrix, b: SparseVector):
    """Yield (x, ||r||_1) with r = b - A x for x = b, then x += r in place,
    one ``apply`` per step; the caller's loop sets ``np.errstate``.  An
    implicit A's columns are read once each, into a store that lives as
    long as the generator."""
    if b.dim != A.dim:
        raise ValueError("dimension mismatch between A and b")
    A = _read_once(A)
    b_dense = b.to_dense()
    x = b_dense.copy()
    mags = np.empty_like(x)
    while True:
        residual = apply(A, x)
        np.subtract(b_dense, residual, out=residual)
        yield x, float(np.abs(residual, out=mags).sum())
        x += residual


def richardson(A: ColumnMatrix, b: SparseVector, t: int) -> np.ndarray:
    """t steps of x <- x + (b - A x) from x = b; NonConvergenceError on overflow."""
    if check_int(t, "t") < 0:
        raise ValueError("t must be nonnegative")
    return expected_average(A, b, t + 1, t)


def reference_solve(
    A: ColumnMatrix, b: SparseVector, tol: float = 1e-12, max_iter: int = 200_000
) -> np.ndarray:
    """Richardson until the 1-norm residual drops below tol (oracle solves).

    Its loop is that of richardson and expected_average: one ``apply``
    per step, x updated in place.  The first product builds a CSC
    matrix's row-blocked copy, which later solves reuse.

    Raises NonConvergenceError after max_iter steps, or as soon as the
    residual overflows, which happens when G = I - A is not a contraction.
    """
    if check_int(max_iter, "max_iter") < 0:
        raise ValueError("max_iter must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        for step, (x, res_norm) in zip(range(max_iter + 1), _richardson_steps(A, b)):
            if res_norm <= tol:
                return x
            if not math.isfinite(res_norm):
                raise NonConvergenceError(
                    f"residual diverged to {res_norm} after {step} iterations", res_norm
                )
    raise NonConvergenceError(
        f"no convergence within {max_iter} iterations (residual {res_norm:.3e})", res_norm
    )


def _iterate_trials(
    A: ColumnMatrix,
    b: SparseVector,
    cfg: RsriConfig,
    streams: Sequence[RandomStream],
    levels,
    consume: Callable[[SparseVector], None],
) -> np.ndarray:
    """Drive one sparsified iteration per stream in lockstep.

    The iterates of all runs are stacked into one SparseVector of
    dimension ``len(streams) * A.dim``, entry i of run k at index
    ``k * A.dim + i``, so one sparsify, one gather and one coalesce
    advance every run.  Those keys are int64, so a ValueError rejects
    more than one run when ``len(streams) * A.dim`` exceeds 2**63 - 1,
    the largest SparseVector dimension.
    ``levels`` is one sparsity level for every run or one per stream;
    cfg supplies t and t_min only.  consume receives each averaged
    iterate in that form.  Returns the exact column accesses per stream.
    Every sum sees one run's operands in the order a run on its stream
    alone would, so each run's iterates do not depend on the others.
    Raises NonConvergenceError at the first iterate whose 1-norm times
    its level is not finite: the iteration diverged, and the next
    sparsification could no longer be computed.
    """
    if b.dim != A.dim:
        raise ValueError("dimension mismatch between A and b")
    trials, dim = len(streams), A.dim
    _check_stack(trials, dim)
    levels = np.broadcast_to(levels, trials)
    m = int(levels.max())
    per_run = None if levels.min() == m else levels
    b_keys = (np.arange(trials)[:, None] * dim + b.indices).ravel()
    b_vals = np.tile(b.values, trials)
    x = SparseVector._make(trials * dim, b_keys, b_vals)
    accesses = np.zeros(trials, dtype=np.int64)
    if cfg.t_min == 0:
        consume(x)
    for s in range(1, cfg.t):
        phi = sparsify(x, m, streams, per_run)
        trial = phi.indices // dim
        accesses += np.bincount(trial, minlength=trials)
        offset = trial * dim
        with np.errstate(over="ignore", invalid="ignore"):  # the guard reports overflow
            # X = b + phi - sum_j phi_j A(:, j); duplicates merged, exact zeros dropped
            rows, vals, counts = A.gather(phi.indices - offset)
            x = coalesce(
                trials * dim,
                np.concatenate([b_keys, phi.indices, np.repeat(offset, counts) + rows]),
                np.concatenate([b_vals, phi.values, vals * (-phi.values).repeat(counts)]),
            )
            if not float(np.abs(x.values).sum()) * m < math.inf:
                # some run diverged, or only the sum over runs overflows
                norm1 = np.bincount(x.indices // dim, np.abs(x.values), minlength=trials)
                diverged = (~(norm1 * levels < math.inf)).nonzero()[0]
                if diverged.size:
                    k = diverged[0]
                    if per_run is not None:  # name the trial within its level
                        run = f"m={levels[k]} trial {np.count_nonzero(levels[:k] == levels[k])}: "
                    else:
                        run = f"trial {k}: " if trials > 1 else ""
                    raise NonConvergenceError(
                        f"{run}iterate diverged: 1-norm {norm1[k]} at step {s}", float(norm1[k])
                    )
            if s >= cfg.t_min:
                consume(x)
    return accesses


class _Accumulator:
    """Running sum of stacked sparse iterates, dense or sparse as the caller asks.

    Entry i of run k sits at ``k * dim + i``.  A dense sum is one array.
    A sparse sum (the regime where the solution itself is too large to
    store densely) is a SparseVector; iterates are buffered behind it and
    folded in with one coalesce once their entries outnumber its support,
    so a fold costs about as much as the entries it absorbs.  The running
    sum goes first in a fold and coalesce adds in input order, so both
    layouts add each entry's terms in iterate order and give the same
    bits, whatever the fold schedule.  ``finish`` turns the sum into the
    average; ``rows`` then reads runs of it densely and ``vector``
    returns it whole.
    """

    def __init__(self, runs: int, dim: int, dense: bool):
        self.dim = dim
        self.dense = np.zeros(runs * dim) if dense else None
        self.parts = [SparseVector.empty(runs * dim)]  # running sum, then buffered iterates
        self.buffered = 0

    def add(self, v: SparseVector):
        if self.dense is not None:
            self.dense[v.indices] += v.values  # indices are distinct
            return
        self.parts.append(v)
        self.buffered += v.nnz
        if self.buffered > self.parts[0].nnz:
            self._fold()

    def _fold(self):
        idx = np.concatenate([p.indices for p in self.parts])
        val = np.concatenate([p.values for p in self.parts])
        self.parts = [coalesce(self.parts[0].dim, idx, val)]
        self.buffered = 0

    def finish(self, count: int):
        """Divide the sum by count; ends the accumulation."""
        if self.dense is not None:
            self.dense /= count  # in place: a stacked sum can be large
            return
        self._fold()
        total = self.parts[0]
        val = total.values / count
        keep = val != 0.0
        self.parts = [SparseVector(total.dim, total.indices[keep], val[keep])]

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Runs lo .. hi - 1 as a dense (hi - lo, dim) array, a view of a dense sum."""
        if self.dense is not None:
            return self.dense[lo * self.dim : hi * self.dim].reshape(hi - lo, self.dim)
        total = self.parts[0]
        a, z = np.searchsorted(total.indices, [lo * self.dim, hi * self.dim])
        out = np.zeros((hi - lo) * self.dim)
        out[total.indices[a:z] - lo * self.dim] = total.values[a:z]
        return out.reshape(hi - lo, self.dim)

    def vector(self) -> SparseVector:
        """Every run as one stacked SparseVector."""
        if self.dense is not None:
            return SparseVector.from_dense(self.dense)
        return self.parts[0]


def _rsri_trials(
    A: ColumnMatrix, b: SparseVector, cfg: RsriConfig, streams: Sequence[RandomStream], levels
) -> tuple[_Accumulator, np.ndarray]:
    """One rsri run per stream, advanced in lockstep and summed in one
    _Accumulator; ``levels`` as in _iterate_trials.

    Returns the finished accumulator, which holds the averaged iterates
    of run k at ``k * A.dim + i``, and the column accesses per stream.
    Run k equals rsri on streams[k] at its level alone bit for bit.  The
    sum is dense while the stacked dimension ``len(streams) * A.dim`` is
    at most DENSE_ACCUMULATOR_LIMIT and sparse above it; the limit
    chooses the memory layout only.  An implicit A's columns are read
    once each and kept until the call returns, at most q entries per
    distinct column and no limit on the columns, burn-in included; the
    column accesses still count every use.
    """
    _check_stack(len(streams), A.dim)
    acc = _Accumulator(len(streams), A.dim, len(streams) * A.dim <= DENSE_ACCUMULATOR_LIMIT)
    accesses = _iterate_trials(_read_once(A), b, cfg, streams, levels, acc.add)
    acc.finish(cfg.t - cfg.t_min)
    return acc, accesses


def rsri(A: ColumnMatrix, b: SparseVector, cfg: RsriConfig, rng: RandomStream) -> SolveReport:
    """Randomly sparsified Richardson iteration.

    Runs t iterations from X = b, sparsifying each iterate to at most m
    entries before the column multiply, and returns the average of the
    iterates s = t_min .. t - 1 along with the exact column-access count.
    """
    start = time.perf_counter()
    average, accesses = _rsri_trials(A, b, cfg, [rng], cfg.m)
    return SolveReport(
        estimate=average.vector(),
        column_accesses=int(accesses[0]),
        wall_clock=time.perf_counter() - start,
        rng_kind=rng.kind,
    )


def rsri_functionals(
    A: ColumnMatrix,
    b: SparseVector,
    cfg: RsriConfig,
    rng: RandomStream,
    fs: Sequence[np.ndarray],
) -> list[float]:
    """Streaming averages of f * X over the averaged iterates.

    Memory use is independent of the estimate: nothing is accumulated but
    one running sum per functional, and an implicit A's columns are read
    on every access, not kept.  With the same stream this agrees with
    dotting the stored rsri estimate.
    """
    fs = [np.asarray(f, dtype=np.float64) for f in fs]
    for f in fs:
        if f.shape != (A.dim,):
            raise ValueError("functional dimension mismatch")
    totals = [0.0] * len(fs)

    def consume(x: SparseVector):
        for k, f in enumerate(fs):
            totals[k] += dot(f, x)

    _iterate_trials(A, b, cfg, [rng], cfg.m, consume)
    count = cfg.t - cfg.t_min
    return [t / count for t in totals]


def expected_average(A: ColumnMatrix, b: SparseVector, t: int, t_min: int) -> np.ndarray:
    """Exact mean of the sparsified solver's averaged estimate.

    The sparsifier is unbiased, so the mean iterate at step s is the
    Richardson iterate s whatever m is, and the averaged mean is the
    average of the Richardson iterates s = t_min .. t - 1.  No solve is
    needed, and G = I - A need not be a contraction; NonConvergenceError
    is raised when the iterates overflow.
    """
    t, t_min = check_int(t, "t"), check_int(t_min, "t_min")
    if not 0 <= t_min < t:
        raise ValueError("need 0 <= t_min < t")
    mean = np.zeros(A.dim)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        for x, _ in itertools.islice(_richardson_steps(A, b), t_min, t):
            mean += x
        mean /= t - t_min
    if not np.isfinite(mean).all():
        raise NonConvergenceError(f"Richardson iterates overflowed by step {t - 1}", math.inf)
    return mean
