"""Pivotal sampling and the seeded random-stream contract.

Pivotal sampling (Deville & Tille 1998) selects exactly m indices with
prescribed inclusion probabilities through sequential duels: the unit
holding the fractional carry meets the next nonzero entry, and one of
the two either takes the pair's whole mass or is rounded up to one.
Selections are negatively correlated, which is what the sparsifier's
variance analysis relies on.

The carry mass before each duel is not random: it is the fractional part
of the prefix sum of the probabilities.  Only which unit holds it is.
So every duel is decided at once from pre-drawn uniforms, and the holder
follows as a running maximum over the duels that move it.  One core
does this for rows laid end to end, so one draw each of many vectors,
or many draws of one vector, take a single call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .vectors import check_int

__all__ = [
    "ProbabilityVector",
    "RandomStream",
    "spawn_stream",
    "pivotal_sample",
    "pivotal_sample_batch",
]

SUM_TOL = 1e-9


@dataclass(frozen=True)
class ProbabilityVector:
    """Inclusion probabilities in [0, 1) whose total is (nearly) an integer."""

    dim: int
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} probabilities, got shape {p.shape}")
        if p.size and (p.min() < 0.0 or p.max() >= 1.0):
            raise ValueError("probabilities must lie in [0, 1)")
        total = math.fsum(p.tolist())
        target = round(total)
        if target < 0 or abs(total - target) > SUM_TOL:
            raise ValueError(
                f"probabilities must sum to a nonnegative integer within {SUM_TOL}, got {total!r}"
            )
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "_target", int(target))

    @property
    def target_size(self) -> int:
        return self._target


@dataclass
class RandomStream:
    """Reproducible PCG64 stream addressed by (seed, spawn path).

    The derivation is numpy's SeedSequence with the path as spawn key, so
    a stream is a pure function of (seed, path) and replays identically
    across process restarts.  Streams are single-owner mutable: never
    share one between concurrent tasks, spawn children instead.
    """

    seed: int
    path: tuple[int, ...] = ()
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= check_int(self.seed, "seed") < 2**64:
            raise ValueError("seed must be a 64-bit nonnegative integer")
        seq = np.random.SeedSequence(entropy=int(self.seed), spawn_key=self.path)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    kind = "pcg64"

    def random(self, size=None):
        return self._gen.random(size)


def spawn_stream(master: RandomStream, trial: int) -> RandomStream:
    """Derive the child stream for one trial; deterministic in (seed, trial)."""
    if check_int(trial, "trial") < 0:
        raise ValueError("trial must be nonnegative")
    return RandomStream(master.seed, master.path + (int(trial),))


def _as_probs(p: Union[ProbabilityVector, np.ndarray]) -> ProbabilityVector:
    if isinstance(p, ProbabilityVector):
        return p
    arr = np.asarray(p, dtype=np.float64)
    return ProbabilityVector(arr.size, arr)


def pivotal_sample(p: Union[ProbabilityVector, np.ndarray], rng: RandomStream) -> np.ndarray:
    """Draw a sorted index set S with |S| = round(sum p) and P{i in S} = p_i.

    Reads ``nnz - 1`` uniforms from ``rng``, one per duel; zero entries
    never enter a duel, so zero padding leaves the draw unchanged.  When
    the probabilities sum to the target only up to rounding, the unit
    left holding the carry completes the set.
    """
    pv = _as_probs(p)
    return _pivotal_positions(pv.probs, pv.target_size, rng)


_ONE_ROW = np.zeros(1, dtype=np.int64)  # the row starts of a single row
_NO_DUEL = np.zeros(1)  # placeholder uniform at a row start


def _pivotal_positions(probs: np.ndarray, m: int, rng: RandomStream) -> np.ndarray:
    """Sorted positions of the m entries of one pivotal draw on ``rng``."""
    nz = probs.nonzero()[0]
    if nz.size == 0:
        return nz
    return nz[_pivotal_core(probs[nz], _ONE_ROW, m, rng.random(nz.size - 1))]


def _pivotal_rows(
    probs: np.ndarray, bounds: np.ndarray, targets: np.ndarray, streams: Sequence[RandomStream]
) -> np.ndarray:
    """Sorted positions chosen by one pivotal draw per row, row k on streams[k].

    Row k is ``probs[bounds[k]:bounds[k + 1]]`` and must select
    ``targets[k]`` entries; it is drawn as :func:`_pivotal_positions`
    would draw it on ``streams[k]``, rows in ascending order.
    """
    nz = (probs != 0.0).nonzero()[0]
    if nz.size == 0:
        return nz
    nz_bounds = np.searchsorted(nz, bounds)
    n = nz_bounds[1:] - nz_bounds[:-1]
    live = n.nonzero()[0]
    # the uniform of the duel that brings in each entry; the first entry of
    # every later row meets no one and gets a placeholder
    u = []
    for k, size in zip(live.tolist(), n[live].tolist()):
        u += [streams[k].random(size - 1), _NO_DUEL]
    return nz[_pivotal_core(probs[nz], nz_bounds[live], targets[live], np.concatenate(u[:-1]))]


def _pivotal_core(probs: np.ndarray, starts: np.ndarray, targets, u: np.ndarray) -> np.ndarray:
    """Selections of one pivotal draw per row, as a boolean array over
    ``probs`` (with the leading axes of ``u``).

    ``probs`` holds the positive probabilities of one or more rows end to
    end; row r begins at ``starts[r]`` (``starts[0] == 0``) and must select
    ``targets[r]`` entries (a scalar serves every row).  The duel that
    brings in entry j + 1 reads ``u[..., j]``; the uniforms at row starts
    are ignored.  A leading axis of ``u`` draws the same rows many times.
    """
    n = probs.size
    last = np.concatenate((starts[1:], [n])) - 1  # each row's last entry
    if starts.size == 1:  # the padded sums below, without their ~10 us of set-up
        prefix = probs.cumsum()
    else:
        # summed row-wise from 0.0 on a zero-padded array, as each row
        # alone would be summed
        length = last + 1 - starts
        width = int(length.max())
        slot = np.arange(n) + (np.arange(0, starts.size * width, width) - starts).repeat(length)
        padded = np.zeros(starts.size * width)
        padded[slot] = probs
        prefix = padded.reshape(starts.size, width).cumsum(axis=1).ravel()[slot]
    # the carry mass before each duel is the fractional part of the prefix
    # sum; the duels where its integer part steps up each fill one unit,
    # so a row's integer part at its end counts its filling duels.  A row
    # starts below one, so no duel seems to fill at a row start
    whole = np.floor(prefix)
    carry = prefix[:-1] - whole[:-1]
    new = probs[1:]
    total = carry + new
    fills = whole[1:] > whole[:-1]
    # moves: the newcomer takes the carry; in a filling duel the old holder
    # is then selected, in any other duel it drops out; in a filling duel
    # that leaves the carry in place the newcomer is selected.  A filling
    # duel moves when u (2 - total) < 1 - new, any other when u total >=
    # carry: one product and one comparison per duel, negated where none fills
    scale = np.where(fills, 2.0 - total, total)
    moves = (u * scale < np.where(fills, 1.0 - new, carry)) == fills
    # positions fit in int32, which halves the (draws, n) holder of a batch
    holder = np.empty(moves.shape[:-1] + (n,), dtype=np.int32 if n < 2**31 else np.int64)
    np.multiply(moves, np.arange(1, n, dtype=holder.dtype), out=holder[..., 1:])
    holder[..., starts] = starts  # each row's first entry holds the carry
    np.maximum.accumulate(holder, axis=-1, out=holder)
    # duel j is between holder[..., j] and entry j + 1; a filling duel
    # selects the newcomer if the carry stays and the old holder if it moves
    filled = fills.nonzero()[0]
    won = moves[..., filled]
    sel = np.zeros(holder.shape, dtype=bool)
    sel[..., filled + 1] = ~won
    hit = won.nonzero()  # (draw, duel) or (duel,)
    sel[hit[:-1] + (holder[..., filled][hit],)] = True
    missing = targets - whole[last]
    short = missing.nonzero()[0]
    if short.size:
        if (missing[short] != 1).any():
            r = short[missing[short] != 1][0]
            target = int(np.broadcast_to(targets, missing.shape)[r])
            raise RuntimeError(
                f"pivotal sampling produced {int(whole[last[r]])} selections for target {target}"
            )
        # residual mass ~ 1: the last carry holder completes the row's set
        done = holder[..., last[short]]
        if sel.ndim == 1:
            sel[done] = True
        else:
            sel[np.arange(len(sel))[:, None], done] = True
    return sel


def pivotal_sample_batch(
    p: Union[ProbabilityVector, np.ndarray], rng: RandomStream, draws: int
) -> np.ndarray:
    """Many pivotal draws at once: a (draws, dim) boolean selection matrix.

    Row r is the set :func:`pivotal_sample` would return as the r-th of
    ``draws`` consecutive calls on the same stream; meant for calibration
    and variance checks that need many draws.
    """
    pv = _as_probs(p)
    sel = np.zeros((draws, pv.dim), dtype=bool)
    nz = pv.probs.nonzero()[0]
    if nz.size:
        u = rng.random((draws, nz.size - 1))
        sel[:, nz] = _pivotal_core(pv.probs[nz], _ONE_ROW, pv.target_size, u)
    return sel
