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
does this row-wise for zero-padded rows, so many draws of one vector,
or one draw each of many vectors, take a single call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

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
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must be a 64-bit nonnegative integer")
        seq = np.random.SeedSequence(entropy=int(self.seed), spawn_key=self.path)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    kind = "pcg64"

    def random(self, size=None):
        return self._gen.random(size)


def spawn_stream(master: RandomStream, trial: int) -> RandomStream:
    """Derive the child stream for one trial; deterministic in (seed, trial)."""
    if trial < 0:
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


def _pivotal_positions(probs: np.ndarray, m: int, rng: RandomStream) -> np.ndarray:
    """Sorted positions of the m entries of one pivotal draw on ``rng``."""
    nz = probs.nonzero()[0]
    if nz.size == 0:
        return nz
    u = rng.random(nz.size - 1)
    return nz[_pivotal_core(probs[nz][None], m, u[None])[0].nonzero()[0]]


def _pivotal_rows(
    probs: np.ndarray, row: np.ndarray, targets: np.ndarray, streams: Sequence[RandomStream]
) -> np.ndarray:
    """Sorted positions chosen by one pivotal draw per row, row k on streams[k].

    ``probs`` holds the rows one after another (``row`` is its sorted row
    id per entry) and row k must select ``targets[k]`` entries.  Row k is
    drawn as :func:`_pivotal_positions` would draw it on ``streams[k]``.
    """
    nz = probs.nonzero()[0]
    r = row[nz]
    n = np.bincount(r, minlength=len(streams))
    width = int(n.max()) if nz.size else 1
    slot = r * width + np.arange(nz.size) - (n.cumsum() - n)[r]  # rows compacted to the left
    padded = np.zeros(n.size * width)
    padded[slot] = probs[nz]
    u = np.zeros((n.size, width - 1))
    drawing = (n > 1).nonzero()[0].tolist()
    if drawing:
        u[np.arange(width - 1) < (n - 1)[:, None]] = np.concatenate(
            [streams[k].random(n[k] - 1) for k in drawing]
        )
    sel = _pivotal_core(padded.reshape(n.size, width), np.where(n > 0, targets, 0), u)
    return nz[sel.ravel()[slot]]


def _pivotal_core(probs: np.ndarray, targets, u: np.ndarray) -> np.ndarray:
    """Selections of one pivotal draw per row of ``u``, as a boolean array.

    Row r of ``probs`` holds its n_r positive probabilities first and zero
    padding after them; its duels read ``u[r, :n_r - 1]``, the rest of the
    row of ``u`` must be zero, and it must select ``targets[r]`` entries
    (a scalar serves every row).  A single row of ``probs`` serves every
    row of ``u``: many draws of one vector.
    """
    rows, width = u.shape[0], probs.shape[1]
    # the carry mass before each duel is the fractional part of the prefix
    # sum; the duels where its integer part steps up each fill one unit.
    # Padding adds exact zeros, so no unit fills there, and with a zero
    # uniform the carry moves there only when it is zero, in which case
    # the set is already complete.
    prefix = probs.cumsum(axis=1)
    whole = np.floor(prefix)
    carry = prefix[:, :-1] - whole[:, :-1]
    new = probs[:, 1:]
    total = carry + new
    fills = whole[:, 1:] > whole[:, :-1]
    # moves: the newcomer takes the carry; in a filling duel the old holder
    # is then selected, in any other duel it drops out; in a filling duel
    # that leaves the carry in place the newcomer is selected
    moves = np.where(fills, u * (2.0 - total) < 1.0 - new, u * total >= carry)
    holder = np.zeros((rows, width), dtype=np.int64)
    holder[:, 1:] = np.where(moves, np.arange(1, width), 0)
    np.maximum.accumulate(holder, axis=1, out=holder)
    # duel (r, j) is between holder[r, j] and entry j + 1
    sel = np.zeros((rows, width), dtype=bool)
    sel[:, 1:] = fills & ~moves
    won = (fills & moves).ravel().nonzero()[0]
    row = won // max(width - 1, 1)
    sel.ravel()[row * width + holder.ravel()[won + row]] = True
    # with one row of probabilities every draw fills the same duels
    missing = np.broadcast_to(targets - fills.sum(axis=1), (rows,))
    short = missing.nonzero()[0]
    if (missing[short] != 1).any():
        r = short[missing[short] != 1][0]
        target = np.broadcast_to(targets, rows)[r]
        raise RuntimeError(
            f"pivotal sampling produced {target - missing[r]} selections for target {target}"
        )
    if short.size:  # residual mass ~ 1: the last carry holder completes the set
        sel[short, holder[short, -1]] = True
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
        sel[:, nz] = _pivotal_core(pv.probs[nz][None], pv.target_size, u)
    return sel
