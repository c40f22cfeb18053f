"""Pivotal sampling and the seeded random-stream contract.

Pivotal sampling (Deville & Tille 1998) selects exactly m indices with
prescribed inclusion probabilities through sequential duels: the unit
holding the fractional carry meets the next nonzero entry, and one of
the two either takes the pair's whole mass or is rounded up to one.
Selections are negatively correlated, which is what the sparsifier's
variance analysis relies on.

The carry mass before each duel is not random: it is the fractional part
of the prefix sum of the probabilities.  Only which unit holds it is.
So every duel is decided at once from pre-drawn uniforms, the holder
follows as a running maximum over the duels that move it, and a batch
of draws is the same computation with a leading axis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

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
    return _pivotal_core(pv.probs, pv.target_size, rng)


def _pivotal_core(
    probs_full: np.ndarray, m: int, rng: RandomStream, draws: tuple[int, ...] = ()
) -> np.ndarray:
    """Sorted positions of m selected entries, with shape ``draws + (m,)``."""
    nz = np.flatnonzero(probs_full)
    if nz.size == 0:
        return np.empty(draws + (0,), dtype=np.int64)
    probs = probs_full[nz]
    u = rng.random(draws + (nz.size - 1,) if draws else nz.size - 1)
    # the carry mass before each duel is the fractional part of the prefix
    # sum; the duels where its integer part steps up each fill one unit
    prefix = np.cumsum(probs)
    whole = np.floor(prefix)
    carry = prefix[:-1] - whole[:-1]
    new = probs[1:]
    total = carry + new
    fills = whole[1:] > whole[:-1]
    # moves: the newcomer takes the carry; in a filling duel the old holder
    # is then selected, in any other duel it drops out
    moves = np.where(fills, u * (2.0 - total) < 1.0 - new, u * total >= carry)
    holder = np.zeros(draws + (nz.size,), dtype=np.int64)
    holder[..., 1:] = np.where(moves, np.arange(1, nz.size), 0)
    np.maximum.accumulate(holder, axis=-1, out=holder)
    hi = np.flatnonzero(fills)  # duel hi is between holder[..., hi] and entry hi + 1
    chosen = np.where(moves.take(hi, axis=-1), holder.take(hi, axis=-1), hi + 1)
    count = hi.size
    if count == m - 1:
        # residual mass ~ 1: the last carry holder completes the set
        chosen = np.concatenate([chosen, holder[..., -1:]], axis=-1)
    elif count != m:
        raise RuntimeError(f"pivotal sampling produced {count} selections for target {m}")
    return nz[np.sort(chosen, axis=-1)]


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
    np.put_along_axis(sel, _pivotal_core(pv.probs, pv.target_size, rng, (draws,)), True, axis=1)
    return sel
