"""Unbiased random sparsification with exact preservation of large entries.

Everything is read off the decreasing rearrangement of |v| and its tails
T(k), the mass left after the k largest magnitudes (``tail_sums``).  The
k-th largest magnitude enters the exact set D while |v|_(k) (m - k) >=
T(k); with q the first failure, D is the magnitudes above |v|_(q-1) and
then the first ties at it by position.  The rest is kept or dropped by
pivotal sampling with probabilities (m - q) |v_i| / T(q), then rescaled
so the output is unbiased, with at most m nonzeros and the 1-norm of
the input on every single draw.

Both the split and the sparsifier also take many vectors stacked into
one, each on its own stream and at its own level if need be, which is
how the solver advances many runs in one step; a stacked vector's
results equal separate calls bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .sampling import ProbabilityVector, RandomStream, _pivotal_positions, _pivotal_rows
from .vectors import SparseVector, _rearrangement, check_int, tail_sums

__all__ = [
    "PreservationSplit",
    "preservation_split",
    "sparsify",
    "sparsify_l2_bound",
]


@dataclass(frozen=True)
class PreservationSplit:
    """Exact-preservation set plus inclusion probabilities for the rest.

    ``exact_indices`` hold the q largest magnitudes (ties resolved toward
    lower position); every residual probability is (m - q) |v_i| / T(q),
    with T(q) the tail of the same rearrangement that decided admission,
    and is strictly below one except in the degenerate all-admitted case.
    The ``*_positions`` are the storage positions of those indices in v.
    For stacked vectors every field, and q, covers all of them.
    """

    dim: int
    exact_indices: np.ndarray
    residual_indices: np.ndarray
    residual_probs: np.ndarray
    exact_positions: np.ndarray
    residual_positions: np.ndarray

    @property
    def q(self) -> int:
        return int(self.exact_indices.size)

    def residual_vector(self) -> ProbabilityVector:
        return ProbabilityVector(int(self.residual_indices.size), self.residual_probs)


def preservation_split(
    v: SparseVector, m: int, rows: int = 1, levels=None
) -> PreservationSplit:
    """Split v into the minimal exact set D and residual probabilities.

    With ``rows`` > 1, v holds that many vectors of dimension
    ``v.dim // rows`` end to end (entry i of vector k at index
    ``k * (v.dim // rows) + i``), and each is split as it would be alone.
    ``levels``, one int from 1 to m per vector, gives vector k the level
    ``levels[k]`` in place of m.
    """
    m = _levels(m, levels, rows)
    if rows < 1 or v.dim % rows:
        raise ValueError(f"dimension {v.dim} does not hold {rows} equal vectors")
    exact, probs = _split_one(v, m) if rows == 1 else _split_stacked(v, m, rows)
    exact_pos = exact.nonzero()[0]
    res_pos = (~exact).nonzero()[0]
    return PreservationSplit(
        v.dim, v.indices[exact_pos], v.indices[res_pos], probs[res_pos], exact_pos, res_pos
    )


def _levels(m, levels, rows: int):
    """The level of every vector: m as an int, or one int per vector
    where ``levels`` sets them apart.  A bool or non-integer m raises
    TypeError."""
    m = check_int(m, "sparsity level m")
    if m < 1:
        raise ValueError(f"sparsity level m must be >= 1, got {m}")
    if levels is None:
        return m
    levels = np.asarray(levels)
    if levels.shape != (rows,) or levels.dtype.kind not in "iu":
        raise ValueError(f"expected {rows} integer sparsity levels, got {levels!r}")
    low, high = levels.min(), levels.max()
    if low < 1 or high > m:
        raise ValueError(f"sparsity levels must lie in 1..{m}, got {low}..{high}")
    return int(low) if low == high else levels.astype(np.int64, copy=False)


def _split_one(v: SparseVector, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact-set mask and residual probabilities per entry of one vector."""
    if v.nnz <= m:
        return np.ones(v.nnz, dtype=bool), np.zeros(v.nnz)
    a = np.abs(v.values)
    dec, tails = _rearrangement(a.copy())
    # admit the k-th largest while |v|_(k) (m - k) >= T(k); q is the first failure
    admit = dec[:m] * (m - np.arange(m)) >= tails[:m]
    q = int(admit.argmin())
    q = m if admit[q] else q
    # D: the magnitudes above |v|_(q-1), then the first ties at it by position
    floor = dec[q - 1] if q else np.inf
    exact = a > floor
    tie = (a == floor).nonzero()[0]
    exact[tie[: q - np.count_nonzero(exact)]] = True
    # q = m or T(q) = 0 is degenerate: float drift admitted a full set, and
    # the residual keeps probability zero.  The clamp guards float roundup.
    probs = np.zeros(v.nnz)
    if q < m and tails[q] > 0.0:
        probs[~exact] = np.minimum((m - q) * a[~exact] / tails[q], np.nextafter(1.0, 0.0))
    return exact, probs


def _split_stacked(v: SparseVector, m, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_split_one` of every stacked vector at once, vector k at
    level ``m`` or ``m[k]``.

    The same rule, over a zero-padded (rows, width) array of magnitudes
    whose padding adds exact zeros, so each vector sees its own operands
    in the order the one-vector split does.
    """
    row = v.indices // (v.dim // rows)
    counts = np.bincount(row, minlength=rows)
    big = counts > m
    exact = ~big[row]  # a vector of at most its m entries is kept whole
    probs = np.zeros(v.nnz)
    sub = (~exact).nonzero()[0]
    if not sub.size:
        return exact, probs
    a = np.abs(v.values[sub])
    r = (big.cumsum() - 1)[row[sub]]
    n = counts[big]
    width = int(n.max())
    mags = np.zeros((n.size, width))
    mags.ravel()[r * width + np.arange(sub.size) - (n.cumsum() - n)[r]] = a
    dec, tails = _rearrangement(mags)
    if isinstance(m, np.ndarray):
        m = m[big]
        k = np.arange(m.max())
        # past its own level a vector admits nothing more: mask it as passing
        admit = (dec[:, : k.size] * (m[:, None] - k) >= tails[:, : k.size]) | (k >= m[:, None])
    else:
        admit = dec[:, :m] * (m - np.arange(m)) >= tails[:, :m]
    q = np.where(admit.all(axis=1), m, admit.argmin(axis=1))
    t_q = tails[np.arange(n.size), q]
    # D: the magnitudes above |v|_(q-1), then the first ties at it by position
    floor = np.where(q > 0, dec[np.arange(n.size), np.maximum(q - 1, 0)], np.inf)[r]
    admitted = a > floor
    tie = (a == floor).nonzero()[0]
    n_tie = np.bincount(r[tie], minlength=n.size)
    need = q - np.bincount(r[admitted], minlength=n.size)
    admitted[tie[np.arange(tie.size) - (n_tie.cumsum() - n_tie)[r[tie]] < need[r[tie]]]] = True
    exact[sub[admitted]] = True
    # degenerate vectors keep probability zero, as in _split_one
    res = (~admitted & ((q < m) & (t_q > 0.0))[r]).nonzero()[0]
    probs[sub[res]] = np.minimum((m - q)[r[res]] * a[res] / t_q[r[res]], np.nextafter(1.0, 0.0))
    return exact, probs


def sparsify(
    v: SparseVector, m: int, rng: Union[RandomStream, Sequence[RandomStream]], levels=None
) -> SparseVector:
    """Random sparse approximation of v: unbiased, at most m nonzeros.

    Entries in the exact set are copied; a pivotal sample of the rest is
    rescaled by 1/p_i.  The 1-norm of the output equals the 1-norm of the
    input on every draw, which is what keeps the solver iterates stable.

    ``rng`` may be a sequence of streams, one per vector of a stacked v
    (see :func:`preservation_split`), and ``levels`` one level from 1 to
    m per vector: vector k is then sparsified at its level on ``rng[k]``
    exactly as a call on it alone would, reading the same ``nnz_k - 1``
    uniforms from that stream.  v is returned as it is when every vector
    holds at most its level's entries.
    """
    streams = [rng] if isinstance(rng, RandomStream) else rng
    level = _levels(m, levels, len(streams))
    if np.ndim(level) == 0 and v.nnz <= level:
        return v
    split = preservation_split(v, m, len(streams), levels)
    if not split.residual_positions.size:  # every vector holds at most its level's entries
        return v
    # split probabilities honor the ProbabilityVector contract by construction
    if len(streams) == 1:
        chosen = _pivotal_positions(split.residual_probs, level - split.q, streams[0])
    else:
        dim = v.dim // len(streams)
        kept = np.bincount(split.exact_indices // dim, minlength=len(streams))
        chosen = _pivotal_rows(
            split.residual_probs, split.residual_indices // dim, level - kept, streams
        )
    pos = np.sort(np.concatenate([split.exact_positions, split.residual_positions[chosen]]))
    weight = np.ones(v.nnz)  # exact entries are divided by one, which is exact
    weight[split.residual_positions] = split.residual_probs
    return SparseVector._make(v.dim, v.indices[pos], v.values[pos] / weight[pos])


def sparsify_l2_bound(v: SparseVector, m: int) -> float:
    """Mean-square sparsification error bound min_i tail(i)^2 / (m - i).

    A bound beyond the float range reads inf.
    """
    m = _levels(m, None, 1)
    i = np.arange(min(m - 1, v.nnz) + 1)
    with np.errstate(over="ignore"):
        return float(np.min(tail_sums(v)[i] ** 2 / (m - i)))
