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
results equal separate calls bit for bit.  Each vector is a slice of
the storage between bounds that one search finds in the sorted keys.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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
    For stacked vectors every field, and q, covers all of them.  The split
    checks the levels once and keeps each draw target, level - q: one int
    in ``_targets``, or ``_targets[k]`` for vector k, whose residual runs
    from ``_bounds[k]`` to ``_bounds[k + 1]``.
    """

    dim: int
    exact_indices: np.ndarray
    residual_indices: np.ndarray
    residual_probs: np.ndarray
    exact_positions: np.ndarray
    residual_positions: np.ndarray
    _targets: Union[int, np.ndarray] = field(default=None, repr=False, compare=False)
    _bounds: np.ndarray = field(default=None, repr=False, compare=False)

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
    ``k * (v.dim // rows) + i``), and each is split, in its slice of the
    storage, as it would be alone.  ``levels``, one int from 1 to m per
    vector, gives vector k the level ``levels[k]`` in place of m.
    """
    m = _levels(m, levels, rows)
    if rows < 1 or v.dim % rows:
        raise ValueError(f"dimension {v.dim} does not hold {rows} equal vectors")
    if rows > 1:
        return _split_stacked(v, m, rows)
    exact, probs = _split_one(v, m)
    exact_pos = exact.nonzero()[0]
    res_pos = (~exact).nonzero()[0]
    return PreservationSplit(v.dim, v.indices[exact_pos], v.indices[res_pos], probs[res_pos],
                             exact_pos, res_pos, m - exact_pos.size)


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


def _split_stacked(v: SparseVector, m, rows: int) -> PreservationSplit:
    """:func:`_split_one` of every stacked vector at once, vector k at level
    ``m`` or ``m[k]`` in v's storage from ``bounds[k]`` on.  Its figures are
    computed once and repeated over its entries, and its magnitudes fill a
    row of a zero-padded array whose padding adds exact zeros, so it sees
    its own operands in the order the one-vector split does."""
    bounds = np.searchsorted(v.indices, np.arange(rows + 1) * (v.dim // rows))
    n = bounds[1:] - bounds[:-1]
    targets = m - n  # a vector of at most its m entries is kept whole
    big = (targets < 0).nonzero()[0]
    if not big.size:  # every vector is kept whole
        return PreservationSplit(v.dim, v.indices, bounds[:0], np.zeros(0), np.arange(v.nnz),
                                 bounds[:0], targets, np.zeros_like(bounds))
    n, m = n[big], m[big] if isinstance(m, np.ndarray) else m
    start = n.cumsum() - n  # of each big vector among theirs
    pos = np.arange(n.sum()) + np.repeat(bounds[big] - start, n)
    a = np.abs(v.values[pos])
    width = int(n.max())
    mags = np.zeros(n.size * width)
    mags[np.arange(a.size) + np.repeat(width * np.arange(n.size) - start, n)] = a
    dec, tails = _rearrangement(mags.reshape(n.size, width))
    if isinstance(m, np.ndarray):
        k = np.arange(m.max())
        # past its own level a vector admits nothing more: mask it as passing
        admit = (dec[:, : k.size] * (m[:, None] - k) >= tails[:, : k.size]) | (k >= m[:, None])
    else:
        admit = dec[:, :m] * (m - np.arange(m)) >= tails[:, :m]
    q_big = np.where(admit.all(axis=1), m, admit.argmin(axis=1))
    targets[big] = draw = m - q_big
    t_q = tails[np.arange(n.size), q_big]
    # D: the magnitudes above |v|_(q-1), then the first ties at it by position
    floor = np.where(q_big > 0, dec[np.arange(n.size), np.maximum(q_big - 1, 0)], np.inf)
    floor = np.repeat(floor, n)
    admitted = a > floor
    tie = (a == floor).nonzero()[0]
    first = np.searchsorted(tie, np.append(start, a.size))
    n_tie = first[1:] - first[:-1]
    need = np.repeat(q_big - np.add.reduceat(admitted, start), n_tie)
    admitted[tie[np.arange(tie.size) - np.repeat(first[:-1], n_tie) < need]] = True
    res = (~admitted).nonzero()[0]
    # degenerate vectors keep probability zero, as in _split_one
    live = np.repeat((q_big < m) & (t_q > 0.0), n - q_big)
    probs = np.zeros(res.size)
    np.multiply(np.repeat(draw, n - q_big), a[res], out=probs, where=live)
    np.divide(probs, np.repeat(t_q, n - q_big), out=probs, where=live)
    res_pos = pos[res]
    exact = np.ones(v.nnz, dtype=bool)
    exact[res_pos] = False
    exact_pos = exact.nonzero()[0]
    np.minimum(probs, np.nextafter(1.0, 0.0), out=probs)
    return PreservationSplit(v.dim, v.indices[exact_pos], v.indices[res_pos], probs, exact_pos,
                             res_pos, targets, np.searchsorted(res_pos, bounds))


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
    if levels is None and v.nnz <= _levels(m, None, 1):
        return v
    split = preservation_split(v, m, len(streams), levels)
    res = split.residual_positions
    if not res.size:  # every vector holds at most its level's entries
        return v
    # split probabilities honor the ProbabilityVector contract by construction
    if len(streams) == 1:
        chosen = _pivotal_positions(split.residual_probs, split._targets, streams[0])
    else:
        chosen = _pivotal_rows(split.residual_probs, split._bounds, split._targets, streams)
    pos = res[chosen]
    keep = np.ones(v.nnz, dtype=bool)
    keep[res] = False
    keep[pos] = True
    kept = keep.nonzero()[0]
    values = v.values.copy()  # exact entries are copied as they are
    values[pos] /= split.residual_probs[chosen]
    return SparseVector._make(v.dim, v.indices[kept], values[kept])


def sparsify_l2_bound(v: SparseVector, m: int) -> float:
    """Mean-square sparsification error bound min_i tail(i)^2 / (m - i).

    A bound beyond the float range reads inf.
    """
    m = _levels(m, None, 1)
    i = np.arange(min(m - 1, v.nnz) + 1)
    with np.errstate(over="ignore"):
        return float(np.min(tail_sums(v)[i] ** 2 / (m - i)))
