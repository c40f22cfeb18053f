"""Unbiased random sparsification with exact preservation of large entries.

Everything is read off the decreasing rearrangement of |v| and its tails
T(k), the mass left after the k largest magnitudes; ``tail_sums`` and the
split share one computation of both.  The split admits the k-th largest
magnitude into the exact set D while |v|_(k) (m - k) >= T(k); with q the
first failure, the rest is kept or dropped by pivotal sampling with
probabilities (m - q) |v_i| / T(q), then rescaled so the output is
unbiased.  The output has at most m nonzeros and the same 1-norm as the
input on every single draw.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import ProbabilityVector, RandomStream, _pivotal_core
from .vectors import SparseVector, _rearrangement, tail_sums

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
    lower index); every residual probability is (m - q) |v_i| / T(q),
    with T(q) the tail of the same rearrangement that decided admission,
    and is strictly below one except in the degenerate all-admitted case.
    """

    dim: int
    exact_indices: np.ndarray
    residual_indices: np.ndarray
    residual_probs: np.ndarray

    @property
    def q(self) -> int:
        return int(self.exact_indices.size)

    def residual_vector(self) -> ProbabilityVector:
        return ProbabilityVector(int(self.residual_indices.size), self.residual_probs)


def preservation_split(v: SparseVector, m: int) -> PreservationSplit:
    """Split v into the minimal exact set D and residual probabilities."""
    if m < 1:
        raise ValueError(f"sparsity level m must be >= 1, got {m}")
    n = v.nnz
    empty_i = np.empty(0, dtype=np.int64)
    empty_f = np.empty(0, dtype=np.float64)
    if n == 0:
        return PreservationSplit(v.dim, empty_i, empty_i, empty_f)
    if n <= m:
        return PreservationSplit(v.dim, v.indices.copy(), empty_i, empty_f)

    a = np.abs(v.values)
    order, tails = _rearrangement(v)
    # admit the k-th largest while |v|_(k) (m - k) >= T(k); q is the first failure
    admit = a[order[:m]] * (m - np.arange(m)) >= tails[:m]
    failures = np.flatnonzero(~admit)
    q = int(failures[0]) if failures.size else m

    exact_pos = np.sort(order[:q])
    res_pos = np.sort(order[q:])
    if q >= m or tails[q] <= 0.0:
        # degenerate: float drift admitted a full set; drop the residual tail
        probs = np.zeros(res_pos.size)
    else:
        probs = (m - q) * a[res_pos] / tails[q]
        np.minimum(probs, np.nextafter(1.0, 0.0), out=probs)  # guard float roundup
    return PreservationSplit(v.dim, v.indices[exact_pos], v.indices[res_pos], probs)


def sparsify(v: SparseVector, m: int, rng: RandomStream) -> SparseVector:
    """Random sparse approximation of v: unbiased, at most m nonzeros.

    Entries in the exact set are copied; a pivotal sample of the rest is
    rescaled by 1/p_i.  The 1-norm of the output equals the 1-norm of the
    input on every draw, which is what keeps the solver iterates stable.
    """
    if v.nnz <= m:
        if m < 1:
            raise ValueError(f"sparsity level m must be >= 1, got {m}")
        return v
    split = preservation_split(v, m)
    exact_pos = np.searchsorted(v.indices, split.exact_indices)
    res_pos = np.searchsorted(v.indices, split.residual_indices)
    # split probabilities honor the ProbabilityVector contract by construction
    chosen = _pivotal_core(split.residual_probs, m - split.q, rng)
    idx = np.concatenate([split.exact_indices, split.residual_indices[chosen]])
    val = np.concatenate(
        [v.values[exact_pos], v.values[res_pos[chosen]] / split.residual_probs[chosen]]
    )
    order = np.argsort(idx)
    return SparseVector._make(v.dim, idx[order], val[order])


def sparsify_l2_bound(v: SparseVector, m: int) -> float:
    """Mean-square sparsification error bound min_i tail(i)^2 / (m - i)."""
    if m < 1:
        raise ValueError(f"sparsity level m must be >= 1, got {m}")
    i = np.arange(min(m - 1, v.nnz) + 1)
    return float(np.min(tail_sums(v)[i] ** 2 / (m - i)))
