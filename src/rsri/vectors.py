"""Sparse vector primitives shared by every other module.

A sparse vector is a dimension plus strictly index-sorted (index, value)
pairs with no stored zeros.  Dense vectors are plain 1-D float64 numpy
arrays; no wrapper type is needed for them.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "SparseVector",
    "VectorNorms",
    "norms",
    "tail_sums",
    "dot",
    "coalesce",
]


MAX_DIM = 2**63 - 1  # indices are int64


def check_dim(dim: int):
    """Raise ValueError unless 1 <= dim <= 2**63 - 1, the int64 index range."""
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if dim > MAX_DIM:
        raise ValueError(f"dim must be at most 2**63 - 1 (int64 indices), got {dim}")


def _check_stack(runs: int, dim: int):
    """Raise ValueError unless the stacked int64 keys ``k * dim + i`` of
    ``runs`` runs fit: one run, or ``runs * dim <= 2**63 - 1``."""
    if runs > 1 and runs * dim > MAX_DIM:
        raise ValueError(
            f"{runs} runs at dimension {dim} overflow the stacked int64 keys "
            f"k * dim + i: need runs * dim <= 2**63 - 1"
        )


def check_int(value, name: str) -> int:
    """``value`` as an int; a bool or a value without ``__index__`` raises TypeError."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def index_array(arr, name: str) -> np.ndarray:
    """``arr`` as int64; a non-empty array of a non-integer dtype raises TypeError."""
    arr = np.asarray(arr)
    if arr.size and arr.dtype.kind not in "iu":
        raise TypeError(f"{name} must have an integer dtype, got {arr.dtype}")
    return arr.astype(np.int64, copy=False)


class VectorNorms(NamedTuple):
    one: float
    two: float
    inf: float
    nnz: int


@dataclass(frozen=True)
class SparseVector:
    """Immutable sparse vector: ``dim`` plus sorted nonzero entries.

    Invariants enforced at construction: ``1 <= dim <= 2**63 - 1``,
    indices of an integer dtype, strictly increasing and inside
    ``[0, dim)``, values nonzero (``-0.0`` is a stored zero, NaN is not).
    Each is one vectorised check, so validating a short vector costs a
    few microseconds whatever its ``dim``, and an implicit operator can
    afford to build one per column access.  The backing arrays are marked
    read-only so instances can be shared without copying.
    """

    dim: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        check_dim(self.dim)
        idx = index_array(self.indices, "indices")
        val = np.asarray(self.values, dtype=np.float64)
        if idx.ndim != 1 or val.ndim != 1 or idx.shape != val.shape:
            raise ValueError("indices and values must be 1-D arrays of equal length")
        if idx.size:
            if idx[0] < 0 or idx[-1] >= self.dim:
                raise ValueError("indices out of range")
            # comparisons, not np.diff, which can wrap around in int64;
            # np.count_nonzero is the cheapest reduction on short arrays
            if np.count_nonzero(idx[1:] > idx[:-1]) < idx.size - 1:
                raise ValueError("indices must be strictly increasing")
            if np.count_nonzero(val) < val.size:  # -0.0 is a zero, NaN is not
                raise ValueError("stored zero values are forbidden")
        idx.setflags(write=False)
        val.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @classmethod
    def _make(cls, dim: int, indices: np.ndarray, values: np.ndarray) -> "SparseVector":
        # trusted fast path: caller guarantees sortedness, range, no zeros
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)
        return self

    @classmethod
    def empty(cls, dim: int) -> "SparseVector":
        return cls(dim, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))

    @classmethod
    def basis(cls, dim: int, k: int, value: float = 1.0) -> "SparseVector":
        k = check_int(k, "k")
        return cls(dim, np.array([k], dtype=np.int64), np.array([value], dtype=np.float64))

    @classmethod
    def from_pairs(cls, dim: int, pairs: Iterable[tuple[int, float]]) -> "SparseVector":
        items = sorted(pairs)
        idx = np.array([i for i, _ in items], dtype=np.int64)
        val = np.array([v for _, v in items], dtype=np.float64)
        keep = val != 0.0
        return cls(dim, idx[keep], val[keep])

    @classmethod
    def from_dense(cls, arr) -> "SparseVector":
        arr = np.asarray(arr, dtype=np.float64)
        idx = (arr != 0.0).nonzero()[0]  # a mask scans faster than flatnonzero, same keys
        return cls(arr.size, idx.astype(np.int64), arr[idx])

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out


def coalesce(dim: int, indices: np.ndarray, values: np.ndarray) -> SparseVector:
    """Sum duplicate indices, drop exact zeros, and return a SparseVector.

    Each index's values are added one at a time in input order, starting
    from 0.0, as a Python loop would add them.  Callers rely on this: a
    running sum placed first and then added to term by term gives the same
    bits however the terms are batched.

    With k entries, when ``4 * dim <= k * k.bit_length()`` one
    ``np.bincount`` over ``dim`` slots sums them in O(k + dim); otherwise
    the entries are stable-sorted and each index's run is summed.  Either
    way the cost is O(k log k) whatever ``dim``, and the rule picks the
    path that measures faster.  Both paths add in input order and give
    the same bits.
    """
    if len(indices) == 0:
        return SparseVector.empty(dim)
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if 4 * dim <= indices.size * indices.size.bit_length():
        sums = np.bincount(indices, weights=values, minlength=dim)
        keys = (sums != 0.0).nonzero()[0]
        return SparseVector._make(dim, keys, sums[keys])
    order = _stable_order(indices, dim)
    si = indices[order]
    first = np.empty(si.size, dtype=bool)  # first entry of each index's run
    first[0] = True
    np.not_equal(si[1:], si[:-1], out=first[1:])
    sums = np.bincount(np.cumsum(first) - 1, weights=values[order])
    del order  # freed before the index arrays below, which would raise the peak
    keep = (sums != 0.0).nonzero()[0]
    return SparseVector._make(dim, si[first.nonzero()[0][keep]], sums[keep])


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """The permutation ``np.argsort(keys, kind="stable")`` returns, for keys in [0, bound).

    Each key is packed with its position as ``(key << b) | position``; the
    packed keys are distinct, so one unstable ``np.sort`` orders them as
    the stable sort would.  Keys too wide to pack take the stable argsort.
    """
    shift = max(keys.size - 1, 0).bit_length()
    if max(bound - 1, 0).bit_length() + shift > 63:
        return np.argsort(keys, kind="stable")
    return np.sort((keys << shift) | np.arange(keys.size)) & ((1 << shift) - 1)


def norms(v: SparseVector) -> VectorNorms:
    """One, two, and infinity norms plus the stored-entry count.

    The two-norm squares the magnitudes divided by the largest, so it
    neither overflows nor underflows where the norm itself does not.
    """
    a = np.abs(v.values)
    inf = float(a.max()) if a.size else 0.0
    return VectorNorms(
        one=float(np.sum(a)),
        two=inf * float(np.sqrt(np.sum((a / inf) ** 2))) if inf else 0.0,
        inf=inf,
        nnz=v.nnz,
    )


def tail_sums(v: SparseVector) -> np.ndarray:
    """Tails of the decreasing rearrangement of ``|v|``.

    Returns T of length nnz + 1 with T[i] the sum of all but the i
    largest magnitudes, so T[0] is the 1-norm and T[nnz] is zero: the
    tails of :func:`_rearrangement`, which the sparsifier's split reads.
    """
    return np.append(_rearrangement(np.abs(v.values))[1], 0.0)


def _rearrangement(mags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(dec, tails)`` along the last axis of ``mags``, which is sorted in
    place: the k-th largest magnitude and T(k), the sum of all but the k
    largest, at position k.  Each tail is summed from the smallest up, so
    its bits depend neither on how ties are ordered nor on padding zeros."""
    mags.sort(axis=-1)
    return mags[..., ::-1], mags.cumsum(axis=-1)[..., ::-1]


def dot(f: np.ndarray, v: SparseVector) -> float:
    """Inner product of a dense functional with a sparse vector."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (v.dim,):
        raise ValueError(f"dimension mismatch: {f.shape} vs ({v.dim},)")
    return float(np.dot(f[v.indices], v.values))
