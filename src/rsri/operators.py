"""Column-oracle matrices: every solver access is column(j) or a gather of several.

Concrete backings are compressed sparse columns, a dense wrapper, and an
implicit generator.  Implicit generators must be pure functions of the
column index; the analysis treats the matrix as fixed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .vectors import SparseVector, combine

__all__ = [
    "ColumnMatrix",
    "CscMatrix",
    "DenseColumnMatrix",
    "FunctionColumnMatrix",
    "ContractionDiagnostics",
    "identity",
    "g_column",
    "matrix_norm1_of_g",
    "diagnostics",
    "apply",
    "densify",
    "load_matrix_market",
    "save_matrix_market",
    "MatrixMarketError",
    "MatrixMarketHeaderError",
    "NonSquareMatrixError",
    "EntryRangeError",
    "PatternValuesError",
]


class MatrixMarketError(ValueError):
    pass


class MatrixMarketHeaderError(MatrixMarketError):
    pass


class NonSquareMatrixError(MatrixMarketError):
    pass


class EntryRangeError(MatrixMarketError):
    pass


class PatternValuesError(MatrixMarketError):
    """Pattern files carry no numeric values; values are required here."""


class ColumnMatrix:
    """Base column oracle: a dimension plus ``column(j) -> SparseVector``."""

    dim: int

    def column(self, j: int) -> SparseVector:
        raise NotImplementedError

    def gather(self, cols: np.ndarray, coeffs: np.ndarray):
        """Flat (rows, coeff * values) for the requested columns; no dedupe."""
        picked = [self.column(int(j)) for j in cols]
        if not picked:
            return np.empty(0, dtype=np.int64), np.empty(0)
        rows = np.concatenate([col.indices for col in picked])
        vals = np.concatenate([w * col.values for w, col in zip(coeffs, picked)])
        return rows, vals

    def _check_index(self, j: int):
        if not 0 <= j < self.dim:
            raise IndexError(f"column index {j} out of range for dim {self.dim}")


class CscMatrix(ColumnMatrix):
    """Compressed sparse columns, rows sorted within each column."""

    def __init__(self, dim: int, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = int(dim)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        if self.indptr.shape != (dim + 1,):
            raise ValueError("indptr must have length dim + 1")
        counts = np.diff(self.indptr)
        self.q_max = int(counts.max()) if dim else 0
        self._col_ids = None
        for arr in (self.indptr, self.indices, self.data):
            arr.setflags(write=False)

    @classmethod
    def from_triplets(cls, dim, rows, cols, vals) -> "CscMatrix":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        keys = cols * dim + rows
        uniq, inverse = np.unique(keys, return_inverse=True)
        sums = np.bincount(inverse, weights=vals)
        keep = sums != 0.0
        uniq, sums = uniq[keep], sums[keep]
        ucols, urows = uniq // dim, uniq % dim
        indptr = np.zeros(dim + 1, dtype=np.int64)
        np.cumsum(np.bincount(ucols, minlength=dim), out=indptr[1:])
        return cls(dim, indptr, urows, sums)

    @classmethod
    def from_dense(cls, arr) -> "CscMatrix":
        arr = np.asarray(arr, dtype=np.float64)
        rows, cols = np.nonzero(arr)
        return cls.from_triplets(arr.shape[0], rows, cols, arr[rows, cols])

    def column(self, j: int) -> SparseVector:
        self._check_index(j)
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return SparseVector._make(self.dim, self.indices[lo:hi], self.data[lo:hi])

    def column_ids(self) -> np.ndarray:
        if self._col_ids is None:
            self._col_ids = np.repeat(np.arange(self.dim), np.diff(self.indptr))
        return self._col_ids

    def gather(self, cols: np.ndarray, coeffs: np.ndarray):
        """Flat (rows, coeff * data) for the requested columns; no dedupe."""
        counts = self.indptr[cols + 1] - self.indptr[cols]
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        stops = np.cumsum(counts)
        offsets = np.arange(total) - np.repeat(stops - counts, counts)
        flat = np.repeat(self.indptr[cols], counts) + offsets
        return self.indices[flat], self.data[flat] * np.repeat(coeffs, counts)


class DenseColumnMatrix(ColumnMatrix):
    def __init__(self, array):
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("dense backing must be a square 2-D array")
        self.array = arr
        self.dim = arr.shape[0]

    def column(self, j: int) -> SparseVector:
        self._check_index(j)
        return SparseVector.from_dense(self.array[:, j])


class FunctionColumnMatrix(ColumnMatrix):
    """Implicit column generator; ``fn(j)`` must be deterministic in j."""

    def __init__(self, dim: int, fn: Callable[[int], SparseVector]):
        self.dim = int(dim)
        self.fn = fn

    def column(self, j: int) -> SparseVector:
        self._check_index(j)
        col = self.fn(j)
        if col.dim != self.dim:
            raise ValueError("generated column has wrong dimension")
        return col


def identity(dim: int) -> CscMatrix:
    idx = np.arange(dim, dtype=np.int64)
    return CscMatrix(dim, np.arange(dim + 1, dtype=np.int64), idx, np.ones(dim))


def g_column(A: ColumnMatrix, j: int) -> SparseVector:
    """Column j of G = I - A, with exact zero cancellation."""
    return combine(1.0, SparseVector.basis(A.dim, j), -1.0, A.column(j))


def matrix_norm1_of_g(A: ColumnMatrix) -> float:
    """Max absolute column sum of I - A (full column sweep; diagnostics only)."""
    best = 0.0
    for j in range(A.dim):
        col = g_column(A, j)
        if col.nnz:
            best = max(best, float(np.abs(col.values).sum()))
    return best


@dataclass(frozen=True)
class ContractionDiagnostics:
    g_norm1: float
    m_g_simple: float
    m_g_series: float
    is_contraction: bool


def diagnostics(A: ColumnMatrix, series_terms: int = 10_000, term_tol: float = 1e-12) -> ContractionDiagnostics:
    """Contraction summary for G = I - A.

    The series sum_s ||abs(G)^s||_1^2 is evaluated by propagating the
    vector of column-sum functionals through abs(G), never by forming
    powers; it is reported as +inf when not converged by the term cap.
    """
    g1 = matrix_norm1_of_g(A)
    simple = 1.0 / (1.0 - g1 * g1) if g1 < 1.0 else math.inf

    g_cols = [g_column(A, j) for j in range(A.dim)]
    u = np.ones(A.dim)
    series = 0.0
    converged = False
    for _ in range(series_terms + 1):
        term = float(u.max()) ** 2 if u.size else 0.0
        if not math.isfinite(term):
            break
        series += term
        if term < term_tol:
            converged = True
            break
        u = np.array([float(np.dot(u[c.indices], np.abs(c.values))) if c.nnz else 0.0
                      for c in g_cols])
    return ContractionDiagnostics(
        g_norm1=g1,
        m_g_simple=simple,
        m_g_series=series if converged else math.inf,
        is_contraction=g1 < 1.0,
    )


def apply(A: ColumnMatrix, v: np.ndarray) -> np.ndarray:
    """Exact matrix-vector product via column combination."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (A.dim,):
        raise ValueError(f"dimension mismatch: {v.shape} vs ({A.dim},)")
    if isinstance(A, CscMatrix):
        return np.bincount(A.indices, weights=A.data * v[A.column_ids()], minlength=A.dim)
    if isinstance(A, DenseColumnMatrix):
        return A.array @ v
    nz = np.flatnonzero(v)
    rows, vals = A.gather(nz, v[nz])
    return np.bincount(rows, weights=vals, minlength=A.dim)


def densify(A: ColumnMatrix) -> np.ndarray:
    """Materialize the matrix column by column (small problems only)."""
    out = np.zeros((A.dim, A.dim))
    for j in range(A.dim):
        col = A.column(j)
        out[col.indices, j] = col.values
    return out


def load_matrix_market(path) -> CscMatrix:
    """Read a coordinate real general Matrix Market file into CSC form.

    One-based file indices become zero-based; duplicate (i, j) entries are
    summed.  Malformed headers, non-square sizes, out-of-range indices and
    pattern-only files each raise a distinct error.
    """
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise MatrixMarketHeaderError("empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0].lower() != "%%matrixmarket":
        raise MatrixMarketHeaderError(f"malformed header: {lines[0]!r}")
    obj, fmt, field, symmetry = (tok.lower() for tok in header[1:])
    if obj != "matrix" or fmt != "coordinate":
        raise MatrixMarketHeaderError(f"unsupported kind: {obj} {fmt}")
    if field == "pattern":
        raise PatternValuesError("values required: pattern files are not supported")
    if field not in ("real", "integer"):
        raise MatrixMarketHeaderError(f"unsupported field: {field}")
    if symmetry != "general":
        raise MatrixMarketHeaderError(f"unsupported symmetry: {symmetry}")

    body = [ln for ln in lines[1:] if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise MatrixMarketHeaderError("missing size line")
    size_tokens = body[0].split()
    if len(size_tokens) != 3:
        raise MatrixMarketHeaderError(f"malformed size line: {body[0]!r}")
    try:
        n_rows, n_cols, n_entries = (int(tok) for tok in size_tokens)
    except ValueError as exc:
        raise MatrixMarketHeaderError(f"malformed size line: {body[0]!r}") from exc
    if n_rows != n_cols:
        raise NonSquareMatrixError(f"matrix is {n_rows} x {n_cols}, expected square")
    if len(body) - 1 != n_entries:
        raise MatrixMarketError(
            f"entry count mismatch: header says {n_entries}, file has {len(body) - 1}"
        )

    rows = np.empty(n_entries, dtype=np.int64)
    cols = np.empty(n_entries, dtype=np.int64)
    vals = np.empty(n_entries)
    for k, ln in enumerate(body[1:]):
        tokens = ln.split()
        if len(tokens) != 3:
            raise MatrixMarketError(f"malformed entry line: {ln!r}")
        i, j = int(tokens[0]), int(tokens[1])
        if not (1 <= i <= n_rows and 1 <= j <= n_cols):
            raise EntryRangeError(f"entry ({i}, {j}) outside 1..{n_rows}")
        rows[k], cols[k], vals[k] = i - 1, j - 1, float(tokens[2])
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        entry = body[int(bad[0]) + 1]  # body[0] is the size line
        # no earlier line has the text of the first non-finite entry
        line_no = lines.index(entry, 1) + 1
        raise MatrixMarketError(f"line {line_no}: non-finite value in {entry!r}")
    return CscMatrix.from_triplets(n_rows, rows, cols, vals)


def save_matrix_market(A: ColumnMatrix, path):
    """Write any column matrix as coordinate real general, 1-based."""
    out = ["%%MatrixMarket matrix coordinate real general"]
    entries = []
    for j in range(A.dim):
        col = A.column(j)
        for i, v in zip(col.indices, col.values):
            entries.append(f"{i + 1} {j + 1} {v:.17g}")
    out.append(f"{A.dim} {A.dim} {len(entries)}")
    out.extend(entries)
    Path(path).write_text("\n".join(out) + "\n")
