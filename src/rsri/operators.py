"""Column-oracle matrices: every solver access is column(j) or a gather of several.

Concrete backings are compressed sparse columns, a dense wrapper, and an
implicit generator.  Implicit generators must be pure functions of the
column index; the analysis treats the matrix as fixed.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .vectors import SparseVector, check_dim, coalesce, combine, index_array

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
        """Flat (rows, coeff * values, per-column counts) for the requested
        columns, in request order; no dedupe: one column(j) call per
        requested column."""
        picked = [self.column(j) for j in cols.tolist()]
        counts = np.array([col.indices.size for col in picked], dtype=np.int64)
        if not picked:
            return np.empty(0, dtype=np.int64), np.empty(0), counts
        rows = np.concatenate([col.indices for col in picked])
        vals = np.concatenate([col.values for col in picked]) * np.repeat(coeffs, counts)
        return rows, vals, counts

    def _check_index(self, j: int):
        if not 0 <= j < self.dim:
            raise IndexError(f"column index {j} out of range for dim {self.dim}")


ROW_BLOCK_BITS = 16  # a row block's slice of a dense product is 2**16 doubles, 512 KB


class CscMatrix(ColumnMatrix):
    """Compressed sparse columns, rows strictly increasing within each column.

    The constructor checks the arrays, so every ``column(j)`` is a valid
    SparseVector; ``indptr`` and ``indices`` need an integer dtype.
    ``apply`` reads a copy of the entries stable-sorted by row block,
    ``row >> ROW_BLOCK_BITS``, which the first product builds and keeps
    (24 bytes per nonzero); the copy of a one-block matrix is in CSC order.
    """

    def __init__(self, dim: int, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray):
        check_dim(dim)
        ptr = index_array(indptr, "indptr")
        idx = index_array(indices, "indices")
        data = np.asarray(data, dtype=np.float64)
        if ptr.shape != (dim + 1,):
            raise ValueError("indptr must have length dim + 1")
        if ptr[0] != 0 or np.count_nonzero(ptr[1:] < ptr[:-1]):
            raise ValueError("indptr must start at 0 and never decrease")
        if idx.shape != (ptr[-1],) or data.shape != (ptr[-1],):
            raise ValueError("indices and data must be 1-D arrays of indptr[-1] entries")
        if idx.size and (idx.min() < 0 or idx.max() >= dim):
            raise ValueError("row indices out of range")
        # down[k]: entry k is not above entry k - 1, allowed where a column starts
        down = np.zeros(idx.size + 1, dtype=bool)
        np.less_equal(idx[1:], idx[:-1], out=down[1:-1])
        down[ptr] = False
        if np.count_nonzero(down):
            raise ValueError("rows must be strictly increasing within each column")
        if not data.all():  # -0.0 is a zero, NaN is not
            raise ValueError("stored zero values are forbidden")
        self._fill(int(dim), ptr, idx, data)

    @classmethod
    def _make(cls, dim: int, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray) -> "CscMatrix":
        # trusted fast path: int64 and float64 arrays that pass the constructor's checks
        self = object.__new__(cls)
        self._fill(dim, indptr, indices, data)
        return self

    def _fill(self, dim, indptr, indices, data):
        self.dim, self.indptr, self.indices, self.data = dim, indptr, indices, data
        self._row_blocks = None
        for arr in (indptr, indices, data):
            arr.setflags(write=False)

    @classmethod
    def from_triplets(cls, dim, rows, cols, vals) -> "CscMatrix":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        entries = coalesce(dim * dim, cols * dim + rows, vals)
        indptr = np.zeros(dim + 1, dtype=np.int64)
        np.cumsum(np.bincount(entries.indices // dim, minlength=dim), out=indptr[1:])
        return cls(dim, indptr, entries.indices % dim, entries.values)

    @classmethod
    def from_dense(cls, arr) -> "CscMatrix":
        arr = np.asarray(arr, dtype=np.float64)
        rows, cols = np.nonzero(arr)
        return cls.from_triplets(arr.shape[0], rows, cols, arr[rows, cols])

    def column(self, j: int) -> SparseVector:
        self._check_index(j)
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return SparseVector._make(self.dim, self.indices[lo:hi], self.data[lo:hi])

    @property
    def q_max(self) -> int:  # entries in the densest column
        return int(np.diff(self.indptr).max())

    def column_ids(self) -> np.ndarray:
        """Column of each stored entry, in CSC order."""
        return np.repeat(np.arange(self.dim), np.diff(self.indptr))

    def _blocked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, columns, data) of the entries stable-sorted from CSC order
        by row block, so within each row they stay in ascending column
        order.  Built on the first call and kept; the copies stay writable,
        since np.take and np.bincount copy a read-only index array on every
        call."""
        if self._row_blocks is None:
            # a key of at most 16 bits is radix-sorted
            key_type = np.min_scalar_type((self.dim - 1) >> ROW_BLOCK_BITS)
            order = np.argsort((self.indices >> ROW_BLOCK_BITS).astype(key_type), kind="stable")
            self._row_blocks = tuple(
                arr.take(order) for arr in (self.indices, self.column_ids(), self.data)
            )
        return self._row_blocks

    def gather(self, cols: np.ndarray, coeffs: np.ndarray):
        """Flat (rows, coeff * data, per-column counts) for the requested
        columns, in request order; no dedupe."""
        lo = self.indptr[cols]
        counts = self.indptr[cols + 1] - lo
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), np.empty(0), counts
        # entry e of the k-th requested column sits at lo[k] + e
        flat = np.arange(total) + np.repeat(lo - (counts.cumsum() - counts), counts)
        return self.indices[flat], self.data[flat] * np.repeat(coeffs, counts), counts


class DenseColumnMatrix(ColumnMatrix):
    def __init__(self, array):
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("dense backing must be a square 2-D array")
        check_dim(arr.shape[0])
        self.array = arr
        self.dim = arr.shape[0]

    def column(self, j: int) -> SparseVector:
        self._check_index(j)
        return SparseVector.from_dense(self.array[:, j])


class FunctionColumnMatrix(ColumnMatrix):
    """Implicit column oracle for dimensions too large to store a matrix.

    ``fn(j)`` returns column j as a SparseVector of dimension ``dim``
    (checked).  It must be pure, since the analysis treats the matrix as
    fixed, and it is called once per column access, with no caching, so
    its cost is paid on every access: building and validating a short
    column with the SparseVector constructor takes a few microseconds.
    """

    def __init__(self, dim: int, fn: Callable[[int], SparseVector]):
        check_dim(dim)
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


def _entries(A: ColumnMatrix):
    """Flat (rows, column ids, values) of every stored entry, in column
    order: one gather of all the columns."""
    ids = np.arange(A.dim)
    rows, vals, counts = A.gather(ids, np.ones(A.dim))
    return rows, np.repeat(ids, counts), vals


def _insert(slots: np.ndarray, *pairs) -> list[np.ndarray]:
    """Each ``(array, fill)`` pair as one array with ``fill`` at the sorted,
    distinct positions ``slots`` and the array's entries, in order, at the
    others."""
    if not slots.size:
        return [arr for arr, _ in pairs]
    free = np.ones(pairs[0][0].size + slots.size, dtype=bool)
    free[slots] = False
    at = free.nonzero()[0]
    out = []
    for arr, fill in pairs:
        res = np.empty(free.size, dtype=arr.dtype)
        res[at] = arr
        res[slots] = fill
        out.append(res)
    return out


def _plus_identity(M: CscMatrix, s: float) -> CscMatrix:
    """I + s·M with the bits ``from_triplets`` gives the triplets of I
    followed by those of s·M: a stored diagonal entry is 1.0 + s·m_jj, the
    others are s·m, and exact zeros are dropped.  Each missing diagonal
    entry is scattered into its slot, after the rows above it in its
    column, so nothing is sorted."""
    n, ptr, rows = M.dim, M.indptr, M.indices
    cols = M.column_ids()
    above = np.zeros(rows.size + 1, dtype=np.int64)  # entries above the diagonal so far
    np.cumsum(rows < cols, out=above[1:])
    diag = ptr[:-1] + (above[ptr[1:]] - above[ptr[:-1]])  # M's first entry at or below it
    stored = np.zeros(n, dtype=bool)
    stored[cols[rows == cols]] = True
    vals = s * M.data
    vals[diag[stored]] += 1.0
    missing = ~stored
    indptr = ptr + np.append(0, np.cumsum(missing))
    slots = (diag + (indptr[:-1] - ptr[:-1]))[missing]
    rows, vals = _insert(slots, (rows, missing.nonzero()[0]), (vals, 1.0))
    if np.count_nonzero(vals) < vals.size:
        keep = vals.nonzero()[0]
        indptr = np.searchsorted(keep, indptr)  # kept entries before each column
        rows, vals = rows[keep], vals[keep]
    return CscMatrix._make(n, indptr, rows, vals)


def _abs_g_entries(A: ColumnMatrix):
    """Flat (rows, column ids, magnitudes) of the nonzeros of |I - A|."""
    if not isinstance(A, CscMatrix):  # a gather of every column is in CSC order
        rows, vals, counts = A.gather(np.arange(A.dim), np.ones(A.dim))
        A = CscMatrix._make(A.dim, np.append(0, np.cumsum(counts)), rows, vals)
    G = _plus_identity(A, -1.0)
    return G.indices, G.column_ids(), np.abs(G.data)


def matrix_norm1_of_g(A: ColumnMatrix) -> float:
    """Max absolute column sum of I - A (full column sweep; diagnostics only)."""
    _, ids, mags = _abs_g_entries(A)
    return float(np.bincount(ids, weights=mags, minlength=A.dim).max())


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
    rows, ids, mags = _abs_g_entries(A)
    g1 = float(np.bincount(ids, weights=mags, minlength=A.dim).max())
    simple = 1.0 / (1.0 - g1 * g1) if g1 < 1.0 else math.inf

    u = np.ones(A.dim)
    series = 0.0
    converged = False
    with np.errstate(over="ignore"):  # a diverging series overflows to inf
        for _ in range(series_terms + 1):
            term = float(np.square(u.max()))
            if not math.isfinite(term):
                break
            series += term
            if term < term_tol:
                converged = True
                break
            u = np.bincount(ids, weights=u[rows] * mags, minlength=A.dim)
    return ContractionDiagnostics(
        g_norm1=g1,
        m_g_simple=simple,
        m_g_series=series if converged else math.inf,
        is_contraction=g1 < 1.0,
    )


def apply(A: ColumnMatrix, v: np.ndarray) -> np.ndarray:
    """Exact matrix-vector product via column combination.

    Sparse backings add each row's terms from 0.0 in ascending column
    order.  A CSC matrix is read in its row-blocked copy, which the first
    product builds, so the scatter into the output stays inside one
    cache-sized block at a time and the sums keep the CSC-order bits.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (A.dim,):
        raise ValueError(f"dimension mismatch: {v.shape} vs ({A.dim},)")
    if isinstance(A, CscMatrix):
        rows, cols, data = A._blocked()
        terms = v.take(cols)
        terms *= data
        return np.bincount(rows, weights=terms, minlength=A.dim)
    if isinstance(A, DenseColumnMatrix):
        return A.array @ v
    nz = (v != 0.0).nonzero()[0]
    rows, vals, _ = A.gather(nz, v[nz])
    return np.bincount(rows, weights=vals, minlength=A.dim)


def densify(A: ColumnMatrix) -> np.ndarray:
    """Materialize the matrix (small problems only)."""
    rows, cols, vals = _entries(A)
    out = np.zeros((A.dim, A.dim))
    out[rows, cols] = vals
    return out


def _read_table(path, dtype, comment, skip=0, exact=False, error=ValueError, where="line"):
    """The leading columns of a whitespace text table as a structured array.

    Rows need one column per field of ``dtype`` (more are ignored unless
    ``exact``); blank lines, comments and the first ``skip`` lines are not
    rows.  One ``np.loadtxt`` call parses valid input; on failure, or on a
    non-finite float, a rescan raises ``error`` naming the first bad line.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty table is the caller's call
            table = np.loadtxt(path, dtype=dtype, comments=comment, skiprows=skip, ndmin=1,
                               usecols=None if exact else range(len(dtype)))
        if all(np.isfinite(table[name]).all() for name in dtype.names if dtype[name].kind == "f"):
            return table
    except ValueError:
        pass
    lines = Path(path).read_text().split("\n")  # the line breaks np.loadtxt sees
    for line_no, line in enumerate(lines[skip:], start=skip + 1):
        tokens = line.split(comment, 1)[0].split()
        if tokens and (len(tokens) < len(dtype) or exact and len(tokens) > len(dtype)):
            raise error(f"{where} {line_no}: expected '{' '.join(dtype.names)}' in {line!r}")
        for name, tok in zip(dtype.names, tokens):
            try:  # np.loadtxt takes neither digit separators nor non-ASCII digits
                value = dtype[name].type(tok if tok.isascii() and "_" not in tok else "?")
            except (ValueError, OverflowError):
                what = "integer" if dtype[name].kind == "i" else "numeric"
                raise error(f"{where} {line_no}: non-{what} {name!r} in {line!r}") from None
            if not np.isfinite(value):
                raise error(f"{where} {line_no}: non-finite {name!r} in {line!r}")
    raise error(f"{path}: malformed table")


def load_matrix_market(path) -> CscMatrix:
    """Read a coordinate real general Matrix Market file into CSC form.

    One-based file indices become zero-based; duplicate (i, j) entries are
    summed.  Malformed headers, non-square sizes, out-of-range indices and
    pattern-only files each raise a distinct error.
    """
    with open(path) as fh:
        first = fh.readline()
        if not first:
            raise MatrixMarketHeaderError("empty file")
        header = first.split()
        if len(header) != 5 or header[0].lower() != "%%matrixmarket":
            raise MatrixMarketHeaderError(f"malformed header: {first.rstrip()!r}")
        obj, fmt, field, symmetry = (tok.lower() for tok in header[1:])
        if obj != "matrix" or fmt != "coordinate":
            raise MatrixMarketHeaderError(f"unsupported kind: {obj} {fmt}")
        if field == "pattern":
            raise PatternValuesError("values required: pattern files are not supported")
        if field not in ("real", "integer"):
            raise MatrixMarketHeaderError(f"unsupported field: {field}")
        if symmetry != "general":
            raise MatrixMarketHeaderError(f"unsupported symmetry: {symmetry}")
        for skip, size_line in enumerate(fh, start=2):  # skip: lines through the size line
            if size_line.strip() and not size_line.lstrip().startswith("%"):
                break
        else:
            raise MatrixMarketHeaderError("missing size line")
    try:
        n_rows, n_cols, n_entries = (int(tok) for tok in size_line.split())
    except ValueError as exc:
        raise MatrixMarketHeaderError(f"malformed size line: {size_line.rstrip()!r}") from exc
    if n_rows != n_cols:
        raise NonSquareMatrixError(f"matrix is {n_rows} x {n_cols}, expected square")

    fields = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])
    entries = _read_table(path, fields, "%", skip=skip, exact=True, error=MatrixMarketError)
    if entries.size != n_entries:
        raise MatrixMarketError(
            f"entry count mismatch: header says {n_entries}, file has {entries.size}"
        )
    rows, cols = entries["row"] - 1, entries["col"] - 1
    outside = (rows < 0) | (rows >= n_rows) | (cols < 0) | (cols >= n_cols)
    if outside.any():
        k = outside.argmax()
        raise EntryRangeError(f"entry ({rows[k] + 1}, {cols[k] + 1}) outside 1..{n_rows}")
    return CscMatrix.from_triplets(n_rows, rows, cols, entries["value"])


def save_matrix_market(A: ColumnMatrix, path):
    """Write any column matrix as coordinate real general, 1-based."""
    rows, cols, vals = _entries(A)
    out = [
        "%%MatrixMarket matrix coordinate real general",
        f"{A.dim} {A.dim} {vals.size}",
        *("%d %d %.17g" % e for e in zip((rows + 1).tolist(), (cols + 1).tolist(), vals.tolist())),
    ]
    Path(path).write_text("\n".join(out) + "\n")
