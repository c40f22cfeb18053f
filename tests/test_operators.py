import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsri import (
    CscMatrix,
    DenseColumnMatrix,
    FunctionColumnMatrix,
    SparseVector,
    apply,
    build_problem,
    densify,
    diagnostics,
    identity,
    load_matrix_market,
    matrix_norm1_of_g,
    save_matrix_market,
    synth_bounded_outdegree,
)
from rsri.operators import (
    EntryRangeError,
    MatrixMarketError,
    MatrixMarketHeaderError,
    NonSquareMatrixError,
    PatternValuesError,
    _abs_g,
    _plus_identity,
    _ReadOnce,
)

from conftest import random_contraction_system, three_cycle_problem


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestColumnBackings:
    def test_csc_columns_sorted_and_pure(self, np_rng):
        dense = np_rng.random((6, 6)) * (np_rng.random((6, 6)) < 0.5)
        A = CscMatrix.from_dense(dense)
        for j in range(6):
            col = A.column(j)
            again = A.column(j)
            np.testing.assert_array_equal(col.indices, again.indices)
            np.testing.assert_array_equal(col.values, again.values)
            np.testing.assert_array_equal(col.to_dense(), dense[:, j])
            assert np.all(np.diff(col.indices) > 0)

    def test_q_max_recorded(self):
        A = CscMatrix.from_triplets(3, [0, 1, 2, 0], [0, 0, 0, 1], [1.0, 1.0, 1.0, 2.0])
        assert A.q_max == 3

    def test_duplicate_triplets_sum(self):
        A = CscMatrix.from_triplets(2, [0, 0], [0, 0], [0.5, 0.5])
        assert A.column(0).values.tolist() == [1.0]

    def test_dense_backing(self):
        A = DenseColumnMatrix(np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert A.column(1).nnz == 0
        np.testing.assert_array_equal(A.column(0).to_dense(), [1.0, 2.0])

    def test_dense_backing_is_the_csc_matrix_of_its_array(self, np_rng):
        dense = np_rng.standard_normal((7, 7)) * (np_rng.random((7, 7)) < 0.4)
        dense[0, 0] = -0.0  # a zero, as in SparseVector.from_dense
        A, C = DenseColumnMatrix(dense), CscMatrix.from_dense(dense)
        assert isinstance(A, CscMatrix) and not hasattr(A, "array")
        for a, c in ((A.indptr, C.indptr), (A.indices, C.indices), (A.data, C.data)):
            assert a.tobytes() == c.tobytes() and not a.flags.writeable

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (3,), (2, 2, 2)])
    def test_from_dense_needs_a_square_array(self, shape):
        for build in (CscMatrix.from_dense, DenseColumnMatrix):
            with pytest.raises(ValueError, match="square 2-D array"):
                build(np.ones(shape))

    @pytest.mark.parametrize(
        "rows, cols, match",
        [
            pytest.param([4], [0], "rows out of range", id="row-past-dim"),
            pytest.param([-1], [1], "rows out of range", id="negative-row"),
            pytest.param([0], [3], "cols out of range", id="col-past-dim"),
            pytest.param([0], [-1], "cols out of range", id="negative-col"),
        ],
    )
    def test_triplets_out_of_range_rejected(self, rows, cols, match):
        with pytest.raises(ValueError, match=match):
            CscMatrix.from_triplets(3, rows, cols, [1.0])

    @pytest.mark.parametrize("rows, cols, name", [([0.5], [0], "rows"), ([0], [True], "cols")])
    def test_non_integer_triplets_rejected(self, rows, cols, name):
        with pytest.raises(TypeError, match=f"{name} must have an integer dtype"):
            CscMatrix.from_triplets(3, rows, cols, [1.0])

    def test_function_backing(self):
        A = FunctionColumnMatrix(2, lambda j: SparseVector.basis(2, j, 2.0))
        np.testing.assert_array_equal(densify(A), 2.0 * np.eye(2))
        bad = FunctionColumnMatrix(2, lambda j: SparseVector.basis(3, j))
        with pytest.raises(ValueError):
            bad.column(0)

    def test_generated_column_must_be_a_sparse_vector(self):
        A = FunctionColumnMatrix(3, lambda j: np.eye(3)[j])
        with pytest.raises(TypeError, match="generated column 1 is a ndarray, not a SparseVector"):
            A.column(1)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            identity(3).column(3)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_non_positive_dimensions_rejected(self, dim):
        fn = lambda j: SparseVector.basis(3, j)  # noqa: E731
        for build in (lambda: FunctionColumnMatrix(dim, fn), lambda: CscMatrix(dim, [0], [], [])):
            with pytest.raises(ValueError, match="dim must be positive"):
                build()
        with pytest.raises(ValueError, match="dim must be positive"):
            DenseColumnMatrix(np.zeros((0, 0)))

    @pytest.mark.parametrize(
        "dim, indptr, indices, data, match",
        [
            pytest.param(2, [0, 1, 2], [0, 5], [1.0, 1.0], "out of range", id="row-past-dim"),
            pytest.param(2, [0, 1, 2], [-1, 0], [1.0, 1.0], "out of range", id="negative-row"),
            pytest.param(3, [0, 2, 2, 2], [2, 0], [1.0, 1.0], "strictly", id="unsorted-rows"),
            pytest.param(3, [0, 0, 2, 2], [2, 0], [1.0, 1.0], "strictly", id="after-empty-column"),
            pytest.param(3, [0, 2, 2, 2], [1, 1], [1.0, 1.0], "strictly", id="repeated-row"),
            pytest.param(2, [0, 1, 1], [0, 1], [1.0, 1.0], r"indptr\[-1\]", id="indptr-end"),
            pytest.param(2, [0, 1, 2], [0, 1], [1.0], r"indptr\[-1\]", id="short-data"),
            pytest.param(1, [0, 1], [[0]], [1.0], r"indptr\[-1\]", id="2-d-indices"),
            pytest.param(2, [1, 1, 2], [0, 1], [1.0, 1.0], "start at 0", id="indptr-start"),
            pytest.param(2, [0, 2, 1], [0, 1], [1.0, 1.0], "never decrease", id="indptr-down"),
            pytest.param(2, [0, 1, 2], [0, 1], [1.0, 0.0], "stored zero", id="zero"),
            pytest.param(2, [0, 1, 2], [0, 1], [-0.0, 1.0], "stored zero", id="negative-zero"),
        ],
    )
    def test_invalid_csc_arrays_rejected(self, dim, indptr, indices, data, match):
        with pytest.raises(ValueError, match=match):
            CscMatrix(dim, indptr, indices, data)

    @pytest.mark.parametrize(
        "indptr, indices, name",
        [
            ([0, 1, 2], [0.7, 1.9], "indices"),
            ([0.0, 1.5, 2.0], [0, 1], "indptr"),
            ([0.0, 1.0, 2.0], [0, 1], "indptr"),
        ],
    )
    def test_non_integer_index_arrays_rejected(self, indptr, indices, name):
        with pytest.raises(TypeError, match=f"{name} must have an integer dtype"):
            CscMatrix(2, indptr, indices, [1.0, 1.0])

    def test_valid_csc_columns_are_valid_vectors(self):
        # rows step down only where a column starts; empty columns anywhere
        A = CscMatrix(4, [0, 0, 2, 2, 4], [1, 3, 0, 2], [1.0, -2.0, np.nan, 4.0])
        for j in range(A.dim):
            col = A.column(j)
            SparseVector(col.dim, col.indices, col.values)
        assert A.q_max == 2
        assert CscMatrix(1, [0, 0], [], []).q_max == 0

    def test_dimensions_beyond_int64_rejected(self):
        fn = lambda j: SparseVector.basis(2**64, j)  # noqa: E731
        for dim in (2**63, 2**64):
            with pytest.raises(ValueError, match=r"at most 2\*\*63 - 1"):
                FunctionColumnMatrix(dim, fn)
        top = FunctionColumnMatrix(2**63 - 1, lambda j: SparseVector.basis(2**63 - 1, j))
        assert top.column(2**63 - 2).indices.tolist() == [2**63 - 2]


class TestNormAndDiagnostics:
    def test_identity_norm_zero(self):
        assert matrix_norm1_of_g(identity(5)) == 0.0

    def test_pagerank_norm_is_alpha(self):
        prob = three_cycle_problem()
        assert matrix_norm1_of_g(prob.A) == pytest.approx(0.85, abs=1e-12)

    def test_strict_upper_matrix(self):
        A = CscMatrix.from_dense(np.eye(2) - np.array([[0.0, 0.5], [0.0, 0.0]]))
        assert matrix_norm1_of_g(A) == 0.5

    def test_identity_diagnostics(self):
        d = diagnostics(identity(3))
        assert (d.g_norm1, d.m_g_simple, d.m_g_series, d.is_contraction) == (0.0, 1.0, 1.0, True)

    def test_simple_bound_formula(self):
        prob = three_cycle_problem()
        d = diagnostics(prob.A)
        assert d.m_g_simple == pytest.approx(1.0 / (1.0 - 0.85**2), rel=1e-9)
        # the transition structure makes the series sum match the simple form
        assert d.m_g_series == pytest.approx(d.m_g_simple, rel=1e-6)
        assert d.is_contraction

    def test_divergent_series(self):
        A = CscMatrix.from_dense(np.array([[-0.2]]))  # G = [[1.2]]
        d = diagnostics(A, series_terms=200)
        assert not d.is_contraction
        assert d.m_g_simple == math.inf
        assert d.m_g_series == math.inf

    def test_finite_values_at_least_one(self, np_rng):
        from conftest import random_contraction_system

        A, _, _, _ = random_contraction_system(np_rng, 8)
        d = diagnostics(A)
        assert d.m_g_simple >= 1.0
        assert d.m_g_series >= 1.0

    @pytest.mark.parametrize("nonnegative", [True, False])
    def test_series_matches_dense_powers(self, np_rng, nonnegative):
        from conftest import random_contraction_system

        A, _, G, _ = random_contraction_system(np_rng, 30, nonnegative=nonnegative)
        absG = np.abs(G)
        u, series = np.ones(30), 0.0
        while u.max() ** 2 >= 1e-12:
            series += u.max() ** 2
            u = absG.T @ u
        series += u.max() ** 2
        d = diagnostics(A)
        assert d.g_norm1 == pytest.approx(absG.sum(axis=0).max(), rel=1e-12)
        assert d.m_g_series == pytest.approx(series, rel=1e-12)

    def test_series_tolerance_is_fixed(self):
        with pytest.raises(TypeError):
            diagnostics(identity(3), term_tol=1e-6)

    def test_reads_each_column_once(self):
        dense = np.eye(6) - 0.1 * np.ones((6, 6))
        reads = []

        def fn(j):
            reads.append(j)
            return SparseVector.from_dense(dense[:, j])

        d = diagnostics(FunctionColumnMatrix(6, fn))
        assert sorted(reads) == list(range(6))
        assert d.g_norm1 == pytest.approx(0.6, rel=1e-12)

    def test_non_contraction_series_overflow_is_inf(self):
        # ||G||_1 = 2: the series terms overflow long before the term cap
        A = CscMatrix.from_dense(np.eye(2) - np.array([[0.0, 2.0], [2.0, 0.0]]))
        d = diagnostics(A)
        assert (d.g_norm1, d.m_g_simple, d.m_g_series) == (2.0, math.inf, math.inf)
        assert not d.is_contraction


def plus_identity_reference(M, s):
    """I + s·M through from_triplets: the triplets of I, then those of s·M."""
    ids = np.arange(M.dim)
    return CscMatrix.from_triplets(
        M.dim,
        np.concatenate([ids, M.indices]),
        np.concatenate([ids, M.column_ids()]),
        np.concatenate([np.ones(M.dim), s * M.data]),
    )


def assert_same_csc(A, B):
    """Equal dimension and bit-identical arrays of the same dtypes."""
    assert (A.dim, A.q_max) == (B.dim, B.q_max)
    for x, y in ((A.indptr, B.indptr), (A.indices, B.indices), (A.data, B.data)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


# magnitudes up to 1e300 and nonzero scales up to 4 neither overflow nor
# make inf * 0, which would warn
entry_values = st.one_of(
    st.floats(-1e300, 1e300).filter(lambda x: x != 0.0),
    st.sampled_from([1.0, -1.0, 2.0, 0.5, 1e-300, math.nan, math.inf, -math.inf]),
)
scales = st.one_of(
    st.floats(-4.0, 4.0).filter(lambda x: x != 0.0),
    st.sampled_from([-1.0, -0.85, -0.5, 1e-300]),
)


@st.composite
def csc_matrices(draw, max_dim=7):
    """Random patterns over every cell, so empty columns and stored
    diagonals both occur; cell k is (k % dim, k // dim), in CSC order."""
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    mask = draw(st.lists(st.booleans(), min_size=dim * dim, max_size=dim * dim))
    cells = np.flatnonzero(mask)
    vals = draw(st.lists(entry_values, min_size=cells.size, max_size=cells.size))
    return CscMatrix.from_triplets(dim, cells % dim, cells // dim, vals)


class TestPlusIdentity:
    @settings(max_examples=300, deadline=None)
    @given(M=csc_matrices(), s=scales)
    def test_matches_from_triplets_bit_for_bit(self, M, s):
        assert_same_csc(_plus_identity(M, s), plus_identity_reference(M, s))

    @pytest.mark.parametrize("dense, s", [
        ([[2.0, 1.0], [0.0, 2.0]], -0.5),  # both diagonals cancel to exact zeros
        ([[0.0, 1e-300], [3.0, 0.0]], 1e-300),  # the products underflow to zero
        ([[5.0]], -0.2),
        ([[float("nan"), 0.0], [-1.0, 0.0]], -1.0),
    ])
    def test_exact_zeros_and_nan(self, dense, s):
        M = CscMatrix.from_dense(dense)
        assert_same_csc(_plus_identity(M, s), plus_identity_reference(M, s))

    def test_g_of_identity_has_no_entries(self):
        rows, cols, mags, _ = _abs_g(identity(5))
        assert rows.size == cols.size == mags.size == 0
        assert diagnostics(identity(5)).g_norm1 == 0.0


class TestDiagnosticsOnEveryBacking:
    # figures of the from_triplets construction of G = I - A, as floats
    PINNED = {
        "signed": (0.8524797241961741, 3.6592730832285607, 1.953594055230676),
        "pagerank": (0.85, 3.6036036036036028, 3.6036036036017163),
    }

    @staticmethod
    def matrices():
        signed = random_contraction_system(np.random.default_rng(7), 12, nonnegative=False)[0]
        pagerank = build_problem(synth_bounded_outdegree(40, 3, seed=9), 0.85, source=0).A
        return {"signed": signed, "pagerank": pagerank}

    @pytest.mark.parametrize("name", ["signed", "pagerank"])
    def test_figures_match_pins(self, name):
        A = self.matrices()[name]
        for B in (A, DenseColumnMatrix(densify(A)), FunctionColumnMatrix(A.dim, A.column)):
            d = diagnostics(B)
            assert (d.g_norm1, d.m_g_simple, d.m_g_series) == self.PINNED[name], type(B).__name__
            assert matrix_norm1_of_g(B) == self.PINNED[name][0]


class TestApply:
    def test_identity(self, np_rng):
        v = np_rng.random(4)
        np.testing.assert_array_equal(apply(identity(4), v), v)

    def test_scaled_identity(self):
        A = CscMatrix.from_dense(2.0 * np.eye(3))
        np.testing.assert_array_equal(apply(A, np.ones(3)), 2.0 * np.ones(3))

    def test_worked_system(self):
        A = CscMatrix.from_dense(np.array([[1.0, -0.5], [0.0, 1.0]]))
        np.testing.assert_allclose(apply(A, np.array([1.5, 1.0])), [1.0, 1.0])

    def test_matches_columns_exactly(self, np_rng):
        dense = np_rng.random((7, 7)) * (np_rng.random((7, 7)) < 0.4)
        A = CscMatrix.from_dense(dense)
        for j in range(7):
            np.testing.assert_array_equal(apply(A, np.eye(7)[j]), A.column(j).to_dense())

    def test_backings_agree(self, np_rng):
        dense = np_rng.random((6, 6))
        v = np_rng.random(6)
        a = apply(CscMatrix.from_dense(dense), v)
        b = apply(DenseColumnMatrix(dense), v)
        c = apply(FunctionColumnMatrix(6, lambda j: SparseVector.from_dense(dense[:, j])), v)
        np.testing.assert_allclose(a, dense @ v, atol=1e-12)
        np.testing.assert_allclose(b, dense @ v, atol=1e-12)
        np.testing.assert_allclose(c, dense @ v, atol=1e-12)

    def test_generic_backing_reads_only_nonzero_columns(self, np_rng):
        dense = np_rng.random((1000, 1000)) * (np_rng.random((1000, 1000)) < 0.01)
        reads = []

        def column(j):
            reads.append(j)
            return SparseVector.from_dense(dense[:, j])

        A = FunctionColumnMatrix(1000, column)
        for k in (0, 1, 5):
            v = np.zeros(1000)
            support = np_rng.choice(1000, size=k, replace=False)
            v[support] = np_rng.uniform(0.5, 1.0, k)
            reads.clear()
            np.testing.assert_allclose(apply(A, v), dense @ v, atol=1e-12)
            assert sorted(reads) == sorted(support.tolist())

    def test_read_once_store_gathers_what_the_matrix_does(self, np_rng):
        # hits, new columns, repeats within a request, empty columns and an
        # empty request all give A.gather's bits; each column is read once
        dense = np_rng.standard_normal((50, 50)) * (np_rng.random((50, 50)) < 0.1)
        dense[:, 7] = 0.0
        reads = []

        def column(j):
            reads.append(j)
            return SparseVector.from_dense(dense[:, j])

        A = FunctionColumnMatrix(50, column)
        store = _ReadOnce(A)
        requests = [[3, 9, 7], [3, 9], [9, 4, 4, 3, 12], [], [20, 21, 22], [7, 22, 3, 30, 30]]
        requests += [np_rng.integers(0, 50, 40).tolist() for _ in range(20)] + [list(range(50))]
        seen = set()
        for cols in requests:
            cols = np.array(cols, dtype=np.int64)
            coeffs = np_rng.standard_normal(cols.size)
            reads.clear()
            got = store.gather(cols, coeffs)
            assert sorted(reads) == sorted(set(cols.tolist()) - seen)
            seen |= set(reads)
            want = A.gather(cols, coeffs)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            apply(identity(3), np.ones(2))


def multi_block_matrix(rng, dim=3 * 2**16 + 1000, n_rows=3000):
    """Rows of 1 to 20 entries, plus some self-loops, in columns drawn from
    every row block, with signed values spanning 16 orders of magnitude."""
    row_ids = rng.choice(dim, size=n_rows, replace=False)
    loops = row_ids[rng.random(n_rows) < 0.3]
    rows = np.concatenate([np.repeat(row_ids, rng.integers(1, 21, n_rows)), loops])
    cols = np.concatenate([rng.integers(0, dim, rows.size - loops.size), loops])
    vals = rng.choice([-1.0, 1.0], rows.size) * 10.0 ** rng.uniform(-8, 8, rows.size)
    return CscMatrix.from_triplets(dim, rows, cols, vals)


class TestRowBlocks:
    def test_multi_block_product_sums_each_row_in_column_order(self, np_rng):
        A = multi_block_matrix(np_rng)
        assert (A.dim - 1) >> 16 >= 2  # at least three row blocks
        v = np_rng.standard_normal(A.dim) * 10.0 ** np_rng.uniform(-4, 4, A.dim)
        v[np_rng.random(A.dim) < 0.5] = 0.0
        out = apply(A, v)
        # the generic path adds each row's terms from 0.0 in ascending column order
        assert np.array_equal(out, apply(FunctionColumnMatrix(A.dim, A.column), v))
        # the data is sensitive to summation order: reversed rows differ
        terms = A.data * v[A.column_ids()]
        reversed_sums = np.bincount(A.indices[::-1], weights=terms[::-1], minlength=A.dim)
        assert not np.array_equal(out, reversed_sums)

    def test_layout_groups_blocks_and_keeps_column_order_in_rows(self, np_rng):
        A = multi_block_matrix(np_rng)
        rows, cols, data = A._blocked()
        assert np.all(np.diff(rows >> 16) >= 0)
        assert not np.array_equal(rows, A.indices)
        by_row = np.argsort(rows, kind="stable")
        r, c = rows[by_row], cols[by_row]
        assert np.all((np.diff(r) > 0) | (np.diff(c) > 0))
        same = CscMatrix.from_triplets(A.dim, rows, cols, data)  # a permutation of the entries
        for a, b in ((same.indptr, A.indptr), (same.indices, A.indices), (same.data, A.data)):
            assert np.array_equal(a, b)

    def test_layout_is_built_once_read_only_at_24_bytes_per_nonzero(self, np_rng):
        A = multi_block_matrix(np_rng)
        v = np_rng.random(A.dim)
        assert A._row_blocks is None
        first = apply(A, v)
        built = A._row_blocks
        assert built is not None
        assert np.array_equal(apply(A, v), first)
        assert A._row_blocks is built
        assert sum(arr.nbytes for arr in built) == 24 * A.data.size
        for owned in built:
            assert not np.shares_memory(owned, A.indices) and not np.shares_memory(owned, A.data)
        for arr in (A.indptr, A.indices, A.data):
            assert not arr.flags.writeable

    def test_one_block_matrix_copies_in_csc_order(self, np_rng):
        A = CscMatrix.from_dense(np_rng.random((50, 50)) * (np_rng.random((50, 50)) < 0.2))
        apply(A, np_rng.random(50))
        rows, cols, data = A._row_blocks
        assert np.array_equal(rows, A.indices) and not np.shares_memory(rows, A.indices)
        assert np.array_equal(cols, A.column_ids()) and np.array_equal(data, A.data)
        v = np_rng.random(2**16 + 1)
        for dim in (2**16, 2**16 + 1):  # one block, then two
            eye = identity(dim)
            np.testing.assert_array_equal(apply(eye, v[:dim]), v[:dim])
            assert np.array_equal(eye._row_blocks[0], eye.indices)


class TestWholeMatrixReads:
    DENSE = np.array([[0.1, 0.0, 0.0], [0.0, 0.0, 3.0], [-2.5, 0.0, 1.0 / 3.0]])
    TEXT = (
        "%%MatrixMarket matrix coordinate real general\n3 3 4\n"
        "1 1 0.10000000000000001\n3 1 -2.5\n2 3 3\n3 3 0.33333333333333331\n"
    )

    def backings(self):
        A = CscMatrix.from_dense(self.DENSE)
        return A, DenseColumnMatrix(self.DENSE), FunctionColumnMatrix(A.dim, A.column)

    def test_save_writes_exact_text_for_every_backing(self, tmp_path):
        for k, A in enumerate(self.backings()):
            save_matrix_market(A, tmp_path / f"{k}.mtx")
            assert (tmp_path / f"{k}.mtx").read_text() == self.TEXT, type(A).__name__
        back = load_matrix_market(tmp_path / "0.mtx")
        assert np.array_equal(densify(back), self.DENSE)

    def test_densify_agrees_across_backings(self):
        for A in self.backings():
            out = densify(A)
            assert out.dtype == np.float64 and np.array_equal(out, self.DENSE)


IDENTITY_MM = """%%MatrixMarket matrix coordinate real general
% identity
2 2 2
1 1 1.0
2 2 1.0
"""


class TestMatrixMarket:
    def test_identity_roundtrip(self, tmp_path):
        A = load_matrix_market(write(tmp_path, "id.mtx", IDENTITY_MM))
        np.testing.assert_array_equal(densify(A), np.eye(2))

    def test_duplicates_summed(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 0.5\n1 1 0.5\n"
        A = load_matrix_market(write(tmp_path, "dup.mtx", text))
        assert densify(A)[0, 0] == 1.0

    def test_pattern_rejected(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n"
        with pytest.raises(PatternValuesError, match="values required"):
            load_matrix_market(write(tmp_path, "pat.mtx", text))

    def test_malformed_header(self, tmp_path):
        with pytest.raises(MatrixMarketHeaderError):
            load_matrix_market(write(tmp_path, "bad.mtx", "not a header\n1 1 1\n"))

    def test_non_square(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n"
        with pytest.raises(NonSquareMatrixError):
            load_matrix_market(write(tmp_path, "rect.mtx", text))

    def test_out_of_range_entry(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
        with pytest.raises(EntryRangeError):
            load_matrix_market(write(tmp_path, "oor.mtx", text))

    @pytest.mark.parametrize("entry, named", [("3 1", "(3, 1)"), ("0 2", "(0, 2)"),
                                              ("1 -1", "(1, -1)"), ("2 3", "(2, 3)")])
    def test_out_of_range_entry_is_named(self, tmp_path, entry, named):
        text = f"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n{entry} 1.0\n"
        with pytest.raises(EntryRangeError, match=rf"^entry {re.escape(named)} outside 1\.\.2$"):
            load_matrix_market(write(tmp_path, "oor.mtx", text))

    def test_loads_the_matrix_from_triplets_builds(self, tmp_path, np_rng):
        # duplicates in any order, some cancelling to exact zeros
        rows, cols = np_rng.integers(0, 30, 400), np_rng.integers(0, 30, 400)
        vals = np_rng.standard_normal(400).round(1)
        rows, cols, vals = (np.concatenate([a, a[:50]]) for a in (rows, cols, vals))
        vals[-50:] *= -1.0
        lines = "".join(f"{i + 1} {j + 1} {v!r}\n" for i, j, v in zip(rows, cols, vals.tolist()))
        text = f"%%MatrixMarket matrix coordinate real general\n30 30 {rows.size}\n{lines}"
        got = load_matrix_market(write(tmp_path, "dups.mtx", text))
        want = CscMatrix.from_triplets(30, rows, cols, vals)
        for name in ("indptr", "indices", "data"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_entry_count_mismatch(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
        with pytest.raises(MatrixMarketError):
            load_matrix_market(write(tmp_path, "short.mtx", text))

    def test_integer_field_accepted(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate integer general\n2 2 1\n2 1 3\n"
        A = load_matrix_market(write(tmp_path, "int.mtx", text))
        assert densify(A)[1, 0] == 3.0

    def test_save_then_load(self, tmp_path, np_rng):
        dense = np_rng.random((5, 5)) * (np_rng.random((5, 5)) < 0.5)
        A = CscMatrix.from_dense(dense)
        path = tmp_path / "round.mtx"
        save_matrix_market(A, path)
        back = load_matrix_market(path)
        np.testing.assert_allclose(densify(back), dense, atol=0)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        text = (
            "%%MatrixMarket matrix coordinate real general\n% comment\n"
            f"2 2 2\n1 1 0.5\n2 1 {bad}\n"
        )
        with pytest.raises(MatrixMarketError, match="line 5: non-finite"):
            load_matrix_market(write(tmp_path, "nan.mtx", text))

    @pytest.mark.parametrize("entry", ["1 1 1.0 7", "1 1", "x 1 1.0", "1 1.5 1.0", "1 1 abc"])
    def test_malformed_entry_names_line(self, tmp_path, entry):
        text = (
            "%%MatrixMarket matrix coordinate real general\n% comment\n"
            f"2 2 2\n1 1 0.5\n{entry}\n"
        )
        with pytest.raises(MatrixMarketError, match=f"line 5: .* in '{entry}'"):
            load_matrix_market(write(tmp_path, "bad.mtx", text))

    def test_entries_after_interleaved_comments(self, tmp_path):
        text = (
            "%%MatrixMarket matrix coordinate real general\n%\n\n2 2 3\n"
            "% first column\n1 1 0.5\n\n2 1 -0.25\n% second column\n2 2 1e-3\n"
        )
        A = load_matrix_market(write(tmp_path, "cmt.mtx", text))
        np.testing.assert_array_equal(densify(A), [[0.5, 0.0], [-0.25, 1e-3]])
