import math

import numpy as np
import pytest

from rsri import (
    CscMatrix,
    DenseColumnMatrix,
    FunctionColumnMatrix,
    SparseVector,
    apply,
    densify,
    diagnostics,
    g_column,
    identity,
    load_matrix_market,
    matrix_norm1_of_g,
    save_matrix_market,
)
from rsri.operators import (
    EntryRangeError,
    MatrixMarketError,
    MatrixMarketHeaderError,
    NonSquareMatrixError,
    PatternValuesError,
)

from conftest import three_cycle_problem


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

    def test_function_backing(self):
        A = FunctionColumnMatrix(2, lambda j: SparseVector.basis(2, j, 2.0))
        np.testing.assert_array_equal(densify(A), 2.0 * np.eye(2))
        bad = FunctionColumnMatrix(2, lambda j: SparseVector.basis(3, j))
        with pytest.raises(ValueError):
            bad.column(0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            identity(3).column(3)


class TestGColumn:
    def test_identity_gives_empty(self):
        A = identity(4)
        for j in range(4):
            assert g_column(A, j).nnz == 0

    def test_pagerank_column_is_scaled_transition(self):
        prob = three_cycle_problem()
        for j in range(3):
            g = g_column(prob.A, j)
            p = prob.P.column(j)
            np.testing.assert_array_equal(g.indices, p.indices)
            np.testing.assert_allclose(g.values, 0.85 * p.values)

    def test_worked_column(self):
        A = CscMatrix.from_dense(np.array([[1.0, 0.0], [0.5, 1.0]]))
        g = g_column(A, 0)
        assert g.indices.tolist() == [1]
        assert g.values.tolist() == [-0.5]

    def test_reconstructs_basis(self, np_rng):
        dense = np_rng.random((5, 5))
        A = CscMatrix.from_dense(dense)
        for j in range(5):
            total = g_column(A, j).to_dense() + dense[:, j]
            np.testing.assert_allclose(total, np.eye(5)[j], atol=1e-15)


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

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            apply(identity(3), np.ones(2))


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
