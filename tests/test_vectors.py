import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsri import SparseVector, dot, norms, tail_sums
from rsri.vectors import coalesce

from conftest import sparse_from


def brute_tails(pairs):
    """Independent tail oracle: python sort by (-|v|, index), suffix sums."""
    mags = [abs(v) for _, v in sorted(pairs, key=lambda kv: (-abs(kv[1]), kv[0]))]
    return [sum(mags[i:]) for i in range(len(mags) + 1)]


values = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
signed_values = st.one_of(values, values.map(lambda x: -x))


@st.composite
def sparse_vectors(draw, max_dim=12):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    idx = draw(st.lists(st.integers(min_value=0, max_value=dim - 1), unique=True, max_size=dim))
    vals = draw(st.lists(signed_values, min_size=len(idx), max_size=len(idx)))
    return sparse_from(dim, list(zip(idx, vals)))


class TestSparseVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            SparseVector(0, np.array([], dtype=np.int64), np.array([]))
        with pytest.raises(ValueError):
            SparseVector(3, np.array([1, 0]), np.array([1.0, 2.0]))  # not increasing
        with pytest.raises(ValueError):
            SparseVector(3, np.array([0, 0]), np.array([1.0, 2.0]))  # duplicate
        with pytest.raises(ValueError):
            SparseVector(3, np.array([0, 3]), np.array([1.0, 2.0]))  # out of range
        with pytest.raises(ValueError):
            SparseVector(3, np.array([0]), np.array([0.0]))  # stored zero
        for k in (2.7, True):
            with pytest.raises(TypeError, match="k must be an integer"):
                SparseVector.basis(10, k)

    @pytest.mark.parametrize(
        "dim, idx, val, message",
        [
            (10, [-1, 3], [1.0, 2.0], "indices out of range"),
            (10, [0, 5, 2, 9], [1.0, 2.0, 3.0, 4.0], "indices must be strictly increasing"),
            (3, [0, 2], [1.0, -0.0], "stored zero values are forbidden"),
            (3, [[0, 1]], [[1.0, 2.0]], "must be 1-D arrays of equal length"),
            (3, [0, 1], [[1.0, 2.0]], "must be 1-D arrays of equal length"),
            (3, [0, 1], [1.0], "must be 1-D arrays of equal length"),
        ],
    )
    def test_rejections_name_the_broken_invariant(self, dim, idx, val, message):
        with pytest.raises(ValueError, match=message):
            SparseVector(dim, np.array(idx), np.array(val))

    @pytest.mark.parametrize("idx", [[0.5, 2.2], [0.0, 2.0], [True, False]])
    def test_non_integer_indices_rejected(self, idx):
        with pytest.raises(TypeError, match="indices must have an integer dtype"):
            SparseVector(3, idx, [1.0, 1.0])

    def test_empty_index_list_accepted(self):
        assert SparseVector(3, [], []).nnz == 0  # an empty list reads as float64

    def test_dip_whose_int64_differences_wrap_is_rejected(self):
        # every np.diff of these indices wraps around to a positive int64
        idx = np.array([2**62 + 1, -(2**63), -1, 2**62 + 2], dtype=np.int64)
        with pytest.raises(ValueError, match="indices must be strictly increasing"):
            SparseVector(2**62 + 3, idx, np.ones(4))

    def test_accepts_nan_and_the_largest_int64_dimension(self):
        v = SparseVector(3, np.array([1]), np.array([np.nan]))
        assert np.isnan(v.values[0])
        top = SparseVector(2**63 - 1, np.array([0, 2**63 - 2]), np.array([1.0, -2.0]))
        assert top.indices[-1] == 2**63 - 2 and top.nnz == 2

    @pytest.mark.parametrize("dim, message", [
        (0, "dim must be positive"),
        (-1, "dim must be positive"),
        (2**63, r"at most 2\*\*63 - 1"),
        (2**64, r"at most 2\*\*63 - 1"),
    ])
    def test_dimensions_outside_int64_rejected(self, dim, message):
        with pytest.raises(ValueError, match=message):
            SparseVector(dim, np.array([0]), np.array([1.0]))

    def test_immutable(self):
        v = sparse_from(3, [(0, 1.0)])
        with pytest.raises(ValueError):
            v.values[0] = 2.0

    def test_from_dense_roundtrip(self):
        arr = np.array([0.0, 2.0, 0.0, -1.5])
        v = SparseVector.from_dense(arr)
        assert v.nnz == 2
        np.testing.assert_array_equal(v.to_dense(), arr)

    def test_from_dense_keeps_nan_and_drops_negative_zero(self):
        v = SparseVector.from_dense([0.0, -0.0, np.nan, 1.0])
        assert v.indices.tolist() == [2, 3]
        assert np.isnan(v.values[0]) and v.values[1] == 1.0


class TestNorms:
    def test_empty(self):
        assert norms(SparseVector.empty(3)) == (0.0, 0.0, 0.0, 0)

    def test_three_four_five(self):
        assert norms(sparse_from(3, [(0, 3.0), (2, -4.0)])) == (7.0, 5.0, 4.0, 2)

    def test_basis(self):
        assert norms(SparseVector.basis(100, 1)) == (1.0, 1.0, 1.0, 1)


class TestTailSums:
    def test_worked_example(self):
        v = sparse_from(4, [(0, 4.0), (1, 2.0), (2, 1.0), (3, 1.0)])
        np.testing.assert_allclose(tail_sums(v), [8.0, 4.0, 2.0, 1.0, 0.0])

    def test_basis(self):
        np.testing.assert_allclose(tail_sums(SparseVector.basis(5, 1)), [1.0, 0.0])

    def test_uniform(self):
        n = 8
        v = sparse_from(n, [(i, 1.0 / n) for i in range(n)])
        np.testing.assert_allclose(tail_sums(v), [(n - i) / n for i in range(n + 1)])

    @settings(max_examples=60, deadline=None)
    @given(sparse_vectors())
    def test_against_brute_force(self, v):
        pairs = list(zip(v.indices.tolist(), v.values.tolist()))
        np.testing.assert_allclose(tail_sums(v), brute_tails(pairs), rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(sparse_vectors())
    def test_head_matches_one_norm(self, v):
        t = tail_sums(v)
        assert t[0] == pytest.approx(norms(v).one, rel=1e-12, abs=1e-300)
        assert t[-1] == 0.0
        assert np.all(np.diff(t) <= 0)


class TestCoalesce:
    def test_adds_in_input_order(self):
        # pairwise summation would add 1 + 1 first and keep it
        out = coalesce(3, [0, 0, 0], [1e16, 1.0, 1.0])
        assert out.indices.tolist() == [0]
        assert out.values.tolist() == [1e16]

    def test_matches_sequential_loop(self, np_rng):
        dim = 50
        for _ in range(200):
            n = int(np_rng.integers(1, 300))
            keys = np_rng.integers(0, dim, n)
            vals = np_rng.normal(size=n) * 10.0 ** np_rng.integers(-8, 9, n)
            vals[np_rng.random(n) < 0.1] = 0.0
            want = {}
            for k, v in zip(keys.tolist(), vals.tolist()):
                want[k] = want.get(k, 0.0) + v
            out = coalesce(dim, keys, vals)
            kept = sorted(k for k, v in want.items() if v != 0.0)
            assert out.indices.tolist() == kept
            assert out.values.tolist() == [want[k] for k in kept]

    def test_binned_and_sorted_paths_agree(self, np_rng):
        """coalesce bins its n keys over dim slots when 4 dim <= n bit_length(n)
        and sorts them otherwise, so the widest dim that bins and one more run
        the same keys down each path.  test_matches_sequential_loop (dim 50,
        1-300 keys) straddles the same threshold against a Python loop."""
        cases = [
            ([0, 1, 0, 1], [1.5, -2.0, -1.5, 2.0], [], []),  # exact cancellation
            ([2, 0, 2, 1], [-0.0, -0.0, 3.0, -0.0], [2], [3.0]),  # 0.0 + -0.0 is 0.0
            ([0, 0, 0], [1e16, 1.0, 1.0], [0], [1e16]),
        ]
        for scale in (1e-300, 1e-150, 1.0, 1e150, 1e290):
            keys = np_rng.integers(0, 40, 500)
            vals = np_rng.normal(size=500) * scale * 10.0 ** np_rng.integers(-8, 9, 500)
            cases.append((keys, vals, None, None))
        for keys, vals, want_idx, want_val in cases:
            n = len(keys)
            widest = n * n.bit_length() // 4
            binned, sorted_ = coalesce(widest, keys, vals), coalesce(widest + 1, keys, vals)
            assert binned.indices.dtype == sorted_.indices.dtype == np.int64
            assert binned.indices.tolist() == sorted_.indices.tolist()
            assert binned.values.tobytes() == sorted_.values.tobytes()
            if want_idx is not None:
                assert binned.indices.tolist() == want_idx
                assert binned.values.tolist() == want_val


class TestDot:
    def test_ones_gives_signed_sum(self):
        v = sparse_from(3, [(0, 3.0), (2, -4.0)])
        assert dot(np.ones(3), v) == -1.0

    def test_basis_functional(self):
        v = sparse_from(3, [(0, 2.0), (2, 3.0)])
        assert dot(np.eye(3)[2], v) == 3.0

    def test_worked_example(self):
        v = sparse_from(3, [(0, 2.0), (2, 3.0)])
        assert dot(np.array([1.0, -1.0, 1.0]), v) == 5.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            dot(np.ones(2), SparseVector.basis(3, 0))

    @settings(max_examples=60, deadline=None)
    @given(sparse_vectors(), st.data())
    def test_linearity(self, u, data):
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, u.dim - 1), signed_values), unique_by=lambda t: t[0]
            )
        )
        w = sparse_from(u.dim, pairs)
        f = np.linspace(-1.0, 1.0, u.dim)
        combined = coalesce(
            u.dim,
            np.concatenate([u.indices, w.indices]),
            np.concatenate([1.5 * u.values, -2.0 * w.values]),
        )
        lhs = dot(f, combined)
        rhs = 1.5 * dot(f, u) - 2.0 * dot(f, w)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)
