import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsri import (
    RandomStream,
    SparseVector,
    norms,
    pivotal_sample_batch,
    preservation_split,
    sparsify,
    sparsify_l2_bound,
)

from conftest import sparse_from


def worked_vector():
    return sparse_from(4, [(0, 4.0), (1, 2.0), (2, 1.0), (3, 1.0)])


def brute_l2_bound(pairs, m):
    """Independent oracle for the variance bound: explicit tail scan."""
    mags = sorted((abs(v) for _, v in pairs), reverse=True)
    best = math.inf
    for i in range(m):
        tail = sum(mags[i:])
        best = min(best, tail * tail / (m - i))
    return best


def rational_exact_set(v, m):
    """Independent oracle for D: the admission rule in exact arithmetic,
    ties broken toward the lower index."""
    a = [Fraction(abs(x)) for x in v.values.tolist()]
    order = sorted(range(len(a)), key=lambda i: (-a[i], i))
    tail = sum(a)
    q = 0
    while q < m and a[order[q]] * (m - q) >= tail:
        tail -= a[order[q]]
        q += 1
    return sorted(v.indices[order[:q]].tolist())


values = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
signed_values = st.one_of(values, values.map(lambda x: -x))


# per-entry magnitude scales of one vector: far from 1 yet normal,
# subnormal (2**-1060 leaves at most 24 significant bits), and mixtures
scales = st.sampled_from(
    [(1.0,), (1e-300,), (1e300,), (2.0**-1060,), (1.0, 2.0**-1060), (1e300, 1e-300)]
)


@st.composite
def vectors_and_m(draw):
    dim = draw(st.integers(min_value=1, max_value=16))
    idx = draw(
        st.lists(st.integers(0, dim - 1), unique=True, min_size=1, max_size=dim)
    )
    n = len(idx)
    if draw(st.booleans()):
        vals = draw(st.lists(signed_values, min_size=n, max_size=n))
    else:  # a pool of at most two magnitudes forces ties
        pool = draw(st.lists(values, min_size=1, max_size=2))
        vals = [draw(st.sampled_from(pool)) * draw(st.sampled_from([1.0, -1.0])) for _ in idx]
    scale = draw(scales)
    vals = [x * draw(st.sampled_from(scale)) for x in vals]
    m = draw(st.integers(min_value=1, max_value=8))
    return sparse_from(dim, list(zip(idx, vals))), m


class TestPreservationSplit:
    def test_worked_example(self):
        split = preservation_split(worked_vector(), 2)
        assert split.exact_indices.tolist() == [0]
        assert split.q == 1
        assert split.residual_indices.tolist() == [1, 2, 3]
        np.testing.assert_allclose(split.residual_probs, [0.5, 0.25, 0.25])

    def test_everything_preserved_when_small(self):
        v = sparse_from(5, [(1, 3.0), (4, -2.0)])
        split = preservation_split(v, 2)
        assert split.exact_indices.tolist() == [1, 4]
        assert split.residual_indices.size == 0

    def test_uniform_vector_has_empty_exact_set(self):
        n, m = 10, 3
        v = sparse_from(n, [(i, 0.5) for i in range(n)])
        split = preservation_split(v, m)
        assert split.q == 0
        np.testing.assert_allclose(split.residual_probs, np.full(n, m / n))

    def test_whole_tie_groups_enter_together(self):
        # admitting one member of a magnitude tie forces the whole group in
        v = sparse_from(6, [(0, 4.0), (1, -4.0), (2, 1.0), (3, 1.0), (4, 1.0), (5, 1.0)])
        split = preservation_split(v, 3)
        assert split.exact_indices.tolist() == [0, 1]

    def test_top_selection_tie_at_boundary(self):
        v = sparse_from(4, [(0, 10.0), (1, 3.0), (2, -3.0), (3, 3.0)])
        split = preservation_split(v, 2)
        assert split.exact_indices.tolist() == [0]
        np.testing.assert_allclose(split.residual_probs, [1 / 3, 1 / 3, 1 / 3])

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            preservation_split(worked_vector(), 0)

    def test_fast_decay_keeps_integer_probability_sum(self):
        # fast decay: tails formed as ||v||_1 minus the top entries cancel
        # here, which admits too few entries and breaks sum(p) = m - q
        mags = ("0x1.db0bd0c0ce034p-55", "0x1.0dfca82a2c8e4p-52",
                "0x1.222125d8ca302p-4", "0x1.a037a738886d9p-53")
        v = SparseVector(4, [0, 1, 2, 3], [float.fromhex(h) for h in mags])
        split = preservation_split(v, 3)
        assert split.exact_indices.tolist() == [1, 2]
        split.residual_vector()  # validates: probabilities sum to m - q = 1

    @pytest.mark.parametrize("kind", ["exp", "dyadic"])
    def test_exact_set_matches_rational_reference(self, kind):
        rng = np.random.default_rng({"exp": 20231, "dyadic": 20232}[kind])
        for _ in range(1000):
            n = int(rng.integers(5, 40))
            m = int(rng.integers(1, n))
            if kind == "exp":
                mags = np.exp(-rng.uniform(0, 40, n))
            else:
                mags = 2.0 ** -rng.integers(0, 60, n) * (1 + 1e-15 * rng.standard_normal(n))
            signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            v = SparseVector.from_dense(signs * mags)
            split = preservation_split(v, m)
            assert split.exact_indices.tolist() == rational_exact_set(v, m), (n, m)

    @settings(max_examples=80, deadline=None)
    @given(vectors_and_m())
    def test_invariants(self, case):
        v, m = case
        split = preservation_split(v, m)
        assert split.q <= m
        mags = dict(zip(v.indices.tolist(), np.abs(v.values).tolist()))
        if split.q and split.residual_indices.size:
            assert min(mags[i] for i in split.exact_indices.tolist()) >= max(
                mags[i] for i in split.residual_indices.tolist()
            ) - 1e-12
        if split.residual_indices.size:
            total = math.fsum(split.residual_probs.tolist())
            assert abs(total - round(total)) < 1e-9
            assert round(total) == m - split.q
            assert split.residual_probs.max() < 1.0


class TestSparsify:
    def test_worked_example_support_and_norm(self):
        v = worked_vector()
        rng = RandomStream(2)
        hits = np.zeros(4)
        n = 30_000
        for _ in range(n):
            out = sparsify(v, 2, rng)
            assert out.nnz <= 2
            assert out.values[out.indices == 0] == 4.0
            others = out.indices[out.indices != 0]
            assert others.size == 1
            assert np.abs(out.values[out.indices != 0]) == pytest.approx(4.0)
            assert norms(out).one == pytest.approx(8.0, rel=1e-12)
            hits[others] += 1
        freq = hits / n
        expect = np.array([0.0, 0.5, 0.25, 0.25])
        sigma = np.sqrt(np.maximum(expect * (1 - expect), 1e-12) / n)
        assert np.all(np.abs(freq[1:] - expect[1:]) <= 4 * sigma[1:])

    def test_identity_when_input_is_sparse_enough(self):
        v = sparse_from(5, [(0, 1.0), (3, -2.0)])
        out = sparsify(v, 4, RandomStream(0))
        assert out is v

    def test_empty_input(self):
        out = sparsify(SparseVector.empty(4), 3, RandomStream(0))
        assert out.nnz == 0

    def test_unbiased_empirically(self, np_rng):
        v = sparse_from(6, [(0, 2.0), (1, -1.0), (2, 0.7), (3, 0.5), (4, 0.4), (5, 0.1)])
        n = 40_000
        acc = np.zeros(6)
        rng = RandomStream(5)
        for _ in range(n):
            out = sparsify(v, 3, rng)
            acc[out.indices] += out.values
        mean = acc / n
        exact = v.to_dense()
        split = preservation_split(v, 3)
        sigma = np.zeros(6)
        probs = dict(zip(split.residual_indices.tolist(), split.residual_probs.tolist()))
        for i, p in probs.items():
            sigma[i] = abs(exact[i] / p) * np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(mean - exact) <= 4 * sigma + 1e-12)

    def test_support_is_subset(self, np_rng):
        v = sparse_from(8, [(i, float(np_rng.normal())) for i in range(8)])
        rng = RandomStream(1)
        for _ in range(200):
            out = sparsify(v, 3, rng)
            assert set(out.indices.tolist()) <= set(v.indices.tolist())

    @settings(max_examples=40, deadline=None)
    @given(vectors_and_m())
    def test_hard_contracts_per_draw(self, case):
        v, m = case
        rng = RandomStream(99)
        for _ in range(20):
            out = sparsify(v, m, rng)
            assert out.nnz <= m
            assert norms(out).one == pytest.approx(norms(v).one, rel=1e-12)


class TestL2Bound:
    def test_worked_example(self):
        assert sparsify_l2_bound(worked_vector(), 2) == pytest.approx(16.0)

    def test_zero_when_fully_preserved(self):
        assert sparsify_l2_bound(sparse_from(5, [(0, 1.0), (2, 2.0)]), 3) == 0.0

    def test_uniform_m1(self):
        n = 10
        v = sparse_from(n, [(i, 1.0 / n) for i in range(n)])
        assert sparsify_l2_bound(v, 1) == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(vectors_and_m())
    def test_against_brute_force(self, case):
        v, m = case
        pairs = list(zip(v.indices.tolist(), v.values.tolist()))
        assert sparsify_l2_bound(v, m) == pytest.approx(
            brute_l2_bound(pairs, m), rel=1e-12, abs=1e-300
        )

    def test_empirical_mse_below_bound(self, np_rng):
        v = sparse_from(
            10, [(i, x) for i, x in enumerate(np_rng.normal(size=10)) if x != 0.0]
        )
        m = 4
        bound = sparsify_l2_bound(v, m)
        split = preservation_split(v, m)
        n = 60_000
        sel = pivotal_sample_batch(split.residual_vector(), RandomStream(12), n)
        res_vals = v.to_dense()[split.residual_indices]
        scaled = res_vals / split.residual_probs
        err_sq = (
            sel @ ((scaled - res_vals) ** 2)
            + (~sel) @ (res_vals**2)
        )
        mean = err_sq.mean()
        sigma = err_sq.std(ddof=1) / np.sqrt(n)
        assert mean <= bound * 1.05 + 4 * sigma

    def test_triple_norm_spot_checks(self, np_rng):
        v = sparse_from(
            12, [(i, x) for i, x in enumerate(np_rng.normal(size=12)) if x != 0.0]
        )
        m = 5
        bound = sparsify_l2_bound(v, m)
        split = preservation_split(v, m)
        res_vals = v.to_dense()[split.residual_indices]
        scaled = res_vals / split.residual_probs
        n = 60_000
        sel = pivotal_sample_batch(split.residual_vector(), RandomStream(13), n)

        def functional_mse(f_res):
            per_entry_sel = f_res * (scaled - res_vals)
            per_entry_out = -f_res * res_vals
            dots = sel @ per_entry_sel + (~sel) @ per_entry_out
            return dots, float((dots**2).mean()), float((dots**2).std(ddof=1) / np.sqrt(n))

        # random sign vector: factor-2 bound
        f_res = np.where(np_rng.random(res_vals.size) < 0.5, -1.0, 1.0)
        _, mse, sig = functional_mse(f_res)
        assert mse <= 2 * bound * 1.05 + 4 * sig
        # aligned signs: the factor of two drops
        _, mse, sig = functional_mse(np.sign(res_vals))
        assert mse <= bound * 1.05 + 4 * sig
