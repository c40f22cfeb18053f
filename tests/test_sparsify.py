import hashlib
import importlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rsri import (
    RandomStream,
    SparseVector,
    norms,
    pivotal_sample_batch,
    preservation_split,
    sparsify,
    sparsify_l2_bound,
    spawn_stream,
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


def stable_argsort_split(v, m):
    """Reference split: exact-set mask and residual probabilities per entry,
    from a stable argsort of -|v| and the exact set as its first q entries."""
    exact = np.ones(v.nnz, dtype=bool)
    probs = np.zeros(v.nnz)
    if v.nnz <= m:
        return exact, probs
    a = np.abs(v.values)
    order = np.argsort(-a, kind="stable")  # indices are sorted: ties go to the lower one
    tails = np.cumsum(a[order][::-1])[::-1]
    admit = a[order[:m]] * (m - np.arange(m)) >= tails[:m]
    failures = np.flatnonzero(~admit)
    q = int(failures[0]) if failures.size else m
    rest = order[q:]
    exact[rest] = False
    if q < m and tails[q] > 0.0:
        probs[rest] = np.minimum((m - q) * a[rest] / tails[q], np.nextafter(1.0, 0.0))
    return exact, probs


def tied_vector(n, seed):
    """n entries of lognormal magnitude and random sign, a fifth of them
    drawn from a pool of 16 magnitudes, so ties are everywhere."""
    rng = np.random.default_rng(seed)
    mags = rng.lognormal(0.0, 2.0, n)
    tied = rng.random(n) < 0.2
    mags[tied] = rng.lognormal(0.0, 2.0, 16)[rng.integers(0, 16, int(tied.sum()))]
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return SparseVector(4 * n, np.sort(rng.choice(4 * n, n, replace=False)), signs * mags)


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


def stack(runs):
    """The vectors of ``runs``, all of one dimension, end to end: entry i of
    run k at k * dim + i."""
    dim = runs[0].dim
    return SparseVector(
        len(runs) * dim,
        np.concatenate([k * dim + r.indices for k, r in enumerate(runs)]).astype(np.int64),
        np.concatenate([r.values for r in runs]),
    )


@st.composite
def stacked_runs(draw):
    """Runs of one dimension and their levels, for stacked calls.

    Runs may be empty or hold at most their level's entries.  ``kind``
    sets the magnitudes: drawn at the scales above; a fifth of them tied
    to a pool of two; some the smallest subnormal, whose probabilities
    underflow to zero; from a pool of three plus one too small to move a
    tail, so rounding can split a tie group between D and the residual;
    or, in every run, the level's count of ones over such small entries,
    so each run is kept whole or degenerate (q = m) and no run draws.
    """
    count = draw(st.integers(min_value=2, max_value=5))
    dim = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=1, max_value=6))
    levels = draw(st.one_of(st.none(), st.lists(st.integers(1, m), min_size=count, max_size=count)))
    kind = draw(st.sampled_from(["drawn", "tied", "underflow", "split ties", "degenerate"]))
    pool = draw(st.lists(values, min_size=2, max_size=2))
    scale = draw(scales)
    runs = []
    for k in range(count):
        idx = sorted(draw(st.lists(st.integers(0, dim - 1), unique=True, max_size=dim)))
        mags = []
        for j in range(len(idx)):
            if kind == "degenerate":
                mags.append(1.0 if j < (m if levels is None else levels[k]) else 1e-20)
            elif kind == "tied" and draw(st.integers(0, 4)) == 0:
                mags.append(draw(st.sampled_from(pool)))
            elif kind == "underflow" and draw(st.booleans()):
                mags.append(math.ulp(0.0))
            elif kind == "split ties":
                mags.append(draw(st.sampled_from([0.1, 0.3, 1 / 3, 1e-17])))
            else:
                mags.append(draw(values) * (draw(st.sampled_from(scale)) if kind == "drawn" else 1.0))
        signs = [draw(st.sampled_from([1.0, -1.0])) for _ in idx]
        vals = np.array(mags) * np.array(signs)
        if kind == "degenerate":  # shuffle the ones among the small entries
            vals = vals[draw(st.permutations(range(len(idx))))] if idx else vals
        runs.append(SparseVector(dim, np.array(idx, dtype=np.int64), vals))
    return runs, m, None if levels is None else np.array(levels)


def assert_storage_view(split, v):
    """The split marks v's stored entries: one flag and one probability each."""
    assert split.indices.tolist() == v.indices.tolist()
    assert split.exact.dtype == bool and split.exact.shape == (v.nnz,)
    assert split.probs.dtype == np.float64 and split.probs.shape == (v.nnz,)
    assert not split.probs[split.exact].any()
    assert np.count_nonzero(split.exact) == split.q
    assert split.indices[split.exact].tolist() == split.exact_indices.tolist()
    assert split.probs[~split.exact].tobytes() == split.residual_probs.tobytes()


def stacked_draw_case():
    """Three runs of about 1 500 entries at m = 1024, the shape of one
    step of the solve_large_m benchmark, with their streams."""
    runs = [tied_vector(1500, 1500 + k) for k in range(3)]
    return stack(runs), [spawn_stream(RandomStream(17), k) for k in range(3)]


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
        assert_storage_view(split, v)
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


class TestReferenceSplit:
    """preservation_split equals the stable-argsort split bit for bit."""

    @staticmethod
    def assert_matches_reference(v, m):
        split = preservation_split(v, m)
        exact, probs = stable_argsort_split(v, m)
        assert split.exact.nonzero()[0].tolist() == exact.nonzero()[0].tolist()
        assert (~split.exact).nonzero()[0].tolist() == (~exact).nonzero()[0].tolist()
        assert split.residual_probs.tobytes() == probs[~exact].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(vectors_and_m())
    def test_drawn_vectors(self, case):
        self.assert_matches_reference(*case)

    @pytest.mark.parametrize("n, m", [(3000, 1024), (250_000, 2**16)])
    def test_tied_vectors(self, n, m):
        self.assert_matches_reference(tied_vector(n, n), m)


class TestSparsify:
    def test_large_draw_is_pinned(self):
        # SHA-256 of the little-endian int64 indices, then the float64 values
        out = sparsify(tied_vector(250_000, 16), 2**16, RandomStream(16))
        raw = out.indices.astype("<i8").tobytes() + out.values.astype("<f8").tobytes()
        assert out.nnz == 2**16
        assert hashlib.sha256(raw).hexdigest() == (
            "953eabb67af087538d667f4160dca3829c3b632d6ddbd121a26925df93af41c9"
        )

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

    @pytest.mark.parametrize("v,m", [
        # ties
        (sparse_from(8, [(0, 3.0), (1, -3.0), (2, 7.0), (3, 3.0), (4, -7.0), (5, 3.0),
                         (7, 3.0)]), 4),
        # subnormal magnitudes beside normal ones: subnormal probabilities at
        # m = 2, normal ones on a subnormal residual at m = 4; then all subnormal
        (sparse_from(6, [(0, 1.0), (1, 5 * 2.0**-1060), (2, 0.6), (3, -3 * 2.0**-1060),
                         (4, 0.25), (5, 2.0**-1060)]), 2),
        (sparse_from(6, [(0, 1.0), (1, 5 * 2.0**-1060), (2, 0.6), (3, -3 * 2.0**-1060),
                         (4, 0.25), (5, 2.0**-1060)]), 4),
        (sparse_from(6, [(i, (2 * i + 3) * 2.0**-1074) for i in range(6)]), 4),
        # 1e+-300 magnitudes next to mixed signs
        (sparse_from(5, [(0, 1e300), (1, -3e300), (2, 2e300), (3, 5e299), (4, -1e300)]), 2),
        (sparse_from(5, [(0, 1e-300), (1, -3e-300), (2, 2e-300), (3, 5e-301), (4, -1e-300)]), 2),
        (sparse_from(5, [(0, 1e300), (1, 1e-300), (2, -2e300), (3, 3e-300), (4, 5e299)]), 2),
    ])
    def test_unbiased_on_special_cases(self, v, m):
        # fixed examples of vectors_and_m's tie, subnormal and 1e+-300 families
        # with fixed streams, so the check is deterministic
        split = preservation_split(v, m)
        p = split.residual_probs
        draws = 20_000
        freq = pivotal_sample_batch(split.residual_vector(), RandomStream(7), draws).mean(axis=0)
        assert np.all(np.abs(freq - p) <= 5 * np.sqrt(p * (1 - p) / draws))
        # one stacked call draws every copy of v on its own stream
        copies = 2000
        stacked = SparseVector(
            copies * v.dim,
            (np.arange(copies)[:, None] * v.dim + v.indices).ravel(),
            np.tile(v.values, copies),
        )
        out = sparsify(stacked, m, [RandomStream(10_000 + k) for k in range(copies)])
        dense = np.zeros(copies * v.dim)
        dense[out.indices] = out.values
        x = v.to_dense()
        # mean of the per-draw errors: exact entries contribute exact zeros
        err = [math.fsum(col) / copies for col in (dense.reshape(copies, v.dim) - x).T]
        # |v_i|^2 (1 - p_i) / p_i with p_i = (m - q) |v_i| / T(q), in a form
        # that neither overflows nor needs a p_i that underflowed to zero
        res = split.residual_indices
        a = np.abs(x[res])
        share = math.fsum(a.tolist()) / (m - split.q)
        se = np.zeros(v.dim)
        se[res] = np.sqrt(a) * np.sqrt(np.maximum(share - a, 0.0)) / math.sqrt(copies)
        tiny = np.finfo(float).smallest_subnormal  # one rounding of a kept entry
        assert np.all(np.abs(err) <= 5 * se + tiny)

    def test_support_is_subset(self, np_rng):
        v = sparse_from(8, [(i, float(np_rng.normal())) for i in range(8)])
        rng = RandomStream(1)
        for _ in range(200):
            out = sparsify(v, 3, rng)
            assert set(out.indices.tolist()) <= set(v.indices.tolist())

    @settings(max_examples=40, deadline=None)
    @given(vectors_and_m())
    @example((sparse_from(6, [(i, (2 * i + 3) * 2.0**-1074) for i in range(6)]), 4))
    def test_hard_contracts_per_draw(self, case):
        v, m = case
        rng = RandomStream(99)
        # each kept entry rounds once to the subnormal grid, so at tiny
        # scales the norm may drift by a few units of 2**-1074 and no more
        tiny = 2 * m * np.finfo(float).smallest_subnormal
        for _ in range(20):
            out = sparsify(v, m, rng)
            assert out.nnz <= m
            assert norms(out).one == pytest.approx(norms(v).one, rel=1e-12, abs=tiny)


class TestStackedRuns:
    """Stacked calls equal one lone call per run, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(stacked_runs())
    @example(([SparseVector(2, [0, 1], [1.0, 1e-20]), SparseVector(2, [0, 1], [-1e-20, 1.0])], 1, None))
    @example(([SparseVector(4, [0, 1, 2, 3], [10.0, 10.0, 10.0, math.ulp(0.0)]),
               SparseVector.empty(4)], 2, None))
    @example(([SparseVector(5, [0, 1, 2, 3, 4], [0.1, 1e-17, 0.1, -0.1, 1e-17]),
               SparseVector(5, [1, 2, 4], [0.1, -0.1, 0.1])], 3, np.array([3, 1])))
    # non-finite magnitudes: an inf left in a degenerate residual, and a NaN tail
    @example(([SparseVector(4, [0, 1, 2, 3], [math.inf, -math.inf, math.inf, 1.0]),
               SparseVector(4, [0, 1, 2, 3], [1.0, math.nan, 2.0, 3.0])], 2, None))
    def test_equal_lone_calls(self, case):
        runs, m, levels = case
        level = [m] * len(runs) if levels is None else levels.tolist()
        v = stack(runs)
        split = preservation_split(v, m, len(runs), levels)
        assert_storage_view(split, v)
        streams = [RandomStream(40 + k) for k in range(len(runs))]
        out = sparsify(v, m, streams, levels)
        lone_streams = [RandomStream(40 + k) for k in range(len(runs))]
        dim, start = runs[0].dim, 0
        for k, (run, lone_stream) in enumerate(zip(runs, lone_streams)):
            lone = preservation_split(run, level[k])
            got = [
                (split.exact_indices, split.exact.nonzero()[0]),
                (split.residual_indices, (~split.exact).nonzero()[0]),
            ]
            want = [
                (lone.exact_indices, lone.exact.nonzero()[0]),
                (lone.residual_indices, (~lone.exact).nonzero()[0]),
            ]
            for (idx, pos), (lone_idx, lone_pos) in zip(got, want):
                mine = (idx >= k * dim) & (idx < (k + 1) * dim)
                assert (idx[mine] - k * dim).tolist() == lone_idx.tolist(), f"run {k}"
                assert (pos[mine] - start).tolist() == lone_pos.tolist(), f"run {k}"
            mine = (split.residual_indices >= k * dim) & (split.residual_indices < (k + 1) * dim)
            assert split.residual_probs[mine].tobytes() == lone.residual_probs.tobytes()
            drawn = sparsify(run, level[k], lone_stream)
            mine = (out.indices >= k * dim) & (out.indices < (k + 1) * dim)
            assert (out.indices[mine] - k * dim).tolist() == drawn.indices.tolist(), f"run {k}"
            assert out.values[mine].tobytes() == drawn.values.tobytes(), f"run {k}"
            start += run.nnz
        # each run read exactly its own uniforms
        assert [s.random() for s in streams] == [s.random() for s in lone_streams]

    def test_mixed_levels_are_checked_once(self, monkeypatch):
        # the split checks the levels and hands sparsify each draw target
        module = importlib.import_module("rsri.sparsify")
        check, calls = module._levels, []

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(module, "_levels", counted)
        v = stack([worked_vector(), worked_vector()])
        out = sparsify(v, 3, [RandomStream(1), RandomStream(2)], np.array([3, 2]))
        assert len(calls) == 1
        assert out.nnz == 5

    def test_stacked_draw_is_pinned(self):
        # SHA-256 of the little-endian int64 indices, then the float64 values
        v, streams = stacked_draw_case()
        out = sparsify(v, 1024, streams)
        raw = out.indices.astype("<i8").tobytes() + out.values.astype("<f8").tobytes()
        assert out.nnz == 3 * 1024
        assert hashlib.sha256(raw).hexdigest() == (
            "f65dd0169430e7659fa6f198ecfc088264d59378907d4b3434b6e0cc328eb781"
        )
        assert [s.random() for s in streams] == [
            0.7359219549666668, 0.5697839819365886, 0.725916365293979
        ]


class TestL2Bound:
    def test_worked_example(self):
        assert sparsify_l2_bound(worked_vector(), 2) == pytest.approx(16.0)

    def test_rejects_bad_m(self):
        # the level is checked as preservation_split checks it
        with pytest.raises(ValueError, match="sparsity level m must be >= 1"):
            sparsify_l2_bound(worked_vector(), 0)
        with pytest.raises(TypeError, match="sparsity level m must be an integer"):
            sparsify_l2_bound(worked_vector(), 2.0)

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
