import gc
import hashlib
import math
import warnings

import numpy as np
import pytest

from rsri import (
    CscMatrix,
    DenseColumnMatrix,
    FunctionColumnMatrix,
    NonConvergenceError,
    RandomStream,
    RsriConfig,
    SparseVector,
    apply,
    build_problem,
    densify,
    dot,
    expected_average,
    identity,
    matrix_norm1_of_g,
    reference_solve,
    richardson,
    rsri,
    rsri_functionals,
    spawn_stream,
    synth_bounded_outdegree,
)
from rsri import solvers
from rsri.operators import _ReadOnce
from rsri.solvers import _iterate_trials, _rsri_trials

from conftest import random_contraction_system, sparse_from, three_cycle_problem


def nilpotent_system():
    A = CscMatrix.from_dense(np.array([[1.0, -0.5], [0.0, 1.0]]))
    b = sparse_from(2, [(0, 1.0), (1, 1.0)])
    return A, b


def averaged_richardson_oracle(G_dense, b_dense, t, t_min):
    """Independent oracle: dense iteration and averaging with numpy only."""
    x = b_dense.copy()
    iterates = [x.copy()]
    for _ in range(t - 1):
        x = G_dense @ x + b_dense
        iterates.append(x.copy())
    return np.mean(iterates[t_min:t], axis=0)


class TestRichardson:
    def test_identity_fixed_point(self, np_rng):
        b = sparse_from(4, [(1, 2.0), (3, -1.0)])
        for t in (0, 1, 5):
            np.testing.assert_array_equal(richardson(identity(4), b, t), b.to_dense())

    def test_nilpotent_worked_example(self):
        A, b = nilpotent_system()
        np.testing.assert_allclose(richardson(A, b, 2), [1.5, 1.0], atol=0)
        np.testing.assert_allclose(richardson(A, b, 1), [1.5, 1.0], atol=0)

    def test_cycle_with_uniform_teleport(self):
        from rsri import assemble

        prob = three_cycle_problem()
        s = sparse_from(3, [(i, 1.0 / 3.0) for i in range(3)])
        A, b = assemble(prob.P, 0.85, s)
        x = richardson(A, b, 200)
        np.testing.assert_allclose(x, np.full(3, 1.0 / 3.0), atol=1e-12)

    def test_rejects_negative_t(self):
        A, b = nilpotent_system()
        with pytest.raises(ValueError):
            richardson(A, b, -1)

    @pytest.mark.parametrize("t", [2.5, True, "3"])
    def test_rejects_non_integer_t(self, t):
        A, b = nilpotent_system()
        with pytest.raises(TypeError, match="t must be an integer"):
            richardson(A, b, t)

    def test_overflow_raises_without_warning(self):
        # ||G||_1 = 2: the iterates overflow long before step 2000
        A = CscMatrix.from_dense(np.eye(2) - np.array([[0.0, 2.0], [2.0, 0.0]]))
        b = sparse_from(2, [(0, 1.0), (1, 0.5)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError):
                richardson(A, b, 2000)


class TestReferenceSolve:
    def test_identity_immediate(self):
        b = sparse_from(3, [(0, 1.0)])
        np.testing.assert_array_equal(reference_solve(identity(3), b), b.to_dense())

    def test_geometric_iteration_bound(self):
        from rsri import apply

        prob = three_cycle_problem()
        tol = 1e-12
        x = reference_solve(prob.A, prob.b, tol=tol)
        assert np.abs(prob.b.to_dense() - apply(prob.A, x)).sum() <= tol
        b1 = float(np.abs(prob.b.values).sum())
        bound_t = math.ceil(math.log(tol / b1) / math.log(0.85))
        x_bound = richardson(prob.A, prob.b, bound_t)
        assert np.abs(prob.b.to_dense() - apply(prob.A, x_bound)).sum() <= tol

    def test_matches_dense_solve(self, np_rng):
        A, b, G, b_dense = random_contraction_system(np_rng, 12)
        x = reference_solve(A, b, tol=1e-13)
        oracle = np.linalg.solve(np.eye(12) - G, b_dense)
        np.testing.assert_allclose(x, oracle, atol=1e-11)

    def test_multi_block_solve_equals_csc_order_richardson(self, monkeypatch):
        from rsri import apply, build_problem, solvers, synth_bounded_outdegree

        prob = build_problem(synth_bounded_outdegree(70_000, 3, seed=13), 0.85, source=0)
        A, b = prob.A, prob.b
        assert A.dim > 2**16  # two row blocks
        # x <- x + (b - A x) with each product summed in CSC order
        ids = np.repeat(np.arange(A.dim), np.diff(A.indptr))
        b_dense = b.to_dense()
        x, steps = b_dense.copy(), 1
        while True:
            residual = b_dense - np.bincount(A.indices, weights=A.data * x[ids], minlength=A.dim)
            if float(np.abs(residual).sum()) <= 1e-12:
                break
            x, steps = x + residual, steps + 1
        calls = []

        def counting_apply(A, x):
            calls.append(1)
            return apply(A, x)

        monkeypatch.setattr(solvers, "apply", counting_apply)
        assert np.array_equal(reference_solve(A, b), x)
        assert len(calls) == steps

    def test_nonconvergence_reports_residual(self):
        # G is a permutation: 1-norm exactly 1, iterates oscillate forever
        A = CscMatrix.from_dense(np.eye(2) - np.array([[0.0, 1.0], [1.0, 0.0]]))
        b = sparse_from(2, [(0, 1.0)])
        with pytest.raises(NonConvergenceError) as err:
            reference_solve(A, b, tol=1e-12, max_iter=50)
        assert err.value.residual > 0.1

    def test_divergence_fails_fast(self, monkeypatch):
        from rsri import apply, solvers

        calls = []

        def counting_apply(A, x):
            calls.append(1)
            return apply(A, x)

        # ||G||_1 = 2: the residual doubles each step and overflows
        A = CscMatrix.from_dense(np.eye(2) - np.array([[0.0, 2.0], [2.0, 0.0]]))
        b = sparse_from(2, [(0, 1.0)])
        monkeypatch.setattr(solvers, "apply", counting_apply)
        with pytest.raises(NonConvergenceError) as err:
            reference_solve(A, b)
        assert not math.isfinite(err.value.residual)
        assert len(calls) < 5000


class TestRsri:
    def test_identity_returns_rhs_with_zero_variance(self):
        b = sparse_from(4, [(0, 0.3), (2, 0.7)])
        cfg = RsriConfig(m=1, t=20, t_min=5, seed=1, trials=1)
        rep = rsri(identity(4), b, cfg, RandomStream(1))
        np.testing.assert_allclose(rep.estimate.to_dense(), b.to_dense(), atol=0)
        assert rep.rng_kind == "pcg64"

    def test_degenerate_equivalence_with_richardson(self, np_rng):
        # m >= dim disables all randomness
        for trial in range(3):
            n = int(np_rng.integers(4, 20))
            A, b, G, b_dense = random_contraction_system(np_rng, n)
            cfg = RsriConfig(m=n, t=25, t_min=int(np_rng.integers(0, 10)), seed=7, trials=1)
            rep = rsri(A, b, cfg, RandomStream(7))
            oracle = averaged_richardson_oracle(G, b_dense, cfg.t, cfg.t_min)
            np.testing.assert_allclose(rep.estimate.to_dense(), oracle, atol=1e-12)

    def test_column_access_accounting(self):
        prob = three_cycle_problem()
        cfg = RsriConfig(m=2, t=50, t_min=10, seed=3, trials=1)
        counts = []
        rng = RandomStream(3)
        (accesses,) = _iterate_trials(
            prob.A, prob.b, cfg, [rng], cfg.m, lambda x: counts.append(x.nnz)
        )
        rep = rsri(prob.A, prob.b, cfg, RandomStream(3))
        assert rep.column_accesses == accesses
        assert rep.column_accesses <= cfg.m * (cfg.t - 1)

    @pytest.mark.parametrize("backing", ["csc", "dense", "function"])
    def test_iterate_one_norms_stay_bounded(self, backing):
        # sparsify keeps the 1-norm, so ||X_s||_1 <= ||b||_1 + g ||X_{s-1}||_1 on every
        # draw; with G >= 0, b >= 0 and every column of G summing to g it is an
        # equality, so a norm gain beyond the 1e-12 slack fails
        _, b, G, _ = random_contraction_system(np.random.default_rng(31), 40)
        G *= 0.9 / G.sum(axis=0)
        A = CscMatrix.from_dense(np.eye(40) - G)
        A = {
            "csc": A,
            "dense": DenseColumnMatrix(np.eye(40) - G),
            "function": FunctionColumnMatrix(40, A.column),
        }[backing]
        g = matrix_norm1_of_g(A)
        cfg = RsriConfig(m=5, t=300, t_min=0, seed=12, trials=1)
        norms_seen = []
        _iterate_trials(
            A, b, cfg, [RandomStream(12)], cfg.m,
            lambda x: norms_seen.append(float(np.abs(x.values).sum())),
        )
        s = np.arange(cfg.t)
        bound = float(np.abs(b.values).sum()) * (1.0 - g ** (s + 1)) / (1.0 - g)
        assert np.all(np.array(norms_seen) <= bound * (1.0 + 1e-12))

    def test_same_seed_determinism(self):
        prob = three_cycle_problem()
        cfg = RsriConfig(m=2, t=100, t_min=50, seed=5, trials=1)
        a = rsri(prob.A, prob.b, cfg, RandomStream(5))
        b = rsri(prob.A, prob.b, cfg, RandomStream(5))
        np.testing.assert_array_equal(a.estimate.indices, b.estimate.indices)
        np.testing.assert_array_equal(a.estimate.values, b.estimate.values)
        assert a.column_accesses == b.column_accesses

    def test_generic_column_backing_matches_csc(self):
        # implicit generators take the per-column path in the update; the
        # arithmetic must match the compressed gather bit for bit
        from rsri import FunctionColumnMatrix

        prob = three_cycle_problem()
        generic = FunctionColumnMatrix(3, prob.A.column)
        cfg = RsriConfig(m=2, t=80, t_min=40, seed=6, trials=1)
        a = rsri(prob.A, prob.b, cfg, RandomStream(6))
        b = rsri(generic, prob.b, cfg, RandomStream(6))
        np.testing.assert_array_equal(a.estimate.indices, b.estimate.indices)
        np.testing.assert_array_equal(a.estimate.values, b.estimate.values)

    LONE_RUNS = {  # m: (column accesses, SHA-256 of the estimate)
        1: (999, "6399fc9288a21ea019d0d10d19f99c00dfe97bad91c4743d11883a627e506e40"),
        8: (7980, "64174ecd0ee803399ca2d37440a5a63f09c1df648c251043f7bc2eeebc86b34e"),
        64: (63656, "834879737a2d81dcef19b3ba71ecd3b5fb3d4a724c497dd36c64377451d0ec9c"),
        1024: (1014062, "f7d5643a99993f28951f2069792762def94fcc677cc043e90dadff7f851bb52f"),
    }

    @pytest.mark.parametrize("m", sorted(LONE_RUNS))
    def test_lone_run_draws_are_pinned(self, m):
        # SHA-256 of the estimate's little-endian int64 indices, then its
        # float64 values: every draw of a lone run on the acceptance sweep's
        # graph, so a change to the sampler, the split or the update shows
        from rsri import build_problem, synth_bounded_outdegree

        prob = build_problem(synth_bounded_outdegree(3000, 3, seed=88), 0.85, source=0)
        rep = rsri(prob.A, prob.b, RsriConfig(m=m, t=1000, t_min=500), RandomStream(5))
        est = rep.estimate
        raw = est.indices.astype("<i8").tobytes() + est.values.astype("<f8").tobytes()
        assert (rep.column_accesses, hashlib.sha256(raw).hexdigest()) == self.LONE_RUNS[m]

    def test_sparse_accumulator_matches_dense(self, monkeypatch):
        from rsri import build_problem, solvers, synth_bounded_outdegree

        prob = build_problem(synth_bounded_outdegree(300, 3, seed=4), 0.85, source=0)
        cfg = RsriConfig(m=8, t=300, t_min=100, seed=9, trials=1)
        dense_rep = rsri(prob.A, prob.b, cfg, RandomStream(9))
        master = RandomStream(9)
        dense_rows = [rsri(prob.A, prob.b, cfg, spawn_stream(master, k)).estimate.to_dense()
                      for k in range(3)]

        folded = []  # iterates absorbed per fold
        fold = solvers._Accumulator._fold

        def counting_fold(acc):
            folded.append(len(acc.parts) - 1)
            fold(acc)

        monkeypatch.setattr(solvers, "DENSE_ACCUMULATOR_LIMIT", 0)
        monkeypatch.setattr(solvers._Accumulator, "_fold", counting_fold)
        sparse_rep = rsri(prob.A, prob.b, cfg, RandomStream(9))
        assert sum(1 for k in folded if k > 1) >= 2
        assert sum(folded) == cfg.t - cfg.t_min
        np.testing.assert_array_equal(dense_rep.estimate.indices, sparse_rep.estimate.indices)
        assert sparse_rep.estimate.values.tobytes() == dense_rep.estimate.values.tobytes()

        # the lockstep runs sum sparsely above the limit too, one row per stream
        folded.clear()
        master = RandomStream(9)
        average, _ = solvers._rsri_trials(
            prob.A, prob.b, cfg, [spawn_stream(master, k) for k in range(3)], cfg.m
        )
        assert sum(folded) == cfg.t - cfg.t_min
        rows = average.rows(0, 3)
        for k in range(3):
            assert rows[k].tobytes() == dense_rows[k].tobytes(), f"trial {k} differs"

    def test_pagerank_error_bound(self):
        # loose but fully evaluable bound: triple-norm transfer with the
        # 1/m variance form, valid for every m
        prob = three_cycle_problem()
        x = reference_solve(prob.A, prob.b)
        m, t, t_min, trials = 2, 2000, 1000, 10
        cfg = RsriConfig(m=m, t=t, t_min=t_min, seed=21, trials=trials)
        master = RandomStream(cfg.seed)
        total = 0.0
        for k in range(trials):
            rep = rsri(prob.A, prob.b, cfg, spawn_stream(master, k))
            total += float(np.sum((rep.estimate.to_dense() - x) ** 2))
        mse = total / trials
        alpha = 0.85
        b1 = float(np.abs(prob.b.values).sum())
        bias_sq = (2.0 * alpha**t_min * float(np.abs(x).sum()) / (t - t_min)) ** 2
        var = (8.0 * t / (t - t_min) ** 2) * (1.0 / m) * (b1 / (1.0 - alpha)) ** 2
        bound = (bias_sq + var) / (1.0 - alpha) ** 2
        assert mse <= bound

    def test_pagerank_tail_sensitive_bound_when_m_large_enough(self):
        # the tail-sensitive PageRank bound needs m >= 1/(1 - alpha^2), which
        # the 3-cycle cannot satisfy nontrivially; evaluate it on a graph
        # large enough that m = 8 is still a real compression
        from rsri import build_problem, synth_bounded_outdegree, tail_sums

        alpha = 0.85
        edges = synth_bounded_outdegree(100, 3, seed=17)
        prob = build_problem(edges, alpha, source=0)
        x = reference_solve(prob.A, prob.b)
        m, t, t_min, trials = 8, 1000, 500, 10
        m_alpha = 1.0 / (1.0 - alpha**2)
        assert m >= m_alpha
        cfg = RsriConfig(m=m, t=t, t_min=t_min, seed=29, trials=trials)
        master = RandomStream(cfg.seed)
        total = 0.0
        for k in range(trials):
            rep = rsri(prob.A, prob.b, cfg, spawn_stream(master, k))
            total += float(np.sum((rep.estimate.to_dense() - x) ** 2))
        mse = total / trials

        tails = tail_sums(SparseVector.from_dense(x))
        budget = m - m_alpha
        variance = min(
            tails[i] ** 2 / (budget - i)
            for i in range(int(math.floor(budget)) + 1)
            if budget - i > 0
        )
        rhs = (4 * alpha**t_min / ((1 - alpha) * t)) ** 2 + 16.0 / (
            (1 - alpha) ** 2 * t
        ) * variance
        assert mse <= rhs

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RsriConfig(m=0, t=10, t_min=0)
        with pytest.raises(ValueError):
            RsriConfig(m=1, t=10, t_min=10)
        with pytest.raises(ValueError):
            RsriConfig(m=1, t=0, t_min=0)
        with pytest.raises(ValueError):
            RsriConfig(m=1, t=10, t_min=2, trials=0)
        for name, bad in [("m", 2.5), ("t", 10.5), ("t_min", 2.0), ("seed", 1.5),
                          ("trials", 3.0), ("m", True), ("trials", np.True_), ("m", "4")]:
            with pytest.raises(TypeError, match=f"^{name} must be an integer"):
                RsriConfig(**{**dict(m=1, t=10, t_min=2), name: bad})
        cfg = RsriConfig(m=np.int64(4), t=np.int32(10), t_min=np.int64(2), seed=np.uint64(7),
                         trials=np.int16(3))
        assert (cfg.m, cfg.t, cfg.t_min, cfg.seed, cfg.trials) == (4, 10, 2, 7, 3)


def implicit_prefix_system(dim, prefix=64, offsets=(1, 2, 5, 11), alpha=0.85):
    """A = I - alpha P on a prefix, P(:, j) uniform over (j + d) mod prefix,
    and e_j beyond it; b = (1 - alpha) e_0.  The generator builds and
    validates each column on every call, as an implicit operator would."""
    offsets = np.asarray(offsets, dtype=np.int64)
    weight = -alpha / offsets.size

    def column(j):
        if j >= prefix:
            return SparseVector.basis(dim, j)
        idx = np.concatenate([[j], (j + offsets) % prefix])
        val = np.concatenate([[1.0], np.full(offsets.size, weight)])
        order = np.argsort(idx)
        return SparseVector(dim, idx[order], val[order])

    return FunctionColumnMatrix(dim, column), SparseVector.basis(dim, 0, 1.0 - alpha)


class TestHugeDimensions:
    def test_lone_rsri_at_the_largest_int64_dimension(self):
        alpha, prefix = 0.85, 64
        A, b = implicit_prefix_system(2**63 - 1, prefix, alpha=alpha)
        cfg = RsriConfig(m=8, t=60, t_min=30, seed=17, trials=1)
        rep = rsri(A, b, cfg, RandomStream(17))
        assert rep.estimate.dim == 2**63 - 1
        assert rep.estimate.indices[-1] < prefix
        # P is stochastic on the prefix and the sparsifier keeps the 1-norm,
        # so iterate s holds mass 1 - alpha^(s + 1) exactly
        s = np.arange(cfg.t_min, cfg.t)
        mass = 1.0 - float(np.mean(alpha ** (s + 1)))
        assert abs(float(rep.estimate.values.sum()) - mass) <= 1e-9
        assert rep.column_accesses <= cfg.m * (cfg.t - 1)
        again = rsri(A, b, cfg, RandomStream(17))
        assert again.estimate.indices.tobytes() == rep.estimate.indices.tobytes()
        assert again.estimate.values.tobytes() == rep.estimate.values.tobytes()
        assert again.column_accesses == rep.column_accesses

    def test_stacked_keys_that_overflow_int64_raise(self):
        cfg = RsriConfig(m=8, t=30, t_min=15, seed=1, trials=3)
        master = RandomStream(cfg.seed)
        streams = [spawn_stream(master, k) for k in range(3)]
        A, b = implicit_prefix_system(2**62)
        with pytest.raises(ValueError, match=f"3 runs at dimension {2**62}"):
            _rsri_trials(A, b, cfg, streams, cfg.m)
        # 3 * 2**61 keys fit, and each run is the lone run on its stream
        A, b = implicit_prefix_system(2**61)
        average, accesses = _rsri_trials(A, b, cfg, streams, cfg.m)
        stacked = average.vector()
        for k in range(3):
            lone = rsri(A, b, cfg, spawn_stream(master, k))
            run = (stacked.indices >= k * 2**61) & (stacked.indices < (k + 1) * 2**61)
            assert np.array_equal(stacked.indices[run] - k * 2**61, lone.estimate.indices)
            assert stacked.values[run].tobytes() == lone.estimate.values.tobytes()
            assert accesses[k] == lone.column_accesses


class TestDivergenceGuard:
    @staticmethod
    def growing_system():
        # ||G||_1 = 2 with G = [[0, 2], [2, 0]]: the iterate norm doubles each step
        A = CscMatrix.from_dense(np.eye(2) - np.array([[0.0, 2.0], [2.0, 0.0]]))
        return A, sparse_from(2, [(0, 1.0)])

    def test_rsri_raises_at_first_non_finite_iterate(self):
        A, b = self.growing_system()
        with pytest.raises(NonConvergenceError, match="diverged") as err:
            rsri(A, b, RsriConfig(m=1, t=3000, t_min=1500), RandomStream(0))
        assert not math.isfinite(err.value.residual)
        # 2^1024 overflows: the iterate of step 1023 is the first non-finite one
        assert "step 1023" in str(err.value)

    def test_sparsified_growth_raises_before_any_warning(self):
        # G = 2 x (8-cycle): the iterates outgrow m = 4, so steps sparsify
        # while the norm doubles; the guard must stop before |v|_(k) (m - k)
        # overflows inside the split, which a finite 1-norm alone allows
        G = 2.0 * np.roll(np.eye(8), 1, axis=0)
        A = CscMatrix.from_dense(np.eye(8) - G)
        b = sparse_from(8, [(0, 1.0), (1, 0.5)])
        for seed in range(5):
            with pytest.raises(NonConvergenceError, match="diverged"):
                rsri(A, b, RsriConfig(m=4, t=3000, t_min=0), RandomStream(seed))

    def test_functionals_share_the_guard(self):
        A, b = self.growing_system()
        with pytest.raises(NonConvergenceError):
            rsri_functionals(A, b, RsriConfig(m=2, t=3000, t_min=0), RandomStream(0),
                             [np.ones(2)])


class TestFunctionals:
    def test_matches_stored_estimate_per_coordinate(self):
        prob = three_cycle_problem()
        cfg = RsriConfig(m=2, t=120, t_min=40, seed=2, trials=1)
        rep = rsri(prob.A, prob.b, cfg, RandomStream(2))
        fs = [np.eye(3)[k] for k in range(3)]
        vals = rsri_functionals(prob.A, prob.b, cfg, RandomStream(2), fs)
        est = rep.estimate.to_dense()
        for k in range(3):
            assert vals[k] == pytest.approx(est[k], rel=1e-12, abs=1e-15)

    def test_ones_functional_matches_estimate_mass(self):
        prob = three_cycle_problem()
        cfg = RsriConfig(m=2, t=150, t_min=50, seed=8, trials=1)
        rep = rsri(prob.A, prob.b, cfg, RandomStream(8))
        (val,) = rsri_functionals(prob.A, prob.b, cfg, RandomStream(8), [np.ones(3)])
        assert val == pytest.approx(dot(np.ones(3), rep.estimate), rel=1e-12)

    def test_identity_system_is_exact(self, np_rng):
        b = sparse_from(5, [(0, 0.4), (3, 0.6)])
        cfg = RsriConfig(m=2, t=30, t_min=10, seed=4, trials=1)
        f = np_rng.random(5)
        (val,) = rsri_functionals(identity(5), b, cfg, RandomStream(4), [f])
        assert val == pytest.approx(dot(f, b), rel=1e-14)

    def test_dimension_check(self):
        prob = three_cycle_problem()
        cfg = RsriConfig(m=2, t=10, t_min=5)
        with pytest.raises(ValueError):
            rsri_functionals(prob.A, prob.b, cfg, RandomStream(0), [np.ones(2)])


class TestExpectedAverage:
    def test_identity(self):
        b = sparse_from(3, [(1, 2.0)])
        np.testing.assert_array_equal(expected_average(identity(3), b, 10, 3), b.to_dense())

    def test_nilpotent_hits_solution_exactly(self):
        A, b = nilpotent_system()
        np.testing.assert_allclose(expected_average(A, b, 10, 1), [1.5, 1.0], atol=1e-15)

    def test_needs_no_contraction(self):
        # ||G||_1 = 2: no reference solve converges, yet the mean iterate at
        # step s is still the Richardson iterate s
        A = CscMatrix.from_dense(np.eye(2) - np.array([[0.0, 2.0], [2.0, 0.0]]))
        b = sparse_from(2, [(0, 1.0), (1, 0.5)])
        want = np.mean([richardson(A, b, s) for s in range(2, 6)], axis=0)
        got = expected_average(A, b, 6, 2)
        assert got.tolist() == want.tolist() == [21.0, 22.5]

    def test_overflowing_iterates_raise(self):
        A = CscMatrix.from_dense(np.eye(2) - np.array([[0.0, 2.0], [2.0, 0.0]]))
        b = sparse_from(2, [(0, 1.0), (1, 0.5)])
        with pytest.raises(NonConvergenceError, match="overflowed by step 1999"):
            expected_average(A, b, 2000, 1000)

    @pytest.mark.parametrize("t, t_min", [(2.5, 1), (True, 0), (10, 1.0), (10, False)])
    def test_rejects_non_integer_steps(self, t, t_min):
        A, b = nilpotent_system()
        with pytest.raises(TypeError, match="must be an integer"):
            expected_average(A, b, t, t_min)

    def test_takes_no_tolerance(self):
        A, b = nilpotent_system()
        with pytest.raises(TypeError):
            expected_average(A, b, 10, 1, tol=1e-6)

    def test_matches_dense_formula(self, np_rng):
        A, b, G, b_dense = random_contraction_system(np_rng, 10)
        t, t_min = 12, 4
        x = np.linalg.solve(np.eye(10) - G, b_dense)
        terms = [x - np.linalg.matrix_power(G, s + 1) @ x for s in range(t_min, t)]
        oracle = np.mean(terms, axis=0)
        np.testing.assert_allclose(expected_average(A, b, t, t_min), oracle, atol=1e-10)

    def test_monte_carlo_agreement(self):
        prob = three_cycle_problem()
        t, t_min, m, trials = 10, 5, 2, 4000
        cfg = RsriConfig(m=m, t=t, t_min=t_min, seed=31, trials=trials)
        master = RandomStream(cfg.seed)
        samples = np.zeros((trials, 3))
        for k in range(trials):
            rep = rsri(prob.A, prob.b, cfg, spawn_stream(master, k))
            samples[k] = rep.estimate.to_dense()
        mean = samples.mean(axis=0)
        sigma = samples.std(axis=0, ddof=1) / math.sqrt(trials)
        target = expected_average(prob.A, prob.b, t, t_min)
        assert np.all(np.abs(mean - target) <= 4 * sigma + 1e-12)

    def test_m1_matches_bias_oracle_too(self):
        # minimal sparsity is the pure Monte Carlo regime; the mean iterate
        # identity is sparsity-independent, which cross-checks the modules
        prob = three_cycle_problem()
        t, t_min, trials = 8, 2, 3000
        cfg = RsriConfig(m=1, t=t, t_min=t_min, seed=33, trials=trials)
        master = RandomStream(cfg.seed)
        samples = np.zeros((trials, 3))
        for k in range(trials):
            rep = rsri(prob.A, prob.b, cfg, spawn_stream(master, k))
            samples[k] = rep.estimate.to_dense()
        mean = samples.mean(axis=0)
        sigma = samples.std(axis=0, ddof=1) / math.sqrt(trials)
        target = expected_average(prob.A, prob.b, t, t_min)
        assert np.all(np.abs(mean - target) <= 4 * sigma + 1e-12)


class TestBackingsGiveSameBits:
    """A dense array is stored as its CSC matrix, and the implicit backing
    reads that matrix's columns, so every solver output has the same bits
    on all three backings."""

    @pytest.fixture(scope="class", params=["test_08", "signed"])
    def system(self, request):
        if request.param == "test_08":
            prob = build_problem(synth_bounded_outdegree(3000, 3, seed=88), 0.85, source=0)
            return prob.A, prob.b
        return random_contraction_system(np.random.default_rng(41), 60, nonnegative=False)[:2]

    def test_outputs_are_byte_identical(self, system):
        A, b = system
        v = np.random.default_rng(3).standard_normal(A.dim)
        v[::3] = 0.0
        cfg = RsriConfig(m=16, t=200, t_min=100, seed=6, trials=1)
        backings = {
            "csc": A,
            "dense": DenseColumnMatrix(densify(A)),
            "function": FunctionColumnMatrix(A.dim, A.column),
        }
        outputs = {
            name: {
                "apply": apply(B, v),
                "reference_solve": reference_solve(B, b),
                "expected_average": expected_average(B, b, 60, 20),
                "rsri": rsri(B, b, cfg, RandomStream(6)).estimate.to_dense(),
            }
            for name, B in backings.items()
        }
        differ = [
            f"{name} {what}"
            for name in ("dense", "function")
            for what, out in outputs[name].items()
            if out.tobytes() != outputs["csc"][what].tobytes()
        ]
        assert differ == []


def counted(A):
    """A's columns behind a FunctionColumnMatrix that logs each generator call."""
    calls = []

    def column(j):
        calls.append(j)
        return A.column(j)

    return FunctionColumnMatrix(A.dim, column), calls


class TestImplicitColumnsReadOnce:
    """rsri, its stacked trials and the Richardson loop keep an implicit
    A's columns for one call: each distinct column costs one generator
    call, and every output keeps its bits."""

    @staticmethod
    def without_store(monkeypatch):
        monkeypatch.setattr(solvers, "_read_once", lambda A: A)

    def test_lone_rsri(self, monkeypatch):
        A, b = implicit_prefix_system(2**40)
        A, calls = counted(A)
        cfg = RsriConfig(m=8, t=400, t_min=200, seed=3, trials=1)
        rep = rsri(A, b, cfg, RandomStream(3))
        assert len(calls) == len(set(calls)) < rep.column_accesses
        reads = set(calls)
        calls.clear()
        self.without_store(monkeypatch)
        plain = rsri(A, b, cfg, RandomStream(3))
        assert len(calls) == plain.column_accesses == rep.column_accesses
        assert set(calls) == reads
        assert plain.estimate.indices.tobytes() == rep.estimate.indices.tobytes()
        assert plain.estimate.values.tobytes() == rep.estimate.values.tobytes()

    def test_stacked_trials(self, monkeypatch):
        A, b = implicit_prefix_system(2**40)
        A, calls = counted(A)
        cfg = RsriConfig(m=8, t=300, t_min=100, seed=5, trials=3)
        master = RandomStream(cfg.seed)

        def run():
            calls.clear()
            streams = [spawn_stream(master, k) for k in range(3)]
            average, accesses = _rsri_trials(A, b, cfg, streams, cfg.m)
            return average.vector(), accesses, list(calls)

        kept, accesses, reads = run()
        self.without_store(monkeypatch)
        plain, plain_accesses, plain_reads = run()
        assert len(reads) == len(set(reads)) < accesses.sum()
        assert len(plain_reads) == plain_accesses.sum() == accesses.sum()
        assert set(reads) == set(plain_reads)
        assert kept.indices.tobytes() == plain.indices.tobytes()
        assert kept.values.tobytes() == plain.values.tobytes()

    def test_reference_solve_reads_each_reachable_column_once(self):
        prob = build_problem(synth_bounded_outdegree(3000, 3, seed=88), 0.85, source=0)
        A, calls = counted(prob.A)
        x = reference_solve(A, prob.b)
        # PageRank is positive exactly on the nodes reachable from the source
        assert sorted(calls) == np.flatnonzero(x).tolist()
        assert x.tobytes() == reference_solve(prob.A, prob.b).tobytes()

    def test_no_store_outlives_the_call(self):
        def stores():
            gc.collect()
            return sum(isinstance(obj, _ReadOnce) for obj in gc.get_objects())

        A, b = implicit_prefix_system(200)
        cfg = RsriConfig(m=8, t=60, t_min=30, seed=2, trials=1)
        before = stores()
        rsri(A, b, cfg, RandomStream(2))
        reference_solve(A, b)
        expected_average(A, b, 20, 10)
        assert set(vars(A)) == {"dim", "fn"}
        assert stores() == before

    def test_functionals_read_every_access(self):
        A, b = implicit_prefix_system(200)
        A, calls = counted(A)
        cfg = RsriConfig(m=8, t=200, t_min=100, seed=9, trials=1)
        rep = rsri(A, b, cfg, RandomStream(9))
        assert len(calls) < rep.column_accesses
        calls.clear()
        (mass,) = rsri_functionals(A, b, cfg, RandomStream(9), [np.ones(200)])
        assert len(calls) == rep.column_accesses
        assert mass == pytest.approx(float(rep.estimate.values.sum()), rel=1e-12)
