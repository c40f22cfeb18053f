import tracemalloc

import numpy as np
import pytest

from rsri import (
    CscMatrix,
    RandomStream,
    SparseVector,
    mc_surfer,
    push_cd,
    reference_solve,
)

from conftest import fit_loglog_slope, sparse_from, three_cycle_problem


def self_loop():
    P = CscMatrix.from_dense(np.array([[1.0]]))
    s = SparseVector.basis(1, 0)
    return P, s


class TestMcSurfer:
    def test_vanishing_alpha_concentrates_on_start(self):
        prob = three_cycle_problem()
        est = mc_surfer(prob.P, prob.s, 1e-12, 200, RandomStream(0))
        np.testing.assert_array_equal(est.to_dense(), [1.0, 0.0, 0.0])

    def test_single_node_self_loop(self):
        P, s = self_loop()
        est = mc_surfer(P, s, 0.85, 50, RandomStream(1))
        np.testing.assert_array_equal(est.to_dense(), [1.0])

    def test_cycle_mse_bound(self):
        # uniform teleport on the 3-cycle: the stationary vector is uniform
        # by symmetry, an oracle independent of any solver
        prob = three_cycle_problem()
        s = sparse_from(3, [(i, 1.0 / 3.0) for i in range(3)])
        x = np.full(3, 1.0 / 3.0)
        m, trials = 2000, 200
        rng = RandomStream(5)
        sq = [
            float(np.sum((mc_surfer(prob.P, s, 0.85, m, rng).to_dense() - x) ** 2))
            for _ in range(trials)
        ]
        assert np.mean(sq) <= 1.05 / m

    def test_unbiased(self):
        prob = three_cycle_problem()
        x = reference_solve(prob.A, prob.b)
        m, trials = 500, 400
        rng = RandomStream(6)
        samples = np.stack(
            [mc_surfer(prob.P, prob.s, 0.85, m, rng).to_dense() for _ in range(trials)]
        )
        mean = samples.mean(axis=0)
        sigma = samples.std(axis=0, ddof=1) / np.sqrt(trials)
        assert np.all(np.abs(mean - x) <= 4 * sigma + 1e-12)

    def test_variance_identity(self):
        prob = three_cycle_problem()
        x = reference_solve(prob.A, prob.b)
        m, trials = 400, 600
        rng = RandomStream(7)
        samples = np.stack(
            [mc_surfer(prob.P, prob.s, 0.85, m, rng).to_dense() for _ in range(trials)]
        )
        var_hat = samples.var(axis=0, ddof=1)
        mu2 = x * (1 - x) / m
        # exact binomial moments give the sampling noise of a variance estimate
        mu4 = (3 * (m * x * (1 - x)) ** 2 + m * x * (1 - x) * (1 - 6 * x * (1 - x))) / m**4
        var_of_var = mu4 / trials - mu2**2 * (trials - 3) / (trials * (trials - 1))
        assert np.all(np.abs(var_hat - mu2) <= 4 * np.sqrt(var_of_var))

    def test_rejects_nonstochastic_column(self):
        P = CscMatrix.from_dense(np.array([[0.9, 0.0], [0.0, 1.0]]))
        s = SparseVector.basis(2, 0)
        with pytest.raises(ValueError, match="not stochastic"):
            mc_surfer(P, s, 0.85, 100, RandomStream(0))

    def test_hub_column_moves_as_per_column_search(self):
        # a hub of out-degree 2000 is touched together with ~2000 leaves in
        # one step: each move must be the per-column searchsorted pick, with
        # the uniforms handed out by ascending state, and memory must stay
        # proportional to the entries read, not to hub degree x columns
        n = 2000
        P = CscMatrix(
            n + 1,
            np.concatenate([[0, n], n + np.arange(1, n + 1)]),
            np.concatenate([np.arange(1, n + 1), np.zeros(n, dtype=np.int64)]),
            np.concatenate([np.full(n, 1.0 / n), np.ones(n)]),
        )
        s = SparseVector(n + 1, np.arange(n + 1), np.full(n + 1, 1.0 / (n + 1)))
        walks, alpha = 6000, 0.85

        def per_column_search(rng):
            start = np.cumsum(s.values)
            pos = np.searchsorted(start, rng.random(walks) * start[-1], side="right")
            states = s.indices[np.minimum(pos, s.nnz - 1)]
            final, alive = np.empty(walks, dtype=np.int64), np.arange(walks)
            while alive.size:
                move = rng.random(alive.size) < alpha
                final[alive[~move]] = states[alive[~move]]
                alive = alive[move]
                current = states[alive].copy()
                for j in np.unique(current):
                    col = P.column(int(j))
                    cdf = np.cumsum(col.values)
                    mask = current == j
                    picks = np.searchsorted(cdf, rng.random(int(mask.sum())) * cdf[-1], side="right")
                    states[alive[mask]] = col.indices[np.minimum(picks, col.nnz - 1)]
            return np.bincount(final, minlength=n + 1) / walks

        tracemalloc.start()
        try:
            got = mc_surfer(P, s, alpha, walks, RandomStream(3)).to_dense()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got, per_column_search(RandomStream(3)))
        assert peak < 8 * 2**20, peak

    def test_input_validation(self):
        P, s = self_loop()
        with pytest.raises(ValueError):
            mc_surfer(P, s, 0.0, 10, RandomStream(0))
        with pytest.raises(ValueError):
            mc_surfer(P, s, 0.85, 0, RandomStream(0))
        bad_s = sparse_from(1, [(0, 0.5)])
        with pytest.raises(ValueError):
            mc_surfer(P, bad_s, 0.85, 10, RandomStream(0))

    def test_walk_cap_guards_against_immortal_walkers(self):
        from rsri import WalkCapError

        class ZeroStream:
            kind = "zeros"

            def random(self, size=None):
                return np.zeros(size) if size is not None else 0.0

        P, s = self_loop()
        with pytest.raises(WalkCapError):
            mc_surfer(P, s, 0.5, 1, ZeroStream())


class TestPushCd:
    def test_zero_steps(self):
        prob = three_cycle_problem()
        x_hat, trace = push_cd(prob.P, prob.s, 0.85, 0)
        np.testing.assert_array_equal(x_hat, np.zeros(3))
        assert trace.steps.tolist() == [0]
        assert trace.residual_inf[0] == pytest.approx(0.15)

    def test_self_loop_geometric_series(self):
        P, s = self_loop()
        alpha = 0.85
        for k in (1, 3, 10):
            x_hat, trace = push_cd(P, s, alpha, k)
            expect_x = (1 - alpha) * sum(alpha**j for j in range(k))
            assert x_hat[0] == pytest.approx(expect_x, rel=1e-12)
            assert trace.residual_inf[-1] == pytest.approx((1 - alpha) * alpha**k, rel=1e-12)

    def test_monotone_and_conserving(self):
        from rsri import densify

        prob = three_cycle_problem()
        alpha = 0.85
        P_dense = densify(prob.P)
        prev = np.zeros(3)
        for steps in (0, 1, 2, 5, 20, 100):
            x_hat, trace = push_cd(prob.P, prob.s, alpha, steps)
            assert np.all(x_hat >= prev - 1e-15)  # entrywise nondecreasing in steps
            prev = x_hat
            assert np.all(trace.residual_inf >= -1e-12)
            r = prob.b.to_dense() - x_hat + alpha * (P_dense @ x_hat)
            mass = np.abs(x_hat).sum() + np.abs(r).sum() / (1 - alpha)
            assert mass == pytest.approx(1.0, rel=1e-10)

    def test_trace_error_column(self):
        prob = three_cycle_problem()
        x = reference_solve(prob.A, prob.b)
        _, trace = push_cd(prob.P, prob.s, 0.85, 10, oracle_x=x)
        assert trace.error_2 is not None
        assert trace.error_2[0] == pytest.approx(float(np.linalg.norm(x)))
        assert np.all(np.diff(trace.error_2) <= 1e-15)  # error shrinks as mass lands

    def test_cycle_residual_decays_geometrically(self):
        prob = three_cycle_problem()
        _, trace = push_cd(prob.P, prob.s, 0.85, 2000)
        tail = slice(100, None)
        slope = fit_loglog_slope(trace.steps[tail] + 1, trace.residual_inf[tail])
        assert slope <= -1.0

    def test_steps_validation(self):
        prob = three_cycle_problem()
        with pytest.raises(ValueError):
            push_cd(prob.P, prob.s, 0.85, -1)

    def test_rejects_nonstochastic_column(self):
        P = CscMatrix.from_dense(np.array([[0.9, 0.0], [0.0, 1.0]]))
        s = SparseVector.basis(2, 0)
        with pytest.raises(ValueError, match="not stochastic"):
            push_cd(P, s, 0.85, 10)
