import tracemalloc

import numpy as np
import pytest

from rsri import (
    CscMatrix,
    RandomStream,
    SparseVector,
    build_problem,
    mc_surfer,
    push_cd,
    reference_solve,
    synth_bounded_outdegree,
)

from rsri.baselines import _surfer_runs

from conftest import fit_loglog_slope, sparse_from, three_cycle_problem


def self_loop():
    P = CscMatrix.from_dense(np.array([[1.0]]))
    s = SparseVector.basis(1, 0)
    return P, s


class ZeroStream:
    kind = "zeros"

    def random(self, size=None):
        return np.zeros(size) if size is not None else 0.0


class ScriptedStream:
    """Hands out the given uniforms in order."""

    kind = "script"

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out)


def hub_graph(n=2000):
    """A hub of out-degree n whose n leaves all point back at it, with a
    uniform start: one step touches the hub and every leaf at once."""
    P = CscMatrix(
        n + 1,
        np.concatenate([[0, n], n + np.arange(1, n + 1)]),
        np.concatenate([np.arange(1, n + 1), np.zeros(n, dtype=np.int64)]),
        np.concatenate([np.full(n, 1.0 / n), np.ones(n)]),
    )
    s = SparseVector(n + 1, np.arange(n + 1), np.full(n + 1, 1.0 / (n + 1)))
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
        s = SparseVector.basis(2, 0)
        for column in ([0.9, 0.0], [np.nan, 0.0]):  # NaN fails every comparison
            P = CscMatrix.from_dense(np.array([column, [0.0, 1.0]]).T)
            with pytest.raises(ValueError, match="not stochastic"):
                mc_surfer(P, s, 0.85, 100, RandomStream(0))

    def test_hub_column_moves_as_per_column_search(self):
        # a hub of out-degree 2000 is touched together with ~2000 leaves in
        # one step: each move must be the per-column searchsorted pick, with
        # the uniforms handed out by ascending state, and memory must stay
        # proportional to the entries read, not to hub degree x columns
        n = 2000
        P, s = hub_graph(n)
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
        for m in (2.5, True, "3"):
            with pytest.raises(TypeError, match="m must be an integer"):
                mc_surfer(P, s, 0.85, m, RandomStream(0))
        for bad_s in (sparse_from(1, [(0, 0.5)]), sparse_from(1, [(0, np.nan)])):
            with pytest.raises(ValueError):
                mc_surfer(P, bad_s, 0.85, 10, RandomStream(0))

    def test_walk_cap_guards_against_immortal_walkers(self):
        from rsri import WalkCapError

        P, s = self_loop()
        with pytest.raises(WalkCapError):
            mc_surfer(P, s, 0.5, 1, ZeroStream())



def assert_same_estimate(got, want):
    np.testing.assert_array_equal(got.indices, want.indices)
    assert got.values.tobytes() == want.values.tobytes()


class TestSurferRuns:
    def test_runs_equal_lone_runs(self):
        # every run starts from the source, so the runs share states from
        # the first step; streams 0 and 1 each drive two runs of
        # different lengths
        prob = build_problem(synth_bounded_outdegree(300, 3, seed=4), 0.85, source=0)
        walks = [1, 2, 500, 37, 1, 2000]
        seeds = [0, 1, 0, 2, 1, 3]
        streams = [RandomStream(k) for k in seeds]
        got = _surfer_runs(prob.P, prob.s, 0.85, walks, streams)
        assert len(got) == len(walks)
        for k, (m, seed) in enumerate(zip(walks, seeds)):
            lone_stream = RandomStream(seed)
            assert_same_estimate(got[k], mc_surfer(prob.P, prob.s, 0.85, m, lone_stream))
            # run k read exactly the uniforms of its lone run, no more
            assert streams[k].random() == lone_stream.random(), f"run {k}"

    def test_hub_column_beside_a_second_population(self):
        P, s = hub_graph()
        walks, alpha = [6000, 3000], 0.85
        tracemalloc.start()
        try:
            got = _surfer_runs(P, s, alpha, walks, [RandomStream(3), RandomStream(4)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for k, seed in enumerate((3, 4)):
            assert_same_estimate(got[k], mc_surfer(P, s, alpha, walks[k], RandomStream(seed)))
        assert peak < 8 * 2**20, peak

    def test_nonstochastic_column_touched_by_one_run(self):
        # node 0 moves to node 1 or 2; column 1 returns to 0, column 2 sums
        # to 0.9.  Each stream hands out a start, then a move and a pick per
        # step: run 0 goes 0 -> 1 -> 0 -> stop, run 1 goes 0 -> 2 and is
        # still moving when it stands on 2
        P = CscMatrix.from_dense(
            np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.9]])
        )
        s = SparseVector.basis(3, 0)
        good = ScriptedStream([0.5, 0.0, 0.0, 0.0, 0.5, 0.99])
        np.testing.assert_array_equal(
            _surfer_runs(P, s, 0.85, [1], [good])[0].to_dense(), [1.0, 0.0, 0.0]
        )
        with pytest.raises(ValueError, match="column 2 of P is not stochastic"):
            _surfer_runs(
                P, s, 0.85, [1, 1],
                [ScriptedStream([0.5, 0.0, 0.0, 0.0, 0.5, 0.99]),
                 ScriptedStream([0.5, 0.0, 0.99, 0.0, 0.5])],
            )

    def test_walk_cap_with_a_finite_run_beside(self):
        from rsri import WalkCapError

        P, s = self_loop()
        with pytest.raises(WalkCapError):
            _surfer_runs(P, s, 0.01, [3, 1], [RandomStream(0), ZeroStream()])

    def test_input_validation(self):
        P, s = self_loop()
        with pytest.raises(ValueError, match="m must be >= 1"):
            _surfer_runs(P, s, 0.85, [4, 0], [RandomStream(0), RandomStream(1)])
        with pytest.raises(ValueError, match="one walk count per stream"):
            _surfer_runs(P, s, 0.85, [4, 4], [RandomStream(0)])


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
        for steps in (2.5, True):
            with pytest.raises(TypeError, match="steps must be an integer"):
                push_cd(prob.P, prob.s, 0.85, steps)

    def test_rejects_nonstochastic_column(self):
        s = SparseVector.basis(2, 0)
        for column in ([0.9, 0.0], [np.nan, 0.0]):  # NaN fails every comparison
            P = CscMatrix.from_dense(np.array([column, [0.0, 1.0]]).T)
            with pytest.raises(ValueError, match="not stochastic"):
                push_cd(P, s, 0.85, 10)
