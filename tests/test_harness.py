import hashlib
import importlib
import math
import runpy
import shutil
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rsri import (
    CscMatrix,
    FunctionColumnMatrix,
    LinearProblem,
    NonConvergenceError,
    PreservationSplit,
    RandomStream,
    RsriConfig,
    SparseVector,
    build_problem,
    densify,
    estimate_rmse,
    expected_average,
    identity,
    matched_walk_count,
    mc_surfer,
    preservation_split,
    reference_solve,
    rsri,
    run_sweep,
    sparsify,
    spawn_stream,
    sweep_csv_text,
    synth_bounded_outdegree,
    tail_report,
    tail_sums,
)
from rsri.harness import CSV_HEADER, _mc_rmse_levels, _write_atomic
from rsri import harness, solvers
from rsri.solvers import _iterate_trials, _rsri_trials
from rsri.svgplot import svg_line_plot

from conftest import sparse_from, three_cycle_problem

HERE = Path(__file__).resolve().parent


class TestEstimateRmse:
    def test_identity_problem_is_exact(self):
        b = sparse_from(4, [(0, 0.25), (2, 0.75)])
        problem = LinearProblem(identity(4), b)
        cfg = RsriConfig(m=2, t=20, t_min=5, seed=0, trials=3)
        est = estimate_rmse(problem, cfg, b.to_dense())
        assert est.rmse == 0.0
        assert est.bias_norm == 0.0
        assert est.variance_est == 0.0

    def test_degenerate_m_reports_pure_averaging_error(self):
        prob = three_cycle_problem()
        x = reference_solve(prob.A, prob.b)
        cfg = RsriConfig(m=3, t=30, t_min=10, seed=0, trials=4)
        est = estimate_rmse(prob, cfg, x)
        # at m = dim every run is the Richardson average that expected_average
        # sums densely; the two sums agree to rounding
        expected = float(np.linalg.norm(expected_average(prob.A, prob.b, 30, 10) - x))
        assert est.variance_est == 0.0
        assert est.rmse == pytest.approx(expected, rel=1e-6)
        assert est.bias_norm == pytest.approx(expected, rel=1e-6)

    def test_rmse_decomposition_identity(self):
        prob = three_cycle_problem()
        x = reference_solve(prob.A, prob.b)
        cfg = RsriConfig(m=2, t=60, t_min=20, seed=5, trials=8)
        est = estimate_rmse(prob, cfg, x)
        # exact algebra: rmse^2 = bias^2 + (trials-1)/trials * variance_est
        lhs = est.rmse**2
        rhs = est.bias_norm**2 + (cfg.trials - 1) / cfg.trials * est.variance_est
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_requires_two_trials(self):
        prob = three_cycle_problem()
        with pytest.raises(ValueError):
            estimate_rmse(prob, RsriConfig(m=2, t=10, t_min=2, trials=1), np.zeros(3))

    @pytest.mark.parametrize("shape", [(1,), (), (1, 3), (4,)])
    def test_oracle_must_be_one_entry_per_node(self, shape):
        prob = three_cycle_problem()
        cfg = RsriConfig(m=2, t=10, t_min=2, trials=2)
        with pytest.raises(ValueError, match=r"oracle shape .* is not \(3,\)"):
            estimate_rmse(prob, cfg, np.zeros(shape))
        with pytest.raises(ValueError, match=r"oracle shape .* is not \(3,\)"):
            run_sweep(prob, cfg, [1, 2], np.zeros(shape), log=None)

    def test_bias_shrinks_with_burn_in(self):
        # m >= dim removes all randomness, so the trend is noise-free
        prob = three_cycle_problem()
        x = reference_solve(prob.A, prob.b)
        window = 10
        biases = []
        for t_min in (0, 5, 15):
            cfg = RsriConfig(m=3, t=t_min + window, t_min=t_min, seed=1, trials=2)
            biases.append(estimate_rmse(prob, cfg, x).bias_norm)
        assert biases[0] > biases[1] > biases[2]

    PINNED = {  # m: SHA-256 of the estimate's fields but its wall time
        8: "eb64e9782d19b97f72e6d70ccae29d0d51963b375b20f07a1b6c48de15a2852a",
        64: "5910856d330c000006ce05291e9fc922769da71108b8e3a90a7729c015e270f7",
        1024: "9b97070fa9d4273ae9b1b77ac43d85fd890707006f37e851d7c7021cea79bb1c",
    }

    @pytest.fixture(scope="class")
    def sweep_graph(self):
        prob = build_problem(synth_bounded_outdegree(3000, 3, seed=88), 0.85, source=0)
        return prob, reference_solve(prob.A, prob.b)

    @pytest.mark.parametrize("m", sorted(PINNED))
    def test_stacked_draws_are_pinned(self, sweep_graph, m):
        # little-endian float64 rmse, bias norm and variance, then the int64
        # column accesses, on the acceptance sweep's graph: every draw of the
        # stacked trials, so a change to the stacked split or sampler shows
        prob, oracle = sweep_graph
        est = estimate_rmse(prob, RsriConfig(m=m, t=300, t_min=150, seed=808, trials=3), oracle)
        raw = (np.array([est.rmse, est.bias_norm, est.variance_est], "<f8").tobytes()
               + np.array([est.column_accesses], "<i8").tobytes())
        assert hashlib.sha256(raw).hexdigest() == self.PINNED[m]


def single_runs(A, b, cfg):
    """(dense estimate, column accesses) of rsri on each trial's own stream."""
    master = RandomStream(cfg.seed)
    reports = [rsri(A, b, cfg, spawn_stream(master, k)) for k in range(cfg.trials)]
    return [(r.estimate.to_dense(), r.column_accesses) for r in reports]


def batch_runs(A, b, cfg):
    master = RandomStream(cfg.seed)
    average, accesses = _rsri_trials(
        A, b, cfg, [spawn_stream(master, k) for k in range(cfg.trials)], cfg.m
    )
    return average.rows(0, cfg.trials), accesses


def assert_batch_is_single_runs(A, b, cfg):
    rows, accesses = batch_runs(A, b, cfg)
    assert rows.shape == (cfg.trials, A.dim)
    for k, (estimate, count) in enumerate(single_runs(A, b, cfg)):
        assert rows[k].tobytes() == estimate.tobytes(), f"trial {k} differs"
        assert accesses[k] == count


def backed_problem(backing):
    prob = build_problem(synth_bounded_outdegree(200, 3, seed=4), 0.85, source=0)
    A = {
        "csc": prob.A,
        "dense": CscMatrix.from_dense(densify(prob.A)),
        "function": FunctionColumnMatrix(prob.A.dim, prob.A.column),
    }[backing]
    return A, prob.b


class TestLockstepTrials:
    @pytest.mark.parametrize("backing", ["csc", "dense", "function"])
    def test_rows_and_accesses_equal_single_runs(self, backing):
        A, b = backed_problem(backing)
        assert_batch_is_single_runs(A, b, RsriConfig(m=6, t=80, t_min=30, seed=3, trials=4))

    @pytest.mark.parametrize("backing", ["csc", "dense", "function"])
    def test_sparse_sum_equals_dense_single_runs(self, backing, monkeypatch):
        # with no dimension below the limit, the lockstep rows and each lone
        # run sum sparsely, each on its own fold schedule, yet all give the
        # bits of the dense sum
        A, b = backed_problem(backing)
        cfg = RsriConfig(m=6, t=80, t_min=30, seed=3, trials=4)
        dense = single_runs(A, b, cfg)
        monkeypatch.setattr(solvers, "DENSE_ACCUMULATOR_LIMIT", 0)
        for k, ((got, _), (want, _)) in enumerate(zip(single_runs(A, b, cfg), dense)):
            assert got.tobytes() == want.tobytes(), f"trial {k} differs"
        assert_batch_is_single_runs(A, b, cfg)

    @pytest.mark.parametrize("backing", ["csc", "dense", "function"])
    def test_mixed_levels_equal_single_runs(self, backing):
        # runs at different levels in one loop, each equal to a lone rsri at
        # its own level; level 300 exceeds the dimension and never draws
        A, b = backed_problem(backing)
        cfg = RsriConfig(m=1, t=60, t_min=20, seed=3, trials=2)
        levels = [2, 2, 7, 7, 300, 300]
        master = RandomStream(cfg.seed)
        streams = [spawn_stream(master, k % 2) for k in range(len(levels))]
        average, accesses = _rsri_trials(A, b, cfg, streams, levels)
        rows = average.rows(0, len(levels))
        for k, m in enumerate(levels):
            lone = rsri(A, b, replace(cfg, m=m), spawn_stream(master, k % 2))
            assert rows[k].tobytes() == lone.estimate.to_dense().tobytes(), f"run {k} differs"
            assert accesses[k] == lone.column_accesses

    @pytest.mark.parametrize("m", [1, 16, 300])
    def test_burn_in_zero_and_extreme_m(self, m):
        prob = build_problem(synth_bounded_outdegree(200, 3, seed=5), 0.85, source=0)
        assert_batch_is_single_runs(prob.A, prob.b, RsriConfig(m=m, t=40, t_min=0, seed=8, trials=3))

    def test_step_mixing_pass_through_and_sparsified_trials(self):
        # on the 3-cycle a 2-entry iterate whose support is {0, 2} maps to
        # support {0, 1}, which passes through at m = 2; others sparsify
        prob = three_cycle_problem()
        cfg = RsriConfig(m=2, t=60, t_min=0, seed=2, trials=5)
        master = RandomStream(cfg.seed)
        sizes = []
        for k in range(cfg.trials):
            seen = []
            _iterate_trials(
                prob.A, prob.b, cfg, [spawn_stream(master, k)], cfg.m, lambda x: seen.append(x.nnz)
            )
            sizes.append(seen)
        over = np.array(sizes) > cfg.m  # per trial and step: does sparsify draw?
        assert np.any(over.any(axis=0) & ~over.all(axis=0)), "no step mixes both kinds"
        assert_batch_is_single_runs(prob.A, prob.b, cfg)

    def test_stacked_sparsify_matches_single_calls(self):
        # ties, a degenerate split (1e-20 is lost against 1 in T(0), so the
        # first entry is admitted into a full set), a pass-through, an empty
        # vector and a subnormal residual; then a level per vector, which
        # holds some vectors at or below their own m
        vectors = [
            sparse_from(6, [(0, 3.0), (1, -3.0), (2, 3.0), (4, 1.0), (5, 3.0)]),
            sparse_from(6, [(1, 1.0), (3, 1e-20)]),
            sparse_from(6, [(2, 0.5)]),
            SparseVector.empty(6),
            sparse_from(6, [(0, 1.0), (1, 5e-324), (2, 0.25), (3, 0.25), (5, 0.5)]),
            sparse_from(6, [(i, 1.0 + (i % 2)) for i in range(6)]),
        ]
        stacked = SparseVector(
            6 * len(vectors),
            np.concatenate([6 * k + v.indices for k, v in enumerate(vectors)]),
            np.concatenate([v.values for v in vectors]),
        )
        for m, levels in ((1, None), (2, None), (3, None), (6, [3, 1, 2, 6, 5, 6]),
                          (4, [2, 1, 1, 1, 3, 4]), (9, [4, 2, 9, 1, 2, 5])):
            split = preservation_split(stacked, m, len(vectors), levels)
            streams = [RandomStream(40 + k) for k in range(len(vectors))]
            out = sparsify(stacked, m, streams, levels)
            for k, v in enumerate(vectors):
                single = RandomStream(40 + k)
                m_k = m if levels is None else levels[k]
                want = sparsify(v, m_k, single)
                mine = out.indices // 6 == k
                np.testing.assert_array_equal(out.indices[mine] - 6 * k, want.indices)
                assert out.values[mine].tobytes() == want.values.tobytes()
                # both read the same number of uniforms
                assert streams[k].random() == single.random()
                alone = preservation_split(v, m_k)
                for field in ("exact_indices", "residual_indices"):
                    got = getattr(split, field)
                    np.testing.assert_array_equal(got[got // 6 == k] - 6 * k, getattr(alone, field))
                res = split.residual_indices // 6 == k
                assert split.residual_probs[res].tobytes() == alone.residual_probs.tobytes()

    def test_stack_within_its_levels_passes_through(self):
        # every vector holds at most its own m, though more than the smallest m
        stacked = sparse_from(6, [(0, 1.0), (1, 2.0), (3, 4.0)])
        streams = [RandomStream(1), RandomStream(2)]
        assert sparsify(stacked, 2, streams, levels=[2, 1]) is stacked
        assert streams[0].random() == RandomStream(1).random()
        assert sparsify(stacked, 2, streams, levels=[1, 1]) is not stacked

    def test_stacked_split_rejects_bad_levels(self):
        v = sparse_from(6, [(0, 1.0)])
        streams = [RandomStream(0), RandomStream(1)]
        with pytest.raises(ValueError, match="expected 2 integer sparsity levels"):
            preservation_split(v, 3, 2, levels=[1, 2, 3])
        with pytest.raises(ValueError, match="expected 2 integer sparsity levels"):
            sparsify(v, 3, streams, levels=[1.0, 2.0])
        with pytest.raises(ValueError, match=r"must lie in 1\.\.2, got 0\.\.2"):
            sparsify(v, 2, streams, levels=[2, 0])
        with pytest.raises(ValueError, match=r"must lie in 1\.\.1, got 1\.\.2"):
            preservation_split(v, 1, 2, levels=[1, 2])
        with pytest.raises(ValueError, match="must be >= 1"):
            sparsify(v, 0, streams)
        # m itself is one integer: never truncated, never a list
        for m in (2.5, True, [1, 2]):
            with pytest.raises(TypeError, match="must be an integer"):
                sparsify(v, m, streams)
            with pytest.raises(TypeError, match="must be an integer"):
                preservation_split(v, m, 2)

    def test_stacked_split_rejects_uneven_rows(self):
        with pytest.raises(ValueError, match="does not hold 4 equal vectors"):
            preservation_split(sparse_from(6, [(0, 1.0)]), 1, 4)

    def test_dimension_mismatch(self):
        prob = three_cycle_problem()
        with pytest.raises(ValueError):
            batch_runs(identity(4), prob.b, RsriConfig(m=2, t=5, t_min=1, trials=2))

    def test_diverging_system_names_trial_and_step(self):
        # ||G||_1 = 2: the iterate norm doubles each step until it overflows
        A = CscMatrix.from_dense(np.eye(2) - np.array([[0.0, 2.0], [2.0, 0.0]]))
        problem = LinearProblem(A, sparse_from(2, [(0, 1.0)]))
        cfg = RsriConfig(m=1, t=3000, t_min=0, seed=0, trials=3)
        with pytest.raises(NonConvergenceError, match=r"trial 0: iterate diverged.* at step 1023"):
            estimate_rmse(problem, cfg, np.zeros(2))

    def test_diverging_run_in_mixed_levels_is_named_by_its_trial(self):
        # every run's 1-norm doubles alike, so the guard fires one step
        # earlier at m = 4 than at m = 1: run 2 is the first trial at m = 4
        G = 2.0 * np.roll(np.eye(8), 1, axis=0)
        A = CscMatrix.from_dense(np.eye(8) - G)
        cfg = RsriConfig(m=1, t=3000, t_min=0, seed=1, trials=2)
        streams = [RandomStream(k) for k in range(4)]
        with pytest.raises(NonConvergenceError, match=r"^m=4 trial 0: iterate diverged"):
            _rsri_trials(A, sparse_from(8, [(0, 1.0), (1, 0.5)]), cfg, streams, [1, 1, 4, 4])

    def test_diverging_sparsified_steps_raise_before_any_warning(self):
        G = 2.0 * np.roll(np.eye(8), 1, axis=0)  # iterates outgrow m = 4 while doubling
        A = CscMatrix.from_dense(np.eye(8) - G)
        cfg = RsriConfig(m=4, t=3000, t_min=0, seed=1, trials=4)
        with pytest.raises(NonConvergenceError, match=r"trial \d: iterate diverged"):
            batch_runs(A, sparse_from(8, [(0, 1.0), (1, 0.5)]), cfg)


class TestRunSweep:
    def test_csv_schema_and_determinism(self, tmp_path):
        prob = three_cycle_problem()
        cfg = RsriConfig(m=1, t=40, t_min=20, seed=2, trials=3)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        rows1 = run_sweep(prob, cfg, [1, 2, 3], csv_path=out1, log=None)
        rows2 = run_sweep(prob, cfg, [1, 2, 3], csv_path=out2, log=None)
        text1, text2 = out1.read_text(), out2.read_text()
        assert text1 == text2
        header_line = [ln for ln in text1.splitlines() if not ln.startswith("#")][0]
        assert header_line == CSV_HEADER
        assert len(rows1) == 3
        assert [r.m for r in rows1] == [1, 2, 3]
        for r1, r2 in zip(rows1, rows2):
            assert r1.rmse == r2.rmse
            assert r1.mc_rmse == r2.mc_rmse

    def test_degenerate_row_has_zero_variance(self):
        prob = three_cycle_problem()
        cfg = RsriConfig(m=1, t=30, t_min=15, seed=0, trials=3)
        (row,) = run_sweep(prob, cfg, [3], log=None)
        assert row.variance_est == 0.0
        # support ramps 1 -> 2 -> 3 over the first iterations, then stays full
        assert row.column_accesses == 1 + 2 + 27 * 3
        assert row.column_accesses <= cfg.t * 3

    def test_fields_finite_and_17_digits(self, tmp_path):
        prob = three_cycle_problem()
        cfg = RsriConfig(m=1, t=30, t_min=15, seed=4, trials=3)
        rows = run_sweep(prob, cfg, [1, 2], log=None)
        text = sweep_csv_text(rows, cfg, prob.alpha)
        data_lines = [ln for ln in text.splitlines() if ln and not ln.startswith(("#", "m,"))]
        for ln in data_lines:
            cells = ln.split(",")
            assert len(cells) == 7
            for cell in cells[1:6]:
                assert np.isfinite(float(cell))
        # round-trip at 17 significant digits is lossless for doubles
        assert float(f"{rows[0].rmse:.17g}") == rows[0].rmse

    def test_joint_sweep_equals_per_level_estimates(self, monkeypatch):
        # one lockstep loop for all levels: each row equals estimate_rmse at
        # its level, and the rows share the loop's wall time
        prob = build_problem(synth_bounded_outdegree(200, 3, seed=4), 0.85, source=0)
        x = reference_solve(prob.A, prob.b)
        cfg = RsriConfig(m=2, t=60, t_min=20, seed=6, trials=3)
        levels = [2, 5, 16, 300]
        clock = iter([10.0, 17.5])
        monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        rows = run_sweep(prob, cfg, levels, x, log=None)
        assert sum(r.wall_clock_s for r in rows) == pytest.approx(7.5, rel=1e-15)
        monkeypatch.undo()
        for row, m in zip(rows, levels):
            est = estimate_rmse(prob, replace(cfg, m=m), x)
            assert row.m == m
            for field in ("rmse", "bias_norm", "variance_est", "column_accesses"):
                assert getattr(row, field) == getattr(est, field), (m, field)
            walks = matched_walk_count(est.column_accesses, prob.alpha)
            assert row.mc_rmse == _mc_rmse_levels(prob, [walks], cfg.trials, cfg.seed, x)[0]

    def test_mc_rmse_per_trial_equals_per_level_mc_surfer(self):
        # one surfer loop per trial covers every walk count, yet each
        # figure is the per-level loop of lone mc_surfer runs bit for bit
        prob = build_problem(synth_bounded_outdegree(200, 3, seed=4), 0.85, source=0)
        x = reference_solve(prob.A, prob.b)
        walks, trials, seed = [1, 40, 300, 301], 3, 6
        got = _mc_rmse_levels(prob, walks, trials, seed, x)
        master = RandomStream(seed)
        for level, m in enumerate(walks):
            total = 0.0
            for k in range(trials):
                est = mc_surfer(prob.P, prob.s, prob.alpha, m, spawn_stream(master, 2**31 + k))
                diff = est.to_dense() - x
                total += float(np.dot(diff, diff))
            assert got[level] == math.sqrt(total / trials), m

    def test_sweep_reads_each_column_of_p_once(self, monkeypatch):
        # the Monte Carlo trials share one column store, so no trial
        # reads, checks and sums a column of P that an earlier one read
        prob = build_problem(synth_bounded_outdegree(200, 3, seed=4), 0.85, source=0)
        x = reference_solve(prob.A, prob.b)
        read = []
        gather = prob.P.gather

        def recording_gather(cols):
            read.extend(cols.tolist())
            return gather(cols)

        monkeypatch.setattr(prob.P, "gather", recording_gather)
        cfg = RsriConfig(m=2, t=60, t_min=20, seed=6, trials=3)
        run_sweep(prob, cfg, [2, 16], x, log=None)
        assert len(read) > 1
        assert len(read) == len(set(read))

    def test_demo_sweep_matches_golden_files(self, tmp_path):
        # demo 03 writes next to itself, so a copy reruns its sweep in
        # tmp_path; the golden files pin every draw of both columns
        script = tmp_path / "03_sweep_scaling.py"
        shutil.copy(HERE.parent / "demos" / script.name, script)
        runpy.run_path(str(script), run_name="__main__")
        for name in ("sweep.csv", "sweep.svg"):
            golden = (HERE / "golden" / f"demo_{name}").read_bytes()
            assert (tmp_path / name).read_bytes() == golden, name

    def test_rejects_repeated_levels(self, tmp_path):
        prob = three_cycle_problem()
        cfg = RsriConfig(m=1, t=10, t_min=5, seed=0, trials=2)
        out = tmp_path / "never.csv"
        with pytest.raises(ValueError, match="strictly increasing"):
            run_sweep(prob, cfg, [1, 2, 2], csv_path=out, log=None)
        assert not out.exists()

    def test_rejects_unsorted_m_list(self, tmp_path):
        prob = three_cycle_problem()
        cfg = RsriConfig(m=1, t=10, t_min=5, seed=0, trials=2)
        out = tmp_path / "never.csv"
        with pytest.raises(ValueError):
            run_sweep(prob, cfg, [4, 2], csv_path=out, log=None)
        assert not out.exists()

    @pytest.mark.parametrize("level", [2.5, True, "3"])
    def test_rejects_non_integer_levels(self, level):
        prob = three_cycle_problem()
        cfg = RsriConfig(m=1, t=10, t_min=5, seed=0, trials=2)
        with pytest.raises(TypeError, match="m_list entry must be an integer"):
            run_sweep(prob, cfg, [1, level], log=None)

    def test_failed_write_keeps_old_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        out.write_text("good\n")
        with pytest.raises(UnicodeEncodeError):
            _write_atomic(out, "\ud800")
        assert out.read_text() == "good\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]

    def test_matched_walk_count_rule(self):
        assert matched_walk_count(1000, 0.85) == round(1000 * 0.15 / 0.85)
        assert matched_walk_count(0, 0.85) == 1


class TestTailReport:
    def test_uniform(self):
        n = 4
        text = tail_report(np.full(n, 1.0 / n))
        lines = text.strip().splitlines()
        assert lines[0] == "i,tail"
        vals = [float(ln.split(",")[1]) for ln in lines[1:]]
        np.testing.assert_allclose(vals, [(n - i) / n for i in range(n + 1)])

    def test_basis(self):
        text = tail_report(SparseVector.basis(5, 0))
        assert text.strip().splitlines()[1:] == ["0,1", "1,0"]

    def test_matches_tail_sums_exactly(self):
        prob = three_cycle_problem()
        x = reference_solve(prob.A, prob.b)
        text = tail_report(x)
        vals = [float(ln.split(",")[1]) for ln in text.strip().splitlines()[1:]]
        np.testing.assert_array_equal(vals, tail_sums(SparseVector.from_dense(x)))


class TestSvg:
    def test_valid_xml_with_one_polyline_per_series(self):
        series = [
            ("a", [1, 10, 100], [1.0, 0.1, 0.01]),
            ("b", [1, 10, 100], [0.5, 0.2, 0.08]),
        ]
        doc = svg_line_plot(series, title="t", xlabel="x", ylabel="y")
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2

    def test_nonpositive_points_dropped(self):
        doc = svg_line_plot([("a", [1, 2, 3], [1.0, 0.0, 2.0])])
        root = ET.fromstring(doc)
        (poly,) = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(poly.attrib["points"].split()) == 2


class TestTraceable:
    """Each sparsified step calls the public ``sparsify`` and
    ``preservation_split`` once, so wrappers that rebind them in every
    rsri module, as perfbench/tracer.py does, see every step."""

    @staticmethod
    def rebind(monkeypatch, name, wrap):
        original = getattr(importlib.import_module("rsri.sparsify"), name)
        wrapper = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "rsri" or mod_name.startswith("rsri."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, wrapper)

    def count_steps(self, monkeypatch, solve):
        """(splits expected, splits seen) per sparsify call of ``solve()``."""
        steps = []

        def wrap_sparsify(fn):
            def counted(v, m, rng, levels=None):
                # a step is sparsified unless one level covers every entry
                steps.append([int(levels is not None or v.nnz > m), 0])
                return fn(v, m, rng, levels)
            return counted

        def wrap_split(fn):
            def counted(*args, **kwargs):
                split = fn(*args, **kwargs)
                assert isinstance(split, PreservationSplit)
                steps[-1][1] += 1
                return split
            return counted

        self.rebind(monkeypatch, "sparsify", wrap_sparsify)
        self.rebind(monkeypatch, "preservation_split", wrap_split)
        solve()
        return steps

    def test_estimate_rmse_three_trials(self, monkeypatch):
        prob = build_problem(synth_bounded_outdegree(200, 3, seed=5), 0.85, source=0)
        cfg = RsriConfig(m=16, t=60, t_min=30, seed=4, trials=3)
        oracle = reference_solve(prob.A, prob.b)
        steps = self.count_steps(monkeypatch, lambda: estimate_rmse(prob, cfg, oracle))
        assert len(steps) == cfg.t - 1
        assert all(seen == expected for expected, seen in steps)
        assert sum(seen for _, seen in steps) > cfg.t // 2

    def test_mixed_level_sweep(self, monkeypatch):
        prob = build_problem(synth_bounded_outdegree(200, 3, seed=5), 0.85, source=0)
        cfg = RsriConfig(m=4, t=60, t_min=30, seed=4, trials=3)
        steps = self.count_steps(monkeypatch, lambda: run_sweep(prob, cfg, [4, 8, 32], log=None))
        assert steps == [[1, 1]] * (cfg.t - 1)
