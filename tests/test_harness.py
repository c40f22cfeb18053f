import xml.etree.ElementTree as ET

import numpy as np
import pytest

from rsri import (
    CscMatrix,
    DenseColumnMatrix,
    FunctionColumnMatrix,
    LinearProblem,
    NonConvergenceError,
    RandomStream,
    RsriConfig,
    SparseVector,
    build_problem,
    densify,
    estimate_rmse,
    expected_average,
    identity,
    matched_walk_count,
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
from rsri.harness import CSV_HEADER, _write_atomic
from rsri.solvers import _iterate_trials, _rsri_trials
from rsri.svgplot import svg_line_plot

from conftest import sparse_from, three_cycle_problem


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
        # expected_average rides on a reference solve with 1e-12 residual,
        # so agreement is limited by the oracle tolerance, not the solver
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


def single_runs(A, b, cfg):
    """(dense estimate, column accesses) of rsri on each trial's own stream."""
    master = RandomStream(cfg.seed)
    reports = [rsri(A, b, cfg, spawn_stream(master, k)) for k in range(cfg.trials)]
    return [(r.estimate.to_dense(), r.column_accesses) for r in reports]


def batch_runs(A, b, cfg):
    master = RandomStream(cfg.seed)
    average, accesses = _rsri_trials(A, b, cfg, [spawn_stream(master, k) for k in range(cfg.trials)])
    return average.to_dense().reshape(cfg.trials, A.dim), accesses


def assert_batch_is_single_runs(A, b, cfg):
    rows, accesses = batch_runs(A, b, cfg)
    assert rows.shape == (cfg.trials, A.dim)
    for k, (estimate, count) in enumerate(single_runs(A, b, cfg)):
        assert rows[k].tobytes() == estimate.tobytes(), f"trial {k} differs"
        assert accesses[k] == count


class TestLockstepTrials:
    @pytest.mark.parametrize("backing", ["csc", "dense", "function"])
    def test_rows_and_accesses_equal_single_runs(self, backing):
        prob = build_problem(synth_bounded_outdegree(200, 3, seed=4), 0.85, source=0)
        A = {
            "csc": prob.A,
            "dense": DenseColumnMatrix(densify(prob.A)),
            "function": FunctionColumnMatrix(prob.A.dim, prob.A.column),
        }[backing]
        assert_batch_is_single_runs(A, prob.b, RsriConfig(m=6, t=80, t_min=30, seed=3, trials=4))

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
            _iterate_trials(prob.A, prob.b, cfg, [spawn_stream(master, k)], lambda x: seen.append(x.nnz))
            sizes.append(seen)
        over = np.array(sizes) > cfg.m  # per trial and step: does sparsify draw?
        assert np.any(over.any(axis=0) & ~over.all(axis=0)), "no step mixes both kinds"
        assert_batch_is_single_runs(prob.A, prob.b, cfg)

    def test_stacked_sparsify_matches_single_calls(self):
        # ties, a degenerate split (1e-20 is lost against 1 in T(0), so the
        # first entry is admitted into a full set), a pass-through, an empty
        # vector and a subnormal residual
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
        for m in (1, 2, 3):
            split = preservation_split(stacked, m, len(vectors))
            streams = [RandomStream(40 + k) for k in range(len(vectors))]
            out = sparsify(stacked, m, streams)
            for k, v in enumerate(vectors):
                single = RandomStream(40 + k)
                want = sparsify(v, m, single)
                mine = out.indices // 6 == k
                np.testing.assert_array_equal(out.indices[mine] - 6 * k, want.indices)
                assert out.values[mine].tobytes() == want.values.tobytes()
                # both read the same number of uniforms
                assert streams[k].random() == single.random()
                alone = preservation_split(v, m)
                for field in ("exact_indices", "residual_indices"):
                    got = getattr(split, field)
                    np.testing.assert_array_equal(got[got // 6 == k] - 6 * k, getattr(alone, field))
                res = split.residual_indices // 6 == k
                assert split.residual_probs[res].tobytes() == alone.residual_probs.tobytes()

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

    def test_rejects_unsorted_m_list(self, tmp_path):
        prob = three_cycle_problem()
        cfg = RsriConfig(m=1, t=10, t_min=5, seed=0, trials=2)
        out = tmp_path / "never.csv"
        with pytest.raises(ValueError):
            run_sweep(prob, cfg, [4, 2], csv_path=out, log=None)
        assert not out.exists()

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
