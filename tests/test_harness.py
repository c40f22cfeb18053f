import xml.etree.ElementTree as ET

import numpy as np
import pytest

from rsri import (
    LinearProblem,
    RsriConfig,
    SparseVector,
    estimate_rmse,
    expected_average,
    identity,
    matched_walk_count,
    reference_solve,
    run_sweep,
    sweep_csv_text,
    tail_report,
    tail_sums,
)
from rsri.harness import CSV_HEADER, _write_atomic
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
