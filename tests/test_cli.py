import hashlib

import pytest

from rsri.cli import _emit, cli_main

THREE_CYCLE = "0 1\n1 2\n2 0\n"
SCATTERED = (
    "# labels scattered, negative and above 2**32\n"
    "-5 8589934599\n8589934599 40\n40 -1099511627776\n-1099511627776 -5\n"
    "40 9000000001\n9000000001 -5\n-5 40\n4294967296 8589934599\n"
)
IDENTITY_MM = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1.0\n"


@pytest.fixture
def cycle_file(tmp_path):
    path = tmp_path / "cycle.txt"
    path.write_text(THREE_CYCLE)
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "id.mtx"
    path.write_text(IDENTITY_MM)
    return str(path)


class TestDiagnose:
    def test_identity(self, identity_file, capsys):
        assert cli_main(["diagnose", identity_file]) == 0
        out = capsys.readouterr().out
        assert "g_norm1 = 0" in out
        assert "is_contraction = true" in out
        assert "m_g_simple = 1" in out

    def test_missing_file(self, tmp_path):
        assert cli_main(["diagnose", str(tmp_path / "nope.mtx")]) == 1

    def test_malformed_matrix(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text("garbage\n")
        assert cli_main(["diagnose", str(bad)]) == 1

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_matrix(self, tmp_path, capsys, bad):
        path = tmp_path / "nan.mtx"
        path.write_text(IDENTITY_MM.replace("2 2 1.0", f"2 2 {bad}"))
        assert cli_main(["diagnose", str(path)]) == 1
        assert "line 4: non-finite" in capsys.readouterr().err


class TestArgumentErrors:
    def test_unknown_flag(self, cycle_file):
        assert cli_main(["pagerank", cycle_file, "--bogus", "1"]) == 1

    def test_unknown_command(self):
        assert cli_main(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert cli_main(["--help"]) == 0

    @pytest.mark.parametrize("command", [
        ["solve", "id.mtx", "b.txt"],
        ["pagerank", "edges.txt"],
        ["tail", "edges.txt"],
        ["baseline", "mc", "edges.txt"],
    ])
    def test_trials_only_on_sweep(self, command, capsys):
        assert cli_main(command + ["--trials", "3"]) == 1
        assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [
        (["tail", "edges.txt"], "--m"),
        (["tail", "edges.txt"], "--t"),
        (["tail", "edges.txt"], "--tmin"),
        (["tail", "edges.txt"], "--seed"),
        (["baseline", "push", "edges.txt"], "--tmin"),
        (["solve", "id.mtx", "b.txt"], "--alpha"),
        (["solve", "id.mtx", "b.txt"], "--oracle-tol"),
        (["pagerank", "edges.txt"], "--oracle-tol"),
        (["diagnose", "id.mtx"], "--seed"),
    ])
    def test_unread_flags_rejected(self, command, flag, capsys):
        assert cli_main(command + [flag, "1"]) == 1
        assert flag in capsys.readouterr().err


    @pytest.mark.parametrize("command,value", [
        (["solve", "id.mtx", "b.txt"], "2,3"),
        (["pagerank", "edges.txt"], "2,999"),
        (["baseline", "mc", "edges.txt"], "5,7"),
        (["sweep", "edges.txt"], "2,,4"),
        (["sweep", "edges.txt"], "2,"),
        (["sweep", "edges.txt"], "2,x"),
    ])
    def test_malformed_m_rejected(self, command, value, capsys):
        assert cli_main(command + ["--m", value]) == 1
        assert "--m" in capsys.readouterr().err

    def test_repeated_sweep_level_rejected(self, cycle_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli_main(["sweep", cycle_file, "--m", "2,2", "--t", "20", "--tmin", "10",
                         "--trials", "2", "--out", str(out)])
        assert code == 1
        assert "strictly increasing" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-2", "0"])
    def test_topk_below_one_rejected(self, value, cycle_file, capsys):
        assert cli_main(["pagerank", cycle_file, "--t", "20", "--topk", value]) == 1
        captured = capsys.readouterr()
        assert "--topk" in captured.err
        assert captured.out == ""


class TestOutputFiles:
    def test_failed_emit_keeps_old_file(self, tmp_path):
        out = tmp_path / "est.csv"
        out.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            _emit("\ud800", out)  # a lone surrogate cannot be encoded
        assert out.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["est.csv"]


class TestPagerank:
    def test_cycle_ranks_source_first(self, cycle_file, capsys):
        code = cli_main(
            ["pagerank", cycle_file, "--alpha", "0.85", "--source", "0",
             "--m", "3", "--t", "60", "--seed", "1"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "rank,node,score"
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[1] == "0"

    def test_prints_original_labels(self, tmp_path, capsys):
        path = tmp_path / "scattered.txt"
        path.write_text(SCATTERED)
        code = cli_main(["pagerank", str(path), "--m", "4", "--t", "60", "--seed", "3",
                         "--topk", "6"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "rank,node,score"
        labels = {int(tok) for line in SCATTERED.splitlines()[1:] for tok in line.split()}
        assert lines[1].split(",")[1] == "-5"  # the source, dense id 0
        assert {int(line.split(",")[1]) for line in lines[1:]} <= labels
        # the whole table, pinned: ranks, labels and scores
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8dc9906bf8d0a1b678d135dcd6318766fabeedad638c4402fad54893dc270b45"
        )

    def test_estimate_file(self, cycle_file, tmp_path, capsys):
        out = tmp_path / "est.csv"
        assert cli_main(["pagerank", cycle_file, "--out", str(out), "--t", "40"]) == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,value"
        assert len(lines) == 4


class TestSolve:
    def test_identity_returns_rhs(self, identity_file, tmp_path, capsys):
        rhs = tmp_path / "b.txt"
        rhs.write_text("# rhs\n0 0.25\n1 0.75\n")
        out = tmp_path / "x.csv"
        code = cli_main(["solve", identity_file, str(rhs), "--m", "2", "--t", "10",
                         "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,value"
        values = {int(ln.split(",")[0]): float(ln.split(",")[1]) for ln in lines[1:]}
        assert values == {0: 0.25, 1: 0.75}

    def test_bad_rhs(self, identity_file, tmp_path):
        rhs = tmp_path / "b.txt"
        rhs.write_text("0\n")
        assert cli_main(["solve", identity_file, str(rhs)]) == 1

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_rhs(self, identity_file, tmp_path, capsys, bad):
        rhs = tmp_path / "b.txt"
        rhs.write_text(f"0 0.25\n1 {bad}\n")
        out = tmp_path / "x.csv"
        assert cli_main(["solve", identity_file, str(rhs), "--out", str(out)]) == 1
        assert "rhs line 2: non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["1 abc", "x 0.5", "1"])
    def test_malformed_rhs_names_line(self, identity_file, tmp_path, capsys, bad):
        rhs = tmp_path / "b.txt"
        rhs.write_text(f"# rhs\n0 0.25\n{bad}\n")
        assert cli_main(["solve", identity_file, str(rhs)]) == 1
        assert "rhs line 3:" in capsys.readouterr().err

    def test_rhs_extra_columns_and_order(self, identity_file, tmp_path, capsys):
        rhs = tmp_path / "b.txt"
        rhs.write_text("1 0.75 note\n0 0.25\n")
        out = tmp_path / "x.csv"
        assert cli_main(["solve", identity_file, str(rhs), "--m", "2", "--t", "10",
                         "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == ["0,0.25", "1,0.75"]

    @pytest.mark.parametrize("text,line,what", [
        ("0 0.25\n# note\n2 0.5\n", 3, "index 2 outside 0..1"),
        ("0 0.25\n-1 0.5\n", 2, "index -1 outside 0..1"),
        ("1 0.25\n\n0 0.5\n1 0.5\n", 4, "index 1 repeats line 1"),
    ], ids=["above_range", "negative", "repeated"])
    def test_bad_rhs_index_names_line(self, identity_file, tmp_path, capsys, text, line, what):
        rhs = tmp_path / "b.txt"
        rhs.write_text(text)
        assert cli_main(["solve", identity_file, str(rhs)]) == 1
        assert f"error: rhs line {line}: {what}" in capsys.readouterr().err

    def test_non_contraction_warns_and_solves(self, tmp_path, capsys):
        # G = I - A = [[0, 1], [0, 0]]: ||G||_1 = 1, yet G is nilpotent and the iteration converges
        matrix = tmp_path / "nil.mtx"
        matrix.write_text(IDENTITY_MM.replace("2 2 2\n", "2 2 3\n1 2 -1.0\n"))
        rhs = tmp_path / "b.txt"
        rhs.write_text("0 1\n1 1\n")
        out = tmp_path / "x.csv"
        assert cli_main(["solve", str(matrix), str(rhs), "--m", "2", "--t", "10",
                         "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "warning: ||I - A||_1 = 1; the theory assumes ||I - A||_1 < 1" in err
        assert out.read_text().splitlines()[1:] == ["0,2", "1,1"]

    def test_contraction_does_not_warn(self, identity_file, tmp_path, capsys):
        rhs = tmp_path / "b.txt"
        rhs.write_text("0 1\n")
        assert cli_main(["solve", identity_file, str(rhs), "--t", "10"]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_diverging_iteration_exit_2(self, tmp_path, capsys):
        # G = I - A = [[0, 2], [2, 0]]: the iterates double until they overflow
        matrix = tmp_path / "grow.mtx"
        matrix.write_text(IDENTITY_MM.replace("2 2 2\n", "2 2 4\n1 2 -2.0\n2 1 -2.0\n"))
        rhs = tmp_path / "b.txt"
        rhs.write_text("0 1\n")
        out = tmp_path / "x.csv"
        code = cli_main(["solve", str(matrix), str(rhs), "--m", "1", "--t", "3000",
                         "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "warning: ||I - A||_1 = 2;" in err
        assert "diverged" in err
        assert not out.exists()


class TestSweep:
    def test_writes_csv_and_svg(self, cycle_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli_main(
            ["sweep", cycle_file, "--m", "1,2", "--t", "30", "--trials", "2",
             "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert out.with_suffix(".svg").exists()
        body = out.read_text()
        assert "m,rmse,bias_norm" in body

    def test_malformed_edges_exit_1_no_csv(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 x\n")
        out = tmp_path / "sweep.csv"
        assert cli_main(["sweep", str(bad), "--m", "1,2", "--out", str(out)]) == 1
        assert not out.exists()


class TestTailAndBaselines:
    def test_tail_output(self, cycle_file, capsys):
        assert cli_main(["tail", cycle_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "i,tail"
        assert len(lines) == 5  # nnz = 3 plus the zero tail row
        assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-9)

    def test_tail_nonconvergence_exit_2(self, cycle_file):
        # alpha this close to one cannot reach 1e-12 within the iteration cap
        assert cli_main(["tail", cycle_file, "--alpha", "0.9999999"]) == 2

    def test_baseline_mc(self, cycle_file, capsys):
        assert cli_main(["baseline", "mc", cycle_file, "--m", "500", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("mc walks=500 error_2=")
        assert float(out.strip().split("=")[-1]) < 0.2

    def test_baseline_push(self, cycle_file, capsys):
        assert cli_main(["baseline", "push", cycle_file, "--t", "25"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "step,residual_inf,error_2"
        assert len(lines) == 27  # initial row plus 25 pushes
