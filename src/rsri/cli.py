"""Command-line driver for the solver, baselines, sweeps, and diagnostics.

Exit codes: 0 success, 1 input error (bad flags, unreadable or malformed
files), 2 numerical failure (reference solve did not converge, or the
sparsified iteration diverged).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .baselines import WalkCapError, mc_surfer, push_cd
from .harness import _fmt, _write_atomic, run_sweep, tail_report
from .operators import (
    MatrixMarketError,
    _read_table,
    diagnostics,
    load_matrix_market,
    matrix_norm1_of_g,
)
from .pagerank import DEFAULT_ALPHA, build_problem, load_edge_list
from .sampling import RandomStream
from .solvers import NonConvergenceError, RsriConfig, reference_solve, rsri
from .vectors import SparseVector

__all__ = ["cli_main", "main"]


def _m_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rsri", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--alpha": dict(type=float, default=DEFAULT_ALPHA),
        "--source": dict(type=int, default=0),
        "--m": dict(type=int, default=32, help="sparsity level (mc: walks)"),
        "--t": dict(type=int, default=1000, help="iterations (push: steps)"),
        "--tmin": dict(type=int, default=None, help="burn-in (default t/2)"),
        "--seed": dict(type=int, default=0),
        "--oracle-tol": dict(type=float, default=1e-12),
        "--out": dict(default=None),
    }

    def add_flags(p, names):
        for name in names.split():
            p.add_argument(name, **flags[name])

    solver = "--t --tmin --seed --out"

    p_solve = sub.add_parser("solve", help="solve A x = b from Matrix Market + b file")
    p_solve.add_argument("matrix")
    p_solve.add_argument("rhs", help="text file of 'index value' lines, 0-based")
    add_flags(p_solve, "--m " + solver)

    p_pr = sub.add_parser("pagerank", help="personalized ranking from an edge list")
    p_pr.add_argument("edges")
    p_pr.add_argument("--topk", type=_positive_int, default=10)
    add_flags(p_pr, "--alpha --source --m " + solver)

    p_sweep = sub.add_parser("sweep", help="rmse vs sparsity level, CSV + SVG")
    p_sweep.add_argument("edges")
    p_sweep.add_argument("--trials", type=int, default=10)
    p_sweep.add_argument("--m", type=_m_list, default=[32],
                         help="strictly increasing sparsity levels, comma list")
    add_flags(p_sweep, "--alpha --source --oracle-tol " + solver)

    p_tail = sub.add_parser("tail", help="tail decay of the reference solution")
    p_tail.add_argument("edges")
    add_flags(p_tail, "--alpha --source --oracle-tol --out")

    p_base = sub.add_parser("baseline", help="run a comparison algorithm")
    p_base.add_argument("kind", choices=["mc", "push"])
    p_base.add_argument("edges")
    add_flags(p_base, "--alpha --source --oracle-tol --m --t --seed --out")

    p_diag = sub.add_parser("diagnose", help="contraction diagnostics for a matrix")
    p_diag.add_argument("matrix")
    add_flags(p_diag, "--out")

    return parser


def _load_rhs(path, dim: int) -> SparseVector:
    fields = np.dtype([("index", np.int64), ("value", np.float64)])
    table = _read_table(path, fields, "#", where="rhs line")
    index = np.sort(table["index"])
    if index.size and (index[0] < 0 or index[-1] >= dim or np.any(index[1:] == index[:-1])):
        _reject_rhs_index(path, dim)
    table = np.sort(table[table["value"] != 0.0], order="index")
    return SparseVector(dim, table["index"], table["value"])


def _reject_rhs_index(path, dim: int):
    """Raise ValueError naming the first rhs line whose index is out of range or repeated."""
    first_line = {}
    for line_no, line in enumerate(Path(path).read_text().split("\n"), start=1):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        index = int(tokens[0])
        if not 0 <= index < dim:
            raise ValueError(f"rhs line {line_no}: index {index} outside 0..{dim - 1}")
        if index in first_line:
            raise ValueError(f"rhs line {line_no}: index {index} repeats line {first_line[index]}")
        first_line[index] = line_no


def _emit(text: str, out):
    if out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(out, text)


def _estimate_csv(estimate: SparseVector) -> str:
    lines = ["index,value"]
    lines.extend(f"{i},{_fmt(v)}" for i, v in zip(estimate.indices, estimate.values))
    return "\n".join(lines) + "\n"


def _config(args, m: int, **extra) -> RsriConfig:
    t_min = args.tmin if args.tmin is not None else args.t // 2
    return RsriConfig(m=m, t=args.t, t_min=t_min, seed=args.seed, **extra)


def _cmd_solve(args) -> int:
    A = load_matrix_market(args.matrix)
    b = _load_rhs(args.rhs, A.dim)
    cfg = _config(args, args.m)
    g = matrix_norm1_of_g(A)
    if g >= 1.0:
        print(f"warning: ||I - A||_1 = {_fmt(g)}; the theory assumes ||I - A||_1 < 1",
              file=sys.stderr)
    report = rsri(A, b, cfg, RandomStream(cfg.seed))
    _emit(_estimate_csv(report.estimate), args.out)
    print(
        f"solved dim={A.dim} nnz_estimate={report.estimate.nnz} "
        f"column_accesses={report.column_accesses} rng={report.rng_kind} "
        f"wall={report.wall_clock:.2f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_pagerank(args) -> int:
    edges = load_edge_list(args.edges)
    problem = build_problem(edges, args.alpha, args.source)
    cfg = _config(args, args.m)
    report = rsri(problem.A, problem.b, cfg, RandomStream(cfg.seed))
    est = report.estimate
    order = np.argsort(-est.values)[: args.topk]
    nodes = edges.labels[est.indices[order]].tolist()
    print("rank,node,score")
    for rank, (node, score) in enumerate(zip(nodes, est.values[order]), start=1):
        print(f"{rank},{node},{_fmt(score)}")
    if args.out:
        _emit(_estimate_csv(est), args.out)
    return 0


def _cmd_sweep(args) -> int:
    edges = load_edge_list(args.edges)
    problem = build_problem(edges, args.alpha, args.source)
    cfg = _config(args, args.m[0], trials=args.trials)
    csv_path = args.out or "sweep.csv"
    svg_path = str(Path(csv_path).with_suffix(".svg"))
    oracle = reference_solve(problem.A, problem.b, tol=args.oracle_tol)
    run_sweep(problem, cfg, args.m, oracle, csv_path=csv_path, svg_path=svg_path)
    print(f"wrote {csv_path} and {svg_path}", file=sys.stderr)
    return 0


def _cmd_tail(args) -> int:
    edges = load_edge_list(args.edges)
    problem = build_problem(edges, args.alpha, args.source)
    oracle = reference_solve(problem.A, problem.b, tol=args.oracle_tol)
    _emit(tail_report(oracle), args.out)
    return 0


def _cmd_baseline(args) -> int:
    edges = load_edge_list(args.edges)
    problem = build_problem(edges, args.alpha, args.source)
    oracle = reference_solve(problem.A, problem.b, tol=args.oracle_tol)
    if args.kind == "mc":
        est = mc_surfer(problem.P, problem.s, args.alpha, args.m, RandomStream(args.seed))
        err = float(np.linalg.norm(est.to_dense() - oracle))
        print(f"mc walks={args.m} error_2={_fmt(err)}")
        if args.out:
            _emit(_estimate_csv(est), args.out)
    else:
        _, trace = push_cd(problem.P, problem.s, args.alpha, args.t, oracle_x=oracle)
        lines = ["step,residual_inf,error_2"]
        lines.extend(
            f"{s},{_fmt(r)},{_fmt(e)}"
            for s, r, e in zip(trace.steps, trace.residual_inf, trace.error_2)
        )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_diagnose(args) -> int:
    A = load_matrix_market(args.matrix)
    diag = diagnostics(A)
    text = (
        f"g_norm1 = {_fmt(diag.g_norm1)}\n"
        f"m_g_simple = {_fmt(diag.m_g_simple)}\n"
        f"m_g_series = {_fmt(diag.m_g_series)}\n"
        f"is_contraction = {'true' if diag.is_contraction else 'false'}\n"
    )
    _emit(text, args.out)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "pagerank": _cmd_pagerank,
    "sweep": _cmd_sweep,
    "tail": _cmd_tail,
    "baseline": _cmd_baseline,
    "diagnose": _cmd_diagnose,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MatrixMarketError, WalkCapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
