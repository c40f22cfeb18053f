"""Workloads of the rsri benchmark: inputs, oracles, jobs and correctness gates.

Each workload has three parts:

* ``generate`` runs untimed in the parent process.  It writes the inputs
  the library will read (edge lists, Matrix Market files, rhs files) and an
  independent oracle, all as a pure function of the workload seed.
* ``setup`` and ``solve`` run in the measuring process and call only the
  public ``rsri`` API, in the order the CLI uses:
  load_edge_list -> build_problem -> reference_solve -> rsri / run_sweep.
* ``evaluate`` gives the job's mean squared error over the squared oracle
  norm, per sparsity level m, and checks the outputs against the oracle
  and the paper's exact identities.  A failed gate is recorded and the
  run goes on.

Graph seeds are fixed per workload, so two workload seeds see the same
graph up to a relabelling; the workload seed picks the labels, the line
order and the solver's random stream.  That keeps run-to-run spread down
to sampling noise while every input file still differs by seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

ALPHA = 0.85

# Full-size parameters, and the tiny ones the smoke test uses.  max_rel_err
# is the oracle gate on one job's relative RMSE (per m for the sweep); it
# is 6-10x the error measured at the seed state, where a biased or broken
# solver is off by order one.
PARAMS = {
    "full": {
        "file_200k": dict(nodes=200_000, q=5, graph_seed=200, m=256, t=400, topk=10,
                          max_rel_err=0.03),
        "sweep_small_m": dict(nodes=3000, q=3, graph_seed=88, m_list=(8, 16, 32, 64),
                              t=1000, trials=10, max_rel_err=0.15),
        "solve_large_m": dict(nodes=3000, q=3, graph_seed=88, m=1024, t=1000, trials=3,
                              max_rel_err=0.005),
        "implicit_50m": dict(dim=50_000_000, prefix=4096, offsets=(1, 2, 5, 11), m=64,
                             t=1000, trials=3, max_rel_err=0.02),
    },
    "tiny": {
        "file_200k": dict(nodes=400, q=5, graph_seed=200, m=32, t=60, topk=5,
                          max_rel_err=0.5),
        "sweep_small_m": dict(nodes=200, q=3, graph_seed=88, m_list=(4, 8), t=60,
                              trials=3, max_rel_err=0.5),
        "solve_large_m": dict(nodes=200, q=3, graph_seed=88, m=64, t=60, trials=2,
                              max_rel_err=0.5),
        "implicit_50m": dict(dim=50_000_000, prefix=64, offsets=(1, 2, 5, 11), m=8,
                             t=60, trials=2, max_rel_err=0.5),
    },
}

# Stable per-workload key mixed into every seed derivation.
WORKLOAD_KEYS = {"file_200k": 1, "sweep_small_m": 2, "solve_large_m": 3, "implicit_50m": 4}


def input_rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_KEYS[workload], 0])


def solver_seed(workload: str, seed: int, reseed: bool, job: int) -> int:
    """Seed of the solver's master stream in one job of a run.  Every job
    draws afresh, so a run's RMSE pools the trials of all its jobs.
    Reseeding changes only the draws, not the inputs, as a change of
    sampler would."""
    state = np.random.SeedSequence([seed, WORKLOAD_KEYS[workload], 1 + int(reseed), job])
    return int(state.generate_state(1)[0])


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Outcome:
    """What one job produced, beyond its timings."""

    solve_s: float
    column_accesses: int
    extra: dict = field(default_factory=dict)


def window_mass(alpha: float, t: int, t_min: int) -> float:
    """Exact sum of the averaged PageRank iterate: 1 - mean alpha^(s+1)."""
    return 1.0 - float(np.mean(alpha ** (np.arange(t_min, t) + 1.0)))


def pagerank_oracle(n, src, dst, source, alpha, tol=1e-15, max_iter=5000):
    """Personalized PageRank by power iteration on the raw edge arrays.

    Independent of the library: deduplicated out-neighbours are uniform,
    dangling nodes jump to the source, and x = alpha P x + (1 - alpha) e_s.
    """
    pairs = np.unique(np.stack([src, dst], axis=1), axis=0)
    src, dst = pairs[:, 0], pairs[:, 1]
    out_deg = np.bincount(src, minlength=n)
    w = 1.0 / out_deg[src]
    dangling = out_deg == 0
    x = np.zeros(n)
    x[source] = 1.0 - alpha
    for _ in range(max_iter):
        nxt = alpha * np.bincount(dst, weights=w * x[src], minlength=n)
        nxt[source] += (1.0 - alpha) + alpha * x[dangling].sum()
        if np.abs(nxt - x).sum() <= tol:
            return nxt
        x = nxt
    raise RuntimeError("oracle power iteration did not converge")


def _relabel(node_count: int, rng: np.random.Generator) -> np.ndarray:
    """Distinct, scattered, non-contiguous labels, in no particular order."""
    return rng.choice(10**9, size=node_count, replace=False).astype(np.int64)


def _first_appearance_ids(lab_src, lab_dst):
    """Dense ids in first-appearance order over 'from to' tokens, as
    SNAP-style loaders assign them.  Returns (labels by id, id of each edge end)."""
    flat = np.stack([lab_src, lab_dst], axis=1).ravel()
    uniq, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    ids = rank[inverse].reshape(-1, 2)
    return uniq[order], ids[:, 0], ids[:, 1]


def write_graph_inputs(lib, workdir: Path, params: dict, seed: int, workload: str,
                       matrix_market: bool) -> dict:
    """Edge list (+ optional Matrix Market and rhs) for one workload seed."""
    rng = input_rng(workload, seed)
    graph = lib.synth_bounded_outdegree(params["nodes"], params["q"], seed=params["graph_seed"])
    labels = _relabel(graph.node_count, rng)
    lab_src, lab_dst = labels[graph.src], labels[graph.dst]
    order = np.lexsort((lab_dst, lab_src))  # SNAP files list edges by source label
    lab_src, lab_dst = lab_src[order], lab_dst[order]
    label_of_id, src, dst = _first_appearance_ids(lab_src, lab_dst)
    n = label_of_id.size
    # the personalization vertex is generator node 0, named by its dense id
    source = int(np.flatnonzero(label_of_id == labels[0])[0])

    edges_path = workdir / "edges.txt"
    header = [
        "# Directed graph: synthetic bounded out-degree, relabelled",
        f"# Nodes: {n} Edges: {src.size}",
        "# FromNodeId\tToNodeId",
    ]
    body = (f"{u}\t{v}" for u, v in zip(lab_src.tolist(), lab_dst.tolist()))
    edges_path.write_text("\n".join([*header, *body]) + "\n")

    oracle = pagerank_oracle(n, src, dst, source, ALPHA)
    np.save(workdir / "oracle.npy", oracle)
    inputs = dict(edges=str(edges_path), source=source, oracle=str(workdir / "oracle.npy"),
                  source_label=int(labels[0]))
    if matrix_market:
        inputs.update(_write_system(workdir, n, src, dst, source))
    return inputs


def _write_system(workdir: Path, n, src, dst, source) -> dict:
    """A = I - alpha P and b = (1 - alpha) e_source as Matrix Market + rhs.

    Written from the raw edges, not from the library's matrix, so the round
    trip gate also checks build_problem.  Diagonal entries come first and a
    self loop repeats its diagonal position; the reader must sum them.
    """
    pairs = np.unique(np.stack([src, dst], axis=1), axis=0)
    src, dst = pairs[:, 0], pairs[:, 1]
    out_deg = np.bincount(src, minlength=n)
    dangling = np.flatnonzero(out_deg == 0)
    cols = np.concatenate([np.arange(n), src, dangling])
    rows = np.concatenate([np.arange(n), dst, np.full(dangling.size, source)])
    with np.errstate(divide="ignore"):
        w = np.where(out_deg > 0, 1.0 / out_deg, 1.0)
    vals = np.concatenate([np.ones(n), -ALPHA * w[src], -ALPHA * np.ones(dangling.size)])
    order = np.argsort(cols, kind="stable")
    lines = [
        "%%MatrixMarket matrix coordinate real general",
        "% A = I - alpha P of a personalized PageRank system",
        f"{n} {n} {vals.size}",
    ]
    lines.extend(f"{i} {j} {v!r}" for i, j, v in
                 zip((rows[order] + 1).tolist(), (cols[order] + 1).tolist(), vals[order].tolist()))
    mtx = workdir / "system.mtx"
    mtx.write_text("\n".join(lines) + "\n")
    rhs = workdir / "rhs.txt"
    rhs.write_text(f"# index value, 0-based\n{source} {(1.0 - ALPHA) * 1.0!r}\n")
    return dict(matrix=str(mtx), rhs=str(rhs))


def read_rhs(lib, path, dim):
    """The CLI's rhs format: 'index value' lines, '#' comments."""
    pairs = []
    for line in Path(path).read_text().splitlines():
        tokens = line.split()
        if tokens and not tokens[0].startswith("#"):
            pairs.append((int(tokens[0]), float(tokens[1])))
    return lib.SparseVector.from_pairs(dim, pairs)


def rel_error(estimate, oracle, norm) -> float:
    return float(np.linalg.norm(estimate.to_dense() - oracle)) / norm


def _oracle_gate(x_ref, oracle) -> Check:
    gap = float(np.abs(x_ref - oracle).sum())
    return Check("reference_vs_oracle", gap <= 1e-9, f"|x_ref - oracle|_1 = {gap:.3e}")


def _error_gate(name, rel, limit) -> Check:
    ok = math.isfinite(rel) and rel <= limit
    return Check(name, ok, f"relative error {rel:.4g} (limit {limit})")


def _access_gate(name, accesses, m, t) -> Check:
    limit = m * (t - 1)
    return Check(name, 0 < accesses <= limit, f"{accesses} column accesses (limit {limit})")


def _mass_gate(name, estimate, t, t_min) -> Check:
    total = float(np.sum(estimate.values))
    want = window_mass(ALPHA, t, t_min)
    return Check(name, abs(total - want) <= 1e-9, f"sum {total!r} vs {want!r}")


class FileWorkload:
    """SNAP-style edge list plus the same system as Matrix Market + rhs.

    O(E) ingest dominates here; the sampler and trial pool barely run, so
    a sampler speedup should leave this workload unchanged.
    """

    name = "file_200k"

    def generate(self, lib, workdir, params, seed):
        return write_graph_inputs(lib, workdir, params, seed, self.name, matrix_market=True)

    def setup(self, lib, params, inputs):
        edges = lib.load_edge_list(inputs["edges"])
        problem = lib.build_problem(edges, ALPHA, inputs["source"])
        A = lib.load_matrix_market(inputs["matrix"])
        b = read_rhs(lib, inputs["rhs"], A.dim)
        return dict(edges=edges, problem=problem, A_file=A, b_file=b)

    def solve(self, lib, params, inputs, state, seed):
        problem = state["problem"]
        state["x_ref"] = lib.reference_solve(problem.A, problem.b)
        cfg = lib.RsriConfig(m=params["m"], t=params["t"], t_min=params["t"] // 2,
                             seed=seed, trials=1)
        start = perf_counter()
        report = lib.rsri(problem.A, problem.b, cfg, lib.RandomStream(cfg.seed))
        solve_s = perf_counter() - start
        est = report.estimate
        label_of = {dense: label for label, dense in state["edges"].id_map.items()}
        top = [label_of[int(est.indices[p])] for p in np.argsort(-est.values)[: params["topk"]]]
        return Outcome(solve_s, report.column_accesses,
                       dict(estimate=est, top=top, cfg=cfg))

    def evaluate(self, lib, params, inputs, state, out, oracle):
        A, A_file = state["problem"].A, state["A_file"]
        same_a = (A.dim == A_file.dim and np.array_equal(A.indptr, A_file.indptr)
                  and np.array_equal(A.indices, A_file.indices)
                  and np.array_equal(A.data, A_file.data))
        b, b_file = state["problem"].b, state["b_file"]
        same_b = np.array_equal(b.indices, b_file.indices) and np.array_equal(b.values, b_file.values)
        cfg = out.extra["cfg"]
        rel = rel_error(out.extra["estimate"], oracle, float(np.linalg.norm(oracle)))
        return {cfg.m: rel * rel}, [
            Check("matrix_market_round_trip", same_a and same_b, "A and b equal the built system"),
            _oracle_gate(state["x_ref"], oracle),
            _error_gate("rsri_vs_oracle", rel, params["max_rel_err"]),
            _access_gate("column_accesses", out.column_accesses, cfg.m, cfg.t),
            _mass_gate("mass_identity", out.extra["estimate"], cfg.t, cfg.t_min),
            Check("top1_is_source", out.extra["top"][0] == inputs["source_label"],
                  f"top label {out.extra['top'][0]}"),
        ]


class _GraphHarnessWorkload:
    """Shared ingest for the two workloads on test_08's graph."""

    def generate(self, lib, workdir, params, seed):
        return write_graph_inputs(lib, workdir, params, seed, self.name, matrix_market=False)

    def setup(self, lib, params, inputs):
        edges = lib.load_edge_list(inputs["edges"])
        return dict(problem=lib.build_problem(edges, ALPHA, inputs["source"]))


class SweepWorkload(_GraphHarnessWorkload):
    """run_sweep at small m with the matched-cost Monte Carlo column.

    Fixed per-step Python overhead, coalesce and the trial pool dominate;
    batching trials shows its gain here.
    """

    name = "sweep_small_m"

    def solve(self, lib, params, inputs, state, seed):
        problem = state["problem"]
        state["x_ref"] = lib.reference_solve(problem.A, problem.b)
        m_list = params["m_list"]
        cfg = lib.RsriConfig(m=m_list[0], t=params["t"], t_min=params["t"] // 2,
                             seed=seed, trials=params["trials"])
        rows = lib.run_sweep(problem, cfg, m_list, state["x_ref"], log=None)
        return Outcome(sum(r.wall_clock_s for r in rows),
                       sum(r.column_accesses for r in rows), dict(rows=rows, cfg=cfg))

    def evaluate(self, lib, params, inputs, state, out, oracle):
        norm = float(np.linalg.norm(oracle))
        rows, cfg = out.extra["rows"], out.extra["cfg"]
        rels = [r.rmse / norm for r in rows]
        checks = [_oracle_gate(state["x_ref"], oracle)]
        for r, rel in zip(rows, rels):
            checks.append(_error_gate(f"rmse_m{r.m}", rel, params["max_rel_err"]))
            checks.append(_access_gate(f"accesses_m{r.m}", r.column_accesses, r.m, cfg.t))
            checks.append(Check(f"mc_rmse_m{r.m}", math.isfinite(r.mc_rmse) and r.mc_rmse > 0,
                                f"mc rmse {r.mc_rmse:.4g}"))
        return {r.m: rel * rel for r, rel in zip(rows, rels)}, checks


class LargeMWorkload(_GraphHarnessWorkload):
    """estimate_rmse at m=1024: the pivotal sampler dominates solve time."""

    name = "solve_large_m"

    def solve(self, lib, params, inputs, state, seed):
        problem = state["problem"]
        state["x_ref"] = lib.reference_solve(problem.A, problem.b)
        cfg = lib.RsriConfig(m=params["m"], t=params["t"], t_min=params["t"] // 2,
                             seed=seed, trials=params["trials"])
        est = lib.estimate_rmse(problem, cfg, state["x_ref"])
        return Outcome(est.wall_clock_s, est.column_accesses,
                       dict(est=est, cfg=cfg))

    def evaluate(self, lib, params, inputs, state, out, oracle):
        cfg = out.extra["cfg"]
        rel = out.extra["est"].rmse / float(np.linalg.norm(oracle))
        return {cfg.m: rel * rel}, [
            _oracle_gate(state["x_ref"], oracle),
            _error_gate("rmse", rel, params["max_rel_err"]),
            _access_gate("column_accesses", out.column_accesses, cfg.m, cfg.t),
        ]


def implicit_prefix_matrix(prefix: int, offsets) -> tuple[np.ndarray, np.ndarray]:
    """Rows and column ids of P on the prefix: column j links to (j + d) mod prefix."""
    offsets = np.asarray(offsets, dtype=np.int64)
    cols = np.repeat(np.arange(prefix, dtype=np.int64), offsets.size)
    rows = (cols + np.tile(offsets, prefix)) % prefix
    return rows, cols


class ImplicitWorkload:
    """A FunctionColumnMatrix of dimension 5e7 whose solution lives in a prefix.

    Column j < prefix is e_j - alpha P(:, j), with P(:, j) uniform over
    (j + d) mod prefix for the fixed offsets d; later columns are e_j and
    are never reached from b = (1 - alpha) e_0.  The solver sees only the
    column oracle, so this exercises the generic column() path and, as
    dim exceeds the dense accumulator limit, the sparse accumulator.
    """

    name = "implicit_50m"

    def generate(self, lib, workdir, params, seed):
        prefix, offsets = params["prefix"], params["offsets"]
        rows, cols = implicit_prefix_matrix(prefix, offsets)
        oracle = pagerank_oracle(prefix, cols, rows, 0, ALPHA)
        np.save(workdir / "oracle.npy", oracle)
        return dict(oracle=str(workdir / "oracle.npy"))

    def setup(self, lib, params, inputs):
        dim, prefix = params["dim"], params["prefix"]
        offsets = np.asarray(params["offsets"], dtype=np.int64)
        weight = -ALPHA / offsets.size
        table = []
        for j in range(prefix):
            idx = np.concatenate([[j], (j + offsets) % prefix])
            val = np.concatenate([[1.0], np.full(offsets.size, weight)])
            order = np.argsort(idx)
            table.append(lib.SparseVector(dim, idx[order], val[order]))

        def column(j: int):
            return table[j] if j < prefix else lib.SparseVector.basis(dim, j)

        A = lib.FunctionColumnMatrix(dim, column)
        b = lib.SparseVector.basis(dim, 0, 1.0 - ALPHA)
        return dict(A=A, b=b)

    def solve(self, lib, params, inputs, state, seed):
        cfg = lib.RsriConfig(m=params["m"], t=params["t"], t_min=params["t"] // 2,
                             seed=seed, trials=params["trials"])
        master = lib.RandomStream(cfg.seed)
        reports = []
        start = perf_counter()
        for k in range(cfg.trials):
            reports.append(lib.rsri(state["A"], state["b"], cfg, lib.spawn_stream(master, k)))
        solve_s = perf_counter() - start
        accesses = int(round(float(np.mean([r.column_accesses for r in reports]))))
        return Outcome(solve_s, accesses, dict(reports=reports, cfg=cfg))

    def evaluate(self, lib, params, inputs, state, out, oracle):
        cfg, reports = out.extra["cfg"], out.extra["reports"]
        prefix = oracle.size
        sq, checks = [], []
        for k, r in enumerate(reports):
            est = r.estimate
            inside = est.indices < prefix
            err = oracle.copy()
            err[est.indices[inside]] -= est.values[inside]
            # entries past the prefix are errors too: the solution is zero there
            sq.append(float(err @ err) + float(np.sum(est.values[~inside] ** 2)))
            checks.append(_access_gate(f"accesses_trial{k}", r.column_accesses, cfg.m, cfg.t))
            checks.append(_mass_gate(f"mass_identity_trial{k}", est, cfg.t, cfg.t_min))
        msq = float(np.mean(sq)) / float(oracle @ oracle)
        checks.append(_error_gate("rmse", math.sqrt(msq), params["max_rel_err"]))
        return {cfg.m: msq}, checks


WORKLOADS = {w.name: w for w in (FileWorkload(), SweepWorkload(), LargeMWorkload(),
                                  ImplicitWorkload())}
