"""Build personalized PageRank systems from edge lists and synthetic graphs.

Transition columns are uniform over the deduplicated out-neighbors of the
source node; dangling columns are repaired to point back at the
personalization vertex, which makes the transition matrix depend on the
chosen source.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import CscMatrix, _insert, _plus_identity, _read_table
from .vectors import SparseVector, _stable_order, check_int, index_array

__all__ = [
    "EdgeList",
    "PageRankProblem",
    "load_edge_list",
    "build_problem",
    "assemble",
    "synth_bounded_outdegree",
    "DEFAULT_ALPHA",
]

DEFAULT_ALPHA = 0.85
STOCHASTIC_TOL = 1e-9


@dataclass(frozen=True)
class EdgeList:
    """Directed edges over dense ids; ``labels[i]``, the original label of id
    ``i``, is the identity by default.  Distinct labels are the caller's contract."""

    node_count: int
    src: np.ndarray
    dst: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        n = check_int(self.node_count, "node_count")
        if n < 1:
            raise ValueError("node_count must be >= 1")
        src = index_array(self.src, "src")
        dst = index_array(self.dst, "dst")
        if src.shape != dst.shape:
            raise ValueError("src and dst must have equal length")
        if src.size and (src.min() < 0 or dst.min() < 0 or max(src.max(), dst.max()) >= n):
            raise ValueError("edge endpoints out of range")
        labels = index_array(np.arange(n) if self.labels is None else self.labels, "labels")
        if labels.shape != (n,):
            raise ValueError("labels must have shape (node_count,)")
        for name, value in (("node_count", n), ("src", src), ("dst", dst), ("labels", labels)):
            object.__setattr__(self, name, value)

    @property
    def id_map(self) -> dict[int, int]:  # label -> dense id, built afresh on each read
        return dict(zip(self.labels.tolist(), range(self.node_count)))


@dataclass(frozen=True)
class PageRankProblem:
    """Column-stochastic P with teleportation, plus the induced linear system."""

    P: CscMatrix
    alpha: float
    source: int
    s: SparseVector
    A: CscMatrix
    b: SparseVector

    @property
    def dim(self) -> int:
        return self.P.dim


def load_edge_list(path) -> EdgeList:
    """Parse a whitespace edge list with '#' comments; columns after 'from to' are ignored.
    Labels become dense ids 0..N-1 in first-appearance order; ``labels`` maps ids back."""
    table = _read_table(path, np.dtype([("from", np.int64), ("to", np.int64)]), "#")
    if not table.size:
        raise ValueError("edge list contains no edges")
    # ids follow first appearance in file order: from, to, from, to, ...
    flat = table.view(np.int64)
    low = int(flat.min())
    # past a span of 2**63 the keys wrap around, yet stay one to one, and
    # _stable_order takes the stable argsort of keys that wide
    order = _stable_order(flat - low, int(flat.max()) - low + 1)
    ranked = flat[order]
    new = np.empty(flat.size, dtype=bool)  # first entry of each label's run
    new[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    firsts = order[new]  # position of each label's first appearance, by label
    seen = np.zeros(flat.size, dtype=bool)
    seen[firsts] = True
    ids = np.empty(flat.size, dtype=np.int64)
    ids[order] = (np.cumsum(seen) - 1)[firsts][np.cumsum(new) - 1]
    return EdgeList(int(firsts.size), *ids.reshape(-1, 2).T, flat[seen])


def _distinct_edges(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (src, dst) pairs in lexicographic order: the int64 keys
    ``src * n + dst`` sorted, each run of equal keys kept once."""
    keys = src * n
    keys += dst
    keys.sort()
    first = np.ones(keys.size, dtype=bool)  # first entry of each key's run
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    src = keys // n
    keys -= src * n
    return src, keys


def _transition_matrix(edges: EdgeList, source: int) -> CscMatrix:
    """P's CSC arrays straight from the distinct pairs, which are in CSC
    order; a dangling column's one entry (row source, value 1.0) sits at
    its start."""
    n = edges.node_count
    src, dst = _distinct_edges(n, edges.src, edges.dst)
    out_deg = np.bincount(src, minlength=n)
    dangling = out_deg == 0
    weights = 1.0 / out_deg[src]
    sums = np.bincount(src, weights=weights, minlength=n)  # P's column sums
    sums[dangling] = 1.0
    if np.any(np.abs(sums - 1.0) > STOCHASTIC_TOL):
        raise ValueError("transition matrix failed the column-stochasticity check")
    indptr = np.append(0, np.cumsum(out_deg + dangling))
    rows, vals = _insert(indptr[:-1][dangling], (dst, source), (weights, 1.0))
    return CscMatrix._make(n, indptr, rows, vals)


def assemble(P: CscMatrix, alpha: float, s: SparseVector) -> tuple[CscMatrix, SparseVector]:
    """System matrix I - alpha P and right-hand side (1 - alpha) s."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    A = _plus_identity(P, -alpha)
    b = SparseVector(P.dim, s.indices, (1.0 - alpha) * s.values)
    return A, b


def build_problem(edges: EdgeList, alpha: float, source: int) -> PageRankProblem:
    """Personalized problem: teleport to `source`, dangling repair to `source`."""
    source = check_int(source, "source")
    if not 0 <= source < edges.node_count:
        raise ValueError(f"source {source} out of range")
    P = _transition_matrix(edges, source)
    s = SparseVector.basis(edges.node_count, source)
    A, b = assemble(P, alpha, s)
    return PageRankProblem(P=P, alpha=alpha, source=source, s=s, A=A, b=b)


def synth_bounded_outdegree(N: int, q: int, seed: int) -> EdgeList:
    """Random graph where every node keeps between 1 and q distinct out-edges.

    Deterministic in the seed; duplicate draws collapse, which is how the
    out-degree stays in [1, q].
    """
    if check_int(N, "N") < 1:
        raise ValueError("N must be >= 1")
    if check_int(q, "q") < 2:
        raise ValueError("q must be >= 2")
    rng = np.random.default_rng(seed)
    degrees = rng.integers(1, q + 1, size=N)
    src = np.repeat(np.arange(N, dtype=np.int64), degrees)
    dst = rng.integers(0, N, size=int(degrees.sum()), dtype=np.int64)
    return EdgeList(N, *_distinct_edges(N, src, dst))
