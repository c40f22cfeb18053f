import numpy as np
import pytest

from rsri import CscMatrix, EdgeList, SparseVector, build_problem


def sparse_from(dim, pairs):
    return SparseVector.from_pairs(dim, pairs)


def dense_solve(A_dense, b_dense):
    """Independent oracle: direct dense solve."""
    return np.linalg.solve(A_dense, b_dense)


def fit_loglog_slope(xs, ys):
    """Least-squares slope of log y against log x."""
    lx, ly = np.log(np.asarray(xs, dtype=float)), np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def random_contraction_system(rng, n, g_norm_max=0.9, density=0.4, nonnegative=True):
    """Random A = I - G with column sums of |G| at most g_norm_max.

    Returns (A as CscMatrix, b as SparseVector, dense G, dense b).
    """
    G = rng.random((n, n)) * (rng.random((n, n)) < density)
    if not nonnegative:
        G *= np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
    col_sums = np.abs(G).sum(axis=0)
    targets = rng.uniform(0.2, g_norm_max, n)
    scale = np.where(col_sums > 0, targets / np.maximum(col_sums, 1e-300), 0.0)
    G *= scale
    b_dense = np.zeros(n)
    support = rng.choice(n, size=max(1, n // 3), replace=False)
    b_dense[support] = rng.uniform(0.1, 1.0, support.size)
    if not nonnegative:
        b_dense[support] *= np.where(rng.random(support.size) < 0.5, -1.0, 1.0)
    A = CscMatrix.from_dense(np.eye(n) - G)
    return A, SparseVector.from_dense(b_dense), G, b_dense


def three_cycle_problem(alpha=0.85, source=0):
    edges = EdgeList(3, np.array([0, 1, 2], dtype=np.int64), np.array([1, 2, 0], dtype=np.int64))
    return build_problem(edges, alpha, source)


def random_probability_vector(rng, n, m):
    """Entries in (0, 1) summing to the integer m, for sampler calibration."""
    p = rng.uniform(0.05, 0.95, n)
    for _ in range(200):
        p = p * (m / p.sum())
        if p.max() < 0.98:
            break
        p = np.minimum(p, 0.98)
    assert abs(p.sum() - m) < 1e-9
    return p


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240817)
