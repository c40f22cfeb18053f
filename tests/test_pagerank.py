import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsri import (
    CscMatrix,
    EdgeList,
    assemble,
    build_problem,
    densify,
    load_edge_list,
    matrix_norm1_of_g,
    reference_solve,
    synth_bounded_outdegree,
    tail_sums,
    SparseVector,
)

from conftest import dense_solve, three_cycle_problem


def write_edges(tmp_path, text, name="graph.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadEdgeList:
    def test_simple(self, tmp_path):
        edges = load_edge_list(write_edges(tmp_path, "0 1\n1 0\n"))
        assert edges.node_count == 2
        assert edges.edge_count == 2

    def test_comments_and_blanks_ignored(self, tmp_path):
        text = "# heading\n\n0 1\n# interleaved\n1 2\n"
        edges = load_edge_list(write_edges(tmp_path, text))
        assert edges.node_count == 3
        assert edges.edge_count == 2

    def test_first_appearance_order(self, tmp_path):
        edges = load_edge_list(write_edges(tmp_path, "10 7\n10 10\n"))
        assert edges.node_count == 2
        assert edges.id_map == {10: 0, 7: 1}

    def test_tab_separated(self, tmp_path):
        edges = load_edge_list(write_edges(tmp_path, "3\t4\n4\t3\n"))
        assert edges.node_count == 2

    def test_non_integer_token(self, tmp_path):
        with pytest.raises(ValueError, match="non-integer"):
            load_edge_list(write_edges(tmp_path, "0 x\n"))

    def test_short_line(self, tmp_path):
        with pytest.raises(ValueError, match="expected"):
            load_edge_list(write_edges(tmp_path, "0\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="no edges"):
            load_edge_list(write_edges(tmp_path, "# nothing\n"))

    @pytest.mark.parametrize("text", ["", "# nothing\n\n   \n"])
    def test_empty_file_warns_nothing(self, tmp_path, text):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="no edges"):
                load_edge_list(write_edges(tmp_path, text))
        assert caught == []

    @pytest.mark.parametrize("bad", ["0 x", "7", "1.5 2", "99999999999999999999 1"])
    def test_error_after_comments_names_line(self, tmp_path, bad):
        text = f"# heading\n\n# more\n{bad}\n0 1\n"
        with pytest.raises(ValueError, match=f"^line 4: .* in '{bad}'$"):
            load_edge_list(write_edges(tmp_path, text))

    def test_extra_columns_ignored(self, tmp_path):
        edges = load_edge_list(write_edges(tmp_path, "10 7 0.5\n7 3 x y\n3\t10\t2\n"))
        assert edges.id_map == {10: 0, 7: 1, 3: 2}
        np.testing.assert_array_equal(edges.src, [0, 1, 2])
        np.testing.assert_array_equal(edges.dst, [1, 2, 0])

    def test_matches_first_appearance_loop(self, tmp_path, np_rng):
        labels = np_rng.integers(-50, 50, size=(300, 2))
        text = "".join(f"{u} {v}\n" for u, v in labels.tolist())
        edges = load_edge_list(write_edges(tmp_path, text))
        id_map = {}
        for label in labels.ravel().tolist():
            id_map.setdefault(label, len(id_map))
        assert list(edges.id_map.items()) == list(id_map.items())
        np.testing.assert_array_equal(edges.labels, list(id_map))
        np.testing.assert_array_equal(edges.src, [id_map[u] for u in labels[:, 0].tolist()])
        np.testing.assert_array_equal(edges.dst, [id_map[v] for v in labels[:, 1].tolist()])

    @pytest.mark.parametrize("low, high", [(-1, 2**63 - 2), (-(2**63), 2**63 - 1)])
    def test_labels_spanning_the_int64_range(self, tmp_path, low, high):
        # a span of 2**63 - 1 is the widest that fits int64 once the least
        # label is subtracted; a wider one wraps the keys around
        rows = [(high, low), (5, high), (low, 5), (5, 5), (-7, high)]
        text = "".join(f"{u} {v}\n" for u, v in rows)
        edges = load_edge_list(write_edges(tmp_path, text))
        assert list(edges.id_map.items()) == [(high, 0), (low, 1), (5, 2), (-7, 3)]
        np.testing.assert_array_equal(edges.src, [0, 2, 1, 2, 3])
        np.testing.assert_array_equal(edges.dst, [1, 0, 2, 2, 0])


class TestEdgeList:
    def test_labels_default_to_identity(self):
        edges = EdgeList(3, np.array([0]), np.array([2]))
        assert edges.labels.dtype == np.int64
        np.testing.assert_array_equal(edges.labels, [0, 1, 2])
        assert edges.id_map == {0: 0, 1: 1, 2: 2}

    def test_id_map_follows_labels(self):
        edges = EdgeList(3, np.array([0, 1]), np.array([1, 2]), np.array([2**40, -3, 7]))
        assert list(edges.id_map.items()) == [(2**40, 0), (-3, 1), (7, 2)]

    @pytest.mark.parametrize("count", [True, 2.5, np.float64(2.0), "2"])
    def test_non_integer_node_count_rejected(self, count):
        with pytest.raises(TypeError, match="node_count must be an integer"):
            EdgeList(count, np.array([0]), np.array([0]))

    @pytest.mark.parametrize("count", [0, -1])
    def test_node_count_below_one_rejected(self, count):
        with pytest.raises(ValueError, match="node_count must be >= 1"):
            EdgeList(count, np.array([], dtype=np.int64), np.array([], dtype=np.int64))

    def test_numpy_node_count_becomes_int(self):
        edges = EdgeList(np.int32(2), np.array([0]), np.array([1]))
        assert type(edges.node_count) is int and edges.node_count == 2

    @pytest.mark.parametrize("labels", [{0: 0, 1: 1}, np.array([0.0, 1.0]), ["a", "b"]])
    def test_non_integer_labels_rejected(self, labels):
        with pytest.raises(TypeError, match="labels must have an integer dtype"):
            EdgeList(2, np.array([0]), np.array([1]), labels)

    @pytest.mark.parametrize("labels", [[5], [5, 6, 7], [[5, 6]], 5])
    def test_wrong_labels_shape_rejected(self, labels):
        with pytest.raises(ValueError, match=r"labels must have shape \(node_count,\)"):
            EdgeList(2, np.array([0]), np.array([1]), np.array(labels))


class TestBuildProblem:
    def test_three_cycle_structure(self):
        prob = three_cycle_problem()
        P = densify(prob.P)
        expect = np.zeros((3, 3))
        expect[1, 0] = expect[2, 1] = expect[0, 2] = 1.0
        np.testing.assert_array_equal(P, expect)
        np.testing.assert_array_equal(prob.s.to_dense(), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(prob.b.to_dense(), [0.15, 0.0, 0.0])

    def test_three_cycle_solution_matches_dense_oracle(self):
        prob = three_cycle_problem()
        x = reference_solve(prob.A, prob.b)
        oracle = dense_solve(np.eye(3) - 0.85 * densify(prob.P), prob.b.to_dense())
        np.testing.assert_allclose(x, oracle, atol=1e-12)
        assert x[0] > x[1] > x[2]

    def test_dangling_rule(self):
        edges = EdgeList(2, np.array([0]), np.array([1]))
        prob = build_problem(edges, 0.85, source=0)
        P = densify(prob.P)
        np.testing.assert_array_equal(P[:, 1], [1.0, 0.0])  # dangling -> e_source
        np.testing.assert_array_equal(P[:, 0], [0.0, 1.0])

    def test_duplicate_edges_collapse(self):
        edges = EdgeList(3, np.array([0, 0, 0]), np.array([1, 1, 2]))
        prob = build_problem(edges, 0.85, source=0)
        np.testing.assert_allclose(densify(prob.P)[:, 0], [0.0, 0.5, 0.5])

    def test_star_graph_matches_dense_oracle(self):
        k = 5
        src = np.concatenate([np.zeros(k, dtype=np.int64), np.arange(1, k + 1)])
        dst = np.concatenate([np.arange(1, k + 1), np.zeros(k, dtype=np.int64)])
        edges = EdgeList(k + 1, src, dst)
        prob = build_problem(edges, 0.85, source=0)
        P = densify(prob.P)
        np.testing.assert_allclose(P[0, 1:], np.ones(k))  # leaves point back to hub
        x = reference_solve(prob.A, prob.b)
        oracle = dense_solve(np.eye(k + 1) - 0.85 * P, prob.b.to_dense())
        np.testing.assert_allclose(x, oracle, atol=1e-12)

    def test_column_stochastic_and_contraction(self, np_rng):
        edges = synth_bounded_outdegree(60, 4, seed=3)
        prob = build_problem(edges, 0.85, source=5)
        P = densify(prob.P)
        np.testing.assert_allclose(P.sum(axis=0), np.ones(60), atol=1e-9)
        assert matrix_norm1_of_g(prob.A) == pytest.approx(0.85, abs=1e-9)

    def test_solution_mass(self):
        edges = synth_bounded_outdegree(40, 3, seed=9)
        prob = build_problem(edges, 0.85, source=0)
        tol = 1e-12
        x = reference_solve(prob.A, prob.b, tol=tol)
        assert abs(x.sum() - 1.0) <= tol / (1 - 0.85)

    @pytest.mark.parametrize("src, dst, name", [([0.5], [1], "src"), ([0], [1.0], "dst")])
    def test_non_integer_endpoints_rejected(self, src, dst, name):
        with pytest.raises(TypeError, match=f"{name} must have an integer dtype"):
            EdgeList(2, np.array(src), np.array(dst))

    def test_validation(self):
        edges = EdgeList(2, np.array([0]), np.array([1]))
        with pytest.raises(ValueError):
            build_problem(edges, 1.0, source=0)
        with pytest.raises(ValueError):
            build_problem(edges, 0.85, source=2)


def reference_matrices(edges, alpha, source):
    """P and A = I - alpha P through from_triplets: the distinct pairs, a
    dangling column's entry (source, 1.0) after them, then I's triplets
    followed by those of -alpha P."""
    n = edges.node_count
    keys = np.unique(edges.src * n + edges.dst)
    src, dst = keys // n, keys % n
    out_deg = np.bincount(src, minlength=n)
    dangling = np.flatnonzero(out_deg == 0)
    P = CscMatrix.from_triplets(
        n,
        np.concatenate([dst, np.full(dangling.size, source)]),
        np.concatenate([src, dangling]),
        np.concatenate([1.0 / out_deg[src], np.ones(dangling.size)]),
    )
    ids = np.arange(n)
    A = CscMatrix.from_triplets(
        n,
        np.concatenate([ids, P.indices]),
        np.concatenate([ids, P.column_ids()]),
        np.concatenate([np.ones(n), -alpha * P.data]),
    )
    return P, A


def same_bits(A, B):
    return A.dim == B.dim and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in ((A.indptr, B.indptr), (A.indices, B.indices), (A.data, B.data))
    )


@st.composite
def edge_lists(draw, max_nodes=9):
    """Small graphs with duplicate edges, self loops and dangling nodes."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    ends = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=4 * n))
    src = np.array([u for u, _ in pairs], dtype=np.int64)
    dst = np.array([v for _, v in pairs], dtype=np.int64)
    return EdgeList(n, src, dst)


def digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def problem_digests(prob):
    P, A, b = prob.P, prob.A, prob.b
    return (digest(P.indptr, P.indices, P.data), digest(A.indptr, A.indices, A.data),
            digest(b.indices, b.values))


def messy_edges():
    """50 nodes: 303 edges over 203 distinct pairs, self loops at 0, 2
    (twice) and 17, and dangling nodes 40..49."""
    k = np.arange(300)
    src = np.concatenate([(7 * k) % 40, [0, 2, 2, 17]])
    dst = np.concatenate([(13 * k + 5) % 50, [0, 2, 2, 17]])
    return EdgeList(50, src, dst)


class TestDirectBuild:
    @settings(max_examples=200, deadline=None)
    @given(edges=edge_lists(), alpha=st.floats(0.01, 0.99), data=st.data())
    def test_matches_from_triplets_bit_for_bit(self, edges, alpha, data):
        source = data.draw(st.integers(min_value=0, max_value=edges.node_count - 1))
        prob = build_problem(edges, alpha, source)
        P, A = reference_matrices(edges, alpha, source)
        assert same_bits(prob.P, P) and same_bits(prob.A, A)

    def test_assemble_drops_an_exact_zero_diagonal(self):
        # 1 - 0.5 * 2.0 is exactly zero, so A keeps only the off-diagonal entry
        P = CscMatrix.from_dense([[2.0, 0.0], [0.0, 0.0]])
        A, b = assemble(P, 0.5, SparseVector.basis(2, 0))
        assert (A.indptr.tolist(), A.indices.tolist(), A.data.tolist()) == ([0, 0, 1], [1], [1.0])
        assert b.values.tolist() == [0.5]

    # SHA-256 of the from_triplets construction's arrays
    PINNED = {
        "messy": (
            "710b00a86f7e9dd919553dff6462571b0ea53ded4a21b14c5ab82fa3b05dc617",
            "65b69739f571b253346e0c0ac422b06575a3f91ed7f6144a88900f0e97090ea7",
            "a7e3b70eb3c1d127da19af858d9457ed93a20b6ca46ce7121117e79d4f17d2e7",
        ),
        "test_08": (
            "944af4f6e89da725ebe4818e159fd69148c33427f50c37aadc058ae82b036068",
            "b87e6dc10aabe62e560fc7d1917673f5edf204bbeff705f2918227710a99e56f",
            "105504718c06d0530e6d17a96785dcd48ddcb2b52cb655eccbe6c692c8a2b9c2",
        ),
    }

    def test_messy_graph_is_pinned(self):
        edges = messy_edges()
        assert not np.bincount(edges.src, minlength=50)[45]  # the source is dangling
        assert problem_digests(build_problem(edges, 0.85, source=45)) == self.PINNED["messy"]

    def test_08_graph_is_pinned(self):
        edges = synth_bounded_outdegree(3000, 3, seed=88)
        assert problem_digests(build_problem(edges, 0.85, source=0)) == self.PINNED["test_08"]


class TestSynthBoundedOutdegree:
    def test_single_node_self_loop(self):
        edges = synth_bounded_outdegree(1, 2, seed=0)
        assert edges.node_count == 1
        assert edges.src.tolist() == [0]
        assert edges.dst.tolist() == [0]

    def test_degree_bounds_hard(self):
        edges = synth_bounded_outdegree(1000, 3, seed=4)
        degrees = np.bincount(edges.src, minlength=1000)
        assert degrees.max() <= 3
        assert degrees.min() >= 1

    def test_reproducible(self):
        a = synth_bounded_outdegree(200, 3, seed=11)
        b = synth_bounded_outdegree(200, 3, seed=11)
        np.testing.assert_array_equal(a.src, b.src)
        np.testing.assert_array_equal(a.dst, b.dst)
        c = synth_bounded_outdegree(200, 3, seed=12)
        assert not (
            np.array_equal(a.src, c.src) and np.array_equal(a.dst, c.dst)
        )

    def test_solution_tail_bound_on_instance(self):
        alpha, q = 0.85, 3
        edges = synth_bounded_outdegree(500, q, seed=21)
        prob = build_problem(edges, alpha, source=0)
        x = reference_solve(prob.A, prob.b)
        tails = tail_sums(SparseVector.from_dense(x))
        exponent = np.log(1 / alpha) / np.log(q)
        for i in range(1, tails.size):
            assert tails[i] <= (1 / alpha) * i ** (-exponent) + 1e-12

    def test_edges_are_pinned(self):
        edges = synth_bounded_outdegree(3000, 3, seed=88)
        assert digest(edges.src, edges.dst) == (
            "035c22ec699ec730a0ffa686f2acd999e7d9281a0e3874c641737fc9bd63edbf"
        )

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            synth_bounded_outdegree(10, 1, seed=0)

    @pytest.mark.parametrize("N, q", [(5, 3.5), (5.0, 3), (True, 3), (5, np.float64(3.0))])
    def test_rejects_non_integer_sizes(self, N, q):
        with pytest.raises(TypeError, match="must be an integer"):
            synth_bounded_outdegree(N, q, seed=1)

    def test_labels_are_the_identity(self):
        np.testing.assert_array_equal(synth_bounded_outdegree(4, 2, seed=0).labels, np.arange(4))
