import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_nsr.errors import (
    BadParams,
    FormatError,
    IndexOutOfRange,
    NegativeWeight,
    SelfLoop,
)
from spectral_nsr.graph import (
    COMBINATORIAL,
    NORMALIZED,
    NodeMeta,
    ReasoningGraph,
    build_graph,
    combinatorial_laplacian,
    laplacians,
    load_graph,
    load_graph_json,
    load_graph_text,
    normalized_laplacian,
    save_graph_json,
    save_graph_text,
)

from conftest import make_nodes, path_graph, random_graph


class TestBuildGraph:
    def test_single_edge_symmetry(self):
        g = build_graph(make_nodes(2), [(0, 1, 1.0)])
        assert np.array_equal(g.adjacency.toarray(), [[0, 1], [1, 0]])

    def test_p3_degrees(self):
        g = build_graph(make_nodes(3), [(0, 1, 1.0), (1, 2, 1.0)])
        assert np.array_equal(g.degrees(), [1.0, 2.0, 1.0])

    def test_duplicate_edges_sum(self):
        g = build_graph(make_nodes(2), [(0, 1, 0.5), (1, 0, 0.5)])
        assert g.adjacency[0, 1] == pytest.approx(1.0)

    def test_duplicate_sum_matches_dense_accumulator(self, rng):
        # oracle: accumulate the same edge list into a dense array by hand
        n = 12
        edges = []
        for _ in range(60):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                edges.append((int(i), int(j), float(rng.uniform(0.1, 2.0))))
        dense = np.zeros((n, n))
        for i, j, w in edges:
            dense[i, j] += w
            dense[j, i] += w
        g = build_graph(make_nodes(n), edges)
        assert np.allclose(g.adjacency.toarray(), dense, atol=0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            build_graph(make_nodes(2), [(0, 2, 1.0)])

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            build_graph(make_nodes(2), [(0, 1, -0.5)])

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            build_graph(make_nodes(2), [(1, 1, 1.0)])

    def test_bad_node_kind(self):
        with pytest.raises(BadParams):
            NodeMeta(0, "widget", "x")


class TestDirectConstruction:
    """A graph made without `build_graph` is checked all the same."""

    @pytest.mark.parametrize(
        "ids, dense, error, message",
        [
            ([0, 1], [[0.0, 1.0], [2.0, 0.0]], BadParams, "not symmetric"),
            ([0, 1], [[0.0, -1.0], [-1.0, 0.0]], NegativeWeight, "negative"),
            ([0, 1], [[0.0, np.nan], [np.nan, 0.0]], BadParams, "non-finite"),
            ([0, 1], [[0.0, np.inf], [np.inf, 0.0]], BadParams, "non-finite"),
            ([0, 1], [[1.0, 1.0], [1.0, 0.0]], SelfLoop, "diagonal"),
            ([0, 2], [[0.0, 1.0], [1.0, 0.0]], IndexOutOfRange, "dense"),
        ],
        ids=["asymmetric", "negative", "nan", "inf", "diagonal", "sparse-ids"],
    )
    def test_invalid_graph_is_refused(self, ids, dense, error, message):
        nodes = tuple(NodeMeta(i) for i in ids)
        with pytest.raises(error, match=message):
            ReasoningGraph(nodes, sp.csr_array(np.asarray(dense)))


class TestCombinatorialLaplacian:
    def test_p3_matrix(self, p3):
        lap = combinatorial_laplacian(p3)
        expected = [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
        assert np.allclose(lap.matrix.toarray(), expected, atol=0)

    def test_edgeless_graph_is_zero(self):
        g = build_graph(make_nodes(4), [])
        lap = combinatorial_laplacian(g)
        assert lap.matrix.nnz == 0

    def test_quadratic_form_matches_edge_sum(self, rng):
        # x^T L x must equal sum over edges of w_ij (x_i - x_j)^2
        g = random_graph(rng, 20, density=0.25)
        lap = combinatorial_laplacian(g)
        dense_adj = g.adjacency.toarray()
        for _ in range(100):
            x = rng.standard_normal(20)
            quad = float(x @ (lap.matrix @ x))
            edge_sum = 0.0
            for i in range(20):
                for j in range(i + 1, 20):
                    edge_sum += dense_adj[i, j] * (x[i] - x[j]) ** 2
            assert quad == pytest.approx(edge_sum, rel=1e-9, abs=1e-9)

    def test_row_sums_vanish(self, rng):
        g = random_graph(rng, 15)
        lap = combinatorial_laplacian(g)
        rows = np.asarray(lap.matrix.sum(axis=1)).reshape(-1)
        assert np.abs(rows).max() <= 1e-12 * max(np.abs(lap.matrix.data).max(), 1.0)

    def test_ones_vector_in_nullspace(self, rng):
        g = random_graph(rng, 12)
        lap = combinatorial_laplacian(g)
        assert np.abs(lap.matrix @ np.ones(12)).max() <= 1e-12

    def test_psd_on_random_unit_vectors(self, rng):
        g = random_graph(rng, 25, density=0.3)
        lap = combinatorial_laplacian(g)
        for _ in range(1000):
            x = rng.standard_normal(25)
            x /= np.linalg.norm(x)
            assert float(x @ (lap.matrix @ x)) >= -1e-9

    def test_zero_eigenvalue_count_equals_components(self):
        # two disjoint paths plus an isolated node: 3 components
        nodes = make_nodes(7)
        edges = [(0, 1, 1.0), (1, 2, 0.5), (3, 4, 2.0), (4, 5, 1.0)]
        g = build_graph(nodes, edges)
        lap = combinatorial_laplacian(g)
        eigs = np.linalg.eigvalsh(lap.matrix.toarray())
        assert int(np.sum(np.abs(eigs) < 1e-8)) == 3


class TestNormalizedLaplacian:
    def test_single_edge(self):
        g = build_graph(make_nodes(2), [(0, 1, 1.0)])
        lap = normalized_laplacian(g)
        assert np.allclose(lap.matrix.toarray(), [[1, -1], [-1, 1]], atol=1e-15)

    def test_k2_eigenvalues(self):
        g = build_graph(make_nodes(2), [(0, 1, 1.0)])
        lap = normalized_laplacian(g)
        eigs = np.linalg.eigvalsh(lap.matrix.toarray())
        assert np.allclose(eigs, [0.0, 2.0], atol=1e-12)

    def test_spectrum_bounded_by_two(self, rng):
        g = random_graph(rng, 30, density=0.2)
        lap = normalized_laplacian(g)
        eigs = np.linalg.eigvalsh(lap.matrix.toarray())
        assert eigs.max() <= 2.0 + 1e-9
        assert eigs.min() >= -1e-9

    def test_isolated_node_row(self):
        g = build_graph(make_nodes(3), [(0, 1, 1.0)])
        lap = normalized_laplacian(g)
        dense = lap.matrix.toarray()
        assert dense[2, 2] == pytest.approx(1.0)
        assert np.abs(dense[2, :2]).max() == 0.0
        eigs = np.linalg.eigvalsh(dense)
        assert eigs.max() <= 2.0 + 1e-9


@st.composite
def spread_graphs(draw):
    """A valid graph of 1 to 12 nodes whose weights span up to 12 orders of
    magnitude; any node may be isolated, and the graph may have no edge."""
    n = draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    low = draw(st.integers(-6, 3))
    high = draw(st.integers(low, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    return build_graph(make_nodes(n), [(i, j, 10.0 ** rng.uniform(low, high)) for i, j in pairs])


class TestLaplacianInvariants:
    """What a valid graph gives every Laplacian, alone or in a block, with no check of its own."""

    @settings(max_examples=60, deadline=None)
    @given(graphs=st.lists(spread_graphs(), min_size=1, max_size=5), kind=st.sampled_from([COMBINATORIAL, NORMALIZED]))
    def test_symmetric_with_vanishing_rows(self, graphs, kind):
        alone = [laplacians([g], kind)[0] for g in graphs]
        block = laplacians(graphs, kind)
        for lap in alone + block:
            m = lap.matrix
            assert np.array_equal(m.toarray(), m.T.toarray())
            if kind == COMBINATORIAL:
                scale = np.abs(m.data).max(initial=0.0)
                assert np.abs(m.sum(axis=1)).max() <= 1e-12 * scale


class TestFileFormats:
    def test_text_round_trip(self, tmp_path, rng):
        g = random_graph(rng, 9, density=0.3)
        path = tmp_path / "g.txt"
        save_graph_text(g, path)
        back = load_graph_text(path)
        assert np.allclose(back.adjacency.toarray(), g.adjacency.toarray(), atol=0)
        assert back.nodes == g.nodes

    def test_json_round_trip(self, tmp_path, rng):
        g = random_graph(rng, 7)
        path = tmp_path / "g.json"
        save_graph_json(g, path)
        back = load_graph(path)
        assert np.allclose(back.adjacency.toarray(), g.adjacency.toarray(), atol=0)

    def test_text_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("node 0 entity a\n")
        with pytest.raises(FormatError):
            load_graph_text(path)

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_text_non_finite_weight(self, tmp_path, weight):
        path = tmp_path / "g.txt"
        path.write_text(f"N 3\nnode 0 entity a\nnode 1 entity b\nnode 2 entity c\nedge 0 1 1.0\nedge 1 2 {weight}\n")
        with pytest.raises(BadParams, match=r"edge \(1, 2\) has non-finite weight"):
            load_graph_text(path)

    @pytest.mark.parametrize("weight", ["NaN", "Infinity"])
    def test_json_non_finite_weight(self, tmp_path, weight):
        path = tmp_path / "g.json"
        path.write_text(f'{{"nodes": [{{"id": 0}}, {{"id": 1}}], "edges": [[0, 1, {weight}]]}}')
        with pytest.raises(BadParams, match=r"edge \(0, 1\) has non-finite weight"):
            load_graph_json(path)

    def test_json_infinite_node_id(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"nodes": [{"id": Infinity}], "edges": []}')
        with pytest.raises(FormatError):
            load_graph_json(path)
