import numpy as np
import pytest

from spectral_nsr.errors import (
    BadParams,
    FormatError,
    IndexOutOfRange,
    NegativeWeight,
    SelfLoop,
    ZeroVector,
)
from spectral_nsr.graph import (
    NodeEmbedding,
    NodeMeta,
    build_graph,
    combinatorial_laplacian,
    load_embeddings,
    load_graph,
    load_graph_json,
    load_graph_text,
    normalized_laplacian,
    save_embeddings,
    save_graph_json,
    save_graph_text,
    similarity_adjacency,
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


class TestSimilarityAdjacency:
    def test_identical_embeddings_give_unit_weight(self):
        emb = NodeEmbedding(np.array([[1.0, 2.0], [1.0, 2.0]]))
        g = similarity_adjacency(emb, 0.5)
        assert g.adjacency[0, 1] == pytest.approx(1.0)

    def test_orthogonal_embeddings_give_zero(self):
        emb = NodeEmbedding(np.array([[1.0, 0.0], [0.0, 1.0]]))
        g = similarity_adjacency(emb, 0.0)
        assert g.adjacency.nnz == 0

    def test_matches_brute_force_cosine(self, rng):
        vectors = rng.standard_normal((8, 4))
        emb = NodeEmbedding(vectors)
        g = similarity_adjacency(emb, 0.3)
        adj = g.adjacency.toarray()
        for i in range(8):
            for j in range(8):
                if i == j:
                    expected = 0.0
                else:
                    cos = float(vectors[i] @ vectors[j]) / (
                        np.linalg.norm(vectors[i]) * np.linalg.norm(vectors[j])
                    )
                    cos = min(max(cos, 0.0), 1.0)
                    expected = cos if cos >= 0.3 else 0.0
                assert adj[i, j] == pytest.approx(expected, abs=1e-12)

    def test_zero_vector_reports_node(self):
        emb = NodeEmbedding(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ZeroVector, match="node 1"):
            similarity_adjacency(emb, 0.1)

    def test_bad_threshold(self):
        emb = NodeEmbedding(np.ones((2, 2)))
        with pytest.raises(BadParams):
            similarity_adjacency(emb, 1.5)

    def test_permutation_equivariance(self, rng):
        vectors = rng.standard_normal((10, 3))
        perm = rng.permutation(10)
        a = similarity_adjacency(NodeEmbedding(vectors), 0.2).adjacency.toarray()
        b = similarity_adjacency(NodeEmbedding(vectors[perm]), 0.2).adjacency.toarray()
        assert np.allclose(a[np.ix_(perm, perm)], b, atol=0)


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

    def test_embeddings_round_trip(self, tmp_path, rng):
        emb = NodeEmbedding(rng.standard_normal((5, 3)))
        path = tmp_path / "emb.csv"
        save_embeddings(emb, path)
        back = load_embeddings(path)
        assert np.array_equal(back.vectors, emb.vectors)

    def test_embeddings_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(FormatError):
            load_embeddings(path)
