import json
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_nsr.errors import (
    BadParams,
    DimensionMismatch,
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
    csr_matvec,
    csr_tocsc,
    laplacians,
    load_graph,
    load_graph_json,
    load_graph_text,
    normalized_laplacian,
    save_graph_json,
    save_graph_text,
)

from spectral_nsr.spectral import estimate_lambda_max

from conftest import make_nodes, path_graph, random_graph


class TestBuildGraph:
    def test_single_edge_symmetry(self):
        g = build_graph(make_nodes(2), [(0, 1, 1.0)])
        assert np.array_equal(g.adjacency.toarray(), [[0, 1], [1, 0]])

    def test_p3_degrees(self):
        g = build_graph(make_nodes(3), [(0, 1, 1.0), (1, 2, 1.0)])
        assert np.array_equal(combinatorial_laplacian(g).degrees, [1.0, 2.0, 1.0])

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
        # a node is a plain record; the graph that holds it checks its kind
        with pytest.raises(BadParams, match="unknown node kind 'widget'"):
            build_graph([NodeMeta(0, "widget", "x")], [])

    def test_edges_given_as_list_array_tuple_or_generator_agree(self):
        edges = [(0, 1, 0.5), (2, 1, 1.5), (1, 0, 0.25)]
        want = build_graph(make_nodes(3), edges).adjacency
        for given_edges in (np.array(edges), tuple(edges), (edge for edge in edges)):
            got = build_graph(make_nodes(3), given_edges).adjacency
            assert got.indptr.tobytes() == want.indptr.tobytes()
            assert got.indices.tobytes() == want.indices.tobytes()
            assert got.data.tobytes() == want.data.tobytes()
        for empty in ([], (), np.empty((0, 3))):
            assert build_graph(make_nodes(3), empty).adjacency.nnz == 0

    @pytest.mark.parametrize(
        "edges, error, message",
        [
            (np.array([0.0, 1.0, 1.0]), BadParams, r"shape \(3,\)"),
            (np.zeros((2, 4)), BadParams, r"shape \(2, 4\)"),
            (np.zeros((0, 2)), BadParams, r"shape \(0, 2\)"),
            ([(0, 1)], BadParams, r"shape \(1, 2\)"),
            ([("0", 1, 1.0)], BadParams, "rows of numbers"),
            ([(0, 1, 1.0), (1, 2)], ValueError, "inhomogeneous"),
        ],
        ids=["flat", "four-columns", "empty-two-columns", "two-columns", "string-end", "ragged"],
    )
    def test_edges_that_are_not_rows_of_three_numbers(self, edges, error, message):
        # refused, never reshaped or parsed
        with pytest.raises(error, match=message):
            build_graph(make_nodes(3), edges)

    @pytest.mark.parametrize(
        "faulty, error, message",
        [
            ((0, 3, 1.0), IndexOutOfRange, r"edge \(0, 3\) outside \[0, 3\)"),
            ((-1, 2, 1.0), IndexOutOfRange, r"edge \(-1, 2\) outside \[0, 3\)"),
            ((float("nan"), 2, 1.0), IndexOutOfRange, r"edge \(nan, 2\) outside \[0, 3\)"),
            ((0, 1.5, 1.0), IndexOutOfRange, r"edge \(0, 1.5\) outside \[0, 3\)"),
            ((0, float("inf"), 1.0), IndexOutOfRange, r"edge \(0, inf\) outside \[0, 3\)"),
            ((10**30, 1, 1.0), IndexOutOfRange, r"edge \(1000000000000000000000000000000, 1\) outside"),
            ((2, 2, -1.0), SelfLoop, "self-loop at node 2"),
            ((1, 2, -0.5), NegativeWeight, r"edge \(1, 2\) has negative weight -0.5"),
            ((1, 2, -1), NegativeWeight, r"edge \(1, 2\) has negative weight -1.0"),
        ],
        ids=["past-the-end", "negative-end", "nan-end", "fractional-end", "infinite-end", "huge-end", "self-loop", "negative", "negative-int"],
    )
    def test_first_faulty_edge_in_input_order_raises(self, faulty, error, message):
        # the faulty edge alone after a sound one; then after a NaN weight,
        # which the graph refuses only after the edges, and before one of
        # every other fault
        others = [(0, 5, 1.0), (1.5, 0, 1.0), (float("nan"), 1, 1.0), (1, 1, 1.0), (0, 1, -2.0)]
        for edges in ([(0, 1, 1.0), faulty], [(0, 1, 1.0), (1, 2, float("nan")), faulty, *others]):
            with pytest.raises(error, match=message):
                build_graph(make_nodes(3), edges)
            # the same edges as an array: the same edge and fault
            with pytest.raises(error):
                build_graph(make_nodes(3), np.array(edges, dtype=np.float64))

    def test_an_array_edge_is_named_as_given(self):
        with pytest.raises(IndexOutOfRange, match=r"edge \(0.0, 5.0\) outside \[0, 2\)"):
            build_graph(make_nodes(2), np.array([[0, 1, 1.0], [0, 5, 1.0]]))
        with pytest.raises(IndexOutOfRange, match=r"edge \(0, 5\) outside \[0, 2\)"):
            build_graph(make_nodes(2), np.array([[0, 1, 1], [0, 5, 1]]))

    def test_copies_of_an_edge_in_a_long_row_sum_alike_both_ways(self):
        # scipy sorts a row of over 16 entries unstably, so summed as one
        # COO these copies of (0, 2) get other bits at (2, 0)
        edges = [(0, 2, 0.1), (0, 2, 0.0)] + [(0, 1, 0.0)] * 9 + [(0, 2, 1.0)] + [(2, 0, 0.1)] * 5
        a = build_graph(make_nodes(3), edges).adjacency
        assert a[0, 2] == a[2, 0] == pytest.approx(1.6)
        assert a.nnz == 2

    def test_a_nan_weight_is_refused_by_the_graph(self):
        with pytest.raises(BadParams, match=r"edge \(1, 2\) has non-finite weight nan"):
            build_graph(make_nodes(3), [(0, 1, 1.0), (1, 2, float("nan"))])


@st.composite
def edge_lists(draw):
    """Edges over up to 8 nodes with repeats, both orientations of a pair
    and zero weights, as a list of tuples or as an (m, 3) array."""
    n = draw(st.integers(2, 8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    weight = st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0, 1e-300, 1e300]) | st.floats(0.0, 10.0)
    edges = draw(st.lists(st.tuples(pair, weight).map(lambda e: (*e[0], e[1])), max_size=30))
    edges += [(j, i, w) for i, j, w in draw(st.lists(st.sampled_from(edges), max_size=5))] if edges else []
    return n, edges, draw(st.booleans())


class TestBuildGraphArrays:
    @settings(max_examples=200, deadline=None)
    @given(case=edge_lists())
    def test_csr_is_the_reference_coo_byte_for_byte(self, case):
        # the reference: each edge's (i, j) and then (j, i), summed by
        # scipy in that order, with the entries that sum to zero dropped;
        # its upper triangle stands for both, which changes nothing unless
        # scipy summed a pair's copies in two orders
        n, edges, as_array = case
        rows, cols, vals = [], [], []
        for i, j, w in edges:
            rows += [i, j]
            cols += [j, i]
            vals += [w, w]
        ref = sp.coo_array(
            (np.asarray(vals, dtype=np.float64), (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
            shape=(n, n),
        ).tocsr()
        ref.eliminate_zeros()
        rows = np.repeat(np.arange(n), np.diff(ref.indptr))
        for k in np.flatnonzero(rows > ref.indices):
            ref.data[k] = ref[ref.indices[k], rows[k]]
        given_edges = np.array(edges, dtype=np.float64).reshape(-1, 3) if as_array else edges
        got = build_graph(make_nodes(n), given_edges).adjacency
        for x, y in ((got.indptr, ref.indptr), (got.indices, ref.indices), (got.data, ref.data)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


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

    @pytest.mark.parametrize(
        "indices, indptr",
        [([50000], [0, 1, 1]), ([-1], [0, 1, 1]), ([1, 0], [0, 2, 1]), ([], [0, 1, 0])],
        ids=["index-past-the-end", "negative-index", "decreasing-indptr", "decreasing-indptr-no-entries"],
    )
    def test_index_arrays_outside_the_graph_are_refused(self, indices, indptr):
        # scipy's constructor takes these, and its kernels read and write out
        # of bounds on them: unchecked, the first crashes the interpreter
        a = sp.csr_array((np.ones(len(indices)), np.array(indices, dtype=np.int64), np.array(indptr)), shape=(2, 2))
        with pytest.raises(IndexOutOfRange, match=r"index outside \[0, 2\) or decreasing row pointers"):
            ReasoningGraph((NodeMeta(0), NodeMeta(1)), a)


@st.composite
def raw_adjacency(draw):
    """A CSR array of non-negative off-diagonal entries made from its raw
    arrays: indices may be unsorted or repeated within a row, and an entry
    may be an explicit zero."""
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    entries = draw(st.lists(st.tuples(st.sampled_from(pairs), st.sampled_from([0.0, 0.5, 1.0, 2.0])), max_size=16)) if pairs else []
    if draw(st.booleans()):  # mirror every entry, so that most inputs are symmetric
        entries += [((j, i), w) for (i, j), w in entries]
    rows = [[(j, w) for (r, j), w in entries if r == i] for i in range(n)]
    for row in rows:
        row[:] = draw(st.permutations(row))
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.array([j for row in rows for j, _ in row], dtype=np.int64)
    data = np.array([w for row in rows for _, w in row], dtype=np.float64)
    return sp.csr_array((data, indices, indptr), shape=(n, n))


class TestSymmetryCheck:
    @settings(max_examples=200, deadline=None)
    @given(a=raw_adjacency())
    def test_agrees_with_the_difference(self, a):
        asym = a - a.T
        symmetric = not (asym.nnz and np.abs(asym.data).max() > 0.0)
        nodes = tuple(NodeMeta(i) for i in range(a.shape[0]))
        if symmetric:
            ReasoningGraph(nodes, a)
        else:
            with pytest.raises(BadParams, match="not symmetric"):
                ReasoningGraph(nodes, a)


class TestCombinatorialLaplacian:
    def test_p3_matrix(self, p3):
        lap = combinatorial_laplacian(p3)
        expected = [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
        assert np.array_equal(lap.toarray(), expected)

    def test_edgeless_graph_is_zero(self):
        g = build_graph(make_nodes(4), [])
        lap = combinatorial_laplacian(g)
        assert not lap.toarray().any()
        assert not (lap @ np.arange(4.0)).any()

    def test_quadratic_form_matches_edge_sum(self, rng):
        # x^T L x must equal sum over edges of w_ij (x_i - x_j)^2
        g = random_graph(rng, 20, density=0.25)
        lap = combinatorial_laplacian(g)
        dense_adj = g.adjacency.toarray()
        for _ in range(100):
            x = rng.standard_normal(20)
            quad = float(x @ (lap @ x))
            edge_sum = 0.0
            for i in range(20):
                for j in range(i + 1, 20):
                    edge_sum += dense_adj[i, j] * (x[i] - x[j]) ** 2
            assert quad == pytest.approx(edge_sum, rel=1e-9, abs=1e-9)

    def test_row_sums_vanish(self, rng):
        g = random_graph(rng, 15)
        lap = combinatorial_laplacian(g)
        dense = lap.toarray()
        assert np.abs(dense.sum(axis=1)).max() <= 1e-12 * max(np.abs(dense).max(), 1.0)

    def test_ones_vector_in_nullspace(self, rng):
        g = random_graph(rng, 12)
        lap = combinatorial_laplacian(g)
        assert np.abs(lap @ np.ones(12)).max() <= 1e-12

    def test_psd_on_random_unit_vectors(self, rng):
        g = random_graph(rng, 25, density=0.3)
        lap = combinatorial_laplacian(g)
        for _ in range(1000):
            x = rng.standard_normal(25)
            x /= np.linalg.norm(x)
            assert float(x @ (lap @ x)) >= -1e-9

    def test_zero_eigenvalue_count_equals_components(self):
        # two disjoint paths plus an isolated node: 3 components
        nodes = make_nodes(7)
        edges = [(0, 1, 1.0), (1, 2, 0.5), (3, 4, 2.0), (4, 5, 1.0)]
        g = build_graph(nodes, edges)
        lap = combinatorial_laplacian(g)
        eigs = np.linalg.eigvalsh(lap.toarray())
        assert int(np.sum(np.abs(eigs) < 1e-8)) == 3


class TestNormalizedLaplacian:
    def test_single_edge(self):
        g = build_graph(make_nodes(2), [(0, 1, 1.0)])
        lap = normalized_laplacian(g)
        assert np.allclose(lap.toarray(), [[1, -1], [-1, 1]], atol=1e-15)

    def test_k2_eigenvalues(self):
        g = build_graph(make_nodes(2), [(0, 1, 1.0)])
        lap = normalized_laplacian(g)
        eigs = np.linalg.eigvalsh(lap.toarray())
        assert np.allclose(eigs, [0.0, 2.0], atol=1e-12)

    def test_spectrum_bounded_by_two(self, rng):
        g = random_graph(rng, 30, density=0.2)
        lap = normalized_laplacian(g)
        eigs = np.linalg.eigvalsh(lap.toarray())
        assert eigs.max() <= 2.0 + 1e-9
        assert eigs.min() >= -1e-9

    def test_isolated_node_row(self):
        g = build_graph(make_nodes(3), [(0, 1, 1.0)])
        lap = normalized_laplacian(g)
        dense = lap.toarray()
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


def dense_bound(g):
    """The dense-path bound of ``g``'s combinatorial Laplacian, from diag(d) - A."""
    if not g.adjacency.nnz:
        return 0.0
    dense = np.diag(g.adjacency.sum(axis=1)) - g.adjacency.toarray()
    pad = g.node_count * np.finfo(np.float64).eps * float(np.abs(dense).sum(axis=0).max())
    return float(np.linalg.eigvalsh(dense)[-1]) + pad


class TestLaplacianInvariants:
    """What a valid graph gives every Laplacian, alone or in a block, with no check of its own."""

    @settings(max_examples=60, deadline=None)
    @given(graphs=st.lists(spread_graphs(), min_size=1, max_size=5), kind=st.sampled_from([COMBINATORIAL, NORMALIZED]))
    def test_symmetric_with_vanishing_rows(self, graphs, kind):
        for lap in [laplacians([g], kind) for g in graphs] + [laplacians(graphs, kind)]:
            dense = lap.toarray()
            scale = np.abs(dense).max(initial=0.0)
            assert np.array_equal(dense, dense.T)
            assert np.linalg.eigvalsh(dense).min(initial=0.0) >= -1e-10 * scale
            if kind == COMBINATORIAL:
                assert np.abs(dense.sum(axis=1)).max() <= 1e-12 * scale
            else:
                assert np.array_equal(np.diag(dense), np.ones(lap.node_count))

    @settings(max_examples=60, deadline=None)
    @given(
        graphs=st.lists(spread_graphs(), min_size=1, max_size=5),
        kind=st.sampled_from([COMBINATORIAL, NORMALIZED]),
        seed=st.integers(0, 2**16),
    )
    def test_operator_equals_its_dense_form_and_each_graph_alone(self, graphs, kind, seed):
        block = laplacians(graphs, kind)
        x = np.random.default_rng(seed).standard_normal(block.node_count)
        dense = block.toarray()
        y = block @ x
        assert np.all(np.abs(y - dense @ x) <= 1e-12 * (np.abs(dense) @ np.abs(x)))
        for g, lo, hi in zip(graphs, block.starts[:-1], block.starts[1:], strict=True):
            assert (laplacians([g], kind) @ x[lo:hi]).tobytes() == y[lo:hi].tobytes()
        if kind == COMBINATORIAL:
            assert estimate_lambda_max(block) == [dense_bound(g) for g in graphs]

    @settings(max_examples=80, deadline=None)
    @given(
        graphs=st.lists(spread_graphs(), min_size=1, max_size=5),
        kind=st.sampled_from([COMBINATORIAL, NORMALIZED]),
        form=st.sampled_from(["contiguous", "strided", "integer"]),
        seed=st.integers(0, 2**16),
    )
    def test_kernel_product_is_scipys_public_product(self, graphs, kind, form, seed):
        # `Laplacian` calls scipy's private CSR kernel and sums the degrees
        # itself; through scipy's public ``@`` and ``sum`` every bit agrees,
        # or a scipy release has changed what the kernel computes
        block = laplacians(graphs, kind)
        a, n = block.adjacency, block.node_count
        rng = np.random.default_rng(seed)
        if form == "integer":
            x = rng.integers(-5, 6, n)
        elif form == "strided":
            x = rng.standard_normal(2 * n)[::2]
        else:
            x = rng.standard_normal(n)
        degrees = np.asarray(a.sum(axis=1), dtype=np.float64).reshape(-1)
        assert block.degrees.tobytes() == degrees.tobytes()
        if kind == COMBINATORIAL:
            want = degrees * x - a @ x
        else:
            s = np.where(degrees > 0.0, 1.0 / np.sqrt(np.where(degrees > 0.0, degrees, 1.0)), 0.0)
            want = x - s * (a @ (s * x))
        assert (block @ x).tobytes() == want.tobytes()


class TestProductShapes:
    """A product takes one value per node; the kernel checks no length, so the operator does."""

    @pytest.mark.parametrize("kind", [COMBINATORIAL, NORMALIZED])
    @pytest.mark.parametrize("shape", [(4, 1), (3,), (5,)])
    def test_other_shapes_are_refused(self, kind, shape):
        # at (4, 1) the diagonal term used to broadcast to a (4, 4) array
        lap = laplacians([path_graph(4)], kind)
        with pytest.raises(DimensionMismatch):
            lap @ np.ones(shape)


class TestCsrKernel:
    """`csr_matvec`, scipy's private CSR kernel that `Laplacian.apply` calls,
    and `csr_tocsc`, which `ReasoningGraph.validate` calls to lay out a
    transpose: imported by name here, so a scipy release that moves them
    fails with its cause named."""

    @settings(max_examples=100, deadline=None)
    @given(a=raw_adjacency())
    def test_transpose_kernel_lays_out_tocsc(self, a):
        # on any CSR, canonical or not, the kernel writes what ``tocsc``
        # holds: the transpose's CSR arrays, byte for byte
        out = tuple(np.empty_like(x) for x in (a.indptr, a.indices, a.data))
        csr_tocsc(*a.shape, a.indptr, a.indices, a.data, *out)
        want = a.tocsc()
        for x, y in zip(out, (want.indptr, want.indices, want.data), strict=True):
            assert x.tobytes() == y.tobytes()

    def test_into_zeros_it_is_the_product(self, rng):
        a = random_graph(rng, 30, density=0.2).adjacency
        x = rng.standard_normal(30)
        out = np.zeros(30)
        csr_matvec(30, 30, a.indptr, a.indices, a.data, x, out)
        assert out.tobytes() == (a @ x).tobytes()

    def test_into_other_values_it_adds_the_product(self, rng):
        a = random_graph(rng, 30, density=0.2).adjacency
        x, out = rng.standard_normal(30), rng.standard_normal(30)
        # each row's sum starts from the output's entry and adds its terms in order
        want = out.copy()
        for i in range(30):
            for k in range(a.indptr[i], a.indptr[i + 1]):
                want[i] += a.data[k] * x[a.indices[k]]
        csr_matvec(30, 30, a.indptr, a.indices, a.data, x, out)
        assert out.tobytes() == want.tobytes()


TWO_NODES = [(0, "entity", "a"), (1, "fact", "b")]

# content a graph file may hold that the graph refuses: nodes, edges, the
# graph's own error, and the message the loader prefixes with the path
REFUSED_GRAPHS = {
    "unknown kind": ([(0, "entity", "a"), (1, "bogus", "b")], [(0, 1, 1.0)], BadParams, "unknown node kind 'bogus'"),
    "negative weight": (TWO_NODES, [(0, 1, -0.5)], NegativeWeight, r"edge \(0, 1\) has negative weight"),
    "self-loop": (TWO_NODES, [(1, 1, 1.0)], SelfLoop, "self-loop at node 1"),
    "repeated id": ([(0, "entity", "a"), (0, "fact", "b")], [], IndexOutOfRange, "node ids must be dense"),
    "missing node": (TWO_NODES, [(0, 5, 1.0)], IndexOutOfRange, r"edge \(0, 5\) outside"),
    "non-finite weight": (TWO_NODES, [(0, 1, float("inf"))], BadParams, r"edge \(0, 1\) has non-finite weight"),
    "list label": ([(0, "entity", ["a"]), (1, "fact", "b")], [], BadParams, r"node 0 has label \['a'\], not a string"),
    "number label": ([(0, "entity", "a"), (1, "fact", 7)], [(0, 1, 1.0)], BadParams, "node 1 has label 7, not a string"),
}

# a text file's label is the rest of its line, always a string
REFUSED_FILES = [(fault, ".json") for fault in sorted(REFUSED_GRAPHS)] + [
    (fault, ".txt") for fault, (nodes, *_) in sorted(REFUSED_GRAPHS.items()) if all(isinstance(m[2], str) for m in nodes)
]


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
        with pytest.raises(FormatError, match=re.escape(str(path)) + r": edge \(1, 2\) has non-finite weight"):
            load_graph_text(path)

    @pytest.mark.parametrize("weight", ["NaN", "Infinity"])
    def test_json_non_finite_weight(self, tmp_path, weight):
        path = tmp_path / "g.json"
        path.write_text(f'{{"nodes": [{{"id": 0}}, {{"id": 1}}], "edges": [[0, 1, {weight}]]}}')
        with pytest.raises(FormatError, match=re.escape(str(path)) + r": edge \(0, 1\) has non-finite weight"):
            load_graph_json(path)

    @pytest.mark.parametrize("fault", sorted(REFUSED_GRAPHS))
    def test_refused_graph_made_directly(self, fault):
        nodes, edges, refusal, message = REFUSED_GRAPHS[fault]
        with pytest.raises(refusal, match=message):
            build_graph([NodeMeta(*node) for node in nodes], edges)

    @pytest.mark.parametrize("fault, suffix", REFUSED_FILES)
    def test_refused_graph_is_a_format_error_naming_the_file(self, tmp_path, fault, suffix):
        nodes, edges, refusal, message = REFUSED_GRAPHS[fault]
        path = tmp_path / f"g{suffix}"
        if suffix == ".json":
            payload = {"nodes": [dict(id=i, kind=kind, label=label) for i, kind, label in nodes], "edges": edges}
            path.write_text(json.dumps(payload))
        else:
            lines = [f"N {len(nodes)}"] + [f"node {i} {kind} {label}" for i, kind, label in nodes]
            path.write_text("\n".join(lines + [f"edge {i} {j} {w!r}" for i, j, w in edges]) + "\n")
        with pytest.raises(FormatError, match=re.escape(str(path)) + ": " + message) as caught:
            load_graph(path)
        # the graph itself, made directly, refuses the same content as before
        assert type(caught.value.__cause__) is refusal

    def test_json_infinite_node_id(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"nodes": [{"id": Infinity}], "edges": []}')
        with pytest.raises(FormatError):
            load_graph_json(path)

    @pytest.mark.parametrize(
        "nodes, edges, value",
        [
            ('{"id": "0"}, {"id": 1}', "[[0, 1, 1.0]]", "'0'"),
            ('{"id": 0}, {"id": 1.9}', "[[0, 1, 1.0]]", "1.9"),
            ('{"id": 0}, {"id": 1.0}', "[]", "1.0"),
            ('{"id": false}, {"id": 1}', "[]", "False"),
            ('{"id": 0}, {"id": 1}, {"id": 2}', "[[0, 1.9, 1.0]]", "1.9"),
            ('{"id": 0}, {"id": 1}, {"id": 2}', "[[true, 2, 1.0]]", "True"),
            ('{"id": 0}, {"id": 1}, {"id": 2}', '[[0, "2", 1.0]]', "'2'"),
            ('{"id": 0}, {"id": 1}, {"id": 2}', "[[0, 1, 1.0], [1, NaN, 1.0]]", "nan"),
        ],
        ids=["string-id", "fractional-id", "float-id", "bool-id", "fractional-end", "bool-end", "string-end", "nan-end"],
    )
    def test_json_ids_and_ends_must_be_integers(self, tmp_path, nodes, edges, value):
        # each of these used to load, after int(), as a different graph
        path = tmp_path / "g.json"
        path.write_text(f'{{"nodes": [{nodes}], "edges": {edges}}}')
        with pytest.raises(FormatError, match=re.escape(f"{path}: malformed graph JSON: {value} is not an integer")):
            load_graph_json(path)

    @pytest.mark.parametrize(
        "line, lineno",
        [("N 2 7", 1), ("edge 0 1 1.0 9 9", 4), ("edge 0 1", 4), ("N", 1)],
        ids=["header", "edge", "short-edge", "bare-header"],
    )
    def test_text_extra_or_missing_tokens_are_malformed(self, tmp_path, line, lineno):
        records = ["N 2", "node 0 entity a", "node 1 fact b", "edge 0 1 1.0"]
        records[lineno - 1] = line
        path = tmp_path / "g.txt"
        path.write_text("\n".join(records) + "\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}:{lineno}: malformed line {line!r}")):
            load_graph_text(path)

    def test_text_labels_keep_their_words(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("N 3\nnode 0 entity two words\nnode 1 fact  a  b  c \nnode 2 proposition\nedge 0 1 1.0\n")
        assert load_graph_text(path).labels == ("two words", "a  b  c", "")
