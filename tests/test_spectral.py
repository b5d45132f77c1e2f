import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as npcheb
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from spectral_nsr.errors import (
    BadParams,
    DimensionMismatch,
    FormatError,
    NonFiniteResponse,
    OutOfRange,
    TooLarge,
)
from spectral_nsr.graph import COMBINATORIAL, NORMALIZED, build_graph, combinatorial_laplacian, laplacians, normalized_laplacian
from spectral_nsr.harness import gen_dataset, random_sparse_laplacian
from spectral_nsr.pipeline import PipelineConfig, combined_filter
from spectral_nsr.spectral import (
    DENSE_BOUND_LIMIT,
    ChebyshevFilter,
    FrequencyResponse,
    GraphSignal,
    chebyshev_filter,
    chebyshev_stack,
    eigendecompose,
    estimate_lambda_max,
    exact_filter,
    fit_chebyshev,
    gft,
    load_filter,
    product_operator,
    series_operator,
    sample_response,
    save_filter,
    vertex_signal,
)

from conftest import make_nodes, make_pipeline, path_graph, random_graph


class TestEigendecompose:
    def test_p3_eigenvalues(self, p3):
        # characteristic polynomial of the P3 Laplacian is l(l-1)(l-3)
        lap = combinatorial_laplacian(p3)
        basis = eigendecompose(lap)
        assert np.allclose(basis.eigenvalues, [0.0, 1.0, 3.0], atol=1e-9)
        u = basis.eigenvectors
        assert np.abs(u.T @ u - np.eye(3)).max() <= 1e-12
        assert np.abs((u * basis.eigenvalues) @ u.T - lap.toarray()).max() <= 1e-12

    def test_edgeless_graph(self):
        g = build_graph(make_nodes(5), [])
        basis = eigendecompose(combinatorial_laplacian(g))
        assert np.allclose(basis.eigenvalues, 0.0, atol=0)
        assert np.array_equal(basis.eigenvectors.T @ basis.eigenvectors, np.eye(5))
        assert not combinatorial_laplacian(g).toarray().any()

    def test_k2_with_weight(self):
        w = 1.7
        g = build_graph(make_nodes(2), [(0, 1, w)])
        basis = eigendecompose(combinatorial_laplacian(g))
        assert np.allclose(basis.eigenvalues, [0.0, 2 * w], atol=1e-12)

    def test_reconstruction_and_orthonormality(self, rng):
        g = random_graph(rng, 40, density=0.2)
        lap = combinatorial_laplacian(g)
        basis = eigendecompose(lap)
        u = basis.eigenvectors
        assert np.abs(u.T @ u - np.eye(40)).max() <= 1e-8
        rec = (u * basis.eigenvalues) @ u.T
        dense = lap.toarray()
        assert np.abs(rec - dense).max() <= 1e-7 * max(np.abs(dense).max(), 1.0)

    def test_sign_convention(self, rng):
        g = random_graph(rng, 10)
        basis = eigendecompose(combinatorial_laplacian(g))
        for col in basis.eigenvectors.T:
            nz = col[np.abs(col) > 1e-12 * np.abs(col).max()]
            assert nz[0] > 0

    def test_too_large(self, rng):
        g = random_graph(rng, 20)
        with pytest.raises(TooLarge):
            eigendecompose(combinatorial_laplacian(g), limit=10)


class TestTransforms:
    def test_eigenvector_maps_to_unit_coordinate(self, rng):
        g = random_graph(rng, 12)
        basis = eigendecompose(combinatorial_laplacian(g))
        xhat = gft(basis, vertex_signal(basis.eigenvectors[:, 3]))
        expected = np.zeros(12)
        expected[3] = 1.0
        assert np.allclose(xhat.values, expected, atol=1e-10)

    def test_zero_maps_to_zero(self, rng):
        g = random_graph(rng, 6)
        basis = eigendecompose(combinatorial_laplacian(g))
        assert np.allclose(gft(basis, vertex_signal(np.zeros(6))).values, 0.0, atol=0)
        assert np.allclose(basis.eigenvectors @ np.zeros(6), 0.0, atol=0)

    def test_round_trip(self, rng):
        g = random_graph(rng, 50, density=0.15)
        basis = eigendecompose(combinatorial_laplacian(g))
        x = rng.standard_normal(50)
        back = basis.eigenvectors @ gft(basis, vertex_signal(x)).values
        assert np.abs(back - x).max() <= 1e-10
        xhat = rng.standard_normal(50)
        forth = gft(basis, vertex_signal(basis.eigenvectors @ xhat))
        assert np.abs(forth.values - xhat).max() <= 1e-10

    def test_parseval(self, rng):
        g = random_graph(rng, 30)
        basis = eigendecompose(combinatorial_laplacian(g))
        for _ in range(20):
            x = rng.standard_normal(30)
            xhat = gft(basis, vertex_signal(x))
            assert abs(np.linalg.norm(xhat.values) - np.linalg.norm(x)) <= 1e-10

    def test_constant_eigenvector_on_connected_graph(self):
        g = path_graph(8)
        basis = eigendecompose(combinatorial_laplacian(g))
        e0 = np.zeros(8)
        e0[0] = 1.0
        x = basis.eigenvectors @ e0
        assert np.allclose(x, 1.0 / np.sqrt(8), atol=1e-10)

    def test_dimension_mismatch(self, rng):
        g = random_graph(rng, 5)
        basis = eigendecompose(combinatorial_laplacian(g))
        with pytest.raises(DimensionMismatch):
            gft(basis, vertex_signal(np.zeros(4)))


class TestExactFilter:
    def test_identity_response(self, rng):
        g = random_graph(rng, 10)
        basis = eigendecompose(combinatorial_laplacian(g))
        x = rng.standard_normal(10)
        y = exact_filter(basis, FrequencyResponse(lambda lam: np.ones_like(lam)), vertex_signal(x))
        assert np.allclose(y.values, x, atol=1e-10)

    def test_lambda_response_is_laplacian(self, rng):
        g = random_graph(rng, 10)
        lap = combinatorial_laplacian(g)
        basis = eigendecompose(lap)
        x = rng.standard_normal(10)
        y = exact_filter(basis, FrequencyResponse(lambda lam: lam), vertex_signal(x))
        assert np.allclose(y.values, lap @ x, atol=1e-9)

    def test_heat_filter_matches_dense_oracle(self, rng):
        g = random_graph(rng, 40, density=0.2)
        lap = combinatorial_laplacian(g)
        basis = eigendecompose(lap)
        x = rng.standard_normal(40)
        y = exact_filter(basis, FrequencyResponse(lambda lam: np.exp(-0.5 * lam)), vertex_signal(x))
        # oracle: independent eigh and explicit U exp(-0.5 Lambda) U^T x
        vals, vecs = np.linalg.eigh(lap.toarray())
        oracle = vecs @ np.diag(np.exp(-0.5 * vals)) @ vecs.T @ x
        assert np.abs(y.values - oracle).max() <= 1e-8

    def test_non_finite_response(self, rng):
        g = random_graph(rng, 6)
        basis = eigendecompose(combinatorial_laplacian(g))
        bad = FrequencyResponse(lambda lam: np.full_like(np.asarray(lam, float), np.nan))
        with pytest.raises(NonFiniteResponse):
            exact_filter(basis, bad, vertex_signal(np.ones(6)))

    def test_overflowing_output_is_a_numerical_failure(self):
        # every gain is finite; their product with the signal is not
        basis = eigendecompose(combinatorial_laplacian(build_graph(make_nodes(2), [(0, 1, 1.0)])))
        huge = FrequencyResponse(lambda lam: np.full_like(np.asarray(lam, float), 1e308))
        with pytest.raises(NonFiniteResponse, match="overflowed"):
            exact_filter(basis, huge, vertex_signal([1e308, -1e308]))


    def test_scalar_response_is_rejected(self):
        scalar = FrequencyResponse(lambda lam: 2.5)
        with pytest.raises(BadParams, match="shape"):
            scalar(np.linspace(0.0, 2.0, 5))
        with pytest.raises(BadParams):
            fit_chebyshev(scalar, 3, 2.0)


class TestEstimateLambdaMax:
    def test_k2_unit_weight(self):
        g = build_graph(make_nodes(2), [(0, 1, 1.0)])
        [est] = estimate_lambda_max(combinatorial_laplacian(g))
        assert abs(est - 2.0) / 2.0 <= 0.005

    def test_normalized_bounded(self, rng):
        g = random_graph(rng, 25)
        [est] = estimate_lambda_max(normalized_laplacian(g))
        assert est <= 2.02

    def test_random_graph_close_to_dense_oracle(self, rng):
        g = random_graph(rng, 100, density=0.05)
        lap = combinatorial_laplacian(g)
        [est] = estimate_lambda_max(lap)
        true = float(np.linalg.eigvalsh(lap.toarray()).max())
        assert est >= true
        assert abs(est - true) / true <= 0.0101

    def test_edgeless(self):
        g = build_graph(make_nodes(3), [])
        assert estimate_lambda_max(combinatorial_laplacian(g)) == [0.0]

    @pytest.mark.parametrize("family", ["transitive", "kinship"])
    def test_bound_holds_on_every_generated_task(self, family):
        for task in gen_dataset(family, 200, seed=5):
            for lap in (combinatorial_laplacian(task.graph), normalized_laplacian(task.graph)):
                true = float(np.linalg.eigvalsh(lap.toarray())[-1])
                assert estimate_lambda_max(lap)[0] >= true, (task.task_id, lap.kind)

    @pytest.mark.parametrize("n", [DENSE_BOUND_LIMIT // 2, DENSE_BOUND_LIMIT, DENSE_BOUND_LIMIT + 1, 3 * DENSE_BOUND_LIMIT])
    def test_bound_holds_on_both_sides_of_the_crossover(self, rng, n):
        for trial in range(3):
            g = random_graph(rng, n, density=float(rng.uniform(0.02, 0.2)))
            for lap in (combinatorial_laplacian(g), normalized_laplacian(g)):
                true = float(np.linalg.eigvalsh(lap.toarray())[-1])
                [est] = estimate_lambda_max(lap, seed=trial)
                assert true <= est <= true * (1 + 1e-2), (n, trial, lap.kind)

    def test_lanczos_bound_on_a_large_sparse_graph(self):
        g, comb = random_sparse_laplacian(100_000, seed=0)
        assert g.edge_count() > 90_000
        for lap in (comb, normalized_laplacian(g)):
            # ARPACK run to machine precision stands in for the dense oracle
            operator = scipy.sparse.linalg.LinearOperator(lap.adjacency.shape, matvec=lap.__matmul__, dtype=float)
            true = float(eigsh(operator, k=1, which="LA", return_eigenvectors=False)[0])
            [est] = estimate_lambda_max(lap)
            assert true <= est <= true * (1 + 1e-2), lap.kind

    def test_bounds_are_python_floats(self, rng):
        graphs = [random_graph(rng, 20), random_graph(rng, DENSE_BOUND_LIMIT + 20, density=0.1)]
        for g in graphs:  # the dense path, then the Lanczos path
            for lap in (combinatorial_laplacian(g), normalized_laplacian(g)):
                assert [type(bound) for bound in estimate_lambda_max(lap)] == [float], (g.node_count, lap.kind)
        bounds = estimate_lambda_max(laplacians(graphs, COMBINATORIAL))
        assert [type(bound) for bound in bounds] == [float, float]
        out = make_pipeline(PipelineConfig()).run_task(gen_dataset("transitive", 1, seed=0)[0])
        assert type(out.lambda_max) is float

    def test_unconverged_lanczos_gives_gershgorin(self, rng, monkeypatch):
        def fail(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
        g = random_graph(rng, DENSE_BOUND_LIMIT + 20, density=0.1)
        comb = combinatorial_laplacian(g)
        assert estimate_lambda_max(comb) == [2.0 * g.adjacency.sum(axis=1).max()]
        assert estimate_lambda_max(normalized_laplacian(g)) == [2.0]

    def test_failed_dense_solve_gives_gershgorin(self, rng, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        g = random_graph(rng, 20)
        comb = combinatorial_laplacian(g)
        assert estimate_lambda_max(comb)[0] == pytest.approx(2.0 * g.adjacency.sum(axis=1).max(), rel=1e-12)
        assert estimate_lambda_max(normalized_laplacian(g)) == [2.0]
        # a block of several graphs, of two node counts: each its own bound
        graphs = [g, random_graph(rng, 12), random_graph(rng, 20, density=0.4)]
        degrees = [2.0 * float(graph.adjacency.sum(axis=1).max()) for graph in graphs]
        assert estimate_lambda_max(laplacians(graphs, COMBINATORIAL)) == pytest.approx(degrees, rel=1e-12)
        assert estimate_lambda_max(laplacians(graphs, NORMALIZED)) == [2.0, 2.0, 2.0]


class TestChebyshevFilter:
    def test_theta0_only_is_identity(self, rng):
        g = random_graph(rng, 12)
        lap = combinatorial_laplacian(g)
        x = rng.standard_normal(12)
        filt = ChebyshevFilter([1.0], lambda_max=4.0)
        y = chebyshev_filter(lap, filt, vertex_signal(x))
        assert np.allclose(y.values, x, atol=0)

    def test_theta1_is_shifted_laplacian(self, rng):
        g = random_graph(rng, 12)
        lap = combinatorial_laplacian(g)
        lam_max = 4.0
        x = rng.standard_normal(12)
        filt = ChebyshevFilter([0.0, 1.0], lambda_max=lam_max)
        y = chebyshev_filter(lap, filt, vertex_signal(x))
        expected = (2.0 / lam_max) * (lap @ x) - x
        assert np.allclose(y.values, expected, rtol=0, atol=1e-14)

    def test_fit_matches_exact_filter(self, rng):
        g = random_graph(rng, 60, density=0.12)
        lap = combinatorial_laplacian(g)
        basis = eigendecompose(lap)
        lam_max = float(basis.eigenvalues[-1])
        response = FrequencyResponse(lambda lam: np.exp(-lam))
        filt = fit_chebyshev(response, 20, lam_max)
        x = rng.standard_normal(60)
        approx = chebyshev_filter(lap, filt, vertex_signal(x))
        exact = exact_filter(basis, response, vertex_signal(x))
        rel = np.linalg.norm(approx.values - exact.values) / np.linalg.norm(exact.values)
        assert rel <= 1e-4

    def test_recurrence_equals_exact_for_same_polynomial(self, rng):
        # same coefficients, two evaluation routes
        for trial in range(10):
            n = int(rng.integers(10, 80))
            g = random_graph(rng, n, density=0.2)
            lap = combinatorial_laplacian(g)
            basis = eigendecompose(lap)
            lam_max = max(float(basis.eigenvalues[-1]), 1e-9)
            order = int(rng.integers(0, 11))
            filt = ChebyshevFilter(rng.standard_normal(order + 1), lam_max)
            x = rng.standard_normal(n)
            via_recurrence = chebyshev_filter(lap, filt, vertex_signal(x))
            via_basis = exact_filter(basis, filt.response(), vertex_signal(x))
            scale = max(np.linalg.norm(via_basis.values), 1e-12)
            assert np.linalg.norm(via_recurrence.values - via_basis.values) / scale <= 1e-8

    def test_linearity(self, rng):
        g = random_graph(rng, 15)
        lap = combinatorial_laplacian(g)
        filt = ChebyshevFilter(rng.standard_normal(6), lambda_max=estimate_lambda_max(lap)[0])
        x, z = rng.standard_normal(15), rng.standard_normal(15)
        a, b = 0.7, -1.3
        lhs = chebyshev_filter(lap, filt, vertex_signal(a * x + b * z)).values
        rhs = a * chebyshev_filter(lap, filt, vertex_signal(x)).values + b * chebyshev_filter(
            lap, filt, vertex_signal(z)
        ).values
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(np.abs(rhs).max(), 1.0)

    def test_low_pass_smooths(self, rng):
        # exp(-2 lambda) filtering cannot raise the Laplacian quadratic form
        g = random_graph(rng, 20, density=0.3)
        lap = combinatorial_laplacian(g)
        basis = eigendecompose(lap)
        x = rng.standard_normal(20)
        y = exact_filter(basis, FrequencyResponse(lambda lam: np.exp(-2.0 * lam)), vertex_signal(x))
        assert y.values @ (lap @ y.values) <= x @ (lap @ x) + 1e-12

    def test_overflowing_recurrence_is_a_numerical_failure(self):
        # a non-finite output is the filter's failure, not a bad input signal
        lap = combinatorial_laplacian(build_graph(make_nodes(2), [(0, 1, 1.0)]))
        filt = ChebyshevFilter([1e308, 1e308], lambda_max=2.0)
        with pytest.raises(NonFiniteResponse, match="overflowed"):
            chebyshev_filter(lap, filt, vertex_signal([1.0, -1.0]))

    def test_dimension_mismatch(self, rng):
        g = random_graph(rng, 8)
        lap = combinatorial_laplacian(g)
        filt = ChebyshevFilter([1.0], lambda_max=1.0)
        with pytest.raises(DimensionMismatch):
            chebyshev_filter(lap, filt, vertex_signal(np.zeros(7)))

    @pytest.mark.parametrize("shape", [(7,), (9,), (8, 1)])
    def test_stack_refuses_a_signal_of_another_shape(self, rng, shape):
        lap = combinatorial_laplacian(random_graph(rng, 8))
        with pytest.raises(DimensionMismatch):
            chebyshev_stack(lap, 3.0, np.ones(shape), 3)

    def test_stack_refuses_node_bounds_of_another_length(self, rng):
        lap = combinatorial_laplacian(random_graph(rng, 8))
        with pytest.raises(DimensionMismatch):
            chebyshev_stack(lap, np.full(7, 3.0), np.ones(8), 3)

    def test_stack_columns_match_manual_recurrence(self, rng):
        g = random_graph(rng, 9)
        # both kinds, with one bound, and on a block of two graphs with a bound per node
        for kind in (COMBINATORIAL, NORMALIZED):
            for graphs, lam_max in (([g], 3.0), ([g, random_graph(rng, 5)], np.repeat([3.0, 4.0], [9, 5]))):
                lap = laplacians(graphs, kind)
                n = lap.node_count
                x = rng.standard_normal(n)
                stack = chebyshev_stack(lap, lam_max, x, 4)
                shifted = (2.0 / np.broadcast_to(lam_max, n))[:, None] * dense_laplacian(graphs, kind) - np.eye(n)
                t_prev, t_cur = x, shifted @ x
                assert np.allclose(stack[:, 0], t_prev, rtol=0, atol=0)
                assert np.allclose(stack[:, 1], t_cur, rtol=0, atol=1e-14)
                for k in range(2, 5):
                    t_prev, t_cur = t_cur, 2 * shifted @ t_cur - t_prev
                    assert np.allclose(stack[:, k], t_cur, rtol=0, atol=1e-12)


def dense_laplacian(graphs, kind):
    """The graphs' Laplacian of ``kind``, block-diagonal and dense, made from
    their adjacencies alone: D - A, or I - S A S with s = d^(-1/2) and 0 on
    an isolated node."""
    a = scipy.sparse.block_diag([g.adjacency for g in graphs]).toarray()
    d = a.sum(axis=1)
    if kind == COMBINATORIAL:
        return np.diag(d) - a
    s = np.where(d > 0.0, 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0)), 0.0)
    return np.eye(d.size) - s[:, None] * a * s


@st.composite
def filter_blocks(draw):
    """A block of 1 to 5 graphs of 1 to 12 nodes, any of them with isolated
    nodes or no edge, a Laplacian kind, an order from 0 to 10 and a seed
    for the signal and the coefficients."""
    graphs = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 12))
        density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
        graphs.append(build_graph(make_nodes(n), [(i, j, float(rng.uniform(0.1, 2.0))) for i, j in pairs]))
    return graphs, draw(st.sampled_from([COMBINATORIAL, NORMALIZED])), draw(st.integers(0, 10)), draw(st.integers(0, 2**32 - 1))


class TestRecurrenceStep:
    """The step T_(k+1) = d2 T_k - T_(k-1) + W (-2 c T_k), whose kernel call
    adds the off-diagonal product into the rest of the step."""

    @settings(max_examples=150, deadline=None)
    @given(case=filter_blocks())
    def test_block_rows_are_each_graph_alone_and_the_dense_recurrence(self, case):
        graphs, kind, order, seed = case
        rng = np.random.default_rng(seed)
        lap = laplacians(graphs, kind)
        bounds = [max(bound, 1e-12) for bound in estimate_lambda_max(lap)]
        theta, x = rng.standard_normal(order + 1), rng.standard_normal(lap.node_count)
        per_node = np.repeat(bounds, np.diff(lap.starts))
        y = chebyshev_filter(lap, ChebyshevFilter(theta, per_node), vertex_signal(x)).values
        stack = chebyshev_stack(lap, per_node, x, order)
        for g, bound, lo, hi in zip(graphs, bounds, lap.starts[:-1], lap.starts[1:]):
            alone = laplacians([g], kind)
            own_y = chebyshev_filter(alone, ChebyshevFilter(theta, bound), vertex_signal(x[lo:hi])).values
            own_stack = chebyshev_stack(alone, bound, x[lo:hi], order)
            assert y[lo:hi].tobytes() == own_y.tobytes()
            assert stack[lo:hi].tobytes() == own_stack.tobytes()
            # the dense oracle: the plain recurrence on the graph's dense Laplacian
            shifted = (2.0 / bound) * dense_laplacian([g], kind) - np.eye(hi - lo)
            terms = [x[lo:hi], shifted @ x[lo:hi]][: order + 1]
            while len(terms) < order + 1:
                terms.append(2.0 * shifted @ terms[-1] - terms[-2])
            want = np.column_stack(terms)
            assert np.abs(own_stack - want).max() <= 1e-12 * np.abs(want).max()
            # each node's scale is that of the terms it sums, which may cancel
            assert np.all(np.abs(own_y - want @ theta) <= 1e-12 * (np.abs(want) @ np.abs(theta)))

    @pytest.mark.parametrize("kind", [COMBINATORIAL, NORMALIZED])
    def test_no_step_makes_a_temporary(self, kind):
        # a higher order adds steps, not memory: the peak traced allocation of
        # one call grows by less than half a vector from order 1, which runs
        # no step after T_1, to order 20, so even a temporary that a step
        # frees shows (the two peaks may fall at other points of the call)
        g, _ = random_sparse_laplacian(8000, seed=3)
        lap = laplacians([g], kind)
        lam_max = estimate_lambda_max(lap)[0]
        x = vertex_signal(np.random.default_rng(3).standard_normal(lap.node_count))

        def peak(call):
            call()  # anything cached on first use, such as the off-diagonal weights, is made here
            tracemalloc.start()
            try:
                out = call()
                return tracemalloc.get_traced_memory()[1] - (out.nbytes if isinstance(out, np.ndarray) else 0)
            finally:
                tracemalloc.stop()

        for run in (
            lambda order: chebyshev_filter(lap, ChebyshevFilter(np.ones(order + 1), lam_max), x),
            lambda order: chebyshev_stack(lap, lam_max, x.values, order),  # the stack itself aside
        ):
            assert peak(lambda: run(20)) - peak(lambda: run(1)) < x.values.nbytes / 2


class TestProductOperator:
    @pytest.mark.parametrize("order", range(9))
    def test_equals_chebmul(self, order):
        operator = product_operator(order)
        assert operator.shape == ((order + 1) ** 2, 2 * order + 1) and not operator.flags.writeable
        assert product_operator(order) is operator
        eye = np.eye(order + 1)
        for j in range(order + 1):
            for k in range(order + 1):
                want = np.zeros(2 * order + 1)
                got = npcheb.chebmul(eye[j], eye[k])
                want[: got.size] = got
                assert np.array_equal(operator[j * (order + 1) + k], want), (j, k)
        rng = np.random.default_rng(order)
        for _ in range(5):
            a, b = rng.standard_normal((2, order + 1))
            want = npcheb.chebmul(a, b)
            got = np.outer(a, b).ravel() @ operator
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_negative_order(self):
        with pytest.raises(BadParams):
            product_operator(-1)

    @pytest.mark.parametrize("order", [0, 1, 3, 5])
    def test_series_operator_multiplies_by_theta(self, order):
        rng = np.random.default_rng(order)
        theta = rng.standard_normal(order + 1)
        operator = series_operator(theta)
        assert operator.shape == (order + 1, 2 * order + 1)
        for _ in range(5):
            c = rng.standard_normal(order + 1)
            want = np.zeros(2 * order + 1)
            got = npcheb.chebmul(theta, c)
            want[: got.size] = got
            assert np.abs(c @ operator - want).max() <= 1e-13 * np.abs(want).max()


class TestFitChebyshev:
    def test_linear_response_exact(self):
        lam_max = 3.0
        filt = fit_chebyshev(FrequencyResponse(lambda lam: lam), 1, lam_max)
        # hand expansion: lambda = lam_max/2 * (T_0 + T_1) under the rescaling
        assert np.allclose(filt.coefficients, [lam_max / 2, lam_max / 2], atol=1e-12)

    def test_constant_response(self):
        filt = fit_chebyshev(FrequencyResponse(lambda lam: np.full_like(lam, 2.5)), 6, 1.0)
        expected = np.zeros(7)
        expected[0] = 2.5
        assert np.allclose(filt.coefficients, expected, atol=1e-12)

    def test_higher_order_reduces_sup_error(self):
        lam_max = 4.0
        response = FrequencyResponse(lambda lam: np.exp(-lam))
        grid = np.linspace(0, lam_max, 400)
        target = np.exp(-grid)
        err5 = np.abs(sample_response(fit_chebyshev(response, 5, lam_max), grid) - target).max()
        err20 = np.abs(sample_response(fit_chebyshev(response, 20, lam_max), grid) - target).max()
        assert err20 < err5

    def test_polynomial_recovery(self, rng):
        # any polynomial of degree <= K is reproduced exactly
        coeffs = rng.standard_normal(4)
        lam_max = 2.0

        def poly(lam):
            return coeffs[0] + coeffs[1] * lam + coeffs[2] * lam**2 + coeffs[3] * lam**3

        filt = fit_chebyshev(FrequencyResponse(poly), 3, lam_max)
        grid = np.linspace(0, lam_max, 50)
        assert np.abs(sample_response(filt, grid) - poly(grid)).max() <= 1e-10

    def test_bad_params(self):
        with pytest.raises(BadParams):
            fit_chebyshev(FrequencyResponse(lambda lam: lam), -1, 1.0)
        with pytest.raises(BadParams):
            fit_chebyshev(FrequencyResponse(lambda lam: lam), 3, 0.0)


class TestSampleResponse:
    def test_identity_filter(self):
        filt = ChebyshevFilter([1.0], lambda_max=2.0)
        assert np.allclose(sample_response(filt, [0.0, 1.0, 2.0]), 1.0, atol=0)

    def test_t1_at_lambda_max(self):
        filt = ChebyshevFilter([0.0, 1.0], lambda_max=5.0)
        assert sample_response(filt, [5.0])[0] == pytest.approx(1.0)

    def test_matches_eigenvector_probe(self, rng):
        # filtering an eigenvector scales it by h(lambda_i)
        g = random_graph(rng, 25)
        lap = combinatorial_laplacian(g)
        basis = eigendecompose(lap)
        lam_max = max(float(basis.eigenvalues[-1]), 1e-9)
        filt = ChebyshevFilter(rng.standard_normal(7), lam_max)
        sampled = sample_response(filt, basis.eigenvalues)
        for i in range(25):
            u_i = basis.eigenvectors[:, i]
            probe = exact_filter(basis, filt.response(), vertex_signal(u_i))
            assert float(u_i @ probe.values) == pytest.approx(sampled[i], abs=1e-9)

    def test_out_of_range(self):
        filt = ChebyshevFilter([1.0], lambda_max=1.0)
        with pytest.raises(OutOfRange):
            sample_response(filt, [1.5])


class TestLearnedFilter:
    def test_combined_filter_is_theta_at_the_bound(self, rng):
        theta = rng.standard_normal(5)
        filt = combined_filter(theta, 2.0)
        assert np.array_equal(filt.coefficients, theta) and filt.lambda_max == 2.0
        per_node = combined_filter(theta, np.full(4, 3.0))
        assert np.array_equal(per_node.coefficients, theta) and per_node.lambda_max.shape == (4,)


class TestFilterBound:
    @pytest.mark.parametrize("bound", [np.inf, np.nan, 0.0, np.array([2.0, np.inf]), np.array([2.0, np.nan])],
                             ids=["inf", "nan", "zero", "inf-node", "nan-node"])
    def test_bound_must_be_positive_and_finite(self, bound):
        with pytest.raises(BadParams, match="positive and finite"):
            ChebyshevFilter(np.array([1.0, 0.5]), bound)


class TestFilterIO:
    def test_round_trip(self, tmp_path, rng):
        filt = ChebyshevFilter(rng.standard_normal(6), 2.5)
        path = tmp_path / "f.json"
        save_filter(filt, path)
        back = load_filter(path)
        assert np.array_equal(back.coefficients, filt.coefficients)
        assert back.lambda_max == filt.lambda_max

    @pytest.mark.parametrize(
        "text",
        [
            '{"lambda_max": -1, "coefficients": [1.0, 0.5]}',
            '{"lambda_max": 0, "coefficients": [1.0]}',
            '{"lambda_max": NaN, "coefficients": [1.0]}',
            '{"lambda_max": Infinity, "coefficients": [1.0, 0.5]}',
            '{"lambda_max": 2.0, "coefficients": []}',
            '{"lambda_max": 2.0, "coefficients": [1.0, NaN]}',
            '{"lambda_max": 2.0, "coefficients": [Infinity]}',
        ],
        ids=["negative-bound", "zero-bound", "nan-bound", "inf-bound", "no-coefficients", "nan-coefficient", "inf-coefficient"],
    )
    def test_invalid_filter_is_a_format_error(self, tmp_path, text):
        path = tmp_path / "f.json"
        path.write_text(text)
        with pytest.raises(FormatError, match="f.json"):
            load_filter(path)

    @pytest.mark.parametrize("field", ["lambda_max", "coefficients"])
    def test_integer_past_float_range_is_a_format_error(self, tmp_path, field):
        # a JSON integer has no size limit; one past float range is malformed
        payload = {"lambda_max": 2.0, "coefficients": [1.0]}
        payload[field] = [10**400] if field == "coefficients" else 10**400
        path = tmp_path / "f.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="f.json"):
            load_filter(path)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=2**31 - 1))
def test_parseval_property(n, seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, density=0.4)
    basis = eigendecompose(combinatorial_laplacian(g))
    x = rng.standard_normal(n)
    xhat = gft(basis, vertex_signal(x))
    assert abs(np.linalg.norm(xhat.values) - np.linalg.norm(x)) <= 1e-10
