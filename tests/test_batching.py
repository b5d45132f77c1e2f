"""Block-diagonal batching: a block of graphs gives what each graph gives alone."""

from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as npcheb

from spectral_nsr import graph, pipeline, spectral, trainer
from spectral_nsr.errors import BadParams, DimensionMismatch, FormatError
from spectral_nsr.graph import COMBINATORIAL, NORMALIZED, Laplacian, NodeMeta, build_graph, laplacians
from spectral_nsr.harness import TaskSplits, evaluate, gen_dataset, gen_kinship, gen_transitive
from spectral_nsr.pipeline import (
    REFERENCE_LAMBDA_MAX,
    Block,
    Pipeline,
    PipelineConfig,
    build_laplacian,
    init_params,
    prepare_graph,
    rule_rows,
)
from spectral_nsr.rules import SpectralRule, builtin_template, rule_coefficients
from spectral_nsr.spectral import (
    DENSE_BOUND_LIMIT,
    FIT_NODES,
    ChebyshevFilter,
    FrequencyResponse,
    chebyshev_filter,
    chebyshev_stack,
    eigendecompose,
    estimate_lambda_max,
    exact_filter,
    load_filter,
    sample_response,
    vertex_signal,
)
from spectral_nsr.symbolic import KnowledgeBase
from spectral_nsr.trainer import prepare_context, task_loss_and_grads

from conftest import graph_task

FD_STEP = 1e-6

# no generated task with a seed in 0..999 (depths 1-5, both families, both
# Laplacian kinds) makes power iteration with seed 0 fail to settle
task_specs = st.lists(
    st.tuples(st.sampled_from(["transitive", "kinship"]), st.integers(1, 5), st.integers(0, 999)),
    min_size=1,
    max_size=40,
)


def make_tasks(specs):
    return [
        gen_transitive(depth, width=2, seed=seed) if family == "transitive" else gen_kinship(max(depth, 2), seed=seed)
        for family, depth, seed in specs
    ]


def rule_bank():
    return (
        SpectralRule("smooth", builtin_template("low-pass", REFERENCE_LAMBDA_MAX, beta=1.0), kind="low-pass"),
        SpectralRule("sharp", builtin_template("high-pass", REFERENCE_LAMBDA_MAX), kind="high-pass"),
    )


def random_params(cfg, n_rules, rng):
    params = init_params(cfg)
    params["theta"] = params["theta"] + 0.1 * rng.standard_normal(params["theta"].shape)
    params["rule_weights"] = rng.uniform(0.2, 1.0, size=n_rules)
    return params


class TestBlockPipeline:
    @settings(max_examples=20, deadline=None)
    @given(
        specs=task_specs,
        laplacian=st.sampled_from([COMBINATORIAL, NORMALIZED]),
        with_rules=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_block_equals_each_task_alone(self, specs, laplacian, with_rules, seed):
        cfg = PipelineConfig(laplacian=laplacian, tau=0.4)
        rules = rule_bank() if with_rules else ()
        pipe = Pipeline(cfg, rules=list(rules), params=random_params(cfg, len(rules), np.random.default_rng(seed)))
        # separate task objects, so that the block prepares its graphs itself
        block = pipe.run_tasks(make_tasks(specs))
        alone = [pipe.run_task(task) for task in make_tasks(specs)]
        assert len(block) == len(alone)
        for b, a in zip(block, alone):
            assert np.array_equal(b.y.values, a.y.values)
            assert np.array_equal(b.predicates.values, a.predicates.values)
            assert b.answers == a.answers
            assert b.traces == a.traces
            assert b.lambda_max == a.lambda_max
            assert np.array_equal(b.response_values, a.response_values)

    def test_block_checks_each_signal_against_its_graph(self):
        tasks = make_tasks([("transitive", 2, 1), ("kinship", 3, 2)])
        short = replace(tasks[0], x0=tasks[0].x0[:-1])
        with pytest.raises(DimensionMismatch):
            Pipeline(PipelineConfig()).run_tasks([short, tasks[1]])

    @pytest.mark.parametrize("with_rules", [False, True])
    def test_mismatched_signal_carries_stage_filter(self, with_rules):
        tasks = make_tasks([("transitive", 2, 1), ("kinship", 3, 2)])
        short = replace(tasks[0], x0=tasks[0].x0[:-1])
        pipe = Pipeline(PipelineConfig(), rules=list(rule_bank() if with_rules else ()))
        for run in (lambda: pipe.run_tasks([short, tasks[1]]), lambda: pipe.run_task(short)):
            with pytest.raises(DimensionMismatch) as info:
                run()
            assert info.value.stage == "filter"


def split_and_params(rng, order=PipelineConfig.order):
    """The tasks of a mixed split, their context, and randomised parameters."""
    cfg = PipelineConfig(order=order, tau=0.4)
    rules = rule_bank()
    tasks = gen_dataset("transitive", 5, seed=4) + gen_dataset("kinship", 4, seed=4)
    params = random_params(cfg, len(rules), rng)
    params["alpha"] = np.asarray(rng.uniform(2.0, 6.0))
    return tasks, prepare_context(tasks, cfg, rule_rows(rules, order)), params


def sparse_graph(n, seed, isolated=0):
    """A random graph of ``n`` nodes with about 2n weighted edges; its last
    ``isolated`` nodes have none."""
    rng = np.random.default_rng(seed)
    ends = rng.integers(0, max(n - isolated, 1), size=(2 * n, 2)).tolist()
    pairs = {tuple(sorted(p)) for p in ends if p[0] != p[1]}
    edges = [(i, j, float(rng.uniform(0.1, 2.0))) for i, j in sorted(pairs)]
    return build_graph([NodeMeta(i, "proposition", f"n{i}") for i in range(n)], edges)


def preparation_block(specs, big, order_seed):
    """Task graphs, random graphs on both sides of DENSE_BOUND_LIMIT, an
    edgeless graph and one with an isolated node, in a shuffled order."""
    graphs = [task.graph for task in make_tasks(specs)]
    graphs += [sparse_graph(n, seed) for n, seed in big]
    graphs += [sparse_graph(6, 0, isolated=6), sparse_graph(12, order_seed, isolated=1)]
    return [graphs[i] for i in np.random.default_rng(order_seed).permutation(len(graphs))]


def laplacian_oracle(graph, kind):
    """The graph's Laplacian as a dense array, from its own degrees and
    adjacency: diag(d) - A, or I - A * s s^T with s = d^(-1/2) and 0 on an
    isolated node."""
    d, a = graph.adjacency.sum(axis=1), graph.adjacency.toarray()
    if kind == COMBINATORIAL:
        return np.diag(d) - a
    s = np.where(d > 0.0, 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0)), 0.0)
    return np.eye(graph.node_count) - a * np.outer(s, s)


def stretched(rules, lambda_max):
    """The rules as a graph with bound ``lambda_max`` sees them: each template
    sampled at REFERENCE_LAMBDA_MAX * lambda / lambda_max."""
    def stretch(template):
        return FrequencyResponse(lambda lam: template(REFERENCE_LAMBDA_MAX * lam / lambda_max))

    return tuple(replace(rule, template=stretch(rule.template)) for rule in rules)


def lstsq_rows(rules, lambda_max, order):
    """Rule rows by a least-squares solve at the fit's Chebyshev nodes."""
    m = max(FIT_NODES, order + 1)
    t = np.cos(np.pi * (np.arange(m) + 0.5) / m)
    lam = (t + 1.0) * (lambda_max / 2.0)
    vander = npcheb.chebvander(t, order)
    return np.stack([np.linalg.lstsq(vander, rule.template(lam), rcond=None)[0] for rule in rules])


def template_bank():
    return rule_bank() + (
        SpectralRule(
            "band", builtin_template("band-pass", REFERENCE_LAMBDA_MAX, center=1.0, sigma=0.3), kind="band-pass"
        ),
        SpectralRule("heat", builtin_template("heat-kernel", REFERENCE_LAMBDA_MAX, t=0.7), kind="heat-kernel"),
    )


class TestBlockPreparation:
    @settings(max_examples=15, deadline=None)
    @given(
        specs=task_specs,
        big=st.lists(st.tuples(st.integers(DENSE_BOUND_LIMIT + 1, 300), st.integers(0, 2**16)), max_size=3),
        laplacian=st.sampled_from([COMBINATORIAL, NORMALIZED]),
        order=st.sampled_from([3, 5]),
        order_seed=st.integers(0, 2**16),
        # a few kilobytes split the block's dense bounds into many chunks
        stack_bytes=st.sampled_from([4096, spectral.STACK_BYTES]),
    )
    def test_block_equals_each_graph_alone(self, specs, big, laplacian, order, order_seed, stack_bytes):
        cfg = PipelineConfig(laplacian=laplacian, order=order)
        rules = template_bank()
        # separate graph objects, so that each side prepares its own
        with patch.object(spectral, "STACK_BYTES", stack_bytes):
            block = prepare_graph(cfg, preparation_block(specs, big, order_seed))
        graphs = preparation_block(specs, big, order_seed)
        alone = [prepare_graph(cfg, [graph]) for graph in graphs]
        assert len({graph.node_count > DENSE_BOUND_LIMIT for graph in graphs}) == (2 if big else 1)
        for i, (b, a, graph) in enumerate(zip(block.bounds, alone, graphs, strict=True)):
            # a pass of one graph is the graph's own adjacency; in a block, the
            # graph's rows of the stacked adjacency and degrees are its own
            assert a.laplacian.adjacency is graph.adjacency and a.laplacian.starts.tolist() == [0, graph.node_count]
            lo, hi = block.laplacian.starts[i : i + 2]
            rows = block.laplacian.adjacency[lo:hi]
            assert np.array_equal(rows.indptr - rows.indptr[0], graph.adjacency.indptr)
            assert np.array_equal(rows.indices - lo, graph.adjacency.indices)
            assert np.array_equal(rows.data, graph.adjacency.data)
            assert block.laplacian.degrees[lo:hi].tobytes() == a.laplacian.degrees.tobytes() == graph.adjacency.sum(axis=1).tobytes()
            dense = laplacian_oracle(graph, laplacian)
            assert np.array_equal(a.laplacian.toarray(), dense)
            assert b == a.lambda_max == max(estimate_lambda_max(a.laplacian)[0], 1e-12)
            if 0 < graph.node_count <= DENSE_BOUND_LIMIT and (laplacian == NORMALIZED or graph.adjacency.nnz):
                pad = graph.node_count * np.finfo(np.float64).eps * float(np.abs(dense).sum(axis=0).max())
                assert b == float(np.linalg.eigvalsh(dense)[-1]) + pad
        # the one rows array of every graph, fitted on the reference interval
        rows = Pipeline(cfg, rules=list(rules)).rows
        assert np.array_equal(rows, rule_coefficients(rules, REFERENCE_LAMBDA_MAX, order))
        assert np.abs(rows - lstsq_rows(rules, REFERENCE_LAMBDA_MAX, order)).max() <= 1e-12


class TestBlockBounds:
    @pytest.mark.parametrize("kind", [COMBINATORIAL, NORMALIZED])
    def test_block_bounds_equal_each_graph_alone(self, kind):
        # more 20-node graphs than one STACK_BYTES chunk holds, node counts on
        # both sides of DENSE_BOUND_LIMIT, an edgeless graph, task graphs
        n = 20
        per_chunk = spectral.STACK_BYTES // (8 * n * n)
        graphs = [sparse_graph(n, seed, isolated=seed % 3) for seed in range(per_chunk + 5)]
        graphs += [sparse_graph(size, seed) for seed, size in enumerate([7, DENSE_BOUND_LIMIT, DENSE_BOUND_LIMIT + 1, 250])]
        graphs += [sparse_graph(6, 0, isolated=6)] + [task.graph for task in make_tasks([("kinship", 4, 2)] * 3)]
        graphs = [graphs[i] for i in np.random.default_rng(5).permutation(len(graphs))]
        block = laplacians(graphs, kind)
        with patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
            bounds = estimate_lambda_max(block, seed=3)
        # the n-node graphs, task graphs among them, take two stacks
        count = sum(g.node_count == n for g in graphs)
        stacks = [call.args[0].shape for call in eigvalsh.call_args_list]
        assert sorted(k for k, rows, _ in stacks if rows == n) == [count - per_chunk, per_chunk]
        alone = [estimate_lambda_max(laplacians([g], kind), seed=3)[0] for g in graphs]
        assert [type(bound) for bound in bounds] == [float] * len(graphs)
        assert bounds == alone
        edgeless = graphs.index(next(g for g in graphs if g.edge_count() == 0))
        assert bounds[edgeless] == (0.0 if kind == COMBINATORIAL else 1.0 + 6 * np.finfo(np.float64).eps)

    def test_cold_block_builds_no_matrix_per_graph(self, monkeypatch):
        made = []

        class Counted(Laplacian):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(graph, "Laplacian", Counted)
        cfg = PipelineConfig()
        tasks = make_tasks([("transitive", 1 + i % 5, i) if i % 2 else ("kinship", 2 + i % 4, i) for i in range(100)])
        block = Block(tasks)
        evaluate(Pipeline(cfg), block, measure_latency=False)
        layout = block.layout(cfg)
        # one operator, the pass's block, laid out as it is: nothing per graph
        assert len(made) == 1 and layout.laplacian is made[0]
        assert all(task.graph.prepared[(cfg.laplacian, cfg.seed)][0] is layout for task in tasks)


class TestBlockGradients:
    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_block_is_the_sum_over_tasks(self, rng, order):
        tasks, split, params = split_and_params(rng, order)
        assert split.task_count >= 2
        value, grads = task_loss_and_grads(split, params)
        rows = rule_rows(rule_bank(), order)
        singles = [task_loss_and_grads(prepare_context([task], PipelineConfig(order=order), rows), params)
                   for task in tasks]
        assert value == pytest.approx(sum(v for v, _ in singles), rel=1e-12, abs=0)
        for key, grad in grads.items():
            expected = sum(g[key] for _, g in singles)
            scale = max(np.abs(expected).max(), 1e-300)
            assert np.abs(grad - expected).max() <= 1e-12 * scale, key

    def test_finite_differences_on_a_block(self, rng):
        tasks, split, params = split_and_params(rng)
        batch = rng.permutation(split.task_count)[:4]
        assert len({tasks[i].graph.node_count for i in batch}) >= 3
        _, analytic = task_loss_and_grads(split.reordered(batch), params)
        for key in ("theta", "rule_weights", "tau", "alpha"):
            base = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
            flat = base[key].reshape(-1)
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + FD_STEP
                up, _ = task_loss_and_grads(split.reordered(batch), base)
                flat[i] = orig - FD_STEP
                down, _ = task_loss_and_grads(split.reordered(batch), base)
                flat[i] = orig
                fd[i] = (up - down) / (2 * FD_STEP)
            ga = np.asarray(analytic[key], dtype=np.float64).reshape(-1)
            scale = max(np.linalg.norm(ga), np.linalg.norm(fd))
            if scale >= 1e-12:
                assert np.linalg.norm(ga - fd) / scale <= 1e-5, key

    def test_single_context_is_its_own_block(self, rng):
        # a batch of one task of the split is that task's own context, bit for bit
        tasks, split, params = split_and_params(rng)
        rows = rule_rows(rule_bank(), PipelineConfig.order)
        for i, task in enumerate(tasks):
            value, grads = task_loss_and_grads(split.reordered([i]), params)
            alone, alone_grads = task_loss_and_grads(prepare_context([task], PipelineConfig(), rows), params)
            assert value == alone
            for key, grad in grads.items():
                assert np.array_equal(grad, alone_grads[key]), key

    @pytest.mark.parametrize("with_rules", [False, True])
    def test_split_rows_are_each_tasks_own(self, with_rules):
        cfg = PipelineConfig(laplacian=NORMALIZED, order=4)
        rules = rule_bank() if with_rules else ()
        degree = 2 * cfg.order if with_rules else cfg.order
        tasks = make_tasks([("transitive", 5, 1), ("kinship", 4, 2), ("transitive", 2, 3), ("kinship", 3, 4)] * 3)
        limit = 8 * (degree + 1) * 40
        spy = patch.object(trainer, "chebyshev_stack", wraps=trainer.chebyshev_stack)
        # the split is one block, one stack, however few bytes the chunked builders may take
        with patch.object(spectral, "STACK_BYTES", limit), spy as stack_calls:
            split = prepare_context(tasks, cfg, Pipeline(cfg, rules=list(rules)).rows)
        assert stack_calls.call_count == 1
        assert split.task_count == len(tasks) and split.stack.shape[1] == degree + 1
        for i, task in enumerate(tasks):
            p = prepare_graph(cfg, [task.graph])
            nodes = np.asarray(sorted(task.labels))
            lo, hi = split.label_starts[i], split.label_starts[i + 1]
            own = chebyshev_stack(p.laplacian, p.lambda_max, task.x0, degree)[nodes]
            assert np.array_equal(split.stack[lo:hi], own)
            assert split.label_values[lo:hi].tolist() == [task.labels[n] for n in nodes.tolist()]
        # every task shares the pipeline's one rows array
        if with_rules:
            assert np.array_equal(split.rows, Pipeline(cfg, rules=list(rules)).rows)
            assert not split.rows.flags.writeable
        else:
            assert split.rows is None
        assert not split.stack.flags.writeable

    def test_labels_are_zero_or_one(self):
        tasks = gen_dataset("transitive", 3, seed=2)
        block = [tasks[0], replace(tasks[1], labels={0: 2, 1: -1}), tasks[2]]
        message = f"task {tasks[1].task_id} has labels other than 0 and 1"
        with pytest.raises(BadParams, match=message):
            prepare_context(block, PipelineConfig(), None)
        for measure in (False, True):
            with pytest.raises(BadParams, match=message):
                evaluate(Pipeline(PipelineConfig()), block, measure_latency=measure)

    def test_tasks_must_fit_their_graphs(self):
        task = gen_transitive(2, seed=3)
        with pytest.raises(DimensionMismatch):
            prepare_context([replace(task, x0=task.x0[:-1])], PipelineConfig(), None)
        with pytest.raises(BadParams):
            prepare_context([replace(task, labels={**task.labels, task.graph.node_count: 1})], PipelineConfig(), None)
        # a non-finite signal is refused as inference refuses it, not left to diverge
        poisoned = replace(task, x0=np.where(np.arange(task.x0.size) == 0, np.nan, task.x0))
        with pytest.raises(BadParams, match="non-finite"):
            prepare_context([gen_transitive(3, seed=4), poisoned], PipelineConfig(), None)
        with pytest.raises(BadParams, match="non-finite"):
            Pipeline(PipelineConfig()).run_task(poisoned)
        splits = TaskSplits(train=(poisoned, task), val=(task,), test=())
        with pytest.raises(BadParams, match="non-finite"):
            trainer.train(PipelineConfig(), splits, trainer.TrainRun(max_epochs=1, latency_probe=0))


def declared_task(graph, x0):
    """A task on ``graph`` whose KB declares every node's label, so that any node may threshold true."""
    task = graph_task(graph, x0, {})
    return replace(task, kb=KnowledgeBase(tuple(m.label for m in graph.nodes)))


def random_tasks(rng, count, max_nodes=40):
    tasks = []
    for _ in range(count):
        n = int(rng.integers(5, max_nodes + 1))
        tasks.append(declared_task(sparse_graph(n, int(rng.integers(2**16))), rng.uniform(0.0, 1.0, n)))
    return tasks


class TestComposedFilter:
    """Stage 2 runs the rule filter and the learned filter as one polynomial of twice the order."""

    @pytest.mark.parametrize("laplacian", [COMBINATORIAL, NORMALIZED])
    @pytest.mark.parametrize("order", [1, 3, 5])
    @pytest.mark.parametrize("count", [1, 6], ids=["single", "block"])
    def test_one_polynomial_equals_two_filters(self, laplacian, order, count):
        # the reference is the former stage 2: the rule filter's recurrence,
        # then the learned filter's on its output
        rng = np.random.default_rng(count * order)
        cfg = PipelineConfig(laplacian=laplacian, order=order)
        rules = rule_bank()
        pipe = Pipeline(cfg, rules=list(rules), params=random_params(cfg, len(rules), rng))
        tasks = random_tasks(rng, count)
        outputs = pipe.run_tasks(tasks)
        for task, out in zip(tasks, outputs, strict=True):
            p = prepare_graph(cfg, [task.graph])
            lap = p.laplacian
            rows = rule_coefficients(stretched(rules, p.lambda_max), p.lambda_max, order)
            coeffs = pipe.params["rule_weights"] @ rows
            ruled = chebyshev_filter(lap, ChebyshevFilter(coeffs, p.lambda_max), vertex_signal(task.x0))
            two_filters = chebyshev_filter(lap, ChebyshevFilter(pipe.params["theta"], p.lambda_max), ruled)
            scale = np.abs(two_filters.values).max()
            assert np.abs(out.y.values - two_filters.values).max() <= 1e-12 * scale

    @settings(max_examples=30, deadline=None)
    @given(
        laplacian=st.sampled_from([COMBINATORIAL, NORMALIZED]),
        order=st.sampled_from([1, 3, 5]),
        with_rules=st.booleans(),
        count=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_pipeline_equals_dense_oracle(self, laplacian, order, with_rules, count, seed):
        # the exact filter with the product of the two sampled responses, in
        # each graph's eigenbasis
        rng = np.random.default_rng(seed)
        cfg = PipelineConfig(laplacian=laplacian, order=order)
        rules = rule_bank() if with_rules else ()
        pipe = Pipeline(cfg, rules=list(rules), params=random_params(cfg, len(rules), rng))
        tasks = random_tasks(rng, count)
        for task, out in zip(tasks, pipe.run_tasks(tasks), strict=True):
            p = prepare_graph(cfg, [task.graph])
            learned = ChebyshevFilter(pipe.params["theta"], p.lambda_max)
            if with_rules:
                rows = rule_coefficients(stretched(rules, p.lambda_max), p.lambda_max, order)
                coeffs = pipe.params["rule_weights"] @ rows
                ruled = ChebyshevFilter(coeffs, p.lambda_max)
                response = FrequencyResponse(lambda lam: sample_response(learned, lam) * sample_response(ruled, lam))
            else:
                response = learned.response()
            want = exact_filter(eigendecompose(p.laplacian), response, vertex_signal(task.x0)).values
            assert np.abs(out.y.values - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)

    @pytest.mark.parametrize("with_rules", [False, True])
    @pytest.mark.parametrize("order", [1, 3, 5])
    @pytest.mark.parametrize("count", [1, 6], ids=["single", "block"])
    def test_one_recurrence_of_twice_the_order(self, with_rules, order, count):
        cfg = PipelineConfig(order=order)
        rules = rule_bank() if with_rules else ()
        pipe = Pipeline(cfg, rules=list(rules))
        tasks = random_tasks(np.random.default_rng(order), count)
        # prepared first, so that only stage 2 runs under the spy; every
        # product with the operator is one call of the CSR kernel
        prepare_graph(cfg, [task.graph for task in tasks])
        with patch.object(graph, "csr_matvec", wraps=graph.csr_matvec) as products:
            pipe.run_tasks(tasks)
        assert products.call_count == (2 * order if with_rules else order)

    @pytest.mark.parametrize("laplacian", [COMBINATORIAL, NORMALIZED])
    @pytest.mark.parametrize("order", [0, 1, 3, 5])
    @pytest.mark.parametrize("count", [1, 6], ids=["single", "block"])
    def test_stack_makes_order_products(self, laplacian, order, count):
        cfg = PipelineConfig(laplacian=laplacian)
        tasks = random_tasks(np.random.default_rng(order), count)
        layout = prepare_graph(cfg, [task.graph for task in tasks])
        lap = layout.laplacian
        lambda_max = np.repeat(layout.bounds, np.diff(lap.starts))
        with patch.object(graph, "csr_matvec", wraps=graph.csr_matvec) as products:
            chebyshev_stack(lap, lambda_max, np.concatenate([task.x0 for task in tasks]), order)
        assert products.call_count == order


class TestInPlaceRecurrence:
    """The recurrence writes into buffers of its own: nothing it was given changes."""

    @pytest.mark.parametrize("laplacian", [COMBINATORIAL, NORMALIZED])
    def test_a_query_leaves_its_signal_as_it_was(self, laplacian):
        pipe = Pipeline(PipelineConfig(laplacian=laplacian), rules=list(rule_bank()))
        task = gen_kinship(4, seed=3)
        x0 = task.x0.copy()
        # a block of one hands the filter a view of the task's own array
        assert np.shares_memory(Block([task]).x.values, task.x0)
        pipe.run_task(task)
        assert task.x0.tobytes() == x0.tobytes()

    @pytest.mark.parametrize("laplacian", [COMBINATORIAL, NORMALIZED])
    @pytest.mark.parametrize("count", [1, 6], ids=["single", "block"])
    def test_a_kept_block_runs_twice_alike(self, laplacian, count):
        pipe = Pipeline(PipelineConfig(laplacian=laplacian), rules=list(rule_bank()))
        block = Block(random_tasks(np.random.default_rng(count), count))
        x = block.x.values.copy()
        first = [out.y.values.tobytes() for out in pipe.run_tasks(block)]
        assert [out.y.values.tobytes() for out in pipe.run_tasks(block)] == first
        assert block.x.values.tobytes() == x.tobytes()

    @pytest.mark.parametrize("laplacian", [COMBINATORIAL, NORMALIZED])
    @pytest.mark.parametrize("order", [0, 1, 4])
    @pytest.mark.parametrize("count", [1, 6], ids=["single", "block"])
    def test_outputs_share_no_memory_with_their_input(self, laplacian, order, count):
        tasks = random_tasks(np.random.default_rng(order), count)
        layout = prepare_graph(PipelineConfig(laplacian=laplacian), [task.graph for task in tasks])
        lap = layout.laplacian
        lambda_max = np.repeat(layout.bounds, np.diff(lap.starts))
        x = vertex_signal(tasks[0].x0 if count == 1 else np.concatenate([task.x0 for task in tasks]))
        before = x.values.copy()
        y = chebyshev_filter(lap, ChebyshevFilter(np.linspace(1.0, 0.2, order + 1), lambda_max), x)
        stack = chebyshev_stack(lap, lambda_max, x.values, order)
        assert not np.shares_memory(y.values, x.values)
        assert not np.shares_memory(stack, x.values)
        assert x.values.tobytes() == before.tobytes()


class TestBlockEvaluate:
    @pytest.mark.parametrize("laplacian", [COMBINATORIAL, NORMALIZED])
    def test_batched_report_equals_task_at_a_time(self, laplacian):
        cfg = PipelineConfig(laplacian=laplacian, tau=0.4)
        pipe = Pipeline(cfg, rules=list(rule_bank()))
        tasks = gen_dataset("transitive", 30, seed=6) + gen_dataset("kinship", 30, seed=6)
        batched = evaluate(pipe, tasks, measure_latency=False)
        one_at_a_time = evaluate(pipe, gen_dataset("transitive", 30, seed=6) + gen_dataset("kinship", 30, seed=6))
        assert batched.accuracy == one_at_a_time.accuracy
        assert batched.consistency == one_at_a_time.consistency
        assert (batched.n_tasks, batched.n_queries) == (one_at_a_time.n_tasks, one_at_a_time.n_queries)
        assert batched.latency_median_ms is None and one_at_a_time.latency_median_ms is not None


class TestBlockDiagonal:
    def test_per_node_filter_checks_its_rows(self):
        lap = build_laplacian(PipelineConfig(), gen_transitive(2, seed=1).graph)
        n = lap.node_count
        x = vertex_signal(np.ones(n))
        # one coefficient vector serves every node: a table of rows is refused
        with pytest.raises(BadParams, match="one vector"):
            ChebyshevFilter(np.ones((n, 3)), np.full(n, 2.0))
        with pytest.raises(DimensionMismatch):
            chebyshev_filter(lap, ChebyshevFilter(np.ones(3), np.full(n - 1, 2.0)), x)
        shared = chebyshev_filter(lap, ChebyshevFilter([0.5, 0.2, 0.1], 2.0), x)
        per_node = chebyshev_filter(lap, ChebyshevFilter([0.5, 0.2, 0.1], np.full(n, 2.0)), x)
        assert np.array_equal(shared.values, per_node.values)
        with pytest.raises(BadParams):
            sample_response(ChebyshevFilter([1.0], np.full(n, 2.0)), [0.0, 1.0])

    def test_filter_files_hold_one_shared_filter(self, tmp_path):
        path = tmp_path / "filter.json"
        path.write_text('{"lambda_max": 2.0, "coefficients": [[1.0, 0.5], [1.0, 0.5]]}')
        with pytest.raises(FormatError, match="flat list"):
            load_filter(path)


class TestNoAssembledLaplacian:
    @pytest.mark.parametrize("laplacian", [COMBINATORIAL, NORMALIZED])
    def test_queries_training_and_bounds_assemble_no_sparse_laplacian(self, monkeypatch, laplacian):
        # stage 2, training's stack and both bound paths work on the operator:
        # no scipy diagonal or identity is built for a D - A
        def refuse(*args, **kwargs):
            raise AssertionError("a sparse Laplacian was assembled")

        monkeypatch.setattr(scipy.sparse, "diags_array", refuse)
        monkeypatch.setattr(scipy.sparse, "eye_array", refuse)
        cfg = PipelineConfig(laplacian=laplacian)
        n = DENSE_BOUND_LIMIT + 50
        big = declared_task(sparse_graph(n, 1), np.random.default_rng(1).uniform(0.0, 1.0, n))
        small = make_tasks([("transitive", 3, 1), ("kinship", 3, 2)])
        pipe = Pipeline(cfg, rules=list(rule_bank()))
        pipe.run_task(big)
        pipe.run_tasks([*small, replace(big, graph=sparse_graph(n, 1))])
        context = prepare_context([*small, replace(big, labels={0: 1, 1: 0})], cfg, pipe.rows)
        assert context.task_count == 3
        bounds = estimate_lambda_max(laplacians([sparse_graph(n, 2), small[0].graph], laplacian), seed=cfg.seed)
        assert len(bounds) == 2 and min(bounds) > 0.0
