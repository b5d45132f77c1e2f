import hashlib
import json
import re
import time
import weakref
from dataclasses import fields, replace
from itertools import chain
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_nsr import harness, pipeline, symbolic, trainer
from spectral_nsr.errors import (
    BadParams,
    ConvergenceFailure,
    DimensionMismatch,
    NonFiniteResponse,
    UnmappedNode,
)
from spectral_nsr.graph import COMBINATORIAL, NORMALIZED
from spectral_nsr.harness import evaluate, gen_dataset, gen_transitive, split_dataset
from spectral_nsr.pipeline import (
    REFERENCE_LAMBDA_MAX,
    Pipeline,
    PipelineConfig,
    check_params,
    init_params,
)
from spectral_nsr.rules import SpectralRule, builtin_template, load_rules
from spectral_nsr.spectral import ChebyshevFilter, chebyshev_filter, vertex_signal
from spectral_nsr.symbolic import KnowledgeBase
from spectral_nsr.trainer import Checkpoint, TrainRun, prepare_context, train

from conftest import make_pipeline

DATA = Path(__file__).parent / "data"

PREPARATION = ("build_laplacian", "estimate_lambda_max", "rule_coefficients")


def reference_rules():
    return load_rules(DATA / "reference_rules.txt", REFERENCE_LAMBDA_MAX)


def reference_pipeline():
    return Checkpoint.load(DATA / "reference_checkpoint.json").pipeline(rules=reference_rules())


def reference_params():
    """The trained parameters the reference checkpoint's series was made from."""
    params = Checkpoint.load(DATA / "reference_checkpoint.json").metadata["params"]
    return {name: np.asarray(value, dtype=np.float64) for name, value in params.items()}


@pytest.fixture
def calls(monkeypatch):
    """Count calls of the preparation functions as the pipeline module sees them."""
    counts = dict.fromkeys(PREPARATION, 0)
    for name in PREPARATION:
        original = getattr(pipeline, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    return counts


def run(cfg, task, rules):
    return make_pipeline(cfg, rules).run_task(task)


def assert_same_output(a, b):
    assert np.array_equal(a.y.values, b.y.values)
    assert np.array_equal(a.predicates.values, b.predicates.values)
    assert a.answers == b.answers
    assert a.traces == b.traces
    assert np.array_equal(a.response_grid, b.response_grid)
    assert np.array_equal(a.response_values, b.response_values)


class TestGolden:
    def test_reference_checkpoint_answers(self):
        expected = json.loads((DATA / "reference_answers.json").read_text())
        task = gen_transitive(3, width=2, seed=0)
        assert task.task_id == expected["task"]
        assert list(reference_pipeline().run_task(task).answers) == expected["answers"]

    def test_reference_checkpoint_validation_accuracy(self):
        splits = split_dataset(gen_dataset("transitive", 1000, seed=0), (800, 100, 100))
        assert evaluate(reference_pipeline(), splits.val, measure_latency=False).accuracy == 1.0

    def test_reference_checkpoint_answers_hash(self):
        """The reference parameters' answers on 400 transitive and 400 kinship
        tasks under three passes: the checkpoint's own config, the normalized
        Laplacian, and the checkpoint's own config again. The digest was
        generated before the rule and learned filters ran as one polynomial
        at inference, by the two-recurrence stage 2, with a hard threshold
        in the third pass and a logistic one in the first two, and pins the
        answers across both changes."""
        pipe = reference_pipeline()
        tasks = gen_dataset("transitive", 400, seed=5) + gen_dataset("kinship", 400, seed=5)
        digest = hashlib.sha256()
        for cfg in (pipe.cfg, replace(pipe.cfg, laplacian="normalized"), pipe.cfg):
            for out in Pipeline(cfg, pipe.coefficients, pipe.tau).run_tasks(tasks):
                digest.update((" ".join(out.answers) + "\n").encode())
        assert digest.hexdigest() == "e6b7436c28bc9deeb7a6afac9d4714786443667c5fe869dbec1f943ef8b14a42"


class TestBinding:
    def test_true_node_with_an_undeclared_label(self):
        # P0 carries the evidence, so it thresholds true; this KB does not declare it
        task = gen_transitive(3, width=2, seed=0)
        atoms = tuple(a for a in task.kb.atoms if a != "P0")
        kb = KnowledgeBase(atoms, tuple(c for c in task.kb.clauses if "P0" not in c.body))
        pipe = reference_pipeline()
        for run_one in (pipe.run_task, lambda t: pipe.run_tasks([t])):
            with pytest.raises(UnmappedNode) as info:
                run_one(replace(task, kb=kb))
            assert info.value.stage == "bind"

    def test_true_distractor_outside_the_kb(self):
        # a KB of the chain alone: the distractor head given the chain's
        # evidence thresholds true and names no declared atom
        task = gen_transitive(3, width=2, seed=0)
        chain = KnowledgeBase(
            tuple(a for a in task.kb.atoms if a.startswith("P")),
            tuple(c for c in task.kb.clauses if c.head.startswith("P")),
        )
        head = task.kb.atoms.index("Q0_0")
        x0 = task.x0.copy()
        x0[head] = x0[0]
        pipe = reference_pipeline()
        for run_one in (pipe.run_task, lambda t: pipe.run_tasks([task, t])):
            with pytest.raises(UnmappedNode, match=f"node {head} is true but its label 'Q0_0'") as info:
                run_one(replace(task, x0=x0, kb=chain))
            assert info.value.stage == "bind"

    def test_equal_kbs_bind_the_same_facts(self):
        tasks = gen_dataset("transitive", 3, seed=4) + gen_dataset("kinship", 3, seed=4)
        pipe = reference_pipeline()
        again = [replace(t, kb=KnowledgeBase(t.kb.atoms, t.kb.clauses, t.kb.facts, t.kb.exclusive)) for t in tasks]
        assert all(a.kb == t.kb and a.kb is not t.kb for a, t in zip(again, tasks))
        for a, b in zip(pipe.run_tasks(tasks), pipe.run_tasks(again), strict=True):
            assert a.closure == b.closure and a.traces == b.traces

    def test_node_atoms_is_a_read_only_view_of_the_labels(self):
        task = gen_transitive(2, width=1, seed=3)
        assert task.node_atoms == {m.id: m.label for m in task.graph.nodes}
        assert task.node_atoms is task.node_atoms
        with pytest.raises(TypeError):
            task.node_atoms[0] = "X"


class TestOutput:
    def test_answers_are_the_sorted_closure_built_on_read(self):
        out = reference_pipeline().run_task(gen_transitive(3, width=2, seed=0))
        assert isinstance(out.closure, frozenset)
        assert "answers" not in vars(out)
        assert out.answers == tuple(sorted(out.closure))
        assert out.answers is out.answers

    def test_evaluate_sorts_no_answers(self):
        pipe = reference_pipeline()
        outputs = []

        class Recording:
            def run_tasks(self, tasks):
                outputs.extend(pipe.run_tasks(tasks))
                return outputs

        evaluate(Recording(), gen_dataset("kinship", 4, seed=2), measure_latency=False)
        assert len(outputs) == 4
        assert not any("answers" in vars(out) for out in outputs)

    @pytest.mark.parametrize("laplacian", [COMBINATORIAL, NORMALIZED])
    @pytest.mark.parametrize("with_rules", [False, True])
    @pytest.mark.parametrize("block", [1, 5])
    def test_export_is_the_filter_that_ran(self, laplacian, with_rules, block):
        cfg = replace(reference_pipeline().cfg, laplacian=laplacian)
        rules, params = reference_rules() if with_rules else (), reference_params()
        params["rule_weights"] = params["rule_weights"][: len(rules)]
        pipe = make_pipeline(cfg, rules, params)
        tasks = (gen_dataset("transitive", 3, seed=8) + gen_dataset("kinship", 2, seed=8))[:block]
        for task, out in zip(tasks, pipe.run_tasks(tasks), strict=True):
            assert out.theta_star.shape == (2 * cfg.order + 1 if rules else cfg.order + 1,)
            assert not out.theta_star.flags.writeable
            lap = pipeline.build_laplacian(cfg, task.graph)
            y = chebyshev_filter(lap, ChebyshevFilter(out.theta_star, out.lambda_max), vertex_signal(task.x0))
            assert np.array_equal(y.values, out.y.values)

    def test_an_empty_block_gives_no_outputs(self):
        pipe = reference_pipeline()
        assert pipe.run_tasks([]) == []
        assert pipeline.run_pipeline(pipe, pipeline.Block([])) == []

    def test_an_empty_block_has_no_layout(self):
        # refused with a package error, which the CLI's exit codes map
        with pytest.raises(BadParams):
            pipeline.Block([]).layout(PipelineConfig())
        with pytest.raises(BadParams):
            prepare_context([], PipelineConfig(), None)

    def test_a_pass_over_no_graphs_is_refused(self):
        # one place refuses an empty list, before numpy's concatenate would
        with pytest.raises(BadParams, match="no graphs"):
            pipeline.prepare_graph(PipelineConfig(), [])

    def test_tau_is_one_threshold(self):
        # a per-node threshold is refused, even one that fits the graph,
        # before any stage runs
        task = gen_transitive(3, width=2, seed=0)
        series = reference_pipeline().coefficients
        for tau in ([0.4, 0.4], np.full(task.graph.node_count, 0.4), [0.4], True, np.nan):
            with pytest.raises(BadParams, match="tau") as info:
                Pipeline(PipelineConfig(), series, np.asarray(tau) if isinstance(tau, list) else tau)
            assert info.value.stage is None

    def test_series_fits_the_order(self):
        # order + 1 coefficients, or 2 order + 1 for a rule mix, all finite
        for series in (np.zeros(7), np.zeros((1, 6)), np.zeros(12), [0.0] * 5 + [np.inf]):
            with pytest.raises(BadParams, match="series") as info:
                Pipeline(PipelineConfig(), series, 0.4)
            assert info.value.stage is None
        for size in (6, 11):
            assert Pipeline(PipelineConfig(), np.zeros(size), 0.4).coefficients.shape == (size,)

    def test_overflowing_filter_carries_stage_filter(self):
        # T_k(L~) maps the constant signal to (-1)^k of it, so these terms all add up
        cfg = PipelineConfig()
        params = {**init_params(cfg), "theta": 1e308 * (-1.0) ** np.arange(cfg.order + 1)}
        task = gen_transitive(3, width=2, seed=0)
        task = replace(task, x0=np.ones_like(task.x0))
        pipe = make_pipeline(cfg, params=params)
        for run in (lambda: pipe.run_task(task), lambda: pipe.run_tasks([task, task])):
            with pytest.raises(NonFiniteResponse) as info:
                run()
            assert info.value.stage == "filter"


PARAM_NAMES = ("theta", "rule_weights", "tau", "alpha")
PARAM_FAULTS = ("shape", "nan", "inf", "extra", "missing")


def low_pass_rules(count):
    return tuple(
        SpectralRule(f"r{i}", builtin_template("low-pass", REFERENCE_LAMBDA_MAX, beta=1.0 + i))
        for i in range(count)
    )


def with_fault(params, name, fault):
    """``params`` with one fault at ``name``, and the name a refusal must give."""
    params = dict(params)
    if fault == "extra":
        params["bogus"] = np.zeros(1)
        return params, "bogus"
    if fault == "missing":
        del params[name]
    elif fault == "shape":
        params[name] = params[name][None]
    else:
        value = params[name].copy()
        value.flat[-1] = np.nan if fault == "nan" else np.inf
        params[name] = value
    return params, name


class TestCheckParams:
    """`check_params` is the one definition of a valid parameter set, which
    training applies to every epoch's parameters before it makes their
    pipeline; a `Pipeline` checks the series and tau it runs once, when it
    is made."""

    TASK = gen_transitive(3, width=2, seed=0)

    @settings(max_examples=30, deadline=None)
    @given(order=st.integers(0, 6), rule_count=st.integers(0, 3))
    def test_init_params_pass_everywhere(self, order, rule_count):
        cfg, rules = PipelineConfig(order=order), low_pass_rules(rule_count)
        params = init_params(cfg, rules)
        check_params(cfg, params, rule_count)
        pipe = make_pipeline(cfg, rules, params)
        assert pipe.coefficients.shape == (2 * order + 1 if rule_count else order + 1,)
        pipe.run_task(self.TASK)
        loaded = Checkpoint.from_json(Checkpoint(cfg, pipe.coefficients, pipe.tau, {}).to_json())
        assert loaded.series.tobytes() == pipe.coefficients.tobytes() and loaded.tau == pipe.tau

    def test_params_are_read_only_copies(self):
        # what a pipeline keeps of its parameters is the series they make
        reference = reference_pipeline()
        series = reference.coefficients.copy()
        pipe = Pipeline(reference.cfg, series, reference.tau)
        before = pipe.run_task(gen_transitive(3, seed=0))
        # editing the caller's array after construction reaches no answer
        series += 1.0
        after = pipe.run_task(gen_transitive(3, seed=0))
        assert np.array_equal(after.y.values, before.y.values) and after.answers == before.answers
        assert not pipe.coefficients.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            pipe.coefficients[0] += 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        order=st.integers(0, 6),
        rule_count=st.integers(0, 3),
        name=st.sampled_from(PARAM_NAMES),
        fault=st.sampled_from(PARAM_FAULTS),
    )
    def test_one_fault_is_refused_everywhere(self, order, rule_count, name, fault):
        # no entry to make non-finite in the rule weights of no rules
        assume(fault not in ("nan", "inf") or name != "rule_weights" or rule_count)
        cfg, rules = PipelineConfig(order=order), low_pass_rules(rule_count)
        params, named = with_fault(init_params(cfg, rules), name, fault)
        named = re.escape(repr(named))
        with pytest.raises(BadParams, match=named) as info:
            check_params(cfg, params, rule_count)
        assert info.value.stage is None
        if fault == "extra":
            with pytest.raises(BadParams, match="unknown"):
                check_params(cfg, params, rule_count)

    def test_rule_weights_must_fit_the_rules(self):
        cfg, rules = PipelineConfig(), low_pass_rules(2)
        params = {**init_params(cfg, rules), "rule_weights": np.full(3, 0.5)}
        with pytest.raises(BadParams, match="'rule_weights'"):
            check_params(cfg, params, len(rules))

    def test_alpha_must_be_positive(self):
        # the logistic the loss trains needs alpha > 0
        cfg = PipelineConfig()
        for alpha in (0.0, -1.0):
            with pytest.raises(BadParams, match="'alpha' must be > 0"):
                check_params(cfg, {**init_params(cfg), "alpha": np.asarray(alpha)}, 0)

    @pytest.fixture
    def checks(self, monkeypatch):
        """A list that grows by one on each `check_params` call the trainer makes."""
        calls = []
        original = trainer.check_params

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(trainer, "check_params", counted)
        return calls

    def test_queries_check_nothing(self, checks, monkeypatch):
        pipe = reference_pipeline()

        def refuse(*args):
            raise AssertionError("a query made a pipeline")

        # the series and tau were checked once, when pipe was made
        monkeypatch.setattr(Pipeline, "__init__", refuse)
        tasks = gen_dataset("transitive", 4, seed=2) + gen_dataset("kinship", 4, seed=2)
        pipe.run(tasks[0].graph, vertex_signal(tasks[0].x0), tasks[0].kb)
        pipe.run_task(tasks[1])
        pipe.run_tasks(tasks)
        evaluate(pipe, tasks, measure_latency=True)
        evaluate(pipe, tasks, measure_latency=False)
        assert checks == []

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_training_checks_once_per_epoch(self, checks, epochs):
        splits = split_dataset(gen_dataset("transitive", 30, seed=3), (20, 10, 0))
        run = TrainRun(max_epochs=epochs, batch_size=8, patience=epochs + 1, seed=0, latency_probe=2)
        result = train(PipelineConfig(tau=0.4), splits, run, rules=reference_rules())
        assert len(result.history) == epochs
        # one per epoch's parameters, before their pipeline is made
        assert len(checks) == epochs


STAGE_3 = ("soft_threshold", "hard_threshold", "bind_predicates", "forward_chain")


@pytest.fixture
def stage_3(monkeypatch):
    """Calls of the stage-3 functions as the pipeline module sees them, and
    under ``"traces"`` calls of the one-KB chainer that proof traces come from."""
    counts = dict.fromkeys(STAGE_3 + ("traces",), 0)
    for module, name, key in [(pipeline, name, name) for name in STAGE_3] + [(symbolic, "forward_chain", "traces")]:
        original = getattr(module, name)

        def counted(*args, _key=key, _original=original, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


class TestBlockStage3:
    @pytest.mark.parametrize("mode", ["hard", "logistic"])
    def test_one_call_per_layer_and_traces_on_read(self, stage_3, mode):
        # a config that still names either retired threshold_mode binds
        # y > tau once per block; the logistic is never computed
        reference = reference_pipeline()
        cfg = PipelineConfig.from_text(reference.cfg.to_text() + f"threshold_mode={mode}\n")
        assert cfg == reference.cfg
        pipe = Pipeline(cfg, reference.coefficients, reference.tau)
        tasks = gen_dataset("transitive", 5, seed=9) + gen_dataset("kinship", 5, seed=9)
        outputs = pipe.run_tasks(tasks)
        expected = dict.fromkeys(STAGE_3 + ("traces",), 0)
        expected.update({"hard_threshold": 1, "bind_predicates": 1, "forward_chain": 1})
        assert stage_3 == expected
        for out in outputs:
            out.y, out.predicates, out.answers
        evaluate(pipe, tasks, measure_latency=False)
        expected.update({"hard_threshold": 2, "bind_predicates": 2, "forward_chain": 2})
        assert stage_3 == expected
        # one graph's traces are made when they are first read, and kept
        out = outputs[7]
        assert out.traces[out.answers[-1]] == out.traces[out.answers[-1]]
        assert stage_3 == {**expected, "traces": 1}


def scoring_tasks():
    """Kinship and transitive tasks, the last a copy of a transitive one
    whose KB does not declare one of its labelled atoms (a distractor's, so
    the reference checkpoint does not hold it true); and that atom. A low
    threshold lets decoys into kinship closures, where exclusive pairs
    then conflict."""
    tasks = gen_dataset("kinship", 30, seed=3) + gen_dataset("transitive", 10, seed=3)
    task = tasks[-1]
    dropped = max(task.labels, key=lambda node: task.graph.labels[node])
    atom = task.graph.labels[dropped]
    kb = KnowledgeBase(
        tuple(a for a in task.kb.atoms if a != atom), tuple(c for c in task.kb.clauses if atom not in {c.head} | c.body)
    )
    tasks.append(replace(task, kb=kb))
    assert (kb.compiled.label_ids(task.graph.labels)[list(task.labels)] < 0).sum() == 1
    return tasks, atom


class TestEvalReport:
    def test_score_from_the_closure_bits_is_the_score_from_the_closure(self):
        reference = reference_pipeline()
        pipe = Pipeline(reference.cfg, reference.coefficients, 0.1)
        tasks, atom = scoring_tasks()
        report = evaluate(pipe, tasks, measure_latency=False)
        outputs = pipe.run_tasks(tasks)
        scores = [[int(task.graph.labels[node] in out.closure) == label for node, label in task.labels.items()]
                  for task, out in zip(tasks, outputs)]
        consistent = [not symbolic.detect_conflicts(task.kb, out.closure) for task, out in zip(tasks, outputs)]
        assert report.n_queries == sum(map(len, scores))
        assert report.accuracy == sum(map(sum, scores)) / report.n_queries
        assert report.consistency == sum(consistent) / len(tasks)
        assert 0.0 < report.consistency < 1.0 and atom not in outputs[-1].closure

    def test_kept_block_scores_as_fresh_tasks(self):
        # one block, kept and run under five parameter sets, as train runs
        # its validation split every epoch
        cfg, rules, params = reference_pipeline().cfg, reference_rules(), reference_params()
        tasks, _ = scoring_tasks()
        block = pipeline.Block(tasks)
        consistencies = set()
        for tau, scale in ((0.1, 1.0), (0.2, 0.8), (0.3, 1.2), (0.4, 1.0), (0.05, 0.9)):
            pipe = make_pipeline(cfg, rules, {**params, "tau": np.array([tau]), "theta": params["theta"] * scale})
            kept = evaluate(pipe, block, measure_latency=False)
            assert kept == evaluate(pipe, list(tasks), measure_latency=False)
            ys = [[out.y.values.tobytes() for out in pipe.run_tasks(run)] for run in (block, list(tasks))]
            assert ys[0] == ys[1]
            consistencies.add(kept.consistency)
        timed = evaluate(pipe, block)
        assert (timed.accuracy, timed.consistency, timed.n_queries) == (kept.accuracy, kept.consistency, kept.n_queries)
        assert len(consistencies) > 1 and 0.0 < min(consistencies) < 1.0

    def test_block_names_the_signal_that_does_not_fit(self):
        tasks = gen_dataset("transitive", 3, seed=2)
        short = replace(tasks[1], x0=tasks[1].x0[:-1])
        with pytest.raises(DimensionMismatch, match=f"signal 1 has length {short.x0.size}, its graph"):
            reference_pipeline().run_tasks([tasks[0], short, tasks[2]])
        with pytest.raises(BadParams, match="signal contains non-finite entries"):
            reference_pipeline().run_tasks([tasks[0], replace(tasks[2], x0=np.full(tasks[2].x0.size, np.inf))])

    @pytest.mark.parametrize("measure", [True, False])
    def test_latency_keys_exactly_when_measured(self, measure):
        report = evaluate(reference_pipeline(), gen_dataset("transitive", 4, seed=2), measure_latency=measure)
        latency = {"latency_median_ms", "latency_p95_ms"} if measure else set()
        assert set(json.loads(report.to_json())) == {"accuracy", "consistency", "n_tasks", "n_queries"} | latency

    def test_latency_clock_times_no_preparation(self, monkeypatch):
        # a block prepared as one pass, then timed task by task: each task is
        # regrouped as a block of one by its untimed run, before its clock starts
        pipe = reference_pipeline()
        block = pipeline.Block(gen_dataset("transitive", 4, seed=2) + gen_dataset("kinship", 4, seed=2))
        evaluate(pipe, block, measure_latency=False)
        built = {True: 0, False: 0}
        timing = [False]

        def perf_counter():
            timing[0] = not timing[0]
            return time.perf_counter()

        def build_laplacian(*args, _original=pipeline.build_laplacian):
            built[timing[0]] += 1
            return _original(*args)

        monkeypatch.setattr(harness, "time", type("Clock", (), {"perf_counter": staticmethod(perf_counter)}))
        monkeypatch.setattr(pipeline, "build_laplacian", build_laplacian)
        report = evaluate(pipe, block)
        assert report.latency_median_ms is not None
        assert built == {True: 0, False: len(block.tasks)}


def query_calls(**counts):
    """Preparation call counts: ``counts`` as given, zero for the rest."""
    return {**dict.fromkeys(PREPARATION, 0), **counts}


class TestPreparedGraph:
    def test_second_query_prepares_nothing(self, calls):
        pipe = reference_pipeline()
        # the checkpoint's series holds its rules, so none is fitted
        assert calls == query_calls()
        task = gen_transitive(4, width=2, seed=11)
        pipe.run_task(task)
        assert calls == query_calls(build_laplacian=1, estimate_lambda_max=1)
        pipe.run_task(task)
        assert calls == query_calls(build_laplacian=1, estimate_lambda_max=1)

    def test_warm_output_equals_cold_output(self):
        pipe = reference_pipeline()
        task = gen_transitive(4, width=2, seed=11)
        outputs = [pipe.run_task(task) for _ in range(2)]
        cold = reference_pipeline().run_task(gen_transitive(4, width=2, seed=11))
        assert task.graph.prepared
        for out in outputs:
            assert_same_output(out, cold)

    def test_laplacian_kind_and_seed_get_their_own_entries(self, calls):
        task = gen_transitive(3, width=2, seed=5)
        configs = [PipelineConfig(), PipelineConfig(seed=1), PipelineConfig(laplacian="normalized")]
        for cfg in configs * 2:
            run(cfg, task, ())
        assert set(task.graph.prepared) == {(cfg.laplacian, cfg.seed) for cfg in configs}
        assert calls["build_laplacian"] == calls["estimate_lambda_max"] == len(configs)
        for cfg in configs:
            assert_same_output(run(cfg, task, ()), run(cfg, gen_transitive(3, width=2, seed=5), ()))

    def test_rule_rows_follow_the_rules(self, calls):
        cfg, rules = PipelineConfig(tau=0.4), reference_rules()
        task = gen_transitive(3, width=2, seed=5)
        # rules A, B, A on one graph, the rows of each pipeline's rules fitted once
        pipes = [make_pipeline(cfg, rules) for rules in (rules, rules[:1], rules)]
        assert calls == query_calls(rule_coefficients=3)
        outputs = [pipe.run_task(task) for pipe in pipes]
        # the graph is prepared once for every rule set, and no query fits a rule
        assert calls == query_calls(build_laplacian=1, estimate_lambda_max=1, rule_coefficients=3)
        for pipe, out in zip(pipes, outputs, strict=True):
            fresh = pipe.run_task(gen_transitive(3, width=2, seed=5))
            assert_same_output(out, fresh)
            assert np.array_equal(out.theta_star, fresh.theta_star)

    def test_labels_are_the_graphs(self):
        task = gen_transitive(2, width=1, seed=5)
        # preparation derives stage 2's inputs only, its pass's Laplacian
        # operator and bounds; the labels stay on the graph
        assert [f.name for f in fields(pipeline.Layout)] == ["laplacian", "bounds", "lambda_max"]
        assert task.graph.labels == tuple(m.label for m in task.graph.nodes)
        assert task.graph.labels == tuple(task.node_atoms.values())

    @pytest.mark.parametrize(
        "name, error, stage",
        [
            ("estimate_lambda_max", ConvergenceFailure, "spectral"),
            ("build_laplacian", BadParams, "laplacian"),
            ("rule_coefficients", BadParams, "rules"),
        ],
    )
    def test_failed_preparation_is_not_kept(self, monkeypatch, name, error, stage):
        task = gen_transitive(3, width=2, seed=5)
        original = getattr(pipeline, name)
        # the rule fit runs only with rules, when the pipeline's series is made
        fits = name == "rule_coefficients"
        rules = reference_rules() if fits else ()

        def fail(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(pipeline, name, fail)
        block = [gen_transitive(2, width=2, seed=6), task, gen_transitive(4, width=1, seed=7)]
        for _ in range(2):
            if fits:
                with pytest.raises(error) as info:
                    make_pipeline(PipelineConfig(), rules)
                assert info.value.stage == stage
            else:
                pipe = make_pipeline(PipelineConfig())
                for queried in ([task], block):
                    with pytest.raises(error) as info:
                        pipe.run_tasks(queried)
                    assert info.value.stage == stage
            assert not any(t.graph.prepared for t in block)
        monkeypatch.setattr(pipeline, name, original)
        run(PipelineConfig(), task, rules)
        assert list(task.graph.prepared) == [(PipelineConfig().laplacian, 0)]
        make_pipeline(PipelineConfig(), rules).run_tasks(block)
        assert all(list(t.graph.prepared) == [(PipelineConfig().laplacian, 0)] for t in block)

    def test_block_prepares_in_one_call_per_layer(self, calls):
        pipe = reference_pipeline()
        calls.update(query_calls())
        tasks = gen_dataset("transitive", 5, seed=8) + gen_dataset("kinship", 5, seed=8)
        # a block with a graph listed twice is one pass; a query fits no rule
        pipe.run_tasks(tasks + tasks[:2])
        assert calls == query_calls(build_laplacian=1, estimate_lambda_max=1)
        # a sub-block of warm graphs is a new pass, bounded again in one call
        pipe.run_tasks(tasks)
        assert calls == query_calls(build_laplacian=2, estimate_lambda_max=2)

    @pytest.mark.parametrize("laplacian", [COMBINATORIAL, NORMALIZED])
    def test_regrouped_block_equals_its_cold_block(self, laplacian):
        reference = reference_pipeline()
        cfg = replace(reference.cfg, laplacian=laplacian)
        pipe = Pipeline(cfg, reference.coefficients, reference.tau)
        tasks = gen_dataset("transitive", 5, seed=9) + gen_dataset("kinship", 5, seed=9)
        cold = pipe.run_tasks(tasks)
        alone = [pipe.run_task(task) for task in tasks]
        halves = pipe.run_tasks(tasks[:4]) + pipe.run_tasks(tasks[4:])
        for regrouped in (alone, halves):
            for out, want in zip(regrouped, cold, strict=True):
                assert out.y.values.tobytes() == want.y.values.tobytes()
                assert out.answers == want.answers
                assert out.lambda_max == want.lambda_max

    def test_regroup_is_one_new_pass_then_kept(self, calls):
        pipe = reference_pipeline()
        tasks = gen_dataset("transitive", 3, seed=9) + gen_dataset("kinship", 3, seed=9)
        pipe.run_tasks(tasks)
        calls.update(query_calls())
        # warm graphs regrouped are a new pass: one Laplacian call, one bound call
        pipe.run_tasks(tasks[1:4])
        assert calls == query_calls(build_laplacian=1, estimate_lambda_max=1)
        # the regrouped pass is kept, so the same grouping prepares nothing
        pipe.run_tasks(tasks[1:4])
        assert calls == query_calls(build_laplacian=1, estimate_lambda_max=1)
        # a prefix of a kept list is a list of its own
        pipe.run_tasks(tasks[1:3])
        assert calls == query_calls(build_laplacian=2, estimate_lambda_max=2)

    def test_mixed_block_is_bounded_in_one_call(self, calls):
        pipe = reference_pipeline()

        def tasks():
            return gen_dataset("transitive", 3, seed=9) + gen_dataset("kinship", 3, seed=9)

        mixed = tasks()
        pipe.run_tasks(mixed[:2])
        calls.update(query_calls())
        outputs = pipe.run_tasks(mixed)
        # two warm graphs and four cold ones: one pass, one bound call over all six
        assert calls == query_calls(build_laplacian=1, estimate_lambda_max=1)
        for out, want in zip(outputs, pipe.run_tasks(tasks()), strict=True):
            assert_same_output(out, want)
            assert out.lambda_max == want.lambda_max

    def test_graph_listed_twice_gives_its_own_output(self):
        pipe = reference_pipeline()
        task = gen_transitive(4, width=2, seed=11)
        other = gen_dataset("kinship", 1, seed=3)[0]
        # cold, then warm beside a cold graph, then warm
        for block in ([task, task], [task, other, task], [task, task]):
            first, *_, last = pipe.run_tasks(block)
            alone = pipe.run_task(gen_transitive(4, width=2, seed=11))
            for out in (first, last):
                assert_same_output(out, alone)
                assert out.lambda_max == alone.lambda_max

    def test_graph_listed_twice_is_a_new_pass_each_time(self, calls):
        pipe = reference_pipeline()
        calls.update(query_calls())
        task = gen_transitive(4, width=2, seed=11)
        # the graph keeps its last position, so its first one never holds the
        # pass: each fresh block over the list is one new pass
        for _ in range(3):
            pipe.run_tasks([task, task])
        assert calls == query_calls(build_laplacian=3, estimate_lambda_max=3)
        layout = pipeline.prepare_graph(pipe.cfg, [task.graph, task.graph])
        assert task.graph.prepared[(pipe.cfg.laplacian, pipe.cfg.seed)] == (layout, 1)
        assert layout.bounds[0] == layout.bounds[1]
        assert calls == query_calls(build_laplacian=4, estimate_lambda_max=4)

    def test_pass_is_not_reused_once_a_graph_drops_it(self, calls):
        cfg = PipelineConfig()
        graphs = [task.graph for task in gen_dataset("transitive", 3, seed=9)]
        first = pipeline.prepare_graph(cfg, graphs)
        assert pipeline.prepare_graph(cfg, graphs) is first
        del graphs[1].prepared[(cfg.laplacian, cfg.seed)]
        # the graph is cold again, so the list is one new pass, bounded again
        second = pipeline.prepare_graph(cfg, graphs)
        assert second is not first and second.bounds == first.bounds
        assert calls == query_calls(build_laplacian=2, estimate_lambda_max=2)
        assert all(g.prepared[(cfg.laplacian, cfg.seed)] == (second, i) for i, g in enumerate(graphs))

    def test_pass_keeps_no_graph_alive(self):
        graphs = [task.graph for task in gen_dataset("kinship", 2, seed=4)]
        layout = pipeline.prepare_graph(PipelineConfig(), graphs)
        freed = weakref.ref(graphs.pop())
        assert freed() is None
        assert layout.laplacian.graph_count == 2

    @settings(max_examples=50, deadline=None)
    @given(laplacian=st.sampled_from([COMBINATORIAL, NORMALIZED]), data=st.data())
    def test_kept_pass_rule(self, laplacian, data):
        def tasks():
            return gen_dataset("transitive", 3, seed=9) + gen_dataset("kinship", 3, seed=9)

        reference = reference_pipeline()
        pipe = Pipeline(replace(reference.cfg, laplacian=laplacian), reference.coefficients, reference.tau)
        alone = [pipe.run_task(task) for task in tasks()]
        pool, passes, listed = tasks(), [], []

        def kept(listed):
            # a list that made a pass, with no graph twice, none of whose
            # graphs a later pass has taken
            return any(
                made == listed and len(set(made)) == len(made) and set(made).isdisjoint(chain(*passes[k + 1 :]))
                for k, made in enumerate(passes)
            )

        # lists over six graphs, cold at first: a new one, with or without
        # duplicates, warm graphs beside cold ones; the last again, permuted,
        # or a sub-list or prefix of it
        graphs = st.integers(0, 5)
        fresh = st.lists(graphs, min_size=1, max_size=6, unique=True) | st.lists(graphs, min_size=2, max_size=7)
        for _ in range(data.draw(st.integers(1, 6), label="steps")):
            positions = st.sets(st.sampled_from(range(len(listed) or 1)), min_size=1)
            sub = positions.map(lambda ks, last=listed: [last[k] for k in sorted(ks)])
            prefix = st.integers(1, max(len(listed) - 1, 1)).map(lambda n, last=listed: last[:n])
            again = [st.just(listed), st.permutations(listed), sub, prefix]
            listed = data.draw(st.one_of(fresh, *again) if listed else fresh)
            new = 0 if kept(listed) else 1
            with (
                patch.object(pipeline, "build_laplacian", wraps=pipeline.build_laplacian) as built,
                patch.object(pipeline, "estimate_lambda_max", wraps=pipeline.estimate_lambda_max) as bounded,
            ):
                outputs = pipe.run_tasks([pool[i] for i in listed])
            assert built.call_count == bounded.call_count == new
            if new:
                passes.append(listed)
            for out, i in zip(outputs, listed, strict=True):
                assert out.y.values.tobytes() == alone[i].y.values.tobytes()
                assert out.answers == alone[i].answers
                assert out.lambda_max == alone[i].lambda_max

    def test_train_lays_out_each_split_once(self, monkeypatch):
        counts = {"prepare_graph": 0, "build_laplacian": 0}
        for name in counts:
            original = getattr(pipeline, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(pipeline, name, counted)
        splits = split_dataset(gen_dataset("transitive", 60, seed=3), (40, 20, 0))
        train_run = TrainRun(max_epochs=4, batch_size=16, patience=5, seed=7, latency_probe=0)
        result = train(PipelineConfig(tau=0.4), splits, train_run, rules=tuple(reference_rules()))
        assert len(result.history) == 4
        # one pass for the training split, one for the validation block its four
        # epochs share; each split is cold, so each is one pass, built once
        assert counts == {"prepare_graph": 2, "build_laplacian": 2}

    def test_training_twice_on_the_same_splits(self, calls):
        def splits():
            return split_dataset(gen_dataset("transitive", 60, seed=3), (40, 20, 0))

        cfg = PipelineConfig(tau=0.4)
        rules = tuple(reference_rules())
        calls.update(query_calls())
        train_run = TrainRun(max_epochs=3, batch_size=16, patience=3, seed=7, latency_probe=0)
        shared = splits()
        results = [train(cfg, shared, train_run, rules=rules)]
        # one block preparation for the training split, one for the validation
        # split; the rules are fitted once per run, and the context and each
        # epoch's pipeline share their rows
        fits = 1
        assert calls == query_calls(build_laplacian=2, estimate_lambda_max=2, rule_coefficients=fits)
        results.append(train(cfg, shared, train_run, rules=rules))
        assert calls == query_calls(build_laplacian=2, estimate_lambda_max=2, rule_coefficients=2 * fits)
        results.append(train(cfg, splits(), train_run, rules=rules))
        reference = results[-1]
        for result in results[:-1]:
            assert [h.train_loss for h in result.history] == [h.train_loss for h in reference.history]
            assert [h.val_accuracy for h in result.history] == [h.val_accuracy for h in reference.history]
            for snap, ref in zip(result.trajectory, reference.trajectory, strict=True):
                for key in ref:
                    assert np.array_equal(snap[key], ref[key]), key
