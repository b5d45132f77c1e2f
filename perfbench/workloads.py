"""The three workloads of the spectral_nsr benchmark and the loop that runs them.

Every workload is a closed loop with one caller: it sends its next query
only when the previous one has returned. Inputs come from the seed alone.
README.md beside this file says why each workload exists and which
end-to-end metric each layer metric should move.

A run sets up several times (the median is ``setup_s``), then answers
queries for the given number of seconds and checks every output. Between
queries it times a fixed calibration job; ``small_tasks`` and ``train``
report their query times scaled by it (see ``SpeedProbe``). A traced
run sets up once, answers for half the time untraced, then answers the same
queries again with every layer wrapped by the tracer. The traced answers
must equal the untraced ones, and the traced time against the untraced time
of the same queries is the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from collections import defaultdict, deque
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from spectral_nsr import harness, pipeline, rules, spectral, symbolic, trainer
from spectral_nsr.errors import ConvergenceFailure
from spectral_nsr.spectral import vertex_signal

from tracing import CHEB_FILTER, LEARNED_FILTER, NullTracer, Tracer

CHECKPOINT = Path("tests/data/reference_checkpoint.json")
RULES = Path("tests/data/reference_rules.txt")
REFERENCE_ANSWERS = Path("tests/data/reference_answers.json")

# per-query self time of each traced layer, in ms
QUERY_LAYERS = (
    "graph.laplacian",
    "spectral.lambda_max",
    "rules.fit",
    "spectral.rule_filter",
    "spectral.learned_filter",
    "spectral.response",
    "symbolic.threshold",
    "symbolic.bind",
    "symbolic.chain",
    "pipeline.self",
    "trainer.prepare",
    "trainer.grad",
    "spectral.stack",
    "trainer.adam",
    "trainer.val",
)
# time per set-up, in ms
SETUP_LAYERS = ("harness.gen", "graph.build")
# work per query
COUNTS = (
    "spectral.cheb_matvecs",
    "symbolic.true_predicates",
    "symbolic.closure_atoms",
    "graph.nodes",
    "graph.edges",
    "trainer.grad_calls",
    "trainer.adam_steps",
)


def _timings(latencies, throughput, per_sample: int) -> tuple[dict[str, float], dict[str, float]]:
    """Time metrics over the whole run, and figures for the info line.

    ``latencies`` are per-query seconds; ``throughput`` are seconds of
    samples that each answered ``per_sample`` queries.
    """
    lat = np.asarray(latencies)
    thr = np.asarray(throughput)
    metrics = {
        "query_p50_ms": 1e3 * float(np.median(lat)),
        "queries_per_s": per_sample * thr.size / float(thr.sum()),
    }
    # not a metric: every workload reports every metric, and a run of
    # large_graph or train has too few queries for a 99th percentile
    recorded = {"run_p99_ms": 1e3 * float(np.percentile(lat, 99))}
    return metrics, recorded


# The calibration job's graph: 13 nodes, 15 edges, fixed
_CAL_ROWS = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 2, 4])
_CAL_COLS = np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 5, 7, 9])
# The calibration job's time on the tuning machine in a fast spell, so
# scaled times read as milliseconds at that speed
CAL_REF_S = 0.0025


def _calibration_job() -> float:
    """Fixed work shaped like a small_tasks query, independent of spectral_nsr.

    Small scipy sparse builds, matvecs and dict and set traffic: the
    interpreter-bound mix whose speed the shared machine varies most.
    """
    acc = 0.0
    for _ in range(4):
        a = sp.coo_array((np.ones(_CAL_ROWS.size), (_CAL_ROWS, _CAL_COLS)), shape=(13, 13)).tocsr()
        a = a + a.T
        lap = sp.diags_array(np.asarray(a.sum(axis=1)).ravel()) - a
        v = np.linspace(1.0, 2.0, 13)
        for _ in range(30):
            w = lap @ v
            v = w / np.linalg.norm(w)
        names = {i: f"n{i}" for i in range(40)}
        acc += float(v @ v) + len({name for i, name in names.items() if i % 3})
    return acc


class SpeedProbe:
    """Machine speed, from a calibration job timed between queries.

    The shared 2-core machine the benchmark was tuned on runs the same
    interpreter-bound code up to 2x slower for seconds to minutes at a
    time, so a whole 30 s run can fall in a slow or a fast spell. Over ten
    seeds, the whole-run median query time of ``small_tasks`` spread by
    0.07 to 0.40 of its median from one set of runs to the next; read in
    the run's fastest windows or at a low percentile it spread as much.
    The calibration job slows down with the queries (correlation 0.93 over
    2 s bins). Scaling each query's time by CAL_REF_S over the calibration
    time around it brought that spread from 0.17 to 0.02 and 0.04 in two
    sets of runs. ``large_graph``, mostly large vectorised calls, slows
    down by only 0.3 to 0.6 of the job's slowdown, so it is not scaled.
    """

    EVERY_S = 0.25
    # calibrations within this many seconds of a query's span set its scale
    NEAR_S = 1.0

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []

    def calibrate(self) -> None:
        gc.disable()
        try:
            start = time.perf_counter()
            _calibration_job()
            end = time.perf_counter()
        finally:
            gc.enable()
        self.at.append(end)
        self.seconds.append(end - start)

    def maybe(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= self.EVERY_S:
            self.calibrate()

    def scale(self, spans) -> list[float]:
        """Each (start, seconds) span's time, times CAL_REF_S over the median calibration near it.

        The window always holds the calibrations just before and just
        after the span, since one runs before every query after EVERY_S
        and one after the last.
        """
        at = np.asarray(self.at)
        cal = np.asarray(self.seconds)
        scaled = []
        for start, seconds in spans:
            lo = min(np.searchsorted(at, start - self.NEAR_S), np.searchsorted(at, start) - 1)
            hi = max(np.searchsorted(at, start + seconds + self.NEAR_S), np.searchsorted(at, start + seconds) + 1)
            scaled.append(seconds * CAL_REF_S / float(np.median(cal[max(lo, 0):hi])))
        return scaled

    def summary(self) -> dict[str, float]:
        return {"calibrations": len(self.seconds), "calibration_ms": 1e3 * float(np.median(self.seconds))}


@dataclass(frozen=True)
class Sizes:
    """Input sizes. The defaults are the benchmark's; the self-test shrinks them."""

    setups: int = 5
    block: int = 100
    edges: int = 250_000
    clauses: int = 1_000
    train_tasks: int = 400
    val_tasks: int = 100
    epochs: int = 10


@dataclass
class Checked:
    """What the checks found for one answered query."""

    key: object
    problem: str | None = None
    tally: dict[str, float] = field(default_factory=dict)
    kind: str = "query"


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer function the pipeline and the trainer call."""

    def matvecs_filter(counts, args, result):
        counts["spectral.cheb_matvecs"] += args[1].order

    def matvecs_stack(counts, args, result):
        counts["spectral.cheb_matvecs"] += args[3]

    def true_predicates(counts, args, result):
        p = args[0]
        counts["symbolic.true_predicates"] += int(np.count_nonzero(p.values > 0.5 if p.soft else p.values))

    def closure_atoms(counts, args, result):
        counts["symbolic.closure_atoms"] += len(result[0])

    def one(name):
        def count(counts, args, result):
            counts[name] += 1

        return count

    for module in (pipeline, trainer):
        tracer.wrap(module, "build_laplacian", "graph.laplacian")
        tracer.wrap(module, "estimate_lambda_max", "spectral.lambda_max")
        tracer.wrap(module, "rule_coefficients", "rules.fit")
    tracer.wrap(pipeline, "run_pipeline", "pipeline.self")
    tracer.wrap(pipeline, "chebyshev_filter", CHEB_FILTER, matvecs_filter)
    tracer.wrap(pipeline, "combined_filter", LEARNED_FILTER)
    tracer.wrap(pipeline, "sample_response", "spectral.response")
    tracer.wrap(pipeline, "soft_threshold", "symbolic.threshold")
    tracer.wrap(pipeline, "hard_threshold", "symbolic.threshold")
    tracer.wrap(pipeline, "bind_predicates", "symbolic.bind", true_predicates)
    tracer.wrap(pipeline, "forward_chain", "symbolic.chain", closure_atoms)
    tracer.wrap(trainer, "prepare_context", "trainer.prepare")
    tracer.wrap(trainer, "task_loss_and_grads", "trainer.grad", one("trainer.grad_calls"))
    tracer.wrap(trainer, "chebyshev_stack", "spectral.stack", matvecs_stack)
    tracer.wrap(trainer, "adam_step", "trainer.adam", one("trainer.adam_steps"))
    tracer.wrap(trainer, "evaluate", "trainer.val")


def _reference_pipeline(root: Path) -> pipeline.Pipeline:
    ckpt = trainer.Checkpoint.load(root / CHECKPOINT)
    return ckpt.pipeline(rules=rules.load_rules(root / RULES, pipeline.REFERENCE_LAMBDA_MAX))


def _closure(clauses, facts) -> set[str]:
    """Least fixed point by plain iteration, independent of symbolic.forward_chain."""
    closure = set(facts)
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            if clause.head not in closure and clause.body <= closure:
                closure.add(clause.head)
                changed = True
    return closure


def _graph_tally(tasks) -> dict[str, float]:
    """Queries, nodes and edges answered; one task is one query."""
    return {
        "queries": len(tasks),
        "nodes": sum(t.graph.node_count for t in tasks),
        "edges": sum(t.graph.edge_count() for t in tasks),
    }


# ---------------------------------------------------------------------------
# small_tasks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskQuery:
    task: harness.SyntheticTask


@dataclass(frozen=True)
class BlockQuery:
    tasks: tuple[harness.SyntheticTask, ...]


# Power iteration in estimate_lambda_max fails to settle on about one
# generated task in 40000 (transitive-d5-s1171909349 and
# transitive-d5-s1437906287 are two), and the query raises
# ConvergenceFailure. The workload leaves such tasks out before they are
# answered and lists them in the info line. More than this many in one run
# counts as a failure, so that a change making the failure common still shows.
MAX_SCREENED = 3


class SmallTasks:
    """Many small generated graphs, each answered once by the reference checkpoint.

    Inputs come in rounds of two fresh blocks: the first is answered one
    task per query (latency), the second by one ``harness.evaluate`` call
    (throughput). No graph is ever answered twice in a run.
    """

    scaled = True

    def __init__(self, root: Path, seed: int, sizes: Sizes):
        self.root = root
        self.seed = seed
        self.sizes = sizes
        # at least one round, so that both latency and throughput have samples
        self.min_queries = sizes.block + 1
        self.screened: list[str] = []

    def _gen(self, count: int) -> list[harness.SyntheticTask]:
        tasks = []
        for _ in range(count):
            task_seed = int(self.rng.integers(2**31))
            if self.rng.random() < 0.5:
                tasks.append(harness.gen_transitive(int(self.rng.integers(1, 6)), width=2, seed=task_seed))
            else:
                tasks.append(harness.gen_kinship(int(self.rng.integers(2, 6)), seed=task_seed))
        return tasks

    def _round(self) -> list:
        single = self._gen(self.sizes.block)
        block = self._gen(self.sizes.block)
        return [TaskQuery(t) for t in single] + [BlockQuery(tuple(block))]

    def setup(self, tracer) -> None:
        self.pipe = _reference_pipeline(self.root)
        self.rng = np.random.default_rng(self.seed)
        with tracer.span("harness.gen"):
            # the warm-up tasks are the same for every seed
            warmup = [harness.gen_transitive(d, width=2, seed=0) for d in range(1, 6)]
            warmup += [harness.gen_kinship(c, seed=0) for c in range(2, 6)]
            self.pending = deque(self._round())
        self.screened = []
        for task in warmup:
            self.pipe.run_task(task)

    def _screen(self, task) -> harness.SyntheticTask:
        """The task, or fresh ones in its place while power iteration fails on it.

        Runs when a query is taken, outside set-up and outside the timed calls.
        """
        cfg = self.pipe.cfg
        while True:
            try:
                spectral.estimate_lambda_max(pipeline.build_laplacian(cfg, task.graph), seed=cfg.seed)
                return task
            except ConvergenceFailure:
                self.screened.append(task.task_id)
                task = self._gen(1)[0]

    def screen_check(self, result: Result) -> None:
        result.check(len(self.screened) <= MAX_SCREENED,
                     f"power iteration failed on {len(self.screened)} tasks: {self.screened[:10]}")

    def reference_check(self, result: Result) -> None:
        """The checkpoint must give the frozen answers on transitive-d3-s0."""
        expected = json.loads((self.root / REFERENCE_ANSWERS).read_text())
        task = harness.gen_transitive(3, width=2, seed=0)
        answers = list(self.pipe.run_task(task).answers)
        ok = task.task_id == expected["task"] and answers == expected["answers"]
        result.check(ok, f"reference answers on {task.task_id}: {answers}")

    def next_query(self):
        if not self.pending:
            self.pending.extend(self._round())
        query = self.pending.popleft()
        if isinstance(query, TaskQuery):
            return TaskQuery(self._screen(query.task))
        return BlockQuery(tuple(self._screen(t) for t in query.tasks))

    def answer(self, query):
        if isinstance(query, TaskQuery):
            return self.pipe.run_task(query.task)
        return harness.evaluate(self.pipe, query.tasks, measure_latency=False)

    def _score(self, task, output) -> tuple[str | None, int]:
        """Check one answer; return what is wrong with it and how many labels it gets right.

        The answers must be the closure of the thresholded predicates under
        the task's clauses. A label that disagrees with the oracle is not a
        program fault: it lowers ``accuracy``. The reference checkpoint
        misses about one task in several thousand, where the weakest
        evidence filters to just under its threshold.
        """
        answers = set(output.answers)
        facts = {task.node_atoms[i] for i in output.predicates.true_nodes()}
        problem = None
        if not np.isfinite(output.y.values).all():
            problem = f"{task.task_id}: non-finite filter output"
        elif answers != _closure(task.kb.clauses, facts):
            problem = f"{task.task_id}: answers are not the closure of the true predicates"
        right = sum(int(task.node_atoms[n] in answers) == label for n, label in task.labels.items())
        return problem, right

    def check(self, query, output) -> Checked:
        if isinstance(query, TaskQuery):
            task = query.task
            problem, right = self._score(task, output)
            consistent = not symbolic.detect_conflicts(task.kb, frozenset(output.answers))
            return Checked(
                key=output.answers,
                problem=problem,
                tally={"labels": len(task.labels), "correct": right, "consistent": int(consistent),
                       "wrong_tasks": int(right < len(task.labels)), **_graph_tally([task])},
                kind="task",
            )
        report = output
        labels = sum(len(t.labels) for t in query.tasks)
        correct = round(report.accuracy * report.n_queries)
        problem = None
        if report.n_queries != labels or report.n_tasks != len(query.tasks):
            problem = f"evaluate counted {report.n_queries} labels on {report.n_tasks} tasks"
        elif correct != labels:
            # evaluate returns no answers: check the block task by task instead
            scored = [self._score(t, self.pipe.run_task(t)) for t in query.tasks]
            problem = "; ".join(p for p, _ in scored if p) or None
            if problem is None and sum(r for _, r in scored) != correct:
                problem = "evaluate accuracy differs from the per-task answers"
        return Checked(
            key=(report.accuracy, report.consistency, report.n_queries),
            problem=problem,
            tally={"labels": labels, "correct": correct,
                   "consistent": round(report.consistency * report.n_tasks), **_graph_tally(query.tasks)},
            kind="block",
        )

    def metrics(self, samples, tally) -> dict[str, float]:
        latencies, blocks = samples["task"], samples["block"]
        timed, recorded = _timings(latencies, blocks, self.sizes.block)
        self.info = {
            **recorded,
            "latency_samples": len(latencies),
            "evaluate_blocks": len(blocks),
            "evaluate_tasks": tally["queries"] - len(latencies),
            "labels": tally["labels"],
            "consistency": tally["consistent"] / tally["queries"],
            "latency_tasks_with_wrong_labels": tally["wrong_tasks"],
            "screened_tasks": self.screened,
        }
        return {**timed, "accuracy": tally["correct"] / tally["labels"]}


# ---------------------------------------------------------------------------
# large_graph
# ---------------------------------------------------------------------------

# The graph is the same for every seed: power iteration on it takes a
# different number of steps on each random graph (0.35 s to 1.24 s over
# graph seeds 0-3 at 1e6 edges), which would turn into seed-to-seed spread.
# The seed picks the clause sample and the query signals.
GRAPH_SEED = 0
SIGNAL_DENSITY = 0.25
TRACE_SAMPLE = 50


class LargeGraph:
    """Repeated queries with fresh signals on one random graph of about 250k edges.

    The KB declares one atom per node (its label) and one single-premise
    Horn clause per sampled edge, oriented at random. Each query's signal
    puts unit mass on a random quarter of the nodes.
    """

    def __init__(self, root: Path, seed: int, sizes: Sizes):
        self.root = root
        self.seed = seed
        self.sizes = sizes

    def setup(self, tracer) -> None:
        # free the previous set-up's inputs before building the next
        self.graph = self.kb = self.pipe = None
        with tracer.span("graph.build"):
            self.graph, _ = harness.random_sparse_laplacian(self.sizes.edges, seed=GRAPH_SEED)
        self.rng = np.random.default_rng(self.seed)
        with tracer.span("harness.gen"):
            upper = sp.triu(sp.coo_array(self.graph.adjacency), k=1).tocoo()
            pick = self.rng.choice(upper.nnz, size=self.sizes.clauses, replace=False)
            flip = self.rng.random(pick.size) < 0.5
            heads = np.where(flip, upper.row[pick], upper.col[pick])
            bodies = np.where(flip, upper.col[pick], upper.row[pick])
            labels = [m.label for m in self.graph.nodes]
            clauses = [
                symbolic.Clause(f"e{k}", labels[h], frozenset({labels[b]}))
                for k, (h, b) in enumerate(zip(heads.tolist(), bodies.tolist()))
            ]
            self.kb = symbolic.KnowledgeBase(tuple(labels), tuple(clauses))
        self.pipe = _reference_pipeline(self.root)
        self.pipe.run(self.graph, self.next_query(), self.kb)

    min_queries = 1
    scaled = False

    def next_query(self):
        return vertex_signal((self.rng.random(self.graph.node_count) < SIGNAL_DENSITY).astype(np.float64))

    def answer(self, query):
        return self.pipe.run(self.graph, query, self.kb)

    def check(self, query, output) -> Checked:
        n = self.graph.node_count
        facts = {self.kb.atoms[i] for i in output.predicates.true_nodes()}
        answers = set(output.answers)
        problems = []
        if not np.isfinite(output.y.values).all():
            problems.append("non-finite filter output")
        mismatched = len(answers ^ _closure(self.kb.clauses, facts))
        if mismatched:
            problems.append(f"{mismatched} answers differ from the closure of the true predicates")
        derived = sorted(answers - facts)
        sample = self.rng.choice(len(derived), size=min(TRACE_SAMPLE, len(derived)), replace=False)
        bound = self.kb.with_facts(facts)
        bad = [derived[i] for i in sample if not symbolic.replay_trace(bound, output.traces[derived[i]])]
        if bad:
            problems.append(f"proof traces do not replay: {bad[:5]}")
        return Checked(
            key=(output.answers, hashlib.sha256(output.y.values.tobytes()).hexdigest()),
            problem="; ".join(problems) or None,
            tally={"queries": 1, "nodes": n, "edges": self.graph.edge_count(), "agree": n - mismatched,
                   "true": len(facts), "closure": len(answers), "replayed": len(sample)},
        )

    def metrics(self, samples, tally) -> dict[str, float]:
        latencies = samples["query"]
        timed, recorded = _timings(latencies, latencies, 1)
        self.info = {
            **recorded,
            "queries": len(latencies),
            "query_ms": [round(1e3 * dt, 3) for dt in latencies],
            "graph_nodes": self.graph.node_count,
            "graph_edges": self.graph.edge_count(),
            "clauses": len(self.kb.clauses),
            "true_predicates_per_query": tally["true"] / len(latencies),
            "closure_atoms_per_query": tally["closure"] / len(latencies),
            "traces_replayed": tally["replayed"],
        }
        return {**timed, "accuracy": tally["agree"] / tally["nodes"]}


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


class Train:
    """Whole ``trainer.train`` runs on one generated split; each run is one query.

    The epoch count is fixed, early stopping cannot trigger and the latency
    probe is off, so every run on the same split follows the same
    trajectory and picks the same checkpoint.
    """

    def __init__(self, root: Path, seed: int, sizes: Sizes):
        self.root = root
        self.seed = seed
        self.sizes = sizes
        self.cfg = pipeline.PipelineConfig(tau=0.4, rules=str(root / RULES))
        self.train_run = trainer.TrainRun(
            max_epochs=sizes.epochs, batch_size=32, patience=sizes.epochs + 1, seed=seed, latency_probe=0
        )
        self.first_key = None

    def setup(self, tracer) -> None:
        self.rules = rules.load_rules(self.root / RULES, pipeline.REFERENCE_LAMBDA_MAX)
        n_train, n_val = self.sizes.train_tasks, self.sizes.val_tasks
        with tracer.span("harness.gen"):
            # depths cycle through 1..5 rather than being drawn, so that every
            # seed trains on the same amount of work
            tasks = [
                harness.gen_transitive(1 + i % 5, width=2, seed=self.seed * 1_000_003 + i)
                for i in range(n_train + n_val)
            ]
        self.splits = harness.split_dataset(tasks, (n_train, n_val, 0))

    # two runs must agree before a run can pass its determinism check
    min_queries = 2
    scaled = True

    def next_query(self):
        return self.splits

    def answer(self, query):
        return trainer.train(self.cfg, query, self.train_run, rules=self.rules)

    def check(self, query, output) -> Checked:
        losses = tuple(h.train_loss for h in output.history)
        key = (losses, tuple(h.val_accuracy for h in output.history))
        if self.first_key is None:
            self.first_key = key
        problems = []
        if len(losses) != self.sizes.epochs or not np.isfinite(losses).all():
            problems.append(f"loss sequence {losses}")
        if key != self.first_key:
            problems.append("loss sequence differs from the first run on the same seed")
        # one training run is one query; it works on every graph of the split
        graphs = _graph_tally([*query.train, *query.val])
        return Checked(
            key=key,
            problem="; ".join(problems) or None,
            tally={**graphs, "queries": 1, "val_accuracy": output.history[-1].val_accuracy,
                   "final_loss": losses[-1]},
        )

    def metrics(self, samples, tally) -> dict[str, float]:
        seconds = samples["query"]
        timed, recorded = _timings(seconds, seconds, 1)
        self.info = {
            **recorded,
            "train_runs": len(seconds),
            "query_ms": [round(1e3 * dt, 3) for dt in seconds],
            "epochs": self.sizes.epochs,
            "train_tasks": self.sizes.train_tasks,
            "val_tasks": self.sizes.val_tasks,
            "final_loss": tally["final_loss"] / tally["queries"],
        }
        return {**timed, "accuracy": tally["val_accuracy"] / tally["queries"]}


WORKLOADS = {"small_tasks": SmallTasks, "large_graph": LargeGraph, "train": Train}


# ---------------------------------------------------------------------------
# the run loop
# ---------------------------------------------------------------------------


def _answer(workload, query, result: Result, tracer, query_id):
    """Answer and check one query; returns (seconds, Checked) or None if it raised."""
    start = time.perf_counter()
    try:
        with tracer.query(query_id):
            output = workload.answer(query)
    except Exception as exc:  # a query that raises counts as failed; the run goes on
        result.check(False, f"query {query_id}: {type(exc).__name__}: {exc}")
        return None
    seconds = time.perf_counter() - start
    try:
        checked = workload.check(query, output)
    except Exception as exc:
        result.check(False, f"query {query_id}: checking raised {type(exc).__name__}: {exc}")
        return None
    result.check(checked.problem is None, f"query {query_id}: {checked.problem}")
    return seconds, checked


def _measure(workload, seconds: float, result: Result, keep: bool, probe: SpeedProbe):
    """Answer fresh queries untraced until ``seconds`` have passed.

    Returns the query spans (start, seconds) by kind, the summed tallies
    and, when ``keep`` is set, each query with its answer key for a traced
    replay. Nothing else is kept, so the benchmark's own memory does not
    grow with speed.
    """
    gc.collect()
    spans: dict[str, list[tuple[float, float]]] = defaultdict(list)
    tally: dict[str, float] = defaultdict(float)
    kept = []
    start = time.perf_counter()
    attempts = 0
    while time.perf_counter() - start < seconds or attempts < workload.min_queries:
        query = workload.next_query()
        attempts += 1
        probe.maybe()
        began = time.perf_counter()
        done = _answer(workload, query, result, NullTracer(), attempts)
        if done is None:
            continue
        dt, checked = done
        spans[checked.kind].append((began, dt))
        for key, value in checked.tally.items():
            tally[key] += value
        if keep:
            kept.append((query, checked.key))
    probe.calibrate()
    if not tally:
        raise RuntimeError(f"every query failed: {result.problems}")
    return spans, tally, kept


def run(name: str, root: Path, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> Result:
    workload = WORKLOADS[name](root, seed, sizes)
    result = Result()
    if trace:
        tracer = Tracer()
        workload.setup(tracer)
        setup_ms = {f"{layer}_ms": 1e3 * tracer.setup_time(layer) for layer in SETUP_LAYERS}
        setups = [None]
    else:
        setups = []
        for _ in range(sizes.setups):
            start = time.perf_counter()
            workload.setup(NullTracer())
            setups.append(time.perf_counter() - start)
    if isinstance(workload, SmallTasks):
        workload.reference_check(result)

    probe = SpeedProbe()
    spans, tally, kept = _measure(workload, seconds / 2 if trace else seconds, result, trace, probe)
    if isinstance(workload, SmallTasks):
        workload.screen_check(result)
    samples = {kind: [dt for _, dt in s] for kind, s in spans.items()}
    result.metrics = workload.metrics(samples, tally)
    if workload.scaled:
        unscaled = {name: result.metrics[name] for name in ("query_p50_ms", "queries_per_s")}
        result.metrics = workload.metrics({kind: probe.scale(s) for kind, s in spans.items()}, tally)
        workload.info["unscaled"] = unscaled
    workload.info.update(probe.summary())
    if trace:
        untraced_s = sum(sum(times) for times in samples.values())
        result.metrics = _traced_layers(workload, tracer, kept, tally, untraced_s, result)
        result.metrics.update(setup_ms)
    else:
        result.metrics["setup_s"] = statistics.median(setups)
        result.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.info.update(workload.info)
    result.info["setups"] = len(setups)
    result.info["sizes"] = asdict(sizes)
    return result


def _traced_layers(workload, tracer: Tracer, kept, tally, untraced_s: float, result: Result) -> dict[str, float]:
    """Answer the kept queries again under the tracer; per-layer metrics per query."""
    install_layers(tracer)
    tracer.reset()
    gc.collect()
    try:
        for i, (query, key) in enumerate(kept):
            again = _answer(workload, query, result, tracer, i)
            if again is not None:
                result.check(again[1].key == key, f"traced answers differ from untraced on query {i}")
    finally:
        tracer.restore()
    times, traced_s = tracer.self_times()
    unknown = set(times) - set(QUERY_LAYERS)
    if unknown:
        raise RuntimeError(f"spans of unknown layers: {sorted(unknown)}")
    queries = tally["queries"]
    counts = dict(tracer.counts, **{"graph.nodes": tally["nodes"], "graph.edges": tally["edges"]})
    layers = {f"{layer}_ms": 1e3 * times.get(layer, 0.0) / queries for layer in QUERY_LAYERS}
    layers.update({name: counts.get(name, 0) / queries for name in COUNTS})
    layers["trace.coverage"] = sum(times.values()) / traced_s
    layers["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    result.info["traced_queries"] = queries
    return layers
