"""Three-stage reasoning pipeline and its plain-text configuration.

Every query runs on a block of graphs (`run_pipeline`); one graph is a
block of one. A `Block` keeps what depends only on its tasks, so one made
once can be run by many pipelines. Stage 1 lays out the block's
Laplacian, an operator on the graphs' stacked adjacency and degrees
(`graph.Laplacian`), and bounds each graph's spectrum. Stage 2 applies
the weighted sum of the rule templates and the learned filter as one
Chebyshev polynomial of the Laplacian (`filter_coefficients`), so no
eigenbasis is formed, in one recurrence over the block. Stage 3 holds a
node true when its filtered belief y exceeds the threshold tau, binds the true nodes as facts of their graphs'
KBs and forward chains every KB to its answer set, each step once for the
whole block. Each graph's output is a view of the block's arrays
(`PipelineOutput`), and its proof traces are made only when they are read.
"""

from __future__ import annotations

import math
import numbers
import os
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache
from itertools import accumulate, chain, compress
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BadParams, EmptyLabels, FormatError, SpectralNsrError, read_text, records
from .graph import COMBINATORIAL, NORMALIZED, Laplacian, ReasoningGraph, laplacians
from .rules import SpectralRule, rule_coefficients
from .spectral import (
    ChebyshevFilter,
    FrequencyResponse,
    GraphSignal,
    block_signal,
    chebyshev_filter,
    estimate_lambda_max,
    fit_chebyshev,
    sample_response,
    series_operator,
    vertex_signal,
)
from .symbolic import (
    BoundBlock,
    CompiledBlock,
    KnowledgeBase,
    PredicateSet,
    ProofTrace,
    bind_predicates,
    forward_chain,
    hard_threshold,
)

from .symbolic import soft_threshold  # noqa: F401  (not called; perfbench's layer tracer wraps it here)

# the end of the reference interval that rule templates are parsed and
# fitted on and the initial learned filter is fitted on. A series keeps its
# coefficients on every graph, so only its shape is fixed and each graph
# stretches it over its own [0, lambda_max]
REFERENCE_LAMBDA_MAX = 2.0

# samples of the exported response curve over [0, lambda_max]
RESPONSE_POINTS = 64


# keys older config files carry for retired settings: the values each is
# dropped with (None: any), and why any other would change answers
RETIRED_KEYS = {
    "crossover": (None, ""),  # a setting of the retired dense-eigenbasis path
    "path": ({"chebyshev"}, "only the Chebyshev path remains"),
    "bands": ({"1"}, "the band gate is retired"),
    "threshold_mode": ({"hard", "logistic"}, "stage 3 binds y > tau, as both modes did"),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to wire the three stages, in one key=value file."""

    laplacian: str = COMBINATORIAL
    order: int = 5
    # the rule file. A relative path is read from the working directory; a
    # config or checkpoint file names it from its own directory, so the
    # path is rewritten as a file is read and written (`config_as_read`,
    # `config_as_written`)
    rules: str = ""
    tau: float = 0.5
    alpha: float = 8.0
    # draws the Lanczos start vector of graphs above DENSE_BOUND_LIMIT nodes
    # (`estimate_lambda_max`); `spectral-nsr train` also shuffles with it
    seed: int = 0

    def __post_init__(self):
        # bool passes for an int, so it is refused by name
        accepted = {int: numbers.Integral, float: numbers.Real, str: str}
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if isinstance(value, bool) or not isinstance(value, accepted[kind]):
                raise BadParams(f"{f.name} must be {kind.__name__}, got {value!r}")
            if kind is float and not math.isfinite(value):
                raise BadParams(f"{f.name} must be finite, got {value!r}")
            object.__setattr__(self, f.name, kind(value))
        if self.laplacian not in (COMBINATORIAL, NORMALIZED):
            raise BadParams(f"laplacian must be {COMBINATORIAL!r} or {NORMALIZED!r}, got {self.laplacian!r}")
        if self.order < 0:
            raise BadParams("order must be >= 0")
        if self.seed < 0:
            raise BadParams("seed must be >= 0")
        if not self.alpha > 0.0:
            raise BadParams(f"alpha must be > 0, got {self.alpha!r}")

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float):
                value = repr(value)
            lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PipelineConfig":
        known = {f.name: type(f.default) for f in fields(cls)}
        values = {}
        for lineno, line in records(text):
            if "=" not in line:
                raise FormatError(f"line {lineno}: expected key=value, got {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in known and key not in RETIRED_KEYS:
                raise FormatError(f"line {lineno}: unknown config key {key!r}")
            try:  # each value is checked alone, so its line can be named
                if key in RETIRED_KEYS:
                    accepted, reason = RETIRED_KEYS[key]
                    if accepted is not None and val not in accepted:
                        raise FormatError(f"{key}={val!r} is no longer supported; {reason}")
                    continue
                value = known[key](val)
                cls(**{key: value})
            except (ValueError, BadParams, FormatError) as exc:
                raise FormatError(f"line {lineno}: malformed value for {key}: {exc}") from exc
            if key in values:
                raise FormatError(f"line {lineno}: config key {key!r} is given twice")
            values[key] = value
        return cls(**values)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(config_as_written(self, path).to_text())

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        return config_as_read(cls.from_text(read_text(path)), path)


def config_as_read(cfg: PipelineConfig, path: str | Path) -> PipelineConfig:
    """``cfg`` as read from the file ``path``: a relative ``rules`` path,
    which names the rule file from the file's directory, joined to that
    directory, so that it names the file from the working directory."""
    if not cfg.rules or os.path.isabs(cfg.rules):
        return cfg
    return replace(cfg, rules=os.path.normpath(os.path.join(os.path.dirname(path), cfg.rules)))


def config_as_written(cfg: PipelineConfig, path: str | Path) -> PipelineConfig:
    """``cfg`` as written to the file ``path``: a relative ``rules`` path,
    which names the rule file from the working directory, rewritten to name
    it from the file's directory (`config_as_read` undoes it)."""
    if not cfg.rules or os.path.isabs(cfg.rules):
        return cfg
    return replace(cfg, rules=os.path.relpath(cfg.rules, os.path.dirname(os.path.abspath(path))))


def initial_filter_response() -> FrequencyResponse:
    """Low-pass initialization: smooth propagation favored at the start.

    Expressed on the reference interval; the decay is gentle enough that
    a degree-5 fit stays non-increasing across the whole band.
    """
    return FrequencyResponse(lambda lam: np.exp(-0.5 * np.asarray(lam)), kind="low-pass")


@lru_cache(maxsize=None)
def _initial_theta(order: int) -> np.ndarray:
    """The low-pass fit of `initial_filter_response`; made once per order, read-only."""
    theta = fit_chebyshev(initial_filter_response(), order, REFERENCE_LAMBDA_MAX).coefficients
    theta.setflags(write=False)
    return theta


def init_params(cfg: PipelineConfig, rules: Sequence[SpectralRule] = ()) -> dict[str, np.ndarray]:
    """Trainable parameter dictionary for a pipeline configuration.

    theta holds the learned filter's order + 1 coefficients (the low-pass
    fit); rule weights start at each rule's ``weight`` (its ``w=``); tau
    holds the one threshold of every node.
    """
    return {
        "theta": _initial_theta(cfg.order).copy(),
        "rule_weights": np.asarray([rule.weight for rule in rules], dtype=np.float64),
        "tau": np.asarray([cfg.tau], dtype=np.float64),
        "alpha": np.asarray(cfg.alpha, dtype=np.float64),
    }


def check_params(cfg: PipelineConfig, params: Mapping[str, np.ndarray], rule_count: int) -> Mapping:
    """``params``, if it holds exactly the names `init_params` gives, each finite
    and shaped as there: theta (order + 1,), rule_weights (``rule_count``,),
    tau (1,), alpha () and > 0. Otherwise `BadParams` names it."""
    shapes = {"theta": (cfg.order + 1,), "rule_weights": (rule_count,), "tau": (1,), "alpha": ()}
    if params.keys() != shapes.keys():
        missing, unknown = sorted(shapes.keys() - params.keys()), sorted(params.keys() - shapes.keys())
        raise BadParams(f"params miss {missing} and hold unknown {unknown}")
    for name, shape in shapes.items():
        if np.shape(params[name]) != shape:
            raise BadParams(f"param {name!r} has shape {np.shape(params[name])}, needs {shape}")
    # one test of all entries laid end to end, as every epoch of `train`
    # checks its snapshot; the culprit is looked up only on failure
    if not np.isfinite(np.concatenate(list(params.values()), axis=None)).all():
        name = next(name for name, value in params.items() if not np.isfinite(value).all())
        raise BadParams(f"param {name!r} has non-finite entries")
    if not params["alpha"] > 0.0:
        raise BadParams(f"param 'alpha' must be > 0, got {float(params['alpha'])}")
    return params


def rule_rows(rules: Sequence[SpectralRule], order: int) -> np.ndarray | None:
    """The rules' read-only coefficient rows R (rules, order + 1) on the
    reference interval, the same for every graph; None without rules. An
    error carries the stage tag ``rules``."""
    if not rules:
        return None
    with _stage("rules"):
        rows = rule_coefficients(tuple(rules), REFERENCE_LAMBDA_MAX, order)
    rows.setflags(write=False)
    return rows


def filter_coefficients(params: dict[str, np.ndarray], rows: np.ndarray | None = None) -> np.ndarray:
    """The Chebyshev coefficients of stage 2: ``theta`` without rules. With
    rules (``rows`` from `rule_rows`), the rule and learned filters are
    polynomials of the same rescaled Laplacian, so stage 2 is the one
    series chebmul(theta, w R) of twice the order. ``params`` must pass
    `check_params` for the rows' rule count and order."""
    if rows is None:
        return params["theta"]
    return (params["rule_weights"] @ rows) @ series_operator(params["theta"])


def combined_filter(coefficients: np.ndarray, lambda_max) -> ChebyshevFilter:
    """Stage 2's coefficients (`filter_coefficients`) bound to a block's
    spectrum bound: a scalar, or one per node on a block. Its own function
    so that perfbench's layer tracer can mark where stage 2's filter runs."""
    return ChebyshevFilter(coefficients, lambda_max)


class _BlockRun(NamedTuple):
    """Stage 3 of a block: the filtered beliefs and the predicates of all
    its nodes, the bound KBs and the closure bits of all their atoms, and
    where each graph's nodes and atoms start (then their counts)."""

    y: np.ndarray
    predicates: PredicateSet
    bound: BoundBlock
    known: np.ndarray
    node_starts: list[int]
    atom_starts: list[int]


class PipelineOutput:
    """What a pipeline run gives for one graph of a block, including the
    interpretability export: a view of the block's arrays.

    ``y``, ``predicates`` (one boolean per node, true where y > tau),
    ``closure`` (a frozenset of atoms), ``answers`` (the sorted closure)
    and ``traces`` (a read-only mapping from each answer atom to its proof
    trace) are each built when first read, so
    callers that read only the closure bits (evaluation, validation) do not
    pay for them. ``closure_bits`` holds one bit per atom of the graph's
    KB, in ``kb.atoms`` order, True for the closure's atoms. The traces
    come from `symbolic.forward_chain` on the graph's bound KB alone,
    which runs when they are first read, and a trace is built only when
    it is read.

    The export is the stage-2 filter that ran on this graph: the
    pipeline's read-only coefficients ``theta_star`` (theta without rules,
    chebmul(theta, w R) with them) over [0, ``lambda_max``], which filters
    x0 into ``y`` bit for bit. Its sampled curve is computed on first
    access too.
    """

    def __init__(self, run: _BlockRun, index: int, theta_star: np.ndarray, lambda_max: float):
        self._run = run
        self._index = index
        self.theta_star = theta_star
        self.lambda_max = lambda_max

    def _nodes(self) -> slice:
        return slice(*self._run.node_starts[self._index : self._index + 2])

    @cached_property
    def y(self) -> GraphSignal:
        return vertex_signal(self._run.y[self._nodes()])

    @cached_property
    def predicates(self) -> PredicateSet:
        return PredicateSet(self._run.predicates.values[self._nodes()], soft=False)

    @property
    def closure_bits(self) -> np.ndarray:
        return self._run.known[slice(*self._run.atom_starts[self._index : self._index + 2])]

    @property
    def block_closure_bits(self) -> np.ndarray:
        """The closure bits of every graph of the block this output was run
        in, end to end; ``closure_bits`` is this graph's part."""
        return self._run.known

    @cached_property
    def closure(self) -> frozenset[str]:
        return frozenset(compress(self._run.bound.block.kbs[self._index].atoms, self.closure_bits.tolist()))

    @cached_property
    def answers(self) -> tuple[str, ...]:
        return tuple(sorted(self.closure))

    @cached_property
    def traces(self) -> Mapping[str, ProofTrace]:
        return self._run.bound.traces(self._index)

    @cached_property
    def response_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.lambda_max, RESPONSE_POINTS)

    @cached_property
    def response_values(self) -> np.ndarray:
        return sample_response(ChebyshevFilter(self.theta_star, self.lambda_max), self.response_grid)


@contextmanager
def _stage(name: str):
    try:
        yield
    except SpectralNsrError as exc:
        if exc.stage is None:
            exc.stage = name
        raise


def build_laplacian(cfg: PipelineConfig, graph: ReasoningGraph | Sequence[ReasoningGraph]) -> Laplacian:
    """The Laplacian operator of ``cfg``'s kind of a graph, or of a list of
    graphs as one block (`graph.laplacians`)."""
    return laplacians([graph] if isinstance(graph, ReasoningGraph) else graph, cfg.laplacian)


@dataclass(frozen=True, eq=False)
class Layout:
    """One preparation pass over a list of graphs for one Laplacian kind
    and seed, made whole by `prepare_graph` and never changed: the pass's
    `Laplacian` operator on the graphs' stacked adjacency, as it is, each
    graph's spectrum bound (``bounds``), and each node's (``lambda_max``),
    its own graph's repeated over its rows (a scalar for a pass of one
    graph). It holds no graph, so it keeps none alive; what the nodes stand
    for stays on the graph (`ReasoningGraph.labels`).
    """

    laplacian: Laplacian
    bounds: list[float]
    lambda_max: float | np.ndarray


def prepare_graph(cfg: PipelineConfig, graphs: Sequence[ReasoningGraph]) -> Layout:
    """One preparation pass over exactly ``graphs``, in their order, for
    ``cfg``'s Laplacian kind and seed (`Layout`). Rules and parameters do
    not enter it, so any pipeline of that kind and seed reuses it. The
    graphs were checked when they were made, so nothing is checked here.

    A list whose every graph keeps the same pass at its own position gets
    that pass as it is. Any other list is a new pass: one `build_laplacian`
    call lays out its Laplacian operator, and one `estimate_lambda_max`
    call bounds every graph from it, each bound bit for bit what the graph
    gets alone. Each graph then keeps the pass and its position in it, so
    the pass lives as long as any of its graphs. Nothing is stored until
    both calls have succeeded, so a preparation that raises keeps nothing
    for any graph of the list; its error carries the stage tag
    ``laplacian`` or ``spectral``. A list of no graphs raises `BadParams`.
    """
    if not graphs:
        raise BadParams("a pass over no graphs has no layout")
    key = (cfg.laplacian, cfg.seed)
    entries = [g.prepared.get(key) for g in graphs]
    kept = entries[0] and entries[0][0]
    if kept and entries == [(kept, i) for i in range(len(kept.bounds))]:
        return kept
    with _stage("laplacian"):
        laplacian = build_laplacian(cfg, graphs)
    with _stage("spectral"):
        bounds = [max(bound, 1e-12) for bound in estimate_lambda_max(laplacian, seed=cfg.seed)]
    if len(bounds) == 1:
        lambda_max = bounds[0]
    else:
        lambda_max = np.repeat(bounds, np.diff(laplacian.starts))
        lambda_max.setflags(write=False)
    layout = Layout(laplacian, bounds, lambda_max)
    for i, g in enumerate(graphs):
        g.prepared[key] = (layout, i)
    return layout


class _Query(NamedTuple):
    """One graph with its vertex signal and KB, as a task with no labels:
    what `Pipeline.run` makes a block of."""

    graph: ReasoningGraph
    x0: GraphSignal
    kb: KnowledgeBase
    labels: Mapping[int, int] = MappingProxyType({})


class _Labelled(NamedTuple):
    """Every task's labelled nodes in ascending order, as block nodes; their
    labels (0.0 or 1.0); and where each task's labels start, followed by
    their count."""

    nodes: np.ndarray
    values: np.ndarray
    starts: np.ndarray


class Block:
    """A block of tasks, made once and run many times (`run_pipeline`).

    A task has a ``graph``, its signal ``x0`` (the values, or a vertex
    `GraphSignal`, which was checked when it was made), a ``kb`` and its
    oracle ``labels`` (node -> 0 or 1), as `harness.SyntheticTask` has;
    `Pipeline.run` makes a block of one graph without labels. Making a
    block reads its ``graphs`` and ``node_starts``, where each graph's
    nodes start, then their count. What else depends only on its tasks is
    computed when first used and then kept, so a block run by many
    pipelines, as `trainer.train` runs its validation split every epoch,
    pays for it once:

    - ``x``, the signal values end to end, checked once (`block_signal`);
    - `layout`, per Laplacian kind and seed: one preparation pass over the
      graphs (`prepare_graph`, `Layout`), with no matrix made per graph;
    - ``compiled``, the KBs with their graphs' labels laid out as one
      program over the block's atoms (`symbolic.CompiledBlock`), which
      binding, chaining and scoring share;
    - ``labelled`` (`_Labelled`), for `trainer.prepare_context` and
      `harness.evaluate`. Task by task, a label outside its graph or other
      than 0 and 1 raises `BadParams`, and a task without labels
      `EmptyLabels` when the block was made with ``need_labels``;
    - ``label_atoms``, each label's block atom in ``labelled`` order, -1
      where its KB does not declare it, for `harness.evaluate`.

    The label arrays are read-only. The tasks must not change while the
    block is in use. Concurrent first uses may each compute an entry; one
    of the equal results is kept.
    """

    def __init__(self, tasks: Sequence, need_labels: bool = False):
        self.tasks = tuple(tasks)
        self.graphs = tuple(task.graph for task in self.tasks)
        self.node_starts = list(accumulate((g.node_count for g in self.graphs), initial=0))
        self._need_labels = need_labels
        self._layouts: dict[tuple[str, int], Layout] = {}

    @classmethod
    def of(cls, tasks) -> "Block":
        """``tasks`` as a block: a `Block` as it is, a sequence of tasks as a fresh one."""
        return tasks if isinstance(tasks, Block) else cls(tasks)

    @cached_property
    def x(self) -> GraphSignal:
        return block_signal([task.x0 for task in self.tasks], self.node_starts)

    def layout(self, cfg: PipelineConfig) -> Layout:
        """The graphs' preparation pass for ``cfg``'s Laplacian kind and seed
        (`prepare_graph`), kept from first use; a block of no tasks raises `BadParams`."""
        key = (cfg.laplacian, cfg.seed)
        if key not in self._layouts:
            self._layouts[key] = prepare_graph(cfg, self.graphs)
        return self._layouts[key]

    @cached_property
    def compiled(self) -> CompiledBlock:
        return CompiledBlock([task.kb for task in self.tasks], [graph.labels for graph in self.graphs])

    @cached_property
    def labelled(self) -> _Labelled:
        counts = [len(task.labels) for task in self.tasks]
        total = sum(counts)
        local = np.fromiter(chain.from_iterable(task.labels for task in self.tasks), np.int64, total)
        values = np.fromiter(chain.from_iterable(task.labels.values() for task in self.tasks), np.float64, total)
        owners = np.repeat(np.arange(len(self.tasks)), counts)
        starts = np.array(self.node_starts, dtype=np.int64)
        outside = (local < 0) | (local >= np.diff(starts)[owners])
        nonbinary = (values != 0.0) & (values != 1.0)
        empty = (i for i, n in enumerate(counts) if self._need_labels and not n)
        refused = {*owners[outside | nonbinary].tolist(), *empty}
        if refused:
            i = min(refused)
            if not counts[i]:
                raise EmptyLabels(f"task {self.tasks[i].task_id} has no labels")
            if outside[owners == i].any():
                raise BadParams(f"task {self.tasks[i].task_id} labels nodes outside its {starts[i + 1] - starts[i]} nodes")
            raise BadParams(f"task {self.tasks[i].task_id} has labels other than 0 and 1")
        # each task's labels in ascending node order: the tasks' nodes are
        # disjoint ascending ranges of the block, so one sort of the block
        # node ids orders by task, then by node
        nodes = local + starts[owners]
        order = np.argsort(nodes, kind="stable")
        labelled = _Labelled(nodes[order], values[order], np.cumsum([0, *counts]))
        for array in labelled:
            array.setflags(write=False)
        return labelled

    @cached_property
    def label_atoms(self) -> np.ndarray:
        atoms = self.compiled.label_ids[self.labelled.nodes]
        atoms.setflags(write=False)
        return atoms


def run_pipeline(pipe: Pipeline, block: Block) -> list[PipelineOutput]:
    """Run ``pipe``'s filter (`combined_filter` of its series), thresholding
    at its tau, binding and forward chaining, in that order, on a `Block`
    of graphs with one signal and one KB each. `Pipeline`'s methods are the
    way in: they hand over its checked series and tau, and call this
    function by its module name, which perfbench's layer tracer wraps as
    ``pipeline.self``.

    Stage 3 binds y > tau: each node whose filtered belief exceeds the
    threshold binds as the atom its label names (`ReasoningGraph.labels`);
    one whose label its ``kb`` does not declare raises `UnmappedNode`.
    Module errors propagate with a ``stage`` tag attached.

    Every stage runs once for the whole block. The graphs are laid out as
    one preparation pass over them (`Block.layout`, `prepare_graph`): its
    Laplacian operator on their stacked adjacency as it is, so stage 2
    makes one Chebyshev recurrence for all of them with the pipeline's one
    coefficient vector, each node keeping its own graph's ``lambda_max``.
    Stage 3 makes one `hard_threshold`, one `bind_predicates` and one
    `forward_chain` call on the block, the last over the KBs' compiled
    forms laid end to end. Output i is a view of graph i's part of the
    block, bit for bit what graph i gives alone. One graph is a block of
    one: nothing is assembled and ``lambda_max`` stays a scalar. No graphs
    give no outputs.

    The block keeps its layout, its checked signal and its KBs laid out
    as one program (`Block`), so a block run again, by any pipeline,
    repeats only the filter and stage 3's own work.
    """
    if not block.tasks:
        return []
    coefficients = pipe.coefficients
    layout = block.layout(pipe.cfg)
    with _stage("filter"):
        y = chebyshev_filter(layout.laplacian, combined_filter(coefficients, layout.lambda_max), block.x)

    with _stage("threshold"):
        predicates = hard_threshold(y, pipe.tau)
    with _stage("bind"):
        bound = bind_predicates(predicates, block.compiled)
    with _stage("chain"):
        _, known = forward_chain(bound)
    run = _BlockRun(y.values, predicates, bound, known, block.node_starts, bound.starts.tolist())
    return [PipelineOutput(run, i, coefficients, bound) for i, bound in enumerate(layout.bounds)]


class Pipeline:
    """The filter a query runs: a configuration, stage 2's one Chebyshev
    series and the threshold tau, checked once here and kept, the series
    as a read-only copy; every query runs through `run_pipeline` with them.
    The series is finite, of order + 1 coefficients, or 2·order + 1 for a
    rule mix (`filter_coefficients`), and tau a finite number; otherwise
    `BadParams`. Of the config, only the Laplacian kind and seed are read:
    the series holds the rules and parameters it was made from.

    Instances are immutable in use: `run`, `run_task` and `run_tasks` are
    pure apart from the preparation pass kept on each graph (`Layout`) and
    what a `Block` keeps, so one pipeline can serve many threads.
    Concurrent first queries on the same graph may each compute its pass;
    one of the equal results is kept, which is harmless.
    """

    def __init__(self, cfg: PipelineConfig, series: Sequence[float] | np.ndarray, tau: float):
        coefficients = np.array(series, dtype=np.float64)  # a caller editing its own array later changes no answer
        if coefficients.shape not in ((cfg.order + 1,), (2 * cfg.order + 1,)):
            raise BadParams(f"series has shape {coefficients.shape}, needs {cfg.order + 1} or {2 * cfg.order + 1} entries")
        if not np.isfinite(coefficients).all():
            raise BadParams("series has non-finite entries")
        if isinstance(tau, bool) or not isinstance(tau, numbers.Real) or not math.isfinite(tau):
            raise BadParams(f"tau must be a finite number, got {tau!r}")
        coefficients.setflags(write=False)
        self.cfg, self.coefficients, self.tau = cfg, coefficients, float(tau)

    def run(self, graph: ReasoningGraph, x0: GraphSignal, kb: KnowledgeBase) -> PipelineOutput:
        return run_pipeline(self, Block([_Query(graph, x0, kb)]))[0]

    def run_task(self, task) -> PipelineOutput:
        """Run a synthetic task (harness protocol)."""
        return self.run_tasks([task])[0]

    def run_tasks(self, tasks) -> list[PipelineOutput]:
        """Run synthetic tasks, or a kept `Block` of them, as one block (see
        `run_pipeline`).

        Output i is bit for bit ``run_task(tasks[i])``.
        """
        return run_pipeline(self, Block.of(tasks))
