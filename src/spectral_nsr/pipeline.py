"""Three-stage reasoning pipeline and its plain-text configuration.

Every query runs on a block of graphs (`run_pipeline`); one graph is a
block of one. Stage 1 builds each graph's Laplacian. Stage 2 applies the
weighted sum of the rule templates and the learned filter as one
Chebyshev polynomial of the Laplacian (`filter_coefficients`), so no
eigenbasis is formed, in one recurrence over the block. Stage 3
thresholds the block's filtered beliefs into predicates, binds the true
ones as facts of their graphs' KBs and forward chains every KB to its
answer set, each step once for the whole block. Each graph's output is a
view of the block's arrays (`PipelineOutput`), and its proof traces are
made only when they are read.
"""

from __future__ import annotations

import copy
import math
import numbers
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from itertools import compress
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BadParams, FormatError, SpectralNsrError
from .graph import COMBINATORIAL, NORMALIZED, LaplacianMatrix, ReasoningGraph, laplacians
from .rules import SpectralRule, load_rules, rule_coefficients
from .spectral import (
    ChebyshevFilter,
    FrequencyResponse,
    GraphSignal,
    block_diagonal,
    block_signal,
    chebyshev_filter,
    estimate_lambda_max,
    fit_chebyshev,
    sample_response,
    series_operator,
    vertex_signal,
)
from .symbolic import (
    HARD,
    LOGISTIC,
    BoundBlock,
    KnowledgeBase,
    PredicateSet,
    ProofTrace,
    bind_predicates,
    forward_chain,
    hard_threshold,
    soft_threshold,
)

# the end of the reference interval that rule templates are parsed and
# fitted on and the initial learned filter is fitted on. A series keeps its
# coefficients on every graph, so only its shape is fixed and each graph
# stretches it over its own [0, lambda_max]
REFERENCE_LAMBDA_MAX = 2.0

# samples of the exported response curve over [0, lambda_max]
RESPONSE_POINTS = 64


def retired_config_key(key: str, value) -> bool:
    """True for a retired key that is dropped on load.

    Older config files and checkpoints carry ``crossover`` and ``path``,
    the settings of a dense-eigenbasis pipeline path that no longer
    exists, and ``bands``, the band count of a retired gate over several
    learned filters. ``crossover``, ``path=chebyshev`` and ``bands=1``
    (text or number) are dropped. Any other ``path`` or ``bands`` raises
    `FormatError`: running such a config on the one Chebyshev filter
    would silently change its answers.
    """
    if key == "crossover":
        return True
    if key == "path" and value != "chebyshev":
        raise FormatError(f"path={value!r} is no longer supported; only the Chebyshev path remains")
    if key == "bands" and str(value) != "1":
        raise FormatError(f"bands={value!r} is no longer supported; the band gate is retired")
    return key in ("path", "bands")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to wire the three stages, in one key=value file."""

    laplacian: str = COMBINATORIAL
    order: int = 5
    rules: str = ""
    threshold_mode: str = LOGISTIC
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
        if self.threshold_mode not in (HARD, LOGISTIC):
            raise BadParams(f"threshold_mode must be {HARD!r} or {LOGISTIC!r}, got {self.threshold_mode!r}")

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
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError(f"line {lineno}: expected key=value, got {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if retired_config_key(key, val):
                continue
            if key not in known:
                raise FormatError(f"line {lineno}: unknown config key {key!r}")
            try:
                value = known[key](val)
                cls(**{key: value})  # each value is checked alone, so its line can be named
            except (ValueError, BadParams) as exc:
                raise FormatError(f"line {lineno}: malformed value for {key}: {exc}") from exc
            if key in values:
                raise FormatError(f"line {lineno}: config key {key!r} is given twice")
            values[key] = value
        return cls(**values)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_text())

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_text(Path(path).read_text())


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


def check_params(cfg: PipelineConfig, params: Mapping[str, np.ndarray], rule_count: int | None) -> Mapping:
    """``params``, if it holds exactly the names `init_params` gives, each finite
    and shaped as there: theta (order + 1,), rule_weights (``rule_count``,) or
    1-D for None, tau (1,), alpha (). Otherwise `BadParams` names the parameter."""
    shapes = {"theta": (cfg.order + 1,), "rule_weights": (rule_count,), "tau": (1,), "alpha": ()}
    if params.keys() != shapes.keys():
        missing, unknown = sorted(shapes.keys() - params.keys()), sorted(params.keys() - shapes.keys())
        raise BadParams(f"params miss {missing} and hold unknown {unknown}")
    if rule_count is None:  # a 1-D array is one whose shape is its size
        shapes["rule_weights"] = (np.size(params["rule_weights"]),)
    for name, shape in shapes.items():
        if np.shape(params[name]) != shape:
            raise BadParams(f"param {name!r} has shape {np.shape(params[name])}, needs {shape}")
    # one test of all entries laid end to end, as every epoch of `train`
    # checks its snapshot; the culprit is looked up only on failure
    if not np.isfinite(np.concatenate(list(params.values()), axis=None)).all():
        name = next(name for name, value in params.items() if not np.isfinite(value).all())
        raise BadParams(f"param {name!r} has non-finite entries")
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

    ``y``, ``predicates``, ``closure`` (a frozenset of atoms), ``answers``
    (the sorted closure) and ``traces`` (a read-only mapping from each
    answer atom to its proof trace) are each built when first read, so
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
        return PredicateSet(self._run.predicates.values[self._nodes()], self._run.predicates.soft)

    @property
    def closure_bits(self) -> np.ndarray:
        return self._run.known[slice(*self._run.atom_starts[self._index : self._index + 2])]

    @cached_property
    def closure(self) -> frozenset[str]:
        return frozenset(compress(self._run.bound.kbs[self._index].atoms, self.closure_bits.tolist()))

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


def build_laplacian(
    cfg: PipelineConfig, graph: ReasoningGraph | Sequence[ReasoningGraph]
) -> LaplacianMatrix | list[LaplacianMatrix]:
    """The graph's Laplacian of ``cfg``'s kind; a list of graphs gives a
    list of Laplacians, built in one pass (`graph.laplacians`)."""
    if isinstance(graph, ReasoningGraph):
        return laplacians([graph], cfg.laplacian)[0]
    return laplacians(graph, cfg.laplacian)


@dataclass(frozen=True, eq=False)
class PreparedGraph:
    """What preparation derives from a graph for stage 2, its Laplacian and
    the bound on its spectrum, made whole by `prepare_graph` and never
    changed. What the nodes stand for stays on the graph
    (`ReasoningGraph.labels`).
    """

    laplacian: LaplacianMatrix
    lambda_max: float


def prepare_graph(cfg: PipelineConfig, graphs: Sequence[ReasoningGraph]) -> list[PreparedGraph]:
    """Each graph's `PreparedGraph` for ``cfg``'s Laplacian kind and seed,
    kept on the graph so it is freed with the graph. Rules and parameters
    do not enter it, so any pipeline of that kind and seed reuses it. The
    graphs were checked when they were made, so nothing is checked here.

    Every graph without an entry gets one, all of them in one pass: one
    `build_laplacian` and one `estimate_lambda_max` call, each result bit
    for bit what the graph gets alone. Nothing is stored until both have
    succeeded, so a preparation that raises keeps nothing for any graph of
    the block; its error carries the stage tag ``laplacian`` or
    ``spectral``.
    """
    key = (cfg.laplacian, cfg.seed)
    # each entry is read once, so a record returned is the one stored; a
    # graph listed twice is prepared once
    entries = {id(g): g.prepared.get(key) for g in graphs}
    cold = list({id(g): g for g in graphs if entries[id(g)] is None}.values())
    if cold:
        with _stage("laplacian"):
            laps = build_laplacian(cfg, cold)
        with _stage("spectral"):
            bounds = [max(bound, 1e-12) for bound in estimate_lambda_max(laps, seed=cfg.seed)]
        for g, lap, bound in zip(cold, laps, bounds, strict=True):
            entries[id(g)] = g.prepared[key] = PreparedGraph(lap, bound)
    return [entries[id(g)] for g in graphs]


def run_pipeline(
    pipe: Pipeline,
    graphs: Sequence[ReasoningGraph],
    signals: Sequence[GraphSignal],
    kbs: Sequence[KnowledgeBase],
) -> list[PipelineOutput]:
    """Run ``pipe``'s filter (`combined_filter`), thresholding, binding and
    forward chaining, in that order, on a block of graphs with one signal
    and one KB each. `Pipeline`'s methods are the way in: they hand over
    its checked parameters, and call this function by its module name,
    which perfbench's layer tracer wraps as ``pipeline.self``.

    Each true node binds as the atom its label names
    (`ReasoningGraph.labels`); one whose label its ``kb`` does not declare
    raises `UnmappedNode`. The Laplacian and ``lambda_max`` come from
    `prepare_graph`. Module errors propagate with a ``stage`` tag attached.

    Every stage runs once for the whole block. The graphs are stacked
    block-diagonally (`block_diagonal`), so stage 2 makes one Chebyshev
    recurrence for all of them with the pipeline's one coefficient
    vector, each node keeping its own graph's ``lambda_max``. Stage 3
    makes one threshold, one `bind_predicates` and one `forward_chain`
    call on the block, the last over the KBs' compiled forms laid end to
    end. Output i is a view of graph i's part of the block, bit for bit
    what graph i gives alone. One graph is a block of one: nothing is
    assembled and ``lambda_max`` stays a scalar. No graphs give no outputs.
    """
    if not graphs:
        return []
    cfg, params, coefficients = pipe.cfg, pipe.params, pipe.coefficients
    prepared = prepare_graph(cfg, graphs)
    lap, lambda_max, starts = block_diagonal(
        [p.laplacian for p in prepared], [p.lambda_max for p in prepared]
    )

    with _stage("filter"):
        x = block_signal(signals, starts)
        y = chebyshev_filter(lap, combined_filter(coefficients, lambda_max), x)

    tau, alpha = float(params["tau"][0]), float(params["alpha"])
    with _stage("threshold"):
        predicates = soft_threshold(y, tau, alpha) if cfg.threshold_mode == LOGISTIC else hard_threshold(y, tau)
    with _stage("bind"):
        bound = bind_predicates(predicates, kbs, [graph.labels for graph in graphs])
    with _stage("chain"):
        _, known = forward_chain(bound)
    run = _BlockRun(y.values, predicates, bound, known, starts.tolist(), bound.starts.tolist())
    return [PipelineOutput(run, i, coefficients, p.lambda_max) for i, p in enumerate(prepared)]


def _read_rule_file(path: str) -> list[SpectralRule]:
    """The config's rule file, with ``path`` resolved against the working
    directory; an unreadable file raises `FormatError` naming the path tried."""
    try:
        return load_rules(path, REFERENCE_LAMBDA_MAX)
    except OSError as exc:
        raise FormatError(f"cannot read rules file {path!r} (tried {Path(path).absolute()}): {exc.strerror}") from exc


class Pipeline:
    """A configuration bound to a rule set and `init_params` or parameters
    that pass `check_params`, checked once here and kept as read-only
    copies; every query runs through `run_pipeline` with them. The rules'
    rows (`rule_rows`) and stage 2's one read-only coefficient vector
    (`filter_coefficients`) are made here too, once, and serve every graph.

    Instances are immutable in use: `run`, `run_task` and `run_tasks` are
    pure apart from the `PreparedGraph` kept on each graph, so
    one pipeline can serve many threads. Concurrent first queries on the
    same graph may each compute its prepared entry; one of the equal
    results is kept, which is harmless.
    """

    def __init__(
        self,
        cfg: PipelineConfig,
        rules: list[SpectralRule] | None = None,
        params: dict[str, np.ndarray] | None = None,
    ):
        self.cfg = cfg
        if rules is None:
            rules = _read_rule_file(cfg.rules) if cfg.rules else []
        self.rules = tuple(rules)
        params = init_params(cfg, self.rules) if params is None else check_params(cfg, params, len(self.rules))
        self.rows = rule_rows(self.rules, cfg.order)
        self._hold(params)

    def _hold(self, params: Mapping[str, np.ndarray]) -> None:
        """Keep read-only copies of checked ``params`` and make their coefficients."""
        self.params = {name: np.array(value) for name, value in params.items()}
        for value in self.params.values():  # a caller editing its own arrays later changes no answer
            value.setflags(write=False)
        self.coefficients = filter_coefficients(self.params, self.rows)
        self.coefficients.setflags(write=False)

    def with_params(self, params: Mapping[str, np.ndarray]) -> "Pipeline":
        """This pipeline on other parameters, which must pass `check_params`
        and are copied as `__init__` copies them; the rules and their rows
        are shared, not fitted again."""
        other = copy.copy(self)
        other._hold(check_params(self.cfg, params, len(self.rules)))
        return other

    def run(self, graph: ReasoningGraph, x0: GraphSignal, kb: KnowledgeBase) -> PipelineOutput:
        return run_pipeline(self, [graph], [x0], [kb])[0]

    def run_task(self, task) -> PipelineOutput:
        """Run a synthetic task (harness protocol)."""
        return self.run_tasks([task])[0]

    def run_tasks(self, tasks) -> list[PipelineOutput]:
        """Run synthetic tasks as one block (see `run_pipeline`).

        Output i is bit for bit ``run_task(tasks[i])``.
        """
        tasks = list(tasks)
        return run_pipeline(
            self,
            [task.graph for task in tasks],
            [vertex_signal(task.x0) for task in tasks],
            [task.kb for task in tasks],
        )
