"""Three-stage reasoning pipeline and its plain-text configuration.

Stage 1 builds the Laplacian of the reasoning graph. Stage 2 applies the
weighted sum of the rule templates and the learned filter as one
Chebyshev polynomial of the Laplacian (`filter_coefficients`), so no
eigenbasis is formed. Stage 3 thresholds the filtered beliefs into
predicates, binds them as facts, and forward chains to the answer set
with proof traces.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Sequence

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
    KnowledgeBase,
    PredicateSet,
    ProofTrace,
    bind_predicates,
    forward_chain,
    hard_threshold,
    soft_threshold,
)

# the end of the reference interval that rule files are parsed on and the
# initial learned filter is fitted on. The learned filter keeps its
# coefficients on every graph, so only its shape is fixed and each graph
# stretches it over its own [0, lambda_max]. A rule template is a function
# of the absolute eigenvalue instead: `rule_coefficients` refits it at each
# graph's lambda_max, and a graph sees the part of the curve its spectrum reaches
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
                values[key] = known[key](val)
            except ValueError as exc:
                raise FormatError(f"line {lineno}: malformed value for {key}") from exc
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
    # one test of all entries, as this runs on every query; the culprit is named on failure
    if not np.isfinite(np.concatenate(list(params.values()), axis=None)).all():
        name = next(name for name, value in params.items() if not np.isfinite(value).all())
        raise BadParams(f"param {name!r} has non-finite entries")
    return params


def filter_coefficients(params: dict[str, np.ndarray], rows: np.ndarray | None = None) -> np.ndarray:
    """The Chebyshev coefficients of stage 2: ``theta`` without rules. With
    rules, ``rows`` stacks each graph's rule rows R_g as (graphs, rules,
    order + 1); the rule and learned filters are polynomials of the same
    rescaled Laplacian, so each graph gets one row chebmul(theta, w R_g),
    its own product, the same bits in a block of any size. ``params``
    must pass `check_params` for the rows' rule count and order."""
    if rows is None:
        return params["theta"]
    return np.matmul((params["rule_weights"] @ rows)[..., None, :], series_operator(params["theta"]))[..., 0, :]


def combined_filter(params: dict[str, np.ndarray], lambda_max, rows=None, starts=None) -> ChebyshevFilter:
    """`filter_coefficients` bound to a spectrum bound; on a block (one
    ``lambda_max`` per node, ``starts`` from `block_diagonal`) each node
    takes its own graph's row."""
    coefficients = filter_coefficients(params, rows)
    if coefficients.ndim == 2:
        coefficients = np.repeat(coefficients, np.diff(starts), axis=0) if np.ndim(lambda_max) else coefficients[0]
    return ChebyshevFilter(coefficients, lambda_max)


@dataclass(frozen=True)
class PipelineOutput:
    """Everything a pipeline run produces, including the interpretability export.

    The export is the learned filter's response on this graph: its
    coefficients ``theta_star`` over [0, ``lambda_max``]. Its
    sampled curve is computed on first access, so callers that never read
    it (evaluation, validation) do not pay for it; so are ``answers``, the
    sorted ``closure``, and ``traces``, a read-only mapping from each
    answer atom to its proof trace that builds a trace only when read.
    """

    y: GraphSignal
    predicates: PredicateSet
    closure: frozenset[str]
    traces: Mapping[str, ProofTrace]
    theta_star: np.ndarray
    lambda_max: float

    @cached_property
    def answers(self) -> tuple[str, ...]:
        return tuple(sorted(self.closure))

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


@dataclass(eq=False)
class PreparedGraph:
    """What the pipeline needs of a graph apart from the signal.

    `prepare_graph` builds it for every cold graph of a block in one pass:
    one Laplacian build, one bound call and one rule fit for the block,
    each graph keeping exactly what it would get alone. ``labels`` holds
    each node's label, the atom it stands for when it thresholds true
    (`bind_predicates`). The rule coefficient rows also depend on the
    rules, so only the last ones asked for are kept, replaced by a single
    assignment: a concurrent reader sees either the old pair or the new
    one, never a mix.
    """

    # the graph's labels rather than the graph: a reference back to the
    # graph would form a cycle and delay freeing it until a gc pass
    labels: tuple[str, ...]
    laplacian: LaplacianMatrix
    lambda_max: float
    _rows: tuple = field(default=(None, None), init=False, repr=False)

    def coefficient_rows(self, rules: tuple[SpectralRule, ...], order: int) -> np.ndarray:
        """Read-only ``rule_coefficients`` rows, reused while ``(rules, order)`` stays equal."""
        key, rows = self._rows
        if key != (rules, order):
            rows = rule_coefficients(rules, self.lambda_max, order)
            rows.setflags(write=False)
            self._rows = ((rules, order), rows)
        return rows


def prepare_graph(
    cfg: PipelineConfig,
    graph: ReasoningGraph | Sequence[ReasoningGraph],
    rules: tuple[SpectralRule, ...] = (),
) -> PreparedGraph | list[PreparedGraph]:
    """The graph's `PreparedGraph` for ``cfg``'s Laplacian kind and seed,
    with its coefficient rows for ``rules`` at ``cfg.order`` when rules
    are given.

    Built on first use and kept on the graph itself, so it is freed with
    the graph. A list of graphs gives a list, and all of them that are not
    prepared yet are prepared together: one `build_laplacian` call, one
    `estimate_lambda_max` call and, for the graphs whose rows are stale,
    one `rule_coefficients` call, each result bit for bit what the graph
    gets alone. A preparation that raises keeps nothing for any graph of
    the block; its error carries the stage tag ``laplacian`` or
    ``spectral`` (``rules`` for the fit).
    """
    if isinstance(graph, ReasoningGraph):
        return prepare_graph(cfg, [graph], rules)[0]
    key = (cfg.laplacian, cfg.seed)
    # a graph listed twice is prepared once
    cold = list({id(g): g for g in graph if key not in g.prepared}.values())
    if cold:
        with _stage("laplacian"):
            laps = build_laplacian(cfg, cold)
        with _stage("spectral"):
            bounds = estimate_lambda_max(laps, seed=cfg.seed)
        for g, lap, bound in zip(cold, laps, bounds, strict=True):
            g.prepared[key] = PreparedGraph(tuple(m.label for m in g.nodes), lap, max(bound, 1e-12))
    prepared = [g.prepared[key] for g in graph]
    if rules:
        rules = tuple(rules)
        fit_key = (rules, cfg.order)
        stale = list({id(p): p for p in prepared if p._rows[0] != fit_key}.values())
        if stale:
            with _stage("rules"):
                rows = rule_coefficients(rules, np.array([p.lambda_max for p in stale]), cfg.order)
            rows.setflags(write=False)
            for p, own in zip(stale, rows, strict=True):
                p._rows = (fit_key, own)
    return prepared


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

    Each true node binds as the atom its label names; one whose label its
    ``kb`` does not declare raises `UnmappedNode`. The Laplacian,
    ``lambda_max``, rule rows and labels come from `prepare_graph`. Module
    errors propagate with a ``stage`` tag attached.

    The graphs are stacked block-diagonally (`block_diagonal`), so stage 2
    makes one Chebyshev recurrence for all of them, each node keeping its
    own graph's ``lambda_max`` and coefficients; stage 3 runs per graph.
    Output i is bit for bit the one graph i gives alone. One graph is a
    block of one: nothing is assembled and ``lambda_max`` stays a scalar.
    """
    cfg, rules, params = pipe.cfg, pipe.rules, pipe.params
    prepared = prepare_graph(cfg, graphs, rules)
    lap, lambda_max, starts = block_diagonal(
        [p.laplacian for p in prepared], [p.lambda_max for p in prepared]
    )

    with _stage("filter"):
        x = block_signal(signals, starts)
        rows = np.stack([p.coefficient_rows(rules, cfg.order) for p in prepared]) if rules else None
        y = chebyshev_filter(lap, combined_filter(params, lambda_max, rows, starts), x).values

    tau, alpha = float(params["tau"][0]), float(params["alpha"])
    logistic = cfg.threshold_mode == LOGISTIC
    outputs = []
    for lo, hi, p, kb in zip(starts[:-1], starts[1:], prepared, kbs, strict=True):
        y_graph = vertex_signal(y[lo:hi])
        with _stage("threshold"):
            predicates = soft_threshold(y_graph, tau, alpha) if logistic else hard_threshold(y_graph, tau)
        with _stage("bind"):
            bound = bind_predicates(predicates, kb, p.labels)
        with _stage("chain"):
            closure, traces = forward_chain(bound)
        outputs.append(PipelineOutput(y_graph, predicates, closure, traces, params["theta"], p.lambda_max))
    return outputs


def _read_rule_file(path: str) -> list[SpectralRule]:
    """The config's rule file, with ``path`` resolved against the working
    directory; an unreadable file raises `FormatError` naming the path tried."""
    try:
        return load_rules(path, REFERENCE_LAMBDA_MAX)
    except OSError as exc:
        raise FormatError(f"cannot read rules file {path!r} (tried {Path(path).absolute()}): {exc.strerror}") from exc


class Pipeline:
    """A configuration bound to a rule set and `init_params` or parameters
    that pass `check_params`, checked once here; every query runs through
    `run_pipeline` with them.

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
        self.params = init_params(cfg, self.rules) if params is None else check_params(cfg, params, len(self.rules))

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
