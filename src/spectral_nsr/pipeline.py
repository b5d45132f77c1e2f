"""Three-stage reasoning pipeline and its plain-text configuration.

Stage 1 builds the Laplacian of the reasoning graph. Stage 2 composes
rule templates, applies the learned polynomial filter (optionally mixed
by the band gate), all in the spectral domain. Stage 3 thresholds the
filtered beliefs into predicates, binds them as facts, and forward
chains to the answer set with proof traces.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BadParams, FormatError, SpectralNsrError
from .graph import COMBINATORIAL, NORMALIZED, LaplacianMatrix, NodeMeta, ReasoningGraph, combinatorial_laplacian, normalized_laplacian
from .rules import SpectralRule, load_rules, rule_coefficients
from .spectral import (
    ChebyshevFilter,
    FrequencyResponse,
    GraphSignal,
    chebyshev_filter,
    eigendecompose,
    estimate_lambda_max,
    exact_filter,
    fit_chebyshev,
    gft,
    sample_response,
    softmax,
    uniform_band_filters,
    vertex_signal,
)
from .symbolic import (
    HARD,
    LOGISTIC,
    KnowledgeBase,
    PredicateSet,
    ProofTrace,
    ThresholdConfig,
    bind_predicates,
    forward_chain,
    hard_threshold,
    soft_threshold,
)

SEED_ENV_VAR = "SPECTRAL_NSR_SEED"

# reference interval used when parsing rule files and fitting the initial
# low-pass filter; per-graph application rescales by the estimated
# lambda_max, so only the response *shape* is fixed here
REFERENCE_LAMBDA_MAX = 2.0

GATE_DIM = 8

_CONFIG_FIELDS = (
    ("laplacian", str),
    ("order", int),
    ("bands", int),
    ("rules", str),
    ("threshold_mode", str),
    ("tau", float),
    ("alpha", float),
    ("crossover", int),
    ("path", str),
    ("seed", int),
)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to wire the three stages, in one key=value file."""

    laplacian: str = COMBINATORIAL
    order: int = 5
    bands: int = 1
    rules: str = ""
    threshold_mode: str = LOGISTIC
    tau: float = 0.5
    alpha: float = 8.0
    crossover: int = 512
    path: str = "chebyshev"
    seed: int = 0

    def __post_init__(self):
        if self.laplacian not in (COMBINATORIAL, NORMALIZED):
            raise BadParams(f"unknown laplacian kind {self.laplacian!r}")
        if self.order < 0:
            raise BadParams("order must be >= 0")
        if self.bands < 1:
            raise BadParams("bands must be >= 1")
        if self.crossover < 1:
            raise BadParams("crossover must be >= 1")
        if self.threshold_mode not in (HARD, LOGISTIC):
            raise BadParams(f"unknown threshold mode {self.threshold_mode!r}")
        if self.path not in ("exact", "chebyshev"):
            raise BadParams(f"unknown filtering path {self.path!r}")

    def to_text(self) -> str:
        lines = []
        for name, _ in _CONFIG_FIELDS:
            value = getattr(self, name)
            if isinstance(value, float):
                value = repr(value)
            lines.append(f"{name}={value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PipelineConfig":
        known = {name: typ for name, typ in _CONFIG_FIELDS}
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError(f"line {lineno}: expected key=value, got {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise FormatError(f"line {lineno}: unknown config key {key!r}")
            try:
                values[key] = known[key](val)
            except ValueError as exc:
                raise FormatError(f"line {lineno}: malformed value for {key}") from exc
        env_seed = os.environ.get(SEED_ENV_VAR)
        if env_seed is not None:
            try:
                values["seed"] = int(env_seed)
            except ValueError as exc:
                raise FormatError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from exc
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


def init_params(cfg: PipelineConfig, n_rules: int = 0) -> dict[str, np.ndarray]:
    """Trainable parameter dictionary for a pipeline configuration.

    theta rows hold per-band filter coefficients (low-pass fit for a
    single band, band-indicator fits otherwise); rule weights start
    uniform at 1/R; gate vectors are seeded standard normals; tau is a
    global scalar unless the trainer swaps in a per-node vector.
    """
    rng = np.random.default_rng(cfg.seed)
    if cfg.bands == 1:
        theta = fit_chebyshev(initial_filter_response(), cfg.order, REFERENCE_LAMBDA_MAX).coefficients[None, :]
    else:
        band_filters = uniform_band_filters(cfg.bands, cfg.order, REFERENCE_LAMBDA_MAX)
        theta = np.stack([f.coefficients for f in band_filters], axis=0)
    params = {
        "theta": theta,
        "rule_weights": np.full(n_rules, 1.0 / n_rules) if n_rules else np.zeros(0),
        "q": rng.standard_normal(GATE_DIM),
        "s": rng.standard_normal((cfg.bands, GATE_DIM)),
        "tau": np.asarray([cfg.tau], dtype=np.float64),
        "alpha": np.asarray(cfg.alpha, dtype=np.float64),
    }
    return params


def combined_filter(params: dict[str, np.ndarray], lambda_max: float) -> ChebyshevFilter:
    """Gate-mixed coefficients bound to a concrete spectrum bound."""
    theta = params["theta"]
    if theta.shape[0] == 1:
        mixed = theta[0]
    else:
        alpha = softmax(params["s"] @ params["q"])
        mixed = alpha @ theta
    return ChebyshevFilter(mixed, lambda_max)


@dataclass(frozen=True)
class PipelineOutput:
    """Everything a pipeline run produces, including the interpretability export."""

    y: GraphSignal
    predicates: PredicateSet
    answers: tuple[str, ...]
    traces: dict[str, ProofTrace]
    response_grid: np.ndarray
    response_values: np.ndarray
    xhat: GraphSignal | None = None


@contextmanager
def _stage(name: str):
    try:
        yield
    except SpectralNsrError as exc:
        if exc.stage is None:
            exc.stage = name
        raise


def build_laplacian(cfg: PipelineConfig, graph: ReasoningGraph) -> LaplacianMatrix:
    if cfg.laplacian == NORMALIZED:
        return normalized_laplacian(graph)
    return combinatorial_laplacian(graph)


@dataclass(eq=False)
class PreparedGraph:
    """What the Chebyshev path needs of a graph apart from the signal.

    The rule coefficient rows and the node -> atom map also depend on the
    rules or the knowledge base, so each keeps only the last one asked
    for. Each slot is replaced by a single assignment, so a concurrent
    reader sees either the old pair or the new one, never a mix.
    """

    # the graph's nodes rather than the graph: a reference back to the
    # graph would form a cycle and delay freeing it until a gc pass
    nodes: tuple[NodeMeta, ...]
    laplacian: LaplacianMatrix
    lambda_max: float
    _rows: tuple = field(default=(None, None), init=False, repr=False)
    _atoms: tuple = field(default=(None, None), init=False, repr=False)

    def coefficient_rows(self, rules: tuple[SpectralRule, ...], order: int) -> np.ndarray:
        """Read-only ``rule_coefficients`` rows, reused while ``(rules, order)`` stays equal."""
        key, rows = self._rows
        if key != (rules, order):
            rows = rule_coefficients(rules, self.lambda_max, order)
            rows.setflags(write=False)
            self._rows = ((rules, order), rows)
        return rows

    def atom_map(self, kb: KnowledgeBase) -> dict[int, str]:
        """Node id -> label for every node labelled with a declared atom of ``kb``.

        Reused while ``kb`` is the same object; callers must not mutate it.
        """
        cached, mapping = self._atoms
        if cached is not kb:
            mapping = _atom_map(self.nodes, kb)
            self._atoms = (kb, mapping)
        return mapping


def _atom_map(nodes, kb: KnowledgeBase) -> dict[int, str]:
    return {m.id: m.label for m in nodes if m.label in kb.declared}


def prepare_graph(cfg: PipelineConfig, graph: ReasoningGraph) -> PreparedGraph:
    """The graph's `PreparedGraph` for ``cfg``'s Laplacian kind and seed.

    Built on first use and kept on the graph itself, so it is freed with
    the graph. A preparation that raises is not kept; its error carries
    the stage tag ``laplacian`` or ``spectral``.
    """
    key = (cfg.laplacian, cfg.seed)
    prepared = graph.prepared.get(key)
    if prepared is None:
        with _stage("laplacian"):
            lap = build_laplacian(cfg, graph)
        with _stage("spectral"):
            lambda_max = max(estimate_lambda_max(lap, seed=cfg.seed), 1e-12)
        prepared = graph.prepared[key] = PreparedGraph(graph.nodes, lap, lambda_max)
    return prepared


def run_pipeline(
    cfg: PipelineConfig,
    graph: ReasoningGraph,
    x0: GraphSignal,
    rules: list[SpectralRule] | tuple[SpectralRule, ...],
    kb: KnowledgeBase,
    params: dict[str, np.ndarray] | None = None,
    mapping: dict[int, str] | None = None,
) -> PipelineOutput:
    """Execute rule composition, learned filtering, thresholding, binding,
    and forward chaining, in that order.

    ``mapping`` defaults to node label -> atom for every node whose label
    is a declared atom of ``kb``. The Chebyshev path takes the Laplacian,
    ``lambda_max``, rule rows and default mapping from `prepare_graph`.
    Module errors propagate with a ``stage`` tag attached.
    """
    rules = tuple(rules)
    if params is None:
        params = init_params(cfg, n_rules=len(rules))

    if cfg.path == "exact":
        if mapping is None:
            mapping = _atom_map(graph.nodes, kb)
        with _stage("laplacian"):
            lap = build_laplacian(cfg, graph)
        with _stage("spectral"):
            basis = eigendecompose(lap, limit=cfg.crossover)
            lambda_max = float(max(basis.eigenvalues[-1], 1e-12))
            xhat = gft(basis, x0)
    else:
        prepared = prepare_graph(cfg, graph)
        if mapping is None:
            mapping = prepared.atom_map(kb)
        lap, lambda_max = prepared.laplacian, prepared.lambda_max
        basis = xhat = None

    with _stage("rules"):
        bprime = x0
        if rules:
            weights = params["rule_weights"]
            if cfg.path == "exact":
                gains = np.zeros_like(basis.eigenvalues)
                for w, rule in zip(weights, rules):
                    gains = gains + w * rule.template(basis.eigenvalues)
                bprime = vertex_signal(basis.eigenvectors @ (gains * (basis.eigenvectors.T @ bprime.values)))
            else:
                total = ChebyshevFilter(weights @ prepared.coefficient_rows(rules, cfg.order), lambda_max)
                bprime = chebyshev_filter(lap, total, bprime)

    with _stage("filter"):
        filt = combined_filter(params, lambda_max)
        if cfg.path == "exact":
            y = exact_filter(basis, filt.response(), bprime)
        else:
            y = chebyshev_filter(lap, filt, bprime)

    with _stage("threshold"):
        tau = params["tau"]
        tau_value = float(tau[0]) if tau.shape == (1,) else tau
        if cfg.threshold_mode == LOGISTIC:
            tcfg = ThresholdConfig(LOGISTIC, tau_value, float(params["alpha"]))
            predicates = soft_threshold(y, tcfg)
        else:
            tcfg = ThresholdConfig(HARD, tau_value)
            predicates = hard_threshold(y, tcfg)

    with _stage("bind"):
        bound = bind_predicates(predicates, kb, mapping)

    with _stage("chain"):
        closure, traces = forward_chain(bound)

    grid = np.linspace(0.0, lambda_max, 64)
    response_values = sample_response(filt, grid)
    return PipelineOutput(
        y=y,
        predicates=predicates,
        answers=tuple(sorted(closure)),
        traces=traces,
        response_grid=grid,
        response_values=response_values,
        xhat=xhat,
    )


class Pipeline:
    """A configuration bound to parameters and a rule set.

    Instances are immutable in use: `run` and `run_task` are pure apart
    from wall-clock reads and the `PreparedGraph` kept on each graph, so
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
            rules = load_rules(cfg.rules, REFERENCE_LAMBDA_MAX) if cfg.rules else []
        self.rules = tuple(rules)
        self.params = params if params is not None else init_params(cfg, n_rules=len(self.rules))

    def run(
        self,
        graph: ReasoningGraph,
        x0: GraphSignal,
        kb: KnowledgeBase,
        mapping: dict[int, str] | None = None,
    ) -> PipelineOutput:
        return run_pipeline(self.cfg, graph, x0, self.rules, kb, params=self.params, mapping=mapping)

    def run_task(self, task) -> PipelineOutput:
        """Run a synthetic task (harness protocol)."""
        return self.run(task.graph, vertex_signal(task.x0), task.kb, mapping=dict(task.node_atoms))

    def with_params(self, params: dict[str, np.ndarray]) -> "Pipeline":
        return Pipeline(self.cfg, rules=list(self.rules), params=params)
