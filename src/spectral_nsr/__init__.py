"""Spectral neuro-symbolic reasoning over weighted knowledge graphs.

The library filters belief signals in the Laplacian spectrum with
spectral rule templates and a learnable Chebyshev polynomial filter, both
evaluated as polynomials of the Laplacian, then thresholds the result
into predicates for a forward-chaining Horn-clause engine. A dense
eigenbasis (`eigendecompose`, `gft`, `exact_filter`) is kept as the
reference the polynomial filters are checked against. Includes an
analytic-gradient Adam trainer, synthetic reasoning task generators, and
an evaluation harness; the ``spectral-nsr`` command exposes all of it.
"""

from .errors import NumericalError, SpectralNsrError, ValidationError
from .graph import (
    LaplacianMatrix,
    NodeMeta,
    ReasoningGraph,
    build_graph,
    combinatorial_laplacian,
    normalized_laplacian,
)
from .harness import EvalReport, SyntheticTask, TaskSplits, evaluate, gen_dataset, gen_kinship, gen_transitive
from .pipeline import Pipeline, PipelineConfig, PipelineOutput
from .rules import SpectralRule, builtin_template, rule_coefficients
from .spectral import (
    ChebyshevFilter,
    FrequencyResponse,
    GraphSignal,
    SpectralBasis,
    chebyshev_filter,
    eigendecompose,
    estimate_lambda_max,
    exact_filter,
    fit_chebyshev,
    gft,
    igft,
    sample_response,
)
from .symbolic import (
    KnowledgeBase,
    PredicateSet,
    ProofTrace,
    bind_predicates,
    detect_conflicts,
    forward_chain,
    hard_threshold,
    soft_threshold,
)
from .trainer import AdamState, Checkpoint, TrainRun, adam_step, train

__all__ = [
    "SpectralNsrError",
    "ValidationError",
    "NumericalError",
    "ReasoningGraph",
    "NodeMeta",
    "LaplacianMatrix",
    "build_graph",
    "combinatorial_laplacian",
    "normalized_laplacian",
    "SpectralBasis",
    "GraphSignal",
    "FrequencyResponse",
    "ChebyshevFilter",
    "eigendecompose",
    "gft",
    "igft",
    "exact_filter",
    "estimate_lambda_max",
    "chebyshev_filter",
    "fit_chebyshev",
    "sample_response",
    "SpectralRule",
    "rule_coefficients",
    "builtin_template",
    "PredicateSet",
    "KnowledgeBase",
    "ProofTrace",
    "hard_threshold",
    "soft_threshold",
    "bind_predicates",
    "forward_chain",
    "detect_conflicts",
    "Checkpoint",
    "TrainRun",
    "AdamState",
    "adam_step",
    "train",
    "SyntheticTask",
    "TaskSplits",
    "EvalReport",
    "gen_transitive",
    "gen_kinship",
    "gen_dataset",
    "evaluate",
    "Pipeline",
    "PipelineConfig",
    "PipelineOutput",
]

__version__ = "0.1.0"
