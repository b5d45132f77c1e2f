"""Gradient training of filter, rule, gate, and threshold parameters.

Every gradient is analytic: the filter output is linear in the Chebyshev
coefficients and rule weights, the gate is a softmax over scalar scores,
and the threshold is a logistic, so the whole stage-2/3 chain
differentiates in closed form. Adam with per-group learning rates (filter
and rule weights fast, gate and threshold slow) drives the updates; rule
weights are clamped non-negative after every step.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import expit

from .errors import (
    BadParams,
    DivergedLoss,
    EmptyLabels,
    FormatError,
    NonFiniteGradient,
    ShapeMismatch,
)
from .harness import SyntheticTask, TaskSplits, evaluate
from .pipeline import GATE_DIM, Pipeline, PipelineConfig, PreparedGraph, mixed_theta, prepare_graph, retired_config_key
from .rules import SpectralRule
from .spectral import block_diagonal, chebyshev_stack, softmax
from .symbolic import PredicateSet

# prepare_graph makes these calls now; the names stay on this module
# because perfbench's layer tracer looks them up and wraps them here
from .pipeline import build_laplacian  # noqa: F401
from .rules import rule_coefficients  # noqa: F401
from .spectral import estimate_lambda_max  # noqa: F401

PARAM_GROUPS = {
    "theta": "spectral",
    "rule_weights": "spectral",
    "q": "gate_threshold",
    "s": "gate_threshold",
    "tau": "gate_threshold",
    "alpha": "gate_threshold",
}

# per-group learning rates: the filter coefficients and rule weights are
# far more sensitive than the band gate and the threshold, hence two scales
LEARNING_RATES = {"spectral": 5e-4, "gate_threshold": 1e-5}

PROB_CLIP = 1e-7

# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def loss(p_soft: PredicateSet, labels: dict[int, int]) -> float:
    """Mean binary cross-entropy over labeled nodes, probabilities clipped."""
    if not labels:
        raise EmptyLabels("loss needs at least one labeled node")
    if not p_soft.soft:
        raise BadParams("loss expects a soft predicate set")
    idx = np.asarray(sorted(labels), dtype=np.int64)
    targets = np.asarray([float(labels[i]) for i in sorted(labels)])
    return _bce(p_soft.values[idx], targets, np.zeros(1, dtype=np.int64), np.asarray([idx.size]))[0]


def _bce(p: np.ndarray, targets: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> tuple[float, np.ndarray]:
    """Sum over tasks of each task's mean BCE, and its derivative in p.

    ``starts`` and ``counts`` give each task's run of labels. The
    derivative is zero wherever the clip is active, as the clipped loss is.
    """
    clipped = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
    terms = targets * np.log(clipped) + (1.0 - targets) * np.log(1.0 - clipped)
    value = float(-(np.add.reduceat(terms, starts) / counts).sum())
    inside = (p > PROB_CLIP) & (p < 1.0 - PROB_CLIP)
    per_label = np.repeat(counts, counts)
    upstream = np.zeros_like(p)
    upstream[inside] = (p[inside] - targets[inside]) / (p[inside] * (1.0 - p[inside])) / per_label[inside]
    return value, upstream


# ---------------------------------------------------------------------------
# analytic gradients
# ---------------------------------------------------------------------------


def grad_theta(stack: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """d(loss)/d(theta_k) = <upstream, T_k(L~) x>, reusing the forward stack."""
    stack = np.asarray(stack)
    upstream = np.asarray(upstream).reshape(-1)
    if stack.ndim != 2 or stack.shape[0] != upstream.shape[0]:
        raise ShapeMismatch(f"stack {stack.shape} incompatible with upstream {upstream.shape}")
    return stack.T @ upstream


def grad_rule_weights(
    coeff_rows: np.ndarray,
    x_stack: np.ndarray,
    upstream_bprime: np.ndarray,
    node_starts: np.ndarray | None = None,
) -> np.ndarray:
    """d(loss)/d(w_r) for b' = sum_r w_r C_r x; C_r given as coefficient rows.

    On a block, ``coeff_rows`` holds one (rules, order + 1) array per task
    and ``node_starts`` where each task's rows of ``x_stack`` begin: each
    task's projection meets its own rows.
    """
    coeff_rows = np.asarray(coeff_rows)
    x_stack = np.asarray(x_stack)
    upstream_bprime = np.asarray(upstream_bprime).reshape(-1)
    if x_stack.ndim != 2 or x_stack.shape[0] != upstream_bprime.shape[0]:
        raise ShapeMismatch(f"stack {x_stack.shape} incompatible with upstream {upstream_bprime.shape}")
    starts = np.zeros(1, dtype=np.int64) if node_starts is None else np.asarray(node_starts)
    rows = coeff_rows[None] if coeff_rows.ndim == 2 else coeff_rows
    if rows.ndim != 3 or rows.shape[0] != starts.shape[0] or rows.shape[2] != x_stack.shape[1]:
        raise ShapeMismatch(f"coefficient rows {coeff_rows.shape} incompatible with stack order or task count")
    # per task: <upstream_t, T_k(L~) x_t> for every k, summed over the task's nodes
    projected = np.add.reduceat(x_stack * upstream_bprime[:, None], starts, axis=0)
    return np.einsum("trk,tk->r", rows, projected)


def grad_gate(
    theta: np.ndarray,
    q: np.ndarray,
    s: np.ndarray,
    grad_theta_star: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients for the band gate theta* = sum_b softmax(s @ q)_b theta_b.

    Returns (d theta, d q, d s). For a single band the softmax is
    constant 1, so the gate vectors receive zero gradient.
    """
    theta = np.asarray(theta)
    grad_theta_star = np.asarray(grad_theta_star).reshape(-1)
    if theta.ndim != 2 or theta.shape[1] != grad_theta_star.shape[0]:
        raise ShapeMismatch(f"theta {theta.shape} incompatible with upstream {grad_theta_star.shape}")
    if theta.shape[0] != s.shape[0]:
        raise ShapeMismatch(f"theta has {theta.shape[0]} bands, signatures {s.shape[0]}")
    alpha = softmax(s @ q)
    d_theta = alpha[:, None] * grad_theta_star[None, :]
    d_alpha = theta @ grad_theta_star
    # softmax Jacobian: d alpha_b / d logit_c = alpha_b (delta_bc - alpha_c)
    d_logits = alpha * (d_alpha - float(alpha @ d_alpha))
    d_q = s.T @ d_logits
    d_s = d_logits[:, None] * q[None, :]
    return d_theta, d_q, d_s


def grad_threshold(
    y: np.ndarray,
    tau: np.ndarray,
    alpha: float,
    p: np.ndarray,
    upstream_p: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Chain d(loss)/dp through p = sigmoid(alpha (y - tau)).

    Returns (d loss/d y, d loss/d tau, d loss/d alpha); tau gradient is
    per-node and may be summed for a shared scalar threshold.
    """
    y = np.asarray(y).reshape(-1)
    tau = np.asarray(tau).reshape(-1)
    if y.shape != p.shape or y.shape != upstream_p.shape or tau.shape != y.shape:
        raise ShapeMismatch("threshold gradient shapes disagree")
    dz = upstream_p * p * (1.0 - p)
    d_y = alpha * dz
    d_tau = -alpha * dz
    d_alpha = float(dz @ (y - tau))
    return d_y, d_tau, d_alpha


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared step count."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_adam(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(np.asarray(v, dtype=np.float64)) for k, v in params.items()},
        v={k: np.zeros_like(np.asarray(v, dtype=np.float64)) for k, v in params.items()},
    )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update with per-group learning rates.

    Aborts (without touching the state) on any non-finite gradient.
    Rule weights are clamped at zero after the step.
    """
    for name, g in grads.items():
        if name not in params:
            raise ShapeMismatch(f"gradient for unknown parameter {name!r}")
        if not np.isfinite(np.asarray(g)).all():
            raise NonFiniteGradient(f"non-finite gradient for parameter {name!r}")
        if np.asarray(params[name]).shape != np.asarray(g).shape:
            raise ShapeMismatch(f"parameter {name!r}: shape {params[name].shape} vs gradient {np.asarray(g).shape}")
    state.step += 1
    t = state.step
    out: dict[str, np.ndarray] = {}
    for name, value in params.items():
        g = np.asarray(grads.get(name, np.zeros_like(value)), dtype=np.float64)
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[name] / (1.0 - ADAM_BETA1**t)
        v_hat = state.v[name] / (1.0 - ADAM_BETA2**t)
        lr = LEARNING_RATES[PARAM_GROUPS.get(name, "spectral")]
        updated = value - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if name == "rule_weights":
            updated = np.maximum(updated, 0.0)
        out[name] = updated
    return out


# ---------------------------------------------------------------------------
# per-task forward/backward
# ---------------------------------------------------------------------------


@dataclass
class TaskContext:
    """Quantities of one task, or of a block of tasks, that do not depend on
    the trainable parameters.

    A block (`stack_contexts`) stacks its tasks block-diagonally: the
    Laplacian is block-diagonal, ``lambda_max`` holds each node's own
    task's value, ``coeff_rows`` one (rules, order + 1) array per task,
    and ``label_nodes`` ascend through the stacked nodes.
    ``node_starts`` says where each task's nodes begin; it stays None for
    a single task.
    """

    lambda_max: float | np.ndarray
    laplacian: object
    coeff_rows: np.ndarray | None
    x0: np.ndarray
    x0_stack: np.ndarray
    label_nodes: np.ndarray
    label_values: np.ndarray
    node_starts: np.ndarray | None = None


def prepare_context(
    task: SyntheticTask | Sequence[SyntheticTask], cfg: PipelineConfig, rules: tuple[SpectralRule, ...]
) -> TaskContext | list[TaskContext]:
    """The task's `TaskContext`; a list of tasks gives a list of contexts,
    their graphs prepared together (`prepare_graph`)."""
    if isinstance(task, SyntheticTask):
        return prepare_context([task], cfg, rules)[0]
    prepared = prepare_graph(cfg, [t.graph for t in task], rules)
    return [_context(t, p, cfg.order, rules) for t, p in zip(task, prepared, strict=True)]


def _context(task: SyntheticTask, prepared: PreparedGraph, order: int, rules: tuple[SpectralRule, ...]) -> TaskContext:
    lap, lam_max = prepared.laplacian, prepared.lambda_max
    rows = prepared.coefficient_rows(rules, order) if rules else None
    x0 = np.asarray(task.x0, dtype=np.float64)
    stack = chebyshev_stack(lap, lam_max, x0, order)
    nodes = np.asarray(sorted(task.labels), dtype=np.int64)
    values = np.asarray([float(task.labels[i]) for i in sorted(task.labels)])
    if nodes.size == 0:
        raise EmptyLabels(f"task {task.task_id} has no labels")
    return TaskContext(lam_max, lap, rows, x0, stack, nodes, values)


def stack_contexts(contexts: list[TaskContext]) -> TaskContext:
    """One context for a minibatch of single-task contexts, stacked block-diagonally.

    Offset-concatenates the tasks' cached CSR arrays, ``x0`` and
    ``x0_stack`` (see `block_diagonal`); a single context comes back as it
    is.
    """
    if any(ctx.node_starts is not None for ctx in contexts):
        raise BadParams("only single-task contexts can be stacked")
    if len(contexts) == 1:
        return contexts[0]
    if len({ctx.coeff_rows is None for ctx in contexts}) > 1:
        raise BadParams("cannot stack contexts with and without rules")
    lap, lambda_max, starts = block_diagonal(
        [ctx.laplacian for ctx in contexts], [ctx.lambda_max for ctx in contexts]
    )
    counts = np.fromiter((ctx.label_nodes.size for ctx in contexts), np.int64, len(contexts))
    return TaskContext(
        lambda_max,
        lap,
        None if contexts[0].coeff_rows is None else np.stack([ctx.coeff_rows for ctx in contexts]),
        np.concatenate([ctx.x0 for ctx in contexts]),
        np.concatenate([ctx.x0_stack for ctx in contexts]),
        np.concatenate([ctx.label_nodes for ctx in contexts]) + np.repeat(starts[:-1], counts),
        np.concatenate([ctx.label_values for ctx in contexts]),
        node_starts=starts[:-1],
    )


def task_loss_and_grads(
    ctx: TaskContext | list[TaskContext],
    params: dict[str, np.ndarray],
    order: int,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and full analytic gradient for one task or a block of tasks.

    A list of single-task contexts is stacked into one block first
    (`stack_contexts`). A block's loss is the sum of its tasks' mean BCE,
    so its value and gradients are the sums of those of its tasks.
    """
    if not isinstance(ctx, TaskContext):
        ctx = stack_contexts(ctx)
    n = ctx.x0.shape[0]
    if ctx.node_starts is None:
        node_starts = label_starts = np.zeros(1, dtype=np.int64)
    else:
        node_starts = ctx.node_starts
        label_starts = np.searchsorted(ctx.label_nodes, node_starts)
    sizes = np.diff(node_starts, append=n)
    weights = params["rule_weights"]
    # one (rules, order + 1) array of coefficient rows per task
    rows = ctx.coeff_rows[None] if ctx.coeff_rows is not None and ctx.coeff_rows.ndim == 2 else ctx.coeff_rows
    if rows is not None and weights.shape[0] != rows.shape[1]:
        raise ShapeMismatch(f"{weights.shape[0]} rule weights for {rows.shape[1]} rules")

    if rows is not None:
        c_node = np.repeat(weights @ rows, sizes, axis=0)
        bprime = np.einsum("nk,nk->n", ctx.x0_stack, c_node)
        b_stack = chebyshev_stack(ctx.laplacian, ctx.lambda_max, bprime, order)
    else:
        bprime = ctx.x0
        b_stack = ctx.x0_stack

    theta_star, _ = mixed_theta(params)
    y = b_stack @ theta_star

    tau = params["tau"]
    if tau.shape != (1,):
        raise ShapeMismatch(f"tau must have shape (1,), got {tau.shape}")
    tau_vec = np.full(n, float(tau[0]))
    steepness = float(params["alpha"])
    p = expit(steepness * (y - tau_vec))

    p_label = p[ctx.label_nodes]
    counts = np.diff(label_starts, append=ctx.label_nodes.size)
    value, upstream_label = _bce(p_label, ctx.label_values, label_starts, counts)

    upstream_p = np.zeros(n)
    upstream_p[ctx.label_nodes] = upstream_label
    d_y, d_tau_vec, d_alpha = grad_threshold(y, tau_vec, steepness, p, upstream_p)

    g_theta_star = grad_theta(b_stack, d_y)
    if params["theta"].shape[0] == 1:
        d_theta = g_theta_star[None, :]
        d_q = np.zeros_like(params["q"])
        d_s = np.zeros_like(params["s"])
    else:
        d_theta, d_q, d_s = grad_gate(params["theta"], params["q"], params["s"], g_theta_star)

    if rows is not None:
        # d loss / d b' = H_{theta*} (d loss / d y): the filter is symmetric
        upstream_b = chebyshev_stack(ctx.laplacian, ctx.lambda_max, d_y, order) @ theta_star
        d_w = grad_rule_weights(rows, ctx.x0_stack, upstream_b, node_starts)
    else:
        d_w = np.zeros_like(weights)

    grads = {
        "theta": d_theta,
        "rule_weights": d_w,
        "q": d_q,
        "s": d_s,
        "tau": np.asarray([d_tau_vec.sum()]),
        "alpha": np.asarray(d_alpha),
    }
    return value, grads


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainRun:
    """Protocol knobs: epoch cap, batch size, early-stopping patience."""

    max_epochs: int = 50
    batch_size: int = 32
    patience: int = 5
    seed: int = 0
    latency_probe: int = 20

    def __post_init__(self):
        if not 1 <= self.max_epochs <= 50:
            raise BadParams("max_epochs must be in 1..50")
        if self.patience < 1:
            raise BadParams("patience must be >= 1")
        if self.batch_size < 1:
            raise BadParams("batch_size must be >= 1")


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    val_accuracy: float
    latency_ms: float | None


@dataclass
class Checkpoint:
    """Parameters, optimizer state, and selection metadata, as JSON."""

    config: PipelineConfig
    params: dict[str, np.ndarray]
    optimizer: dict
    metadata: dict

    def to_json(self) -> str:
        payload = {
            "format": "spectral-nsr-checkpoint",
            "version": 1,
            "config": asdict(self.config),
            "params": {k: np.asarray(v).tolist() for k, v in self.params.items()},
            "optimizer": {
                "step": self.optimizer["step"],
                "m": {k: np.asarray(v).tolist() for k, v in self.optimizer["m"].items()},
                "v": {k: np.asarray(v).tolist() for k, v in self.optimizer["v"].items()},
            },
            "metadata": self.metadata,
        }
        return json.dumps(payload, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        """Parse a checkpoint; malformed content raises `FormatError`."""
        try:
            payload = json.loads(text)
            config = {k: v for k, v in payload["config"].items() if not retired_config_key(k, v)}
            missing = sorted({f.name for f in fields(PipelineConfig)} - set(config))
            if missing:
                raise FormatError(f"checkpoint config misses {missing}")
            cfg = PipelineConfig(**config)
            params = _arrays(payload["params"])
            optimizer = {
                "step": int(payload["optimizer"]["step"]),
                "m": _arrays(payload["optimizer"]["m"]),
                "v": _arrays(payload["optimizer"]["v"]),
            }
            metadata = payload["metadata"]
        except KeyError as exc:
            raise FormatError(f"checkpoint is missing key {exc}") from exc
        except (AttributeError, OverflowError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed checkpoint: {exc}") from exc
        _check_param_shapes(cfg, params)
        return cls(cfg, params, optimizer, metadata)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        return cls.from_json(Path(path).read_text())

    def pipeline(self, rules: list[SpectralRule] | None = None) -> Pipeline:
        return Pipeline(self.config, rules=rules, params=self.params)


def _arrays(values: dict) -> dict[str, np.ndarray]:
    out = {}
    for name, value in values.items():
        arr = np.asarray(value, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise FormatError(f"array {name!r} has non-numeric or non-finite entries")
        out[name] = arr
    return out


def _check_param_shapes(cfg: PipelineConfig, params: dict[str, np.ndarray]) -> None:
    missing = sorted(set(PARAM_GROUPS) - set(params))
    if missing:
        raise FormatError(f"checkpoint params miss {missing}")
    expected = {"theta": (cfg.bands, cfg.order + 1), "s": (cfg.bands, GATE_DIM), "q": (GATE_DIM,),
                "tau": (1,), "alpha": ()}
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise FormatError(f"param {name!r} has shape {params[name].shape}, config needs {shape}")
    if params["rule_weights"].ndim != 1:
        raise FormatError(f"param 'rule_weights' must be 1-D, got shape {params['rule_weights'].shape}")


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    history: list[EpochMetrics]
    trajectory: list[dict[str, np.ndarray]]
    stopped_epoch: int


def history_csv(history: list[EpochMetrics]) -> str:
    lines = ["epoch,train_loss,val_acc,latency_ms"]
    for row in history:
        latency = "" if row.latency_ms is None else repr(row.latency_ms)
        lines.append(f"{row.epoch},{row.train_loss!r},{row.val_accuracy!r},{latency}")
    return "\n".join(lines) + "\n"


def train(
    cfg: PipelineConfig,
    splits: TaskSplits,
    run: TrainRun,
    rules: list[SpectralRule] | None = None,
    warm_start: dict[str, np.ndarray] | None = None,
) -> TrainResult:
    """Epoch loop with per-epoch validation, early stopping, and the
    checkpoint of highest validation accuracy (ties: the earliest epoch).

    Each minibatch is one `task_loss_and_grads` call on its tasks stacked
    block-diagonally, and each epoch's validation one block run
    (`evaluate` without latency). The latency probe, `evaluate`'s median
    latency on the first ``run.latency_probe`` validation tasks (none at
    0), is recorded in the history and the checkpoint metadata but never
    picks the checkpoint, so a run is reproducible. ``warm_start``
    resumes from existing parameters (e.g. a loaded checkpoint) instead
    of the low-pass initialization.
    """
    if not splits.train or not splits.val:
        raise BadParams("training needs non-empty train and val splits")
    pipe0 = Pipeline(cfg, rules=rules)
    rules = list(pipe0.rules)
    start = warm_start if warm_start is not None else pipe0.params
    params = {k: np.array(v, dtype=np.float64) for k, v in start.items()}
    state = init_adam(params)
    # the training split is prepared as one block here, the validation
    # split as one block by the first epoch's validation run
    contexts = prepare_context(splits.train, cfg, tuple(rules))
    rng = np.random.default_rng(run.seed)

    history: list[EpochMetrics] = []
    trajectory: list[dict[str, np.ndarray]] = []
    best: Checkpoint | None = None
    epochs_since_improvement = 0
    stopped_epoch = 0

    for epoch in range(1, run.max_epochs + 1):
        order = rng.permutation(len(contexts))
        losses = []
        for start in range(0, len(order), run.batch_size):
            batch = order[start : start + run.batch_size]
            value, grads = task_loss_and_grads([contexts[i] for i in batch], params, cfg.order)
            if not np.isfinite(value):
                raise DivergedLoss(f"loss diverged on the minibatch of task indices {batch.tolist()}")
            scale = 1.0 / len(batch)
            params = adam_step(params, {k: g * scale for k, g in grads.items()}, state)
            losses.append(value * scale)
        train_loss = float(np.mean(losses))

        pipe = Pipeline(cfg, rules=rules, params=params)
        val_accuracy = evaluate(pipe, splits.val, measure_latency=False).accuracy
        latency = evaluate(pipe, splits.val[: run.latency_probe]).latency_median_ms if run.latency_probe > 0 else None
        history.append(EpochMetrics(epoch, train_loss, val_accuracy, latency))
        trajectory.append({k: np.array(v) for k, v in params.items()})

        # early stopping counts epochs since the last new accuracy maximum,
        # which is also the checkpoint kept
        if best is None or val_accuracy > best.metadata["val_accuracy"]:
            epochs_since_improvement = 0
            best = Checkpoint(
                config=cfg,
                params={k: np.array(v) for k, v in params.items()},
                optimizer={
                    "step": state.step,
                    "m": {k: np.array(v) for k, v in state.m.items()},
                    "v": {k: np.array(v) for k, v in state.v.items()},
                },
                metadata={
                    "epoch": epoch,
                    "val_accuracy": val_accuracy,
                    "latency_ms": latency,
                    "seed": run.seed,
                    "rule_ids": [r.rule_id for r in rules],
                },
            )
        else:
            epochs_since_improvement += 1
        stopped_epoch = epoch
        if epochs_since_improvement >= run.patience:
            break
    return TrainResult(checkpoint=best, history=history, trajectory=trajectory, stopped_epoch=stopped_epoch)
