"""Gradient training of filter, rule, gate, and threshold parameters.

Every gradient is analytic: the filter output is linear in the Chebyshev
coefficients and rule weights, the gate is a softmax over scalar scores,
and the threshold is a logistic, so the whole stage-2/3 chain
differentiates in closed form. Adam with per-group learning rates
(spectral parameters fast, embedding-side parameters slow) drives the
updates; rule weights are clamped non-negative after every step.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from .errors import (
    BadParams,
    DivergedLoss,
    EmptyLabels,
    NonFiniteGradient,
    ShapeMismatch,
)
from .harness import SyntheticTask, TaskSplits, evaluate
from .pipeline import Pipeline, PipelineConfig, init_params, prepare_graph
from .rules import SpectralRule
from .spectral import chebyshev_stack, softmax
from .symbolic import PredicateSet

# prepare_graph makes these calls now; the names stay on this module
# because perfbench's layer tracer looks them up and wraps them here
from .pipeline import build_laplacian  # noqa: F401
from .rules import rule_coefficients  # noqa: F401
from .spectral import estimate_lambda_max  # noqa: F401

PARAM_GROUPS = {
    "theta": "spectral",
    "rule_weights": "spectral",
    "q": "embedding",
    "s": "embedding",
    "tau": "embedding",
    "alpha": "embedding",
}

# per-group learning rates: spectral parameters are far more sensitive
# than the embedding-side group, hence the two scales
LEARNING_RATES = {"spectral": 5e-4, "embedding": 1e-5}

PROB_CLIP = 1e-7


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
    return _bce(p_soft.values[idx], targets)


def _bce(p: np.ndarray, targets: np.ndarray) -> float:
    clipped = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
    return float(-np.mean(targets * np.log(clipped) + (1.0 - targets) * np.log(1.0 - clipped)))


def _bce_upstream(p: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """d(loss)/dp, zero wherever the clip is active (matches the clipped loss)."""
    m = p.shape[0]
    inside = (p > PROB_CLIP) & (p < 1.0 - PROB_CLIP)
    out = np.zeros_like(p)
    out[inside] = (p[inside] - targets[inside]) / (p[inside] * (1.0 - p[inside])) / m
    return out


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


def grad_rule_weights(coeff_rows: np.ndarray, x_stack: np.ndarray, upstream_bprime: np.ndarray) -> np.ndarray:
    """d(loss)/d(w_r) for b' = sum_r w_r C_r x; C_r given as coefficient rows."""
    coeff_rows = np.asarray(coeff_rows)
    projected = grad_theta(x_stack, upstream_bprime)
    if coeff_rows.ndim != 2 or coeff_rows.shape[1] != projected.shape[0]:
        raise ShapeMismatch(f"coefficient rows {coeff_rows.shape} incompatible with stack order")
    return coeff_rows @ projected


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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    learning_rates: dict[str, float] = field(default_factory=lambda: dict(LEARNING_RATES))


def init_adam(params: dict[str, np.ndarray], learning_rates: dict[str, float] | None = None) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(np.asarray(v, dtype=np.float64)) for k, v in params.items()},
        v={k: np.zeros_like(np.asarray(v, dtype=np.float64)) for k, v in params.items()},
        learning_rates=dict(learning_rates) if learning_rates is not None else dict(LEARNING_RATES),
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
        state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * g * g
        m_hat = state.m[name] / (1.0 - state.beta1**t)
        v_hat = state.v[name] / (1.0 - state.beta2**t)
        lr = state.learning_rates[PARAM_GROUPS.get(name, "spectral")]
        updated = value - lr * m_hat / (np.sqrt(v_hat) + state.eps)
        if name == "rule_weights":
            updated = np.maximum(updated, 0.0)
        out[name] = updated
    return out


# ---------------------------------------------------------------------------
# per-task forward/backward
# ---------------------------------------------------------------------------


@dataclass
class TaskContext:
    """Per-task quantities that do not depend on the trainable parameters."""

    lambda_max: float
    laplacian: object
    coeff_rows: np.ndarray | None
    x0: np.ndarray
    x0_stack: np.ndarray
    label_nodes: np.ndarray
    label_values: np.ndarray


def prepare_context(task: SyntheticTask, cfg: PipelineConfig, rules: tuple[SpectralRule, ...]) -> TaskContext:
    prepared = prepare_graph(cfg, task.graph)
    lap, lam_max = prepared.laplacian, prepared.lambda_max
    rows = prepared.coefficient_rows(rules, cfg.order) if rules else None
    x0 = np.asarray(task.x0, dtype=np.float64)
    stack = chebyshev_stack(lap, lam_max, x0, cfg.order)
    nodes = np.asarray(sorted(task.labels), dtype=np.int64)
    values = np.asarray([float(task.labels[i]) for i in sorted(task.labels)])
    if nodes.size == 0:
        raise EmptyLabels(f"task {task.task_id} has no labels")
    return TaskContext(lam_max, lap, rows, x0, stack, nodes, values)


def _mixed_theta(params: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray | None]:
    theta = params["theta"]
    if theta.shape[0] == 1:
        return theta[0], None
    alpha = softmax(params["s"] @ params["q"])
    return alpha @ theta, alpha


def task_loss_and_grads(
    ctx: TaskContext,
    params: dict[str, np.ndarray],
    order: int,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and full analytic gradient for one task."""
    n = ctx.x0.shape[0]
    weights = params["rule_weights"]
    if ctx.coeff_rows is not None and weights.shape[0] != ctx.coeff_rows.shape[0]:
        raise ShapeMismatch(f"{weights.shape[0]} rule weights for {ctx.coeff_rows.shape[0]} rules")

    if ctx.coeff_rows is not None:
        c_total = weights @ ctx.coeff_rows
        bprime = ctx.x0_stack @ c_total
        b_stack = chebyshev_stack(ctx.laplacian, ctx.lambda_max, bprime, order)
    else:
        bprime = ctx.x0
        b_stack = ctx.x0_stack

    theta_star, _ = _mixed_theta(params)
    y = b_stack @ theta_star

    tau = params["tau"]
    tau_vec = np.full(n, float(tau[0])) if tau.shape == (1,) else tau
    if tau_vec.shape[0] != n:
        raise ShapeMismatch(f"tau length {tau_vec.shape[0]} != {n} nodes")
    steepness = float(params["alpha"])
    p = expit(steepness * (y - tau_vec))

    p_label = p[ctx.label_nodes]
    value = _bce(p_label, ctx.label_values)

    upstream_p = np.zeros(n)
    upstream_p[ctx.label_nodes] = _bce_upstream(p_label, ctx.label_values)
    d_y, d_tau_vec, d_alpha = grad_threshold(y, tau_vec, steepness, p, upstream_p)

    g_theta_star = grad_theta(b_stack, d_y)
    if params["theta"].shape[0] == 1:
        d_theta = g_theta_star[None, :]
        d_q = np.zeros_like(params["q"])
        d_s = np.zeros_like(params["s"])
    else:
        d_theta, d_q, d_s = grad_gate(params["theta"], params["q"], params["s"], g_theta_star)

    if ctx.coeff_rows is not None:
        # d loss / d b' = H_{theta*} (d loss / d y): the filter is symmetric
        upstream_b = chebyshev_stack(ctx.laplacian, ctx.lambda_max, d_y, order) @ theta_star
        d_w = grad_rule_weights(ctx.coeff_rows, ctx.x0_stack, upstream_b)
    else:
        d_w = np.zeros_like(weights)

    grads = {
        "theta": d_theta,
        "rule_weights": d_w,
        "q": d_q,
        "s": d_s,
        "tau": np.asarray([d_tau_vec.sum()]) if tau.shape == (1,) else d_tau_vec,
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
    learning_rates: dict[str, float] | None = None
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
            "config": {k: getattr(self.config, k) for k in (
                "laplacian", "order", "bands", "rules", "threshold_mode",
                "tau", "alpha", "crossover", "path", "seed",
            )},
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
        payload = json.loads(text)
        cfg = PipelineConfig(**payload["config"])
        params = {k: np.asarray(v, dtype=np.float64) for k, v in payload["params"].items()}
        optimizer = {
            "step": int(payload["optimizer"]["step"]),
            "m": {k: np.asarray(v, dtype=np.float64) for k, v in payload["optimizer"]["m"].items()},
            "v": {k: np.asarray(v, dtype=np.float64) for k, v in payload["optimizer"]["v"].items()},
        }
        return cls(cfg, params, optimizer, payload["metadata"])

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        return cls.from_json(Path(path).read_text())

    def pipeline(self, rules: list[SpectralRule] | None = None) -> Pipeline:
        return Pipeline(self.config, rules=rules, params=self.params)


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    history: list[EpochMetrics]
    trajectory: list[dict[str, np.ndarray]]
    stopped_epoch: int


def _probe_latency(pipe: Pipeline, tasks, probe: int, reps: int = 3) -> float | None:
    """Median per-query wall time over a validation subset, in ms."""
    if probe < 1:
        return None
    subset = list(tasks)[: min(probe, len(tasks))]
    times = []
    for _ in range(reps):
        for task in subset:
            start = time.perf_counter()
            pipe.run_task(task)
            times.append((time.perf_counter() - start) * 1e3)
    return float(np.median(times))


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
    highest-accuracy (tie: lowest-latency, then earliest) checkpoint.

    ``warm_start`` resumes from existing parameters (e.g. a loaded
    checkpoint) instead of the low-pass initialization.
    """
    if not splits.train or not splits.val:
        raise BadParams("training needs non-empty train and val splits")
    pipe0 = Pipeline(cfg, rules=rules)
    rules = list(pipe0.rules)
    start = warm_start if warm_start is not None else pipe0.params
    params = {k: np.array(v, dtype=np.float64) for k, v in start.items()}
    state = init_adam(params, run.learning_rates)
    contexts = [prepare_context(task, cfg, tuple(rules)) for task in splits.train]
    rng = np.random.default_rng(run.seed)

    history: list[EpochMetrics] = []
    trajectory: list[dict[str, np.ndarray]] = []
    best: Checkpoint | None = None
    best_key: tuple[float, float] | None = None
    epochs_since_improvement = 0
    stopped_epoch = 0

    for epoch in range(1, run.max_epochs + 1):
        order = rng.permutation(len(contexts))
        losses = []
        for start in range(0, len(order), run.batch_size):
            batch = order[start : start + run.batch_size]
            acc_grads: dict[str, np.ndarray] | None = None
            batch_loss = 0.0
            for idx in batch:
                value, grads = task_loss_and_grads(contexts[idx], params, cfg.order)
                if not np.isfinite(value):
                    raise DivergedLoss(f"loss diverged on task index {int(idx)}")
                batch_loss += value
                if acc_grads is None:
                    acc_grads = {k: np.array(g, dtype=np.float64) for k, g in grads.items()}
                else:
                    for k, g in grads.items():
                        acc_grads[k] += g
            scale = 1.0 / len(batch)
            acc_grads = {k: g * scale for k, g in acc_grads.items()}
            params = adam_step(params, acc_grads, state)
            losses.append(batch_loss * scale)
        train_loss = float(np.mean(losses))

        pipe = Pipeline(cfg, rules=rules, params=params)
        val_accuracy = evaluate(pipe, splits.val, measure_latency=False).accuracy
        latency = _probe_latency(pipe, splits.val, run.latency_probe)
        history.append(EpochMetrics(epoch, train_loss, val_accuracy, latency))
        trajectory.append({k: np.array(v) for k, v in params.items()})

        key = (val_accuracy, -(latency if latency is not None else 0.0))
        improved = best_key is None or val_accuracy > best_key[0] or (
            val_accuracy == best_key[0] and latency is not None and -latency > best_key[1]
        )
        if improved:
            best_key = key
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
        # early stopping counts epochs since the last new accuracy maximum
        if epoch == 1 or val_accuracy > max(h.val_accuracy for h in history[:-1]):
            epochs_since_improvement = 0
        else:
            epochs_since_improvement += 1
        stopped_epoch = epoch
        if epochs_since_improvement >= run.patience:
            break
    return TrainResult(checkpoint=best, history=history, trajectory=trajectory, stopped_epoch=stopped_epoch)
