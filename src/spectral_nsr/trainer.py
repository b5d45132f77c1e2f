"""Gradient training of filter, rule, and threshold parameters.

Every gradient is analytic. Stage 2 is the pipeline's own one polynomial
(`pipeline.filter_coefficients`): with rules, its coefficients
chebmul(theta, w R) are bilinear in the rule and filter coefficients, and
the threshold is a logistic, so the whole stage-2/3 chain differentiates
in closed form; the BCE of the logistic has d loss / d z = p - t. Inference
binds y > tau, which is the logistic's 0.5 cut when alpha > 0.
`prepare_context` computes the Chebyshev columns of that polynomial once
per training split; each epoch lays their labelled rows out in its task
order by one gather, so a minibatch is a contiguous run of rows and a
training step is dense algebra on it, with no sparse product and no
gather. Validation runs every epoch's pipeline on one `pipeline.Block` of
the validation split, laid out once per run. Adam with a learning rate
per parameter (filter and rule weights fast, threshold slow) updates the
parameters laid end to end in one vector in place (`AdamState`); rule
weights are clamped non-negative after every step. A checkpoint keeps the
filter that the selected epoch's pipeline ran, its series and tau, and
as metadata the parameters it was made from and how they were selected;
not the optimizer state.
"""

from __future__ import annotations

import json
import math
import numbers
from bisect import bisect_right
from dataclasses import asdict, dataclass, fields, replace
from itertools import accumulate
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import expit

from .errors import (
    BadParams,
    DivergedLoss,
    FormatError,
    NonFiniteGradient,
    ShapeMismatch,
    is_json_number,
    read_text,
)
from .harness import SyntheticTask, TaskSplits, evaluate
from .pipeline import REFERENCE_LAMBDA_MAX, Block, Pipeline, PipelineConfig, check_params, filter_coefficients
from .pipeline import config_as_read, config_as_written, init_params, rule_rows
from .rules import SpectralRule, load_rules
from .spectral import chebyshev_stack, series_operator

# prepare_graph makes these calls now; the names stay on this module
# because perfbench's layer tracer looks them up and wraps them here
from .pipeline import build_laplacian  # noqa: F401
from .rules import rule_coefficients  # noqa: F401
from .spectral import estimate_lambda_max  # noqa: F401

# the learning rate of each parameter: the filter coefficients and rule
# weights are far more sensitive than the threshold, hence two scales
LEARNING_RATES = {"theta": 5e-4, "rule_weights": 5e-4, "tau": 1e-5, "alpha": 1e-5}

PROB_CLIP = 1e-7

# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


class AdamState:
    """Adam over the parameters laid end to end in one float64 vector.

    ``flat`` is a copy of the given parameter arrays in their order
    (``names``), and ``params`` maps each name to a view of ``flat`` in
    the parameter's shape, so `adam_step` updates every parameter in
    place. ``rates`` is each element's learning rate, ``clamp`` the view
    of the rule weights (empty without them), and ``m`` and ``v`` the
    moments of ``flat``. Nothing of it is saved: a checkpoint holds the
    parameters only.
    """

    def __init__(self, params: dict[str, np.ndarray]):
        self.names = tuple(params)
        sizes = [value.size for value in params.values()]
        self.ends = list(accumulate(sizes))
        self.flat = np.concatenate(list(params.values()), axis=None, dtype=np.float64)
        self.params = {
            name: self.flat[end - size : end].reshape(value.shape)
            for (name, value), size, end in zip(params.items(), sizes, self.ends)
        }
        self.rates = np.repeat([LEARNING_RATES[name] for name in params], sizes)
        self.clamp = self.params.get("rule_weights", self.flat[:0])
        self.m, self.v = np.zeros((2, self.flat.size))
        self.step = 0


def adam_step(state: AdamState, grads: dict[str, np.ndarray], scale: float = 1.0) -> None:
    """One bias-corrected Adam update of ``state.flat`` in place with the
    gradient ``grads`` times ``scale``, at each element's rate in ``state.rates``.

    ``grads`` holds one array per parameter, in the order of
    ``state.params``, and is laid end to end once. A gradient of another
    layout, or with a non-finite entry (named by its parameter), aborts
    without touching the state. The moments ``m`` and ``v`` and ``flat``
    are then updated by in-place ufuncs on that laid-out gradient and one
    work array, with the textbook update's arithmetic in its order. Rule
    weights are clamped at zero after the step.
    """
    if tuple(grads) != state.names:
        raise ShapeMismatch(f"gradients for {list(grads)}, parameters {list(state.names)}")
    grad = np.concatenate(list(grads.values()), axis=None, dtype=np.float64)
    if grad.shape != state.flat.shape:
        raise ShapeMismatch(f"gradients of {grad.size} entries for {state.flat.size} parameters")
    grad *= scale
    finite = np.isfinite(grad)
    if not finite.all():
        name = state.names[bisect_right(state.ends, np.argmin(finite))]
        raise NonFiniteGradient(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    t = state.step
    m, v = state.m, state.v
    # the arithmetic of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    # flat -= rates m_hat / (sqrt(v_hat) + eps), in this order, on the
    # gradient's own buffer and one other
    work = np.multiply(grad, 1.0 - ADAM_BETA2)
    work *= grad
    v *= ADAM_BETA2
    v += work
    grad *= 1.0 - ADAM_BETA1
    m *= ADAM_BETA1
    m += grad
    np.divide(v, 1.0 - ADAM_BETA2**t, out=work)
    np.sqrt(work, out=work)
    work += ADAM_EPS
    np.divide(m, 1.0 - ADAM_BETA1**t, out=grad)
    grad *= state.rates
    grad /= work
    state.flat -= grad
    np.maximum(state.clamp, 0.0, out=state.clamp)


# ---------------------------------------------------------------------------
# per-task forward/backward
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskContext:
    """What training needs of a set of tasks apart from the trainable parameters.

    Stage 2 is one polynomial of a task's rescaled Laplacian L~, whose
    coefficients `pipeline.filter_coefficients` gives, the same for every
    task; x0 and L~ are fixed, so the columns T_0(L~) x0 .. T_D(L~) x0
    are computed once, for all tasks as one block, by products with the
    block's Laplacian operator (`graph.Laplacian`, `prepare_context`).
    ``stack`` holds their rows at every labelled node of every task in
    turn, bit for bit those of the task's own `chebyshev_stack`, as a row
    of a block product depends on its own graph only: D is twice the
    filter order with rules and the filter order without.
    ``label_values`` are those nodes' labels, ``label_counts`` each row's
    task's label count (as a float), ``label_starts`` says where each
    task's rows begin, followed by their count, and ``rows`` holds the
    rules' one (rules, order + 1) array of `pipeline.rule_rows`, or None
    without rules. All arrays are read-only.

    `reordered` lays the rows out in another task order, with one gather,
    and `tasks` cuts a run of tasks out of a layout without a copy: a
    training epoch is one of the first, and its minibatches are the second.
    """

    stack: np.ndarray
    label_values: np.ndarray
    label_counts: np.ndarray
    label_starts: np.ndarray
    rows: np.ndarray | None

    @property
    def task_count(self) -> int:
        return self.label_starts.size - 1

    def reordered(self, order) -> "TaskContext":
        """The context of the tasks indexed by ``order``, in that order: the
        stack rows, labels and counts of each task's run laid end to end by
        one gather, and the runs' new starts."""
        order = np.asarray(order, dtype=np.int64)
        starts = self.label_starts[order]
        counts = self.label_starts[order + 1] - starts
        ends = np.cumsum(counts)
        # row i of task k's run is row starts[k] + (i - its new start)
        picked = np.repeat(starts - ends + counts, counts)
        picked += np.arange(picked.size)
        stack = np.take(self.stack, picked, axis=0)  # half the time of stack[picked] on (3600, 11)
        laid = (stack, self.label_values[picked], self.label_counts[picked], np.concatenate(([0], ends)))
        for array in laid:
            array.setflags(write=False)
        return TaskContext(*laid, self.rows)

    def tasks(self, start: int, stop: int) -> "TaskContext":
        """The context of tasks ``start`` to ``stop`` (clipped to the task
        count), whose row arrays are views of this one's."""
        starts = self.label_starts[start : stop + 1]
        lo, hi = starts[0], starts[-1]
        return TaskContext(
            self.stack[lo:hi], self.label_values[lo:hi], self.label_counts[lo:hi], starts - lo, self.rows
        )


def prepare_context(tasks: Sequence[SyntheticTask], cfg: PipelineConfig, rows: np.ndarray | None) -> TaskContext:
    """The `TaskContext` of the tasks, with the rules' rows ``rows`` (a
    `Pipeline`'s, on ``cfg``'s order), or None without rules.

    The tasks are laid out as `run_pipeline` lays out a block, by a
    `pipeline.Block` of them: their graphs prepared as one pass, whose
    Laplacian operator on their stacked adjacency is used as it is
    (`Block.layout`), their signals end to end and checked once
    (`Block.x`). One `chebyshev_stack` call covers the whole split, of
    which one gather keeps the labelled rows (`Block.labelled`). No tasks
    raise `BadParams`. After the graphs are prepared, the first task
    without labels raises `EmptyLabels`, or one that labels a node outside
    its graph or with a value other than 0 and 1, if it comes first,
    `BadParams`.
    """
    block = Block(tasks, need_labels=True)
    layout, labelled = block.layout(cfg), block.labelled
    degree = cfg.order if rows is None else 2 * cfg.order
    stack = chebyshev_stack(layout.laplacian, layout.lambda_max, block.x.values, degree)[labelled.nodes]
    stack.setflags(write=False)
    starts = labelled.starts
    counts = starts[1:] - starts[:-1]
    label_counts = np.repeat(counts.astype(np.float64), counts)
    label_counts.setflags(write=False)
    return TaskContext(stack, labelled.values, label_counts, starts, rows)


def task_loss_and_grads(ctx: TaskContext, params: dict[str, np.ndarray]) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and full analytic gradient over the context's tasks; a subset
    of them, in any order, is ``ctx.reordered(indices)``. The filter order
    is theta's, and the context's stack must be as wide as it needs.

    The loss is the sum of the tasks' mean BCE, with p clipped to
    [PROB_CLIP, 1 - PROB_CLIP], so its value and gradients are the sums of
    those of its tasks: each row's term is divided by its task's label
    count. Only dense algebra on the context's rows X runs: y = X v, with v
    the one coefficient vector inference runs (`pipeline.filter_coefficients`,
    bit for bit), and p = expit(z), z = alpha (y - tau). The BCE of the
    logistic has d loss / d z = (p - t) / n in closed form, and 0 where the
    clip moves p, as the clipped loss is flat there. Then d v = X^T (alpha
    d z). With rules, v = chebmul(theta, w R), so d theta = B(w R) d v and
    d w = R B(theta) d v, where B(a) is the matrix of multiplying by the
    series a (`spectral.series_operator`).
    """
    x, targets, counts, rows = ctx.stack, ctx.label_values, ctx.label_counts, ctx.rows
    theta, weights = params["theta"], params["rule_weights"]
    if rows is None:
        v = theta
    else:
        mixed = weights @ rows
        by_theta = series_operator(theta)
        v = mixed @ by_theta
    if x.shape[1] != v.size:
        raise ShapeMismatch(f"filter of order {theta.size - 1} for stack {x.shape}")

    tau, steepness = float(params["tau"][0]), float(params["alpha"])
    shifted = x @ v - tau
    p = expit(steepness * shifted)
    # np.clip's arithmetic, and np.sum's, without their per-call dispatch
    clipped = np.minimum(np.maximum(p, PROB_CLIP), 1.0 - PROB_CLIP)
    # a label is 0 or 1 (`Block.labelled`), so a row's BCE term is one log
    terms = np.log(np.where(targets, clipped, 1.0 - clipped))
    terms /= counts
    value = -float(np.add.reduce(terms))
    dz = np.where(clipped == p, p - targets, 0.0)  # d loss / d (alpha (y - tau))
    dz /= counts
    dy = steepness * dz
    d_v = x.T @ dy

    if rows is None:
        d_theta, d_w = d_v, np.zeros_like(weights)
    else:
        d_theta = series_operator(mixed) @ d_v
        d_w = rows @ (by_theta @ d_v)

    return value, {
        "theta": d_theta,
        "rule_weights": d_w,
        "tau": np.asarray([-np.add.reduce(dy)]),
        "alpha": np.asarray(float(dz @ shifted)),
    }


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainRun:
    """Protocol knobs: epoch cap, batch size, early-stopping patience, shuffle seed, latency probe size."""

    max_epochs: int = 50
    batch_size: int = 32
    patience: int = 5
    seed: int = 0
    latency_probe: int = 20

    def __post_init__(self):
        for f in fields(self):  # bool passes for an int, so it is refused by name
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise BadParams(f"{f.name} must be int, got {value!r}")
            object.__setattr__(self, f.name, int(value))
        if not 1 <= self.max_epochs <= 50:
            raise BadParams("max_epochs must be in 1..50")
        for name, low in (("patience", 1), ("batch_size", 1), ("seed", 0), ("latency_probe", 0)):
            if getattr(self, name) < low:
                raise BadParams(f"{name} must be >= {low}")


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    val_accuracy: float
    latency_ms: float | None


@dataclass
class Checkpoint:
    """The filter a training run selected, as JSON under `HEADER`: its
    config, stage 2's one Chebyshev series (`pipeline.filter_coefficients`)
    and the threshold tau, which are all that `Pipeline` runs, and
    ``metadata`` on how they were made. The metadata's ``rule_ids`` name
    the rules the series mixes and its ``params`` hold the trained
    parameters; inference reads neither.

    Loading checks the file once: the header, no key but these, a config
    of exactly the `PipelineConfig` fields, JSON numbers that `Pipeline`
    accepts, and a metadata object whose ``rule_ids`` (if any) are
    strings. Anything else is a `FormatError`. A version-1 file, which held
    the training parameters instead, names its version and says to re-train.
    """

    HEADER = {"format": "spectral-nsr-checkpoint", "version": 2}

    config: PipelineConfig
    series: np.ndarray
    tau: float
    metadata: dict

    def to_json(self) -> str:
        payload = {
            **self.HEADER,
            "config": asdict(self.config),
            "series": np.asarray(self.series).tolist(),
            "tau": float(self.tau),
            "metadata": self.metadata,
        }
        return json.dumps(payload, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        """Parse a checkpoint; malformed content raises `FormatError`."""
        try:
            payload = json.loads(text)
            header = {key: payload[key] for key in cls.HEADER}
            if header == {**cls.HEADER, "version": 1}:
                raise FormatError("checkpoint version 1 holds training parameters, not the filter it runs; "
                                  "re-train to write version 2")
            if header != cls.HEADER:
                raise FormatError(f"not a checkpoint file: its format and version must be {cls.HEADER}")
            known = {*cls.HEADER, "config", "series", "tau", "metadata"}
            names = {f.name for f in fields(PipelineConfig)}
            config, series, tau, metadata = (payload[key] for key in ("config", "series", "tau", "metadata"))
            if payload.keys() != known:
                raise FormatError(f"checkpoint holds unknown keys {sorted(payload.keys() - known)}")
            if config.keys() != names:
                missing, unknown = sorted(names - config.keys()), sorted(config.keys() - names)
                raise FormatError(f"checkpoint config misses {missing} and holds unknown {unknown}")
            if not (isinstance(series, list) and all(map(is_json_number, series))):
                raise TypeError(f"series must be a list of numbers, got {series!r}")
            if not is_json_number(tau):
                raise TypeError(f"tau must be a number, got {tau!r}")
            pipe = Pipeline(PipelineConfig(**config), series, tau)
        except KeyError as exc:
            raise FormatError(f"checkpoint is missing key {exc}") from exc
        except (AttributeError, OverflowError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed checkpoint: {exc}") from exc
        except BadParams as exc:
            raise FormatError(f"checkpoint {exc}") from exc
        rule_ids = metadata.get("rule_ids", []) if isinstance(metadata, dict) else None
        if not isinstance(rule_ids, list) or not all(isinstance(rule_id, str) for rule_id in rule_ids):
            raise FormatError(f"checkpoint metadata must be an object whose rule_ids are strings, got {metadata!r}")
        return cls(pipe.cfg, pipe.coefficients, pipe.tau, metadata)

    def save(self, path: str | Path) -> None:
        """Write the checkpoint, its config's relative ``rules`` path
        rewritten to name the rule file from the file's directory."""
        Path(path).write_text(replace(self, config=config_as_written(self.config, path)).to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        """The checkpoint a file holds, its config's relative ``rules`` path
        read from the file's directory (`pipeline.config_as_read`); an error names the file."""
        text = read_text(path)
        try:
            ckpt = cls.from_json(text)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc
        return replace(ckpt, config=config_as_read(ckpt.config, path))

    def pipeline(self, rules: Sequence[SpectralRule] | None = None) -> Pipeline:
        """The pipeline that runs the checkpoint's series and tau. Given
        ``rules``, they must be the ones it names (``rule_ids``), in order;
        no rule file is read."""
        ids = [rule.rule_id for rule in rules or ()]
        if rules is not None and ids != self.metadata.get("rule_ids", ids):
            raise FormatError(f"checkpoint was trained on rules {self.metadata['rule_ids']}, not on {ids}")
        return Pipeline(self.config, self.series, self.tau)


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


def _read_rule_file(path: str) -> list[SpectralRule]:
    """The config's rule file, with ``path`` resolved against the working
    directory; an unreadable file raises `FormatError` naming the path tried."""
    try:
        return load_rules(path, REFERENCE_LAMBDA_MAX)
    except OSError as exc:
        raise FormatError(f"cannot read rules file {path!r} (tried {Path(path).absolute()}): {exc.strerror}") from exc


def train(
    cfg: PipelineConfig,
    splits: TaskSplits,
    run: TrainRun,
    rules: Sequence[SpectralRule] | None = None,
) -> TrainResult:
    """Epoch loop with per-epoch validation, early stopping, and the
    checkpoint of highest validation accuracy (ties: the earliest epoch).

    The split's context is made once (`prepare_context`). Each epoch lays
    its rows out in the epoch's shuffled task order by one gather
    (`TaskContext.reordered`), and each minibatch is one
    `task_loss_and_grads` call on a contiguous run of that layout
    (`TaskContext.tasks`, views with no copy), then one `adam_step` with
    the gradient scaled by the batch's task count. The validation split is one
    `pipeline.Block`, made once per run: the first epoch's validation
    (`evaluate` without latency) prepares and stacks its graphs, checks its
    signals, lays out its KBs and makes its label arrays, and every epoch
    runs its own pipeline on what that block keeps: the filter that
    `filter_coefficients` makes of the epoch's parameters, which pass
    `check_params` first. The latency probe, `evaluate`'s
    median latency on the first ``run.latency_probe`` validation tasks
    (none at 0), is recorded in the history and the checkpoint metadata
    but never picks the checkpoint, so a run is reproducible. Training
    starts from `init_params`: the low-pass filter, and each rule's ``w=``
    as its weight. Without ``rules``, the config's rule file is read, if
    it names one.
    """
    if not splits.train or not splits.val:
        raise BadParams("training needs non-empty train and val splits")
    if rules is None:
        rules = _read_rule_file(cfg.rules) if cfg.rules else []
    state = AdamState(init_params(cfg, rules))
    # the rules' rows are fitted once, for the context and every epoch's
    # pipeline. The training split is laid out and its Chebyshev stack made
    # once here; the validation block is laid out by the first epoch's
    # validation, and kept for every later one
    rows = rule_rows(rules, cfg.order)
    context = prepare_context(splits.train, cfg, rows)
    val = Block(splits.val)
    rng = np.random.default_rng(run.seed)

    history: list[EpochMetrics] = []
    trajectory: list[dict[str, np.ndarray]] = []
    best: Checkpoint | None = None
    epochs_since_improvement = 0
    stopped_epoch = 0

    for epoch in range(1, run.max_epochs + 1):
        order = rng.permutation(context.task_count)
        laid = context.reordered(order)
        losses = []
        for start in range(0, len(order), run.batch_size):
            batch = laid.tasks(start, start + run.batch_size)
            value, grads = task_loss_and_grads(batch, state.params)
            if not math.isfinite(value):
                indices = order[start : start + run.batch_size].tolist()
                raise DivergedLoss(f"loss diverged on the minibatch of task indices {indices}")
            scale = 1.0 / batch.task_count
            adam_step(state, grads, scale)
            losses.append(value * scale)
        # np.mean's sum and division, without its per-call dispatch
        train_loss = float(np.add.reduce(losses) / len(losses))

        # the steps write state.params in place; what is kept is a read-only copy
        snapshot = {name: np.array(value) for name, value in state.params.items()}
        for value in snapshot.values():
            value.setflags(write=False)
        check_params(cfg, snapshot, len(rules))
        pipe = Pipeline(cfg, filter_coefficients(snapshot, rows), snapshot["tau"][0])
        val_accuracy = evaluate(pipe, val, measure_latency=False).accuracy
        latency = evaluate(pipe, splits.val[: run.latency_probe]).latency_median_ms if run.latency_probe > 0 else None
        history.append(EpochMetrics(epoch, train_loss, val_accuracy, latency))
        trajectory.append(snapshot)

        # early stopping counts epochs since the last new accuracy maximum,
        # which is also the checkpoint kept
        if best is None or val_accuracy > best.metadata["val_accuracy"]:
            epochs_since_improvement = 0
            best = Checkpoint(
                config=cfg,
                series=pipe.coefficients,
                tau=pipe.tau,
                metadata={
                    "epoch": epoch,
                    "val_accuracy": val_accuracy,
                    "latency_ms": latency,
                    "seed": run.seed,
                    "rule_ids": [r.rule_id for r in rules],
                    "params": {name: value.tolist() for name, value in snapshot.items()},
                },
            )
        else:
            epochs_since_improvement += 1
        stopped_epoch = epoch
        if epochs_since_improvement >= run.patience:
            break
    return TrainResult(checkpoint=best, history=history, trajectory=trajectory, stopped_epoch=stopped_epoch)
