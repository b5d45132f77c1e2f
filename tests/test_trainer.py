from unittest.mock import patch

import numpy as np
import pytest
from scipy.special import expit, logit

from spectral_nsr import trainer
from spectral_nsr.errors import (
    BadParams,
    DivergedLoss,
    EmptyLabels,
    NonFiniteGradient,
    ShapeMismatch,
)
from spectral_nsr.harness import gen_dataset, split_dataset
from spectral_nsr.pipeline import (
    REFERENCE_LAMBDA_MAX,
    Pipeline,
    PipelineConfig,
    filter_coefficients,
    init_params,
    initial_filter_response,
    prepare_graph,
    rule_rows,
)
from spectral_nsr.rules import SpectralRule, builtin_template
from spectral_nsr.spectral import fit_chebyshev, sample_response, series_operator
from spectral_nsr.trainer import (
    LEARNING_RATES,
    PROB_CLIP,
    AdamState,
    TaskContext,
    TrainRun,
    adam_step,
    prepare_context,
    task_loss_and_grads,
    train,
)

from conftest import graph_task, random_graph

FD_STEP = 1e-5


def make_instance(rng, n=12, order=4, n_rules=2):
    """Random task context plus randomized parameters for gradient checks."""
    g = random_graph(rng, n, density=0.3)
    cfg = PipelineConfig(order=order)
    lam_max = prepare_graph(cfg, [g]).lambda_max
    rules = tuple(
        SpectralRule(f"r{i}", builtin_template("heat-kernel", lam_max, t=0.3 + 0.4 * i), weight=1.0)
        for i in range(n_rules)
    )
    x0 = rng.uniform(0.0, 1.0, size=n)
    labeled = rng.permutation(n)[: max(n // 2, 2)]
    label_nodes = np.sort(labeled)
    label_values = rng.integers(0, 2, size=label_nodes.size)
    ctx = prepare_context([graph_task(g, x0, dict(zip(label_nodes.tolist(), label_values.tolist())))], cfg, rule_rows(rules, order))
    params = {
        "theta": rng.standard_normal(order + 1) * 0.5,
        "rule_weights": rng.uniform(0.2, 1.0, size=n_rules),
        "tau": np.asarray([rng.uniform(0.1, 0.4)]),
        "alpha": np.asarray(rng.uniform(2.0, 6.0)),
    }
    return ctx, params, order


def fd_gradient(ctx, params, key):
    base = {k: np.array(v) for k, v in params.items()}
    flat = base[key].reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        up, _ = task_loss_and_grads(ctx, base)
        flat[i] = orig - FD_STEP
        down, _ = task_loss_and_grads(ctx, base)
        flat[i] = orig
        grad[i] = (up - down) / (2 * FD_STEP)
    return grad.reshape(base[key].shape)


def check_gradients(ctx, params, order, keys, rel_tol=1e-5):
    _, analytic = task_loss_and_grads(ctx, params)
    assert analytic["theta"].shape == (order + 1,)  # the order comes from theta
    for key in keys:
        fd = fd_gradient(ctx, params, key)
        ga = np.asarray(analytic[key], dtype=np.float64)
        scale = max(np.linalg.norm(ga), np.linalg.norm(fd))
        if scale < 1e-12:
            continue
        rel = np.linalg.norm(ga - fd) / scale
        assert rel <= rel_tol, f"{key}: relative error {rel}"


def logit_step(logits, targets, counts=None):
    """The step on a context of one stack column holding ``logits``, with
    theta = [1], tau = 0 and alpha = 1, so that p = expit(logits); the
    tasks' label counts are ``counts`` (default: one task)."""
    logits = np.asarray(logits, dtype=np.float64)
    counts = np.array([logits.size] if counts is None else counts)
    ctx = TaskContext(
        logits[:, None],
        np.asarray(targets, dtype=np.float64),
        np.repeat(counts.astype(np.float64), counts),
        np.cumsum([0, *counts]),
        None,
    )
    params = {"theta": np.array([1.0]), "rule_weights": np.zeros(0), "tau": np.array([0.0]), "alpha": np.asarray(1.0)}
    return task_loss_and_grads(ctx, params)


class TestLoss:
    def test_half_everywhere_is_ln2(self):
        value, _ = logit_step(np.zeros(10), [i % 2 for i in range(10)])
        assert value == pytest.approx(np.log(2.0), abs=1e-12)

    def test_perfect_prediction_is_clip_scale(self):
        # expit(40) rounds to 1 and expit(-40) is below the clip
        value, grads = logit_step([40.0, -40.0, 40.0], [1, 0, 1])
        assert value == pytest.approx(1e-7, rel=1e-3)
        # the clip is active everywhere, so is the zero derivative
        for key, grad in grads.items():
            assert not np.any(grad), key

    def test_matches_scalar_loop(self, rng):
        # two tasks of 12 and 8 labels: the sum of each task's mean, and its
        # derivative in theta, which is sum x (p - t) / n over unclipped labels
        logits = logit(rng.uniform(0.0, 1.0, size=20))
        logits[[3, 15]] = (-40.0, 40.0)  # one clipped label in each task
        targets = rng.integers(0, 2, size=20).astype(np.float64)
        expected = expected_theta = 0.0
        for lo, hi in ((0, 12), (12, 20)):
            acc = 0.0
            for i in range(lo, hi):
                p = expit(logits[i])
                q = min(max(p, PROB_CLIP), 1 - PROB_CLIP)
                acc += -(targets[i] * np.log(q) + (1 - targets[i]) * np.log(1 - q))
                if q == p:
                    expected_theta += logits[i] * (p - targets[i]) / (hi - lo)
            expected += acc / (hi - lo)
        value, grads = logit_step(logits, targets, [12, 8])
        assert value == pytest.approx(expected, abs=1e-12)
        assert grads["theta"][0] == pytest.approx(expected_theta, rel=1e-12)

    def test_empty_labels(self, rng):
        task = graph_task(random_graph(rng, 6, density=0.5), np.full(6, 0.5), {})
        with pytest.raises(EmptyLabels):
            prepare_context([task], PipelineConfig(), None)

    def test_refusals_come_in_task_order(self, rng):
        empty = graph_task(random_graph(rng, 6, density=0.5), np.full(6, 0.5), {})
        outside = graph_task(random_graph(rng, 5, density=0.5), np.full(5, 0.5), {1: 1, 5: 0})
        with pytest.raises(EmptyLabels):
            prepare_context([empty, outside], PipelineConfig(), None)
        with pytest.raises(BadParams, match="labels nodes outside its 5 nodes"):
            prepare_context([outside, empty], PipelineConfig(), None)


class TestGradTheta:
    def test_finite_differences(self, rng):
        ctx, params, order = make_instance(rng)
        check_gradients(ctx, params, order, ["theta"])


class TestGradRuleWeights:
    def test_finite_differences(self, rng):
        ctx, params, order = make_instance(rng, n_rules=3)
        check_gradients(ctx, params, order, ["rule_weights"])


class TestGradThreshold:
    def test_finite_differences_scalar_tau(self, rng):
        ctx, params, order = make_instance(rng)
        check_gradients(ctx, params, order, ["tau", "alpha"])


class TestGradientSuiteKeystone:
    def test_all_gradients_many_instances(self, rng):
        # the module's keystone property: analytic == finite differences
        for trial in range(8):
            n_rules = (0, 2, 3)[trial % 3]
            ctx, params, order = make_instance(
                rng,
                n=int(rng.integers(8, 18)),
                order=int(rng.integers(2, 6)),
                n_rules=n_rules,
            )
            keys = ["theta", "tau", "alpha"]
            if n_rules:
                keys.append("rule_weights")
            check_gradients(ctx, params, order, keys)


def gather_step(ctx, params, tasks):
    """The step as a per-batch gather and a separate BCE derivative in p
    computed it, three series operators included: the oracle of the
    closed-form step."""
    tasks = np.asarray(tasks, dtype=np.int64)
    starts = ctx.label_starts[tasks]
    counts = ctx.label_starts[tasks + 1] - starts
    runs = np.cumsum(counts) - counts
    picked = np.repeat(starts - runs, counts) + np.arange(runs[-1] + counts[-1])
    x, targets = ctx.stack[picked], ctx.label_values[picked]
    theta, weights, rows = params["theta"], params["rule_weights"], ctx.rows
    y = x @ filter_coefficients(params, rows)
    tau, alpha = float(params["tau"][0]), float(params["alpha"])
    p = expit(alpha * (y - tau))
    clipped = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
    terms = targets * np.log(clipped) + (1.0 - targets) * np.log(1.0 - clipped)
    value = float(-(np.add.reduceat(terms, runs) / counts).sum())
    inside = (p > PROB_CLIP) & (p < 1.0 - PROB_CLIP)
    per_label = np.repeat(counts, counts)
    upstream = np.zeros_like(p)
    upstream[inside] = (p[inside] - targets[inside]) / (p[inside] * (1.0 - p[inside])) / per_label[inside]
    dz = upstream * p * (1.0 - p)
    d_v = x.T @ (alpha * dz)
    if rows is None:
        d_theta, d_w = d_v, np.zeros_like(weights)
    else:
        d_theta = series_operator(weights @ rows) @ d_v
        d_w = rows @ (series_operator(theta) @ d_v)
    grads = {"theta": d_theta, "rule_weights": d_w, "tau": np.asarray([(-alpha * dz).sum()]),
             "alpha": np.asarray(float(dz @ (y - tau)))}
    return value, grads


def mixed_context(with_rules, order=3):
    """The context of a split of 7 transitive and 6 kinship tasks."""
    cfg = PipelineConfig(order=order, tau=0.4)
    rules = reference_rules() if with_rules else []
    tasks = gen_dataset("transitive", 7, seed=3) + gen_dataset("kinship", 6, seed=3)
    return prepare_context(tasks, cfg, rule_rows(rules, order) if rules else None), init_params(cfg, rules)


class TestEpochLayout:
    @pytest.mark.parametrize("with_rules", [False, True])
    def test_rows_are_each_tasks_own_in_order(self, rng, with_rules):
        ctx, _ = mixed_context(with_rules)
        order = rng.permutation(ctx.task_count)
        laid = ctx.reordered(order)
        assert laid.task_count == ctx.task_count and laid.rows is ctx.rows
        assert laid.label_starts[0] == 0 and laid.label_starts[-1] == ctx.label_starts[-1]
        for k, i in enumerate(order.tolist()):
            new = slice(laid.label_starts[k], laid.label_starts[k + 1])
            own = slice(ctx.label_starts[i], ctx.label_starts[i + 1])
            assert np.array_equal(laid.stack[new], ctx.stack[own])
            assert np.array_equal(laid.label_values[new], ctx.label_values[own])
            assert laid.label_counts[new].tolist() == [own.stop - own.start] * (own.stop - own.start)
        for array in (laid.stack, laid.label_values, laid.label_counts, laid.label_starts):
            assert not array.flags.writeable
        # a layout of a layout is the composed order
        again = rng.permutation(ctx.task_count)
        assert np.array_equal(laid.reordered(again).stack, ctx.reordered(order[again]).stack)

    def test_every_batch_is_a_view_of_the_layout(self, rng):
        ctx, _ = mixed_context(True)
        laid = ctx.reordered(rng.permutation(ctx.task_count))
        rows = []
        for start in range(0, laid.task_count, 4):
            batch = laid.tasks(start, start + 4)
            assert batch.task_count == min(4, laid.task_count - start)
            for part, whole in ((batch.stack, laid.stack), (batch.label_values, laid.label_values),
                                (batch.label_counts, laid.label_counts)):
                assert part.base is not None and np.shares_memory(part, whole)
            lo = laid.label_starts[start]
            assert np.array_equal(batch.label_starts, laid.label_starts[start : start + 5] - lo)
            rows.append(batch.stack)
        assert np.array_equal(np.concatenate(rows), laid.stack)

    @pytest.mark.parametrize("with_rules", [False, True])
    @pytest.mark.parametrize("steepness", [4.0, 60.0])
    def test_step_matches_the_gather_chain(self, rng, with_rules, steepness):
        # at alpha = 60 some labels are clipped
        ctx, params = mixed_context(with_rules)
        params["theta"] = params["theta"] + 0.1 * rng.standard_normal(params["theta"].size)
        params["alpha"] = np.asarray(steepness)
        for batch in (rng.permutation(ctx.task_count)[:5], np.arange(ctx.task_count)):
            value, grads = task_loss_and_grads(ctx.reordered(batch), params)
            laid = task_loss_and_grads(ctx.reordered(batch).tasks(0, batch.size), params)
            expected_value, expected = gather_step(ctx, params, batch)
            assert value == laid[0] and value == pytest.approx(expected_value, rel=1e-12, abs=0)
            assert grads.keys() == expected.keys()
            for key, grad in grads.items():
                assert np.array_equal(grad, laid[1][key]), key
                scale = max(np.abs(expected[key]).max(initial=0.0), 1e-300)
                assert np.abs(grad - expected[key]).max(initial=0.0) <= 1e-12 * scale, key
        if steepness > 10:
            p = expit(steepness * (ctx.stack @ filter_coefficients(params, ctx.rows) - params["tau"][0]))
            assert np.any((p < PROB_CLIP) | (p > 1 - PROB_CLIP))

    def test_train_lays_out_each_epoch_once(self):
        spy = patch.object(TaskContext, "reordered", autospec=True, side_effect=TaskContext.reordered)
        run = TrainRun(max_epochs=3, batch_size=16, patience=5, seed=7, latency_probe=0)
        splits = small_splits()
        with spy as reordered:
            result = train(PipelineConfig(tau=0.4), splits, run, rules=reference_rules())
        assert len(result.history) == 3 and reordered.call_count == 3
        for call in reordered.call_args_list:
            assert sorted(call.args[1].tolist()) == list(range(len(splits.train)))


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        state = AdamState({"theta": np.array([[1.0, 2.0]])})
        adam_step(state, {"theta": np.zeros((1, 2))})
        assert np.array_equal(state.params["theta"], [[1.0, 2.0]])
        assert state.step == 1

    def test_constant_gradient_update_magnitude_approaches_lr(self):
        # one parameter of each group steps by its group's rate
        state = AdamState({"theta": np.array([0.0]), "tau": np.array([0.4])})
        g = {"theta": np.array([0.37]), "tau": np.array([-2.5])}
        for _ in range(10):
            prev = state.flat.copy()
            adam_step(state, g)
        step_sizes = np.abs(state.flat - prev)
        assert step_sizes[0] == pytest.approx(LEARNING_RATES["theta"], rel=1e-6)
        assert step_sizes[1] == pytest.approx(LEARNING_RATES["tau"], rel=1e-6)

    def test_three_steps_match_manual_arithmetic(self):
        lr, b1, b2, eps = LEARNING_RATES["theta"], 0.9, 0.999, 1e-8
        x = 0.5
        gs = [0.2, -0.05, 0.11]
        m = v = 0.0
        expected = []
        for t, g in enumerate(gs, start=1):
            g = g * 0.25
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
            expected.append(x)

        state = AdamState({"theta": np.array([0.5])})
        for g, want in zip(gs, expected):
            adam_step(state, {"theta": np.array([g])}, 0.25)
            assert state.params["theta"][0] == pytest.approx(want, abs=1e-12)

    def test_rule_weights_clamped_non_negative(self):
        # a weight below one step of the rule weights' rate, between two
        # parameters the clamp must not reach
        state = AdamState({
            "theta": np.array([0.0]),
            "rule_weights": np.array([0.1 * LEARNING_RATES["rule_weights"]]),
            "tau": np.array([0.0]),
        })
        adam_step(state, {"theta": np.array([1.0]), "rule_weights": np.array([1.0]), "tau": np.array([1.0])})
        assert state.params["rule_weights"][0] == 0.0
        assert state.params["theta"][0] < 0.0 and state.params["tau"][0] < 0.0

    def test_non_finite_gradient(self):
        state = AdamState({"theta": np.array([[1.0, 2.0]]), "rule_weights": np.zeros(0), "tau": np.array([0.4])})
        for theta, tau, name in (([[0.1, 0.2]], [np.nan], "tau"), ([[np.inf, 0.2]], [0.3], "theta")):
            with pytest.raises(NonFiniteGradient, match=name):
                adam_step(state, {"theta": np.array(theta), "rule_weights": np.zeros(0), "tau": np.array(tau)})
        assert state.step == 0
        assert state.flat.tolist() == [1.0, 2.0, 0.4]
        assert not state.m.any() and not state.v.any()

    def test_unknown_gradient_key(self):
        state = AdamState({"theta": np.array([1.0]), "tau": np.array([0.4])})
        for grads in (
            {"bogus": np.array([1.0]), "tau": np.array([1.0])},
            {"tau": np.array([1.0]), "theta": np.array([1.0])},
            {"theta": np.array([1.0, 2.0]), "tau": np.array([1.0])},
        ):
            with pytest.raises(ShapeMismatch):
                adam_step(state, grads)
        assert state.step == 0

    def test_params_are_views_of_one_vector(self):
        params = init_params(PipelineConfig(), reference_rules())
        state = AdamState(params)
        for name, value in state.params.items():
            assert np.array_equal(value, params[name]) and value.shape == np.shape(params[name])
            assert np.shares_memory(value, state.flat) and not np.shares_memory(value, params[name])
        assert np.array_equal(np.concatenate(list(params.values()), axis=None), state.flat)
        before = {name: value.copy() for name, value in state.params.items()}
        adam_step(state, {name: np.ones(np.shape(value)) for name, value in params.items()})
        assert all(not np.array_equal(state.params[name], before[name]) for name in before if before[name].size)


def reference_rules():
    return [
        SpectralRule(
            "transitive", builtin_template("low-pass", REFERENCE_LAMBDA_MAX, beta=1.0), weight=0.5, kind="low-pass"
        ),
        SpectralRule("conflict", builtin_template("high-pass", REFERENCE_LAMBDA_MAX), weight=0.5, kind="high-pass"),
    ]


def small_splits(n=80, seed=0):
    tasks = gen_dataset("transitive", n, seed=seed)
    return split_dataset(tasks, (n - 20, 10, 10))


class TestTrainLoop:
    def test_perfect_initial_filter_early_stops_at_epoch_one(self):
        # without the rule bank the initial response already separates
        # seeds from noise at tau=0.4, so epoch 1 validates at 1.0
        cfg = PipelineConfig(tau=0.4)
        splits = small_splits()
        run = TrainRun(max_epochs=20, batch_size=16, patience=3, seed=0, latency_probe=0)
        result = train(cfg, splits, run)
        assert result.history[0].val_accuracy == 1.0
        assert result.checkpoint.metadata["epoch"] == 1
        assert result.stopped_epoch == 1 + run.patience

    def test_seed0_validation_curve_regression(self):
        # frozen from the reference run: strictly improving first five epochs;
        # re-frozen when rule templates moved to each graph's relative spectrum
        frozen = [0.6673984632272228, 0.6684961580680571, 0.677277716794731,
                  0.6893523600439078, 0.7486278814489572]
        tasks = gen_dataset("transitive", 1000, seed=0)
        splits = split_dataset(tasks, (800, 100, 100))
        cfg = PipelineConfig(tau=0.40, rules="tests/data/reference_rules.txt")
        run = TrainRun(max_epochs=5, batch_size=32, patience=5, seed=0, latency_probe=0)
        result = train(cfg, splits, run, rules=reference_rules())
        curve = [h.val_accuracy for h in result.history]
        assert all(a < b for a, b in zip(curve, curve[1:]))
        assert np.allclose(curve, frozen, atol=0.02)

    def test_seed7_parameters_regression(self):
        # the final parameters and the per-epoch losses of a short run,
        # re-frozen when rule templates moved to each graph's relative spectrum
        frozen = {
            "theta": [0.6392042183097152, -0.31879136099759586, 0.04469505882207592, -0.009153172757135578,
                      0.0061831167834431105, -0.005928935611044322],
            "rule_weights": [0.5059754779276646, 0.4940410912538206],
            "tau": [0.3998803705285902],
            "alpha": 7.999880615598187,
        }
        frozen_losses = [0.9755861868834453, 0.9832489017039291, 0.9797547539969726]
        cfg = PipelineConfig(tau=0.4)
        run = TrainRun(max_epochs=3, batch_size=16, patience=3, seed=7, latency_probe=0)
        result = train(cfg, small_splits(), run, rules=reference_rules())
        final = result.trajectory[-1]
        assert final.keys() == frozen.keys()
        for key, value in frozen.items():
            assert np.allclose(final[key], value, rtol=1e-10, atol=0), key
        assert np.allclose([h.train_loss for h in result.history], frozen_losses, rtol=1e-10, atol=0)

    def test_fixed_seed_trajectories_bit_identical(self):
        cfg = PipelineConfig(tau=0.4)
        run = TrainRun(max_epochs=3, batch_size=16, patience=3, seed=7, latency_probe=0)
        results = [train(cfg, small_splits(), run, rules=reference_rules()) for _ in range(2)]
        for snap_a, snap_b in zip(results[0].trajectory, results[1].trajectory):
            for key in snap_a:
                assert np.array_equal(snap_a[key], snap_b[key]), key

    def test_checkpoint_round_trip_reproduces_val_accuracy(self, tmp_path):
        from spectral_nsr.harness import evaluate
        from spectral_nsr.trainer import Checkpoint

        cfg = PipelineConfig(tau=0.4)
        splits = small_splits()
        run = TrainRun(max_epochs=2, batch_size=16, patience=3, seed=0, latency_probe=0)
        rules = reference_rules()
        result = train(cfg, splits, run, rules=rules)
        path = tmp_path / "ckpt.json"
        result.checkpoint.save(path)
        loaded = Checkpoint.load(path)
        for key, value in result.checkpoint.params.items():
            assert np.array_equal(loaded.params[key], value)
        acc = evaluate(loaded.pipeline(rules=rules), splits.val, measure_latency=False).accuracy
        assert acc == result.checkpoint.metadata["val_accuracy"]

    def test_diverged_loss_raises(self, monkeypatch):
        step = trainer.task_loss_and_grads
        monkeypatch.setattr(trainer, "task_loss_and_grads", lambda *args: (np.nan, step(*args)[1]))
        cfg = PipelineConfig(tau=0.4)
        run = TrainRun(max_epochs=1, batch_size=8, seed=0, latency_probe=0)
        with pytest.raises(DivergedLoss):
            train(cfg, small_splits(40), run)

    def test_kept_parameters_are_copies(self):
        # the epoch-1 snapshot and the checkpoint (epoch 1 validates at 1.0)
        # of a 3-epoch run are bit for bit a 1-epoch run's, so the later
        # steps wrote none of them
        cfg = PipelineConfig(tau=0.4)
        splits = small_splits()
        one, three = (
            train(cfg, splits, TrainRun(max_epochs=epochs, batch_size=16, patience=3, seed=0, latency_probe=0))
            for epochs in (1, 3)
        )
        assert len(three.history) == 3 and three.checkpoint.metadata["epoch"] == 1
        pairs = ((one.trajectory[0], three.trajectory[0]), (one.checkpoint.params, three.checkpoint.params))
        for kept_one, kept_three in pairs:
            assert kept_one.keys() == kept_three.keys()
            for key in kept_one:
                assert np.array_equal(kept_one[key], kept_three[key]), key
        assert not np.array_equal(three.trajectory[0]["theta"], three.trajectory[2]["theta"])

    def test_run_validation(self):
        with pytest.raises(BadParams):
            TrainRun(max_epochs=0)
        with pytest.raises(BadParams):
            TrainRun(max_epochs=51)
        with pytest.raises(BadParams):
            TrainRun(patience=0)
        with pytest.raises(BadParams, match="seed"):
            TrainRun(seed=-1)
        with pytest.raises(BadParams, match="latency_probe"):
            TrainRun(latency_probe=-5)
        # every field is an int: a float, a bool or a string is refused by name
        for field, value in (("seed", 1.5), ("batch_size", 2.5), ("patience", True), ("max_epochs", "3")):
            with pytest.raises(BadParams, match=f"{field} must be int"):
                TrainRun(**{field: value})
        assert type(TrainRun(seed=np.int64(3)).seed) is int


class TestForwardAgreement:
    @pytest.mark.parametrize("laplacian", ["combinatorial", "normalized"])
    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_pipeline_loss_equals_trainer_loss(self, laplacian, order):
        # inference and training run separate forward passes; pin them together
        cfg = PipelineConfig(laplacian=laplacian, order=order, tau=0.4)
        rules = tuple(reference_rules())
        params = init_params(cfg, rules)
        params["rule_weights"] = np.array([0.7, 0.3])
        tasks = gen_dataset("transitive", 4, seed=2) + gen_dataset("kinship", 4, seed=2)
        pipe = Pipeline(cfg, rules=list(rules), params=params)
        for task in tasks:
            out = pipe.run_task(task)
            nodes = sorted(task.labels)
            # the logistic of the pipeline's own y and params, which only the loss computes
            tau, alpha = pipe.params["tau"][0], pipe.params["alpha"]
            p = np.clip(expit(alpha * (out.y.values[nodes] - tau)), 1e-7, 1 - 1e-7)
            targets = np.array([task.labels[i] for i in nodes], dtype=np.float64)
            expected = -np.mean(targets * np.log(p) + (1 - targets) * np.log(1 - p))
            got, _ = task_loss_and_grads(prepare_context([task], cfg, pipe.rows), params)
            assert got == pytest.approx(expected, rel=1e-12, abs=0), task.task_id


class TestLowPassInit:
    def test_initial_response_non_increasing(self):
        theta = fit_chebyshev(initial_filter_response(), 5, REFERENCE_LAMBDA_MAX)
        grid = np.linspace(0.0, REFERENCE_LAMBDA_MAX, 64)
        values = sample_response(theta, grid)
        assert np.all(np.diff(values) <= 1e-12)

    def test_init_params_shapes(self):
        cfg = PipelineConfig(order=5)
        params = init_params(cfg, reference_rules())
        assert list(params) == ["theta", "rule_weights", "tau", "alpha"]
        assert params["theta"].shape == (6,)
        assert params["rule_weights"].tolist() == [0.5, 0.5]
        assert params["tau"].shape == (1,)
        assert params["alpha"].shape == ()

    def test_rule_weights_start_at_w(self, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("rule smooth kind=low-pass w=0.2 beta=1.0\nrule sharp kind=high-pass w=0.9\n")
        assert Pipeline(PipelineConfig(rules=str(rules))).params["rule_weights"].tolist() == [0.2, 0.9]
