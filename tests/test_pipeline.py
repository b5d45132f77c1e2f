import json
from pathlib import Path

import numpy as np
import pytest

from spectral_nsr import pipeline
from spectral_nsr.errors import BadParams, ConvergenceFailure
from spectral_nsr.harness import evaluate, gen_dataset, gen_transitive, split_dataset
from spectral_nsr.pipeline import REFERENCE_LAMBDA_MAX, PipelineConfig, run_pipeline
from spectral_nsr.rules import load_rules
from spectral_nsr.spectral import vertex_signal
from spectral_nsr.symbolic import KnowledgeBase
from spectral_nsr.trainer import Checkpoint, TrainRun, train

DATA = Path(__file__).parent / "data"

PREPARATION = ("build_laplacian", "estimate_lambda_max", "rule_coefficients")


def reference_pipeline():
    rules = load_rules(DATA / "reference_rules.txt", REFERENCE_LAMBDA_MAX)
    return Checkpoint.load(DATA / "reference_checkpoint.json").pipeline(rules=rules)


@pytest.fixture
def calls(monkeypatch):
    """Count calls of the preparation functions as the pipeline module sees them."""
    counts = dict.fromkeys(PREPARATION, 0)
    for name in PREPARATION:
        original = getattr(pipeline, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    return counts


def run(cfg, task, rules):
    return run_pipeline(cfg, task.graph, vertex_signal(task.x0), rules, task.kb)


def assert_same_output(a, b):
    assert np.array_equal(a.y.values, b.y.values)
    assert np.array_equal(a.predicates.values, b.predicates.values)
    assert a.answers == b.answers
    assert a.traces == b.traces
    assert np.array_equal(a.response_grid, b.response_grid)
    assert np.array_equal(a.response_values, b.response_values)


class TestGolden:
    def test_reference_checkpoint_answers(self):
        expected = json.loads((DATA / "reference_answers.json").read_text())
        task = gen_transitive(3, width=2, seed=0)
        assert task.task_id == expected["task"]
        assert list(reference_pipeline().run_task(task).answers) == expected["answers"]

    def test_reference_checkpoint_validation_accuracy(self):
        splits = split_dataset(gen_dataset("transitive", 1000, seed=0), (800, 100, 100))
        assert evaluate(reference_pipeline(), splits.val, measure_latency=False).accuracy == 1.0


class TestPreparedGraph:
    def test_second_query_prepares_nothing(self, calls):
        pipe = reference_pipeline()
        task = gen_transitive(4, width=2, seed=11)
        run(pipe.cfg, task, pipe.rules)
        assert calls == dict.fromkeys(PREPARATION, 1)
        run(pipe.cfg, task, pipe.rules)
        assert calls == dict.fromkeys(PREPARATION, 1)

    def test_warm_output_equals_cold_output(self):
        pipe = reference_pipeline()
        task = gen_transitive(4, width=2, seed=11)
        outputs = [run(pipe.cfg, task, pipe.rules) for _ in range(2)]
        cold = run(pipe.cfg, gen_transitive(4, width=2, seed=11), pipe.rules)
        assert task.graph.prepared
        for out in outputs:
            assert_same_output(out, cold)

    def test_laplacian_kind_and_seed_get_their_own_entries(self, calls):
        task = gen_transitive(3, width=2, seed=5)
        configs = [PipelineConfig(), PipelineConfig(seed=1), PipelineConfig(laplacian="normalized")]
        for cfg in configs * 2:
            run(cfg, task, ())
        assert set(task.graph.prepared) == {(cfg.laplacian, cfg.seed) for cfg in configs}
        assert calls["build_laplacian"] == calls["estimate_lambda_max"] == len(configs)
        for cfg in configs:
            assert_same_output(run(cfg, task, ()), run(cfg, gen_transitive(3, width=2, seed=5), ()))

    def test_rule_rows_follow_the_rules(self, calls):
        pipe = reference_pipeline()
        task = gen_transitive(3, width=2, seed=5)
        run(pipe.cfg, task, pipe.rules)
        run(pipe.cfg, task, pipe.rules[:1])
        run(pipe.cfg, task, pipe.rules[:1])
        assert calls["rule_coefficients"] == 2
        assert calls["estimate_lambda_max"] == 1

    def test_atom_map_follows_the_kb(self):
        task = gen_transitive(2, width=1, seed=5)
        prepared = pipeline.prepare_graph(PipelineConfig(), task.graph)
        full = prepared.atom_map(task.kb)
        assert full == task.node_atoms
        assert prepared.atom_map(task.kb) is full
        narrow = KnowledgeBase(tuple(a for a in task.kb.atoms if a.startswith("P")))
        assert prepared.atom_map(narrow) == {i: a for i, a in task.node_atoms.items() if a.startswith("P")}
        # an equal but distinct KB is matched by identity, not by value
        again = KnowledgeBase(task.kb.atoms, task.kb.clauses)
        assert again == task.kb
        assert prepared.atom_map(again) == full and prepared.atom_map(again) is not full

    @pytest.mark.parametrize(
        "name, error, stage",
        [("estimate_lambda_max", ConvergenceFailure, "spectral"), ("build_laplacian", BadParams, "laplacian")],
    )
    def test_failed_preparation_is_not_kept(self, monkeypatch, name, error, stage):
        task = gen_transitive(3, width=2, seed=5)
        original = getattr(pipeline, name)

        def fail(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(pipeline, name, fail)
        for _ in range(2):
            with pytest.raises(error) as info:
                run(PipelineConfig(), task, ())
            assert info.value.stage == stage
            assert not task.graph.prepared
        monkeypatch.setattr(pipeline, name, original)
        run(PipelineConfig(), task, ())
        assert list(task.graph.prepared) == [(PipelineConfig().laplacian, 0)]

    def test_training_twice_on_the_same_splits(self, calls):
        def splits():
            return split_dataset(gen_dataset("transitive", 60, seed=3), (40, 20, 0))

        cfg = PipelineConfig(tau=0.4)
        rules = tuple(reference_pipeline().rules)
        train_run = TrainRun(max_epochs=3, batch_size=16, patience=3, seed=7, latency_probe=0)
        shared = splits()
        results = [train(cfg, shared, train_run, rules=rules)]
        assert calls == dict.fromkeys(PREPARATION, 60)
        results.append(train(cfg, shared, train_run, rules=rules))
        assert calls == dict.fromkeys(PREPARATION, 60)
        results.append(train(cfg, splits(), train_run, rules=rules))
        reference = results[-1]
        for result in results[:-1]:
            assert [h.train_loss for h in result.history] == [h.train_loss for h in reference.history]
            assert [h.val_accuracy for h in result.history] == [h.val_accuracy for h in reference.history]
            for snap, ref in zip(result.trajectory, reference.trajectory, strict=True):
                for key in ref:
                    assert np.array_equal(snap[key], ref[key]), key
