from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_tracer_finds_every_layer(monkeypatch):
    """Every library name the benchmark's layer tracer wraps still exists."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    tracer = tracing.Tracer()
    try:
        workloads.install_layers(tracer)
    finally:
        tracer.restore()


def test_reference_pipeline_runs_the_rules_its_checkpoint_names(monkeypatch):
    """The benchmark's reference pipeline passes the checkpoint's rule-id check."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from spectral_nsr.trainer import Checkpoint

    root = PERFBENCH.parent
    pipe = workloads._reference_pipeline(root)
    assert [rule.rule_id for rule in pipe.rules] == Checkpoint.load(root / workloads.CHECKPOINT).metadata["rule_ids"]


def test_small_tasks_screen_calls_the_library(monkeypatch):
    """The benchmark's task screen calls the library directly; a generated task passes it untouched."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from spectral_nsr import harness

    root = PERFBENCH.parent
    small = workloads.SmallTasks(root, seed=0, sizes=workloads.Sizes())
    small.pipe = workloads._reference_pipeline(root)
    task = harness.gen_transitive(3, width=2, seed=0)
    assert small._screen(task) is task
    assert small.screened == []


def test_large_graph_checks_pass_on_a_small_graph(monkeypatch):
    """The large_graph checks, trace replay included, pass on a scaled-down graph."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    large = workloads.LargeGraph(PERFBENCH.parent, seed=1, sizes=workloads.Sizes(setups=1, edges=2000, clauses=50))
    large.setup(tracing.Tracer())
    replayed = 0
    for _ in range(3):
        query = large.next_query()
        checked = large.check(query, large.answer(query))
        assert checked.problem is None
        replayed += checked.tally["replayed"]
    assert replayed > 0


def test_train_checks_pass_at_tiny_size(monkeypatch):
    """The train workload at the self-test's sizes answers twice the same way,
    and a traced run records the trainer's preparation and step."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest
    import tracing
    import workloads

    sizes = workloads.Sizes(**selftest.TINY)
    train = workloads.Train(PERFBENCH.parent, seed=1, sizes=sizes)
    train.setup(tracing.NullTracer())
    keys = []
    for _ in range(2):
        query = train.next_query()
        checked = train.check(query, train.answer(query))
        assert checked.problem is None
        keys.append(checked.key)
    assert keys[0] == keys[1]

    result = workloads.run("train", PERFBENCH.parent, seed=1, seconds=0.05, trace=True, sizes=sizes)
    assert result.failed == 0, result.problems
    assert result.metrics["trainer.prepare_ms"] > 0.0 and result.metrics["trainer.grad_ms"] > 0.0
    assert result.metrics["trainer.grad_calls"] > 0


def test_traced_train_times_every_adam_step(monkeypatch):
    """A traced train run at the self-test's sizes records the Adam layer,
    one step per gradient."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest
    import workloads

    sizes = workloads.Sizes(**selftest.TINY)
    result = workloads.run("train", PERFBENCH.parent, seed=1, seconds=0.05, trace=True, sizes=sizes)
    assert result.failed == 0, result.problems
    assert result.metrics["trainer.adam_ms"] > 0.0
    assert result.metrics["trainer.adam_steps"] == result.metrics["trainer.grad_calls"] > 0


def test_traced_inference_reaches_every_query_layer(monkeypatch):
    """Traced small_tasks and large_graph runs at the self-test's sizes time
    every inference layer, so `Pipeline` still runs its queries through the
    `run_pipeline` the tracer wraps."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import selftest
    import workloads

    sizes = workloads.Sizes(**selftest.TINY)
    for name in ("small_tasks", "large_graph"):
        result = workloads.run(name, PERFBENCH.parent, seed=1, seconds=0.2, trace=True, sizes=sizes)
        assert result.failed == 0, result.problems
        for layer in ("pipeline.self", "spectral.learned_filter", "symbolic.threshold", "symbolic.bind", "symbolic.chain"):
            assert result.metrics[f"{layer}_ms"] > 0.0, (name, layer)
        assert result.metrics["spectral.cheb_matvecs"] > 0, name


def test_stage_3_counters_add_up_over_a_block(monkeypatch):
    """On one traced block query, the benchmark's stage-3 counters equal the
    true nodes and the closure atoms of the block's outputs."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads
    from spectral_nsr import harness

    pipe = workloads._reference_pipeline(PERFBENCH.parent)
    tasks = harness.gen_dataset("transitive", 6, seed=5) + harness.gen_dataset("kinship", 6, seed=5)
    tracer = tracing.Tracer()
    workloads.install_layers(tracer)
    try:
        with tracer.query(0):
            outputs = pipe.run_tasks(tasks)
    finally:
        tracer.restore()
    true_nodes = sum(len(out.predicates.true_nodes()) for out in outputs)
    closure_atoms = sum(len(out.closure) for out in outputs)
    assert true_nodes > 0 and closure_atoms > true_nodes
    assert tracer.counts["symbolic.true_predicates"] == true_nodes
    assert tracer.counts["symbolic.closure_atoms"] == closure_atoms
