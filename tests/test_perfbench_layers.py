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
