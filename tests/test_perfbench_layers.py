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
