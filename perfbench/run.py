"""Run one workload of the spectral_nsr benchmark and print its result.

    python3 perfbench/run.py --workload small_tasks --seed 1 --seconds 15 --trace 0

The benchmark drives the library from ``src/`` of the checkout it sits in,
through its public functions only, in one process with BLAS pinned to one
thread. ``BENCHMARK.json`` at the checkout root names the workloads and the
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it records the machine, the seed, the sample counts and the
input sizes. README.md beside this file explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"


def prepare() -> None:
    """Pin BLAS threads and put the checkout's sources first on the import path.

    Must run before numpy is imported: BLAS reads its thread count once,
    when it is loaded.
    """
    if "numpy" in sys.modules:
        raise SystemExit("error: numpy was imported before the BLAS thread count was pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "spectral_nsr" / "__init__.py").is_file():
        raise SystemExit(f"error: no spectral_nsr sources under {src}")
    sys.path.insert(0, str(src))
    import spectral_nsr

    if not Path(spectral_nsr.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported spectral_nsr from {spectral_nsr.__file__}, not from {src}")


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(result, trace: bool) -> dict:
    units = declared_metrics(trace)
    if set(result.metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(result.metrics)} do not match the declared {sorted(units)}"
        )
    return {
        "correct": result.failed == 0 and result.attempted > 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": float(result.metrics[name]), "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    trace = bool(args.trace)
    result = workloads.run(args.workload, ROOT, args.seed, args.seconds, trace)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        **result.info,
        "problems": result.problems,
    }
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result_line(result, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
