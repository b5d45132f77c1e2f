"""Fast self-test of the benchmark: every workload at tiny size, traced and not.

    python3 perfbench/selftest.py

Checks that each run passes its own correctness checks and emits exactly
the metrics BENCHMARK.json declares, each a finite number, and that in a
traced run the layer self times cover 90% to 100% of the traced query
time. Takes a few seconds. It is not collected by pytest, so the tier-1
test run stays as fast as before.
"""

from __future__ import annotations

import math
import sys

import run

TINY = dict(setups=1, block=6, edges=20_000, clauses=50, train_tasks=12, val_tasks=6, epochs=2)


def main() -> int:
    run.prepare()
    import workloads

    sizes = workloads.Sizes(**TINY)
    failures = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = workloads.run(name, run.ROOT, seed=1, seconds=0.2, trace=trace, sizes=sizes)
            line = run.result_line(result, trace)
            label = f"{name} trace={int(trace)}"
            if not line["correct"]:
                failures.append(f"{label}: {line['failed']} of {line['attempted']} failed: {result.problems}")
            bad = [k for k, v in line["metrics"].items() if not math.isfinite(v["value"])]
            if bad:
                failures.append(f"{label}: non-finite metrics {bad}")
            coverage = line["metrics"].get("trace.coverage", {}).get("value", 1.0)
            if not 0.9 <= coverage <= 1.0 + 1e-9:
                failures.append(f"{label}: layer self times cover {coverage:.3f} of the traced query time")
            print(f"ok {label}: {line['attempted']} attempted, {len(line['metrics'])} metrics")
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
