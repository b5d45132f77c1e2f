"""In-memory span tracing of spectral_nsr layers, installed from outside.

`Tracer.wrap` replaces a public function in one of the library's module
namespaces with a thin wrapper that records one span per call: its name,
start, end, parent span and the query it belongs to. The library looks
these functions up in its own module globals at call time, so the wrappers
see every call without any change to the library. `Tracer.restore` puts the
original functions back.

A layer's self time is its span's duration minus the durations of its
direct child spans. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

QUERY = "query"

# run_pipeline calls chebyshev_filter twice: once for the composed rule
# filter and, after combined_filter, once for the learned filter
CHEB_FILTER = "spectral.cheb_filter"
RULE_FILTER = "spectral.rule_filter"
LEARNED_FILTER = "spectral.learned_filter"


class NullTracer:
    """Stands in for `Tracer` when tracing is off: records nothing."""

    def span(self, name: str):
        return nullcontext()

    def query(self, query_id):
        return nullcontext()


class Tracer:
    """Spans and counts recorded at layer boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.queries: list[object] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._query: object = None
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop recorded spans and counts; installed wrappers stay."""
        if self._open:
            raise RuntimeError("reset with open spans")
        self.names.clear()
        self.starts.clear()
        self.ends.clear()
        self.parents.clear()
        self.queries.clear()
        self.counts.clear()

    def _enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.queries.append(self._query)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    @contextmanager
    def query(self, query_id):
        """Root span of one query; every span opened inside carries ``query_id``."""
        if self._open:
            raise RuntimeError("queries do not nest")
        self._query = query_id
        try:
            with self.span(QUERY):
                yield
        finally:
            self._query = None

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Trace every call of ``module.attr`` as span ``name``.

        ``count(counts, args, result)``, when given, runs after the span
        closes and adds the call's work to ``counts``.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(idx)
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self time per layer name over all query spans, and total query time, in seconds.

        Spans outside any query (set-up) are left out. Chebyshev filter
        calls are split into the rule and learned filter by whether
        combined_filter already ran under the same parent.
        """
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        children = [0.0] * len(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent] += durations[idx]
        learned_seen: set[int] = set()
        totals: dict[str, float] = defaultdict(float)
        query_total = 0.0
        for idx, name in enumerate(self.names):
            if self.queries[idx] is None:
                continue
            if name == QUERY:
                query_total += durations[idx]
                continue
            parent = self.parents[idx]
            if name == LEARNED_FILTER:
                learned_seen.add(parent)
            elif name == CHEB_FILTER:
                name = LEARNED_FILTER if parent in learned_seen else RULE_FILTER
            totals[name] += durations[idx] - children[idx]
        return dict(totals), query_total

    def setup_time(self, name: str) -> float:
        """Total duration, in seconds, of spans named ``name`` outside any query."""
        return sum(
            end - start
            for n, start, end, q in zip(self.names, self.starts, self.ends, self.queries)
            if n == name and q is None
        )
