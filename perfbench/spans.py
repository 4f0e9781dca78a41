"""In-memory span tracing for the benchmark.

A ``Tracer`` records one span per call into a layer: (name, start, end,
parent index).  Spans are only recorded from wrappers the benchmark puts
around the program's public functions, in the module namespaces where
the callers look them up, so the program itself is not edited.  Counters
are recorded at the same boundaries.
"""
from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def take(self) -> tuple[list[list], Counter]:
        """Return and forget the spans and counts recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def wrap(self, module, attr: str, name, count=None, timed: bool = True, consume: bool = False) -> None:
        """Replace ``module.attr`` with a recording wrapper.

        ``name`` is a span name or a function of the call's arguments
        giving one.  ``count(counts, args, kwargs, result)`` adds counters.
        With ``timed=False`` only the counters are kept (for functions
        called too often for a span each).  With ``consume=True`` a
        returned iterator is drained into a list inside the span, so the
        span covers the work of a generator.
        """
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not timed:
                result = original(*args, **kwargs)
            else:
                with tracer.span(name(*args, **kwargs) if callable(name) else name):
                    result = original(*args, **kwargs)
                    if consume:
                        result = list(result)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        self._originals.append((module, attr, original))
        setattr(module, attr, wrapper)

    def unwrap(self) -> None:
        """Put every wrapped function back."""
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from a stack, so children never overlap one another and
    lie inside their parent.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def totals_by_name(spans: list[list]) -> tuple[Counter, Counter]:
    """Summed total and self time per span name."""
    total: Counter = Counter()
    own: Counter = Counter()
    for (name, start, end, _), self_s in zip(spans, self_times(spans)):
        total[name] += end - start
        own[name] += self_s
    return total, own
