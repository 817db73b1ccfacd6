"""Spans and call counters recorded from the benchmark's own code.

The traced run never patches ``padambench``. It records a span around each
call the benchmark makes into a public function, and times the problem
oracles by handing ``StochasticProblem`` wrapped callables. Each oracle call
is charged to the span that was open when it was made, so oracle time inside
``harness.run`` can be told apart from oracle time inside ``theory``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import defaultdict


def callable_fields(problem_cls) -> list[str]:
    """Names of the oracle fields of ``StochasticProblem``, read from its
    annotations so that a problem with other oracles is wrapped the same
    way."""
    return [f.name for f in dataclasses.fields(problem_cls)
            if str(f.type).startswith("Callable")]


class Tracer:
    """In-memory spans ``(name, start, end, parent)`` plus per-parent call
    totals for wrapped callables and free-form counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        # (enclosing span name or None, callee name) -> [calls, seconds]
        self.calls: dict = defaultdict(lambda: [0, 0.0])
        self.counts: dict = defaultdict(int)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def timed(self, name: str, fn):
        calls = self.calls
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                entry = calls[(spans[stack[-1]][0] if stack else None, name)]
                entry[0] += 1
                entry[1] += elapsed

        return wrapper

    def wrap_problem(self, problem):
        return dataclasses.replace(problem, **{
            name: self.timed(f"problems.{name}", getattr(problem, name))
            for name in callable_fields(type(problem))
        })

    def add(self, name: str, n: int) -> None:
        self.counts[name] += n

    # ---- queries -------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent == -1)

    def calls_under(self, parents) -> dict:
        """Callee name -> [calls, seconds] for calls made inside any span
        whose name is in ``parents``."""
        out: dict = defaultdict(lambda: [0, 0.0])
        for (parent, callee), (n, secs) in self.calls.items():
            if parent in parents:
                out[callee][0] += n
                out[callee][1] += secs
        return out


class NullTracer:
    """Tracing off: the untraced replay runs exactly the same calls."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def timed(self, name: str, fn):
        return fn

    def wrap_problem(self, problem):
        return problem

    def add(self, name: str, n: int) -> None:
        pass
