"""In-memory span recorder that wraps a program's functions from outside.

A span has a name, start and end (``time.perf_counter`` seconds), the
span that was open when it started, the id of the trace it belongs to,
and the counts its layer recorded. Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Tuple


@dataclass
class Span:
    trace: int
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans; set ``trace`` before each traced request."""

    def __init__(self):
        self.spans = []
        self.trace = 0
        self._stack = []
        self._ids = itertools.count(1)

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self.trace, next(self._ids), parent, name, time.perf_counter())
        self._stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


@dataclass(frozen=True)
class Layer:
    """A function to wrap: ``owner.attr`` (a module global or a class
    method, patched where callers look it up), the span name, the counts
    it records, and how to count them from the call's arguments and
    result."""

    owner: object
    attr: str
    name: str
    keys: Tuple[str, ...] = ()
    count: Optional[Callable] = None      # (args, result) -> {count: int}
    counts_fn_evals: bool = False         # count calls of the first argument


def traced(tracer: Tracer, layer: Layer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        evals = 0
        if layer.counts_fn_evals:
            inner = args[0]

            def counted(*a, **kw):
                nonlocal evals
                evals += 1
                return inner(*a, **kw)

            args = (counted,) + args[1:]
        span = tracer.open(layer.name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if layer.counts_fn_evals:
            span.counts["fn_evals"] = evals
        if layer.count is not None:
            span.counts.update(layer.count(args, result))
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer, layers):
    """Patch every layer with a traced wrapper; restore on exit."""
    saved = []
    try:
        for layer in layers:
            original = getattr(layer.owner, layer.attr)
            saved.append((layer.owner, layer.attr, original))
            setattr(layer.owner, layer.attr, traced(tracer, layer, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
