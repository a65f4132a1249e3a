"""In-memory span recorder that wraps the package's layer functions.

Spans are recorded from outside the package: `installed()` swaps module
attributes for timing wrappers and restores them on exit, so no code in
`src/tlsreg` changes.  Every span carries the id of the benchmark
operation it belongs to and the id of the span that caused it; a layer's
self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    op_id: int
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op_id = -1

    @contextmanager
    def operation(self, name: str):
        """Root span of one benchmark operation; nested spans share its op id."""
        self._op_id += 1
        with self.span(name) as root:
            yield root

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].span_id if self._stack else None
        s = Span(self._op_id, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        """Wrapper that records a span per call; count(result, *args) -> attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if count is not None:
                    s.attrs.update(count(result, *args))
                return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Patch (module or class, attribute, span name, count) targets.

        One wrapper is built per original function, so a function bound in
        several modules records a single span per call.
        """
        saved = []
        wrappers = {}
        try:
            for owner, attr, name, count in targets:
                # A class attribute may be a classmethod: wrap what a lookup
                # returns, restore the raw attribute.
                saved.append((owner, attr, vars(owner)[attr]))
                original = getattr(owner, attr)
                key = (id(getattr(original, "__func__", original)), name)
                if key not in wrappers:
                    wrappers[key] = self.wrap(original, name, count)
                setattr(owner, attr, wrappers[key])
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def self_times(self) -> dict:
        """Total self time per span name."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent_id is not None:
                child_time[s.parent_id] += s.duration
        totals = defaultdict(float)
        for s in self.spans:
            totals[s.name] += s.duration - child_time[s.span_id]
        return dict(totals)

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def to_records(self) -> list[dict]:
        return [
            {
                "op": s.op_id,
                "id": s.span_id,
                "parent": s.parent_id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "attrs": s.attrs,
            }
            for s in self.spans
        ]
