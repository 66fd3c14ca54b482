"""Spans and counts recorded from the benchmark's side of each layer boundary.

A Tracer keeps spans (name, start, end, parent, request, counts) in memory.
`patched` swaps a module attribute of the program for a wrapper that opens
a span around each call and restores the attribute afterwards, so the
program's files are untouched and an untraced run pays nothing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field

from cfgnn.flops import FlopCounter


@dataclass
class LayerCounter(FlopCounter):
    """FlopCounter that also tallies the dense LU systems it is told about."""

    lu_systems: int = 0
    lu_flops: int = 0

    def solve_lu(self, n: int, rhs: int = 1) -> None:
        before = self.total
        super().solve_lu(n, rhs)
        self.lu_systems += 1
        self.lu_flops += self.total - before


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.request: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = Span(name, time.perf_counter(), parent=parent,
                   request=self.request)
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        faults = minflt()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            rec.counts.setdefault("minflt", minflt() - faults)
            self._open.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span; before(args, kwargs) may rewrite the call,
        after(span, args, kwargs, result) may record counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                if before is not None:
                    args, kwargs = before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(rec, args, kwargs, result)
            return result
        return wrapper

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_ms(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_ms = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_ms[s.parent] += s.ms
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s.name] += s.ms - child_ms[i]
        return dict(out)

    def dump(self, path: str, extra: dict) -> None:
        doc = {"spans": [{"name": s.name, "start": s.start, "end": s.end,
                          "parent": s.parent, "request": s.request,
                          "counts": s.counts} for s in self.spans],
               "self_ms": self.self_ms(), **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)


@contextlib.contextmanager
def patched(tracer: Tracer, specs: list[tuple]):
    """Wrap module attributes in spans for the duration of the block.

    Each spec is (module, attribute, span name[, before[, after]]).  An
    attribute the module lacks raises AttributeError: a renamed function
    would otherwise leave its layer without spans and its metric at 0.
    """
    saved = []
    try:
        for module, attr, name, *hooks in specs:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, *hooks))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
