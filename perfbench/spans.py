"""Spans and work counters around the benchmark's calls into qcolor.

Every call the benchmark makes into a public qcolor function goes through
``Tracer.call``.  With tracing off that is a bare call.  With tracing on the
call becomes a span (name, start, end, parent span, task id) kept in memory,
and the work counters its result carries are added up (``layers.WORK``).
Spans are written out once, when the run ends.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple

import layers


class Span(NamedTuple):
    id: int
    name: str
    layer: str  # "task" for the root span of a task
    start: float
    end: float
    parent: int | None
    task: int
    ok: bool  # False when the call raised


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span | None] = []
        self.counters: Counter = Counter()
        self._parent: int | None = None
        self._task: int | None = None

    @contextmanager
    def task(self, task_id: int, name: str):
        """Root span of one task; layer calls made inside it are its children."""
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        self.spans.append(None)
        self._parent, self._task = sid, task_id
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[sid] = Span(sid, name, "task", start, time.perf_counter(),
                                   None, task_id, True)
            self._parent = self._task = None

    def call(self, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        self.spans.append(None)
        layer = layers.layer_of(fn)
        ok = False
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            ok = True
        finally:
            end = time.perf_counter()
            self.spans[sid] = Span(sid, fn.__qualname__, layer, start, end,
                                   self._parent, self._task, ok)
            if not ok:
                self.counters[f"{layer}.errors"] += 1
        work = layers.WORK.get(fn)
        if work is not None:
            self.counters.update(work(args, kwargs, out))
        return out


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds of self time per layer: each span's duration minus the part
    of it that its child spans cover (children never overlap one another).
    The "task" layer's self time is the benchmark's own work: its checks
    and glue between calls."""
    child: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += s.end - s.start - child[s.id]
    return dict(out)


def timer_totals(spans: list[Span]) -> dict[str, float]:
    """Seconds per named timer of ``layers.TIMERS``.  Only calls that
    returned count, so a timer matches the work counters read off results;
    a call that raised still counts in its layer's self time."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        timer = layers.TIMERS.get(f"{s.layer}.{s.name}")
        if timer is not None and s.ok:
            out[timer] += s.end - s.start
    return dict(out)


def span_records(spans: list[Span], pass_index: int) -> list[dict]:
    return [{**s._asdict(), "pass": pass_index} for s in spans]
