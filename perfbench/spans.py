"""In-memory span recorder used by the traced run.

A span is (name, start, end, parent index, job id), with times from
``time.perf_counter``.  Spans are kept in a list and handed out at the end
of the run; nothing is written while jobs execute.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, job]
        self.counters = defaultdict(float)
        self._stack = []
        self.job = None

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, parent, self.job]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, k=1):
        self.counters[name] += k


class NullTracer:
    """Same interface, records nothing: the untraced runs use this."""

    job = None

    def span(self, name):
        return nullcontext()

    def count(self, name, k=1):
        pass


def _covered(intervals):
    """Total length of the union of [start, end] intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Per span: its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for name, s, e, parent, job in spans:
        if parent >= 0:
            children[parent].append((s, e))
    out = []
    for idx, (name, s, e, parent, job) in enumerate(spans):
        kids = [(max(a, s), min(b, e)) for a, b in children.get(idx, ()) if b > s and a < e]
        out.append((e - s) - _covered(kids))
    return out


def summarize(spans):
    """name -> {"calls", "total_s", "self_s", "durations"} over all spans."""
    selfs = self_times(spans)
    out = {}
    for (name, s, e, _parent, _job), st in zip(spans, selfs):
        d = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        d["calls"] += 1
        d["total_s"] += e - s
        d["self_s"] += st
        d["durations"].append(e - s)
    return out
