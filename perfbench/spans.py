"""In-memory span recorder for the traced benchmark run.

A span has a name, start and end (perf_counter seconds), the id of the
span that was open when it started, the run id, and a dict of work counts
(packets, samples, steps, ...). Spans stay in memory and are written out
once, at the end of the run. A disabled tracer records nothing, so the same
workload code serves the traced and the untraced run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        """Record one span; the body may add work counts to the yielded dict."""
        if not self.enabled:
            yield counts
            return
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, "counts": counts}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield counts
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, count=None):
        """fn with each call recorded as a span; count(args, kwargs, result)
        returns the work counts of that call."""
        def wrapped(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts.update(count(args, kwargs, result))
            return result
        return wrapped

    @contextmanager
    def patched(self, module, table: dict):
        """Temporarily route module.<attr> through span wrappers.

        `table` maps attribute name -> (span name, count function or None).
        The program's own code then calls the wrapped functions, so the
        traced run times the same calls as the untraced one.
        """
        if not self.enabled:
            yield
            return
        saved = {attr: getattr(module, attr) for attr in table}
        try:
            for attr, (name, count) in table.items():
                setattr(module, attr, self.wrap(saved[attr], name, count))
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fp:
            for rec in self.spans:
                fp.write(json.dumps(rec, sort_keys=True) + "\n")


def duration(rec) -> float:
    return rec["end"] - rec["start"]


class SpanTable:
    """Aggregates over finished spans: totals by name and self time."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self._children = defaultdict(list)
        for rec in spans:
            if rec["parent"] is not None:
                self._children[rec["parent"]].append(rec)

    def named(self, name: str) -> list[dict]:
        return [rec for rec in self.spans if rec["name"] == name]

    def seconds(self, name: str) -> float:
        return sum(duration(rec) for rec in self.named(name))

    def count(self, name: str, key: str) -> float:
        return sum(rec["counts"].get(key, 0) for rec in self.named(name))

    def per(self, name: str, key: str, scale: float = 1e6) -> float:
        """Seconds spent in spans `name` per counted unit `key`, scaled (µs)."""
        units = self.count(name, key)
        if units <= 0:
            raise ValueError(f"no {key} counted under span {name!r}")
        return self.seconds(name) / units * scale

    def self_time(self, rec) -> float:
        return duration(rec) - sum(duration(c) for c in self._children[rec["id"]])

    def descendants(self, rec) -> list[dict]:
        out, todo = [], list(self._children[rec["id"]])
        while todo:
            child = todo.pop()
            out.append(child)
            todo.extend(self._children[child["id"]])
        return out
