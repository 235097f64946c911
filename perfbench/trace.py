"""In-memory spans and counters recorded from the benchmark's own code.

A span is (id, name, start, end, parent).  Spans are opened around the
benchmark's calls into a layer, or by a proxy that the benchmark puts in
place of a layer's public function for the length of a traced pass;
nothing inside ``rapidocr_ray/`` records anything.  A layer's self time
is its span time minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        rec = {
            "id": None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else None,
        }
        with self._lock:
            rec["id"] = len(self.spans)
            self.spans.append(rec)
        stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` with a span around every call; ``on_result(args,
        result)`` may record counters."""

        @functools.wraps(fn)
        def proxy(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        return proxy

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]


class Patches:
    """Attribute replacements undone in reverse order on exit."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            target, attr, old = self._undo.pop()
            setattr(target, attr, old)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Summed self time per span name."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        dur = s["end"] - s["start"]
        out[s["name"]] += dur - covered(children[s["id"]], s["start"], s["end"])
    return dict(out)


def total_times(spans: list[dict]) -> dict[str, float]:
    """Summed span time per name."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += s["end"] - s["start"]
    return dict(out)
