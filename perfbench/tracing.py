"""Span recorder for the traced run.

The program is not changed: ``Tracer.wrap`` replaces a function at the
site it is imported into (``owse.crawler.normalize_url``,
``owse.indexer.tokenize``, ...) or a method on its class with a wrapper
that records a span (name, start, end, parent) and optional counts, and
``Tracer.restore`` puts the originals back. Spans are kept in memory; a
layer's self time is its spans' duration minus the part of it covered by
their child spans, from any thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []  # id, name, start, end, parent
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.root = 0  # parent of spans opened on threads with no open span

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)
        self.root = 0

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def wrap(self, owner: object, attr: str, name: str, count=None, root: bool = False) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``count(args, result)`` yields (counter, amount) pairs that are
        added under ``name.counter``. A ``root`` span becomes the parent of
        spans that worker threads open while it is running.
        """
        original = getattr(owner, attr)
        local, ids = self._local, self._ids

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else self.root
            if root:
                outer, self.root = self.root, sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception:
                self.add(f"{name}.failures", 1)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent))
                if root:
                    self.root = outer
            if count is not None:
                for key, amount in count(args, result):
                    self.add(f"{name}.{key}", amount)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent in self.spans:
            children[parent].append((start, end))
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, name, start, end, _ in self.spans:
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - _covered(children.get(sid, ()), start, end)
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def dump(self, path: Path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, start, end, parent in self.spans:
                out.write(json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent}))
                out.write("\n")


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total
