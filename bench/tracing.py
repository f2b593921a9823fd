"""Spans and call counts recorded around nsbf's public entry points.

A :class:`Tracer` replaces a function or method with a wrapper that opens a
span (name, start, end, parent) around each call, and puts the original back
when the ``installed`` block ends.  Nothing inside ``nsbf`` is changed on
disk; untraced runs never create a tracer.  Spans stay in memory until
:meth:`Tracer.write` is called at the end of the run.

A span's self time is its duration minus the time its child spans cover.
The benchmark runs on one thread, so child spans never overlap and that
cover is the plain sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.child: list[float] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.child.append(0.0)
        self.ends.append(math.nan)
        self.counts[name] += 1
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        end = time.perf_counter()
        self.ends[idx] = end
        self._stack.pop()
        parent = self.parents[idx]
        if parent >= 0:
            self.child[parent] += end - self.starts[idx]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one request."""
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, fn, name: str, observe=None):
        """``fn`` inside a span; ``observe(result, args, kwargs)`` runs
        after the span closes, so its cost is not charged to the layer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return traced

    # -- installing wrappers -------------------------------------------------

    def patch(self, owners, attr: str, name: str, observe=None) -> None:
        """Wrap ``attr`` on every owner (module or class) that holds the same
        object as the first owner, so ``from x import f`` copies are
        covered too."""
        original = getattr(owners[0], attr)
        wrapped = self.wrap(original, name, observe)
        for owner in owners:
            if getattr(owner, attr, None) is original:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, install):
        """Run ``install(self)`` and undo every patch on exit."""
        try:
            install(self)
            yield self
        finally:
            self.restore()

    # -- summaries -----------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: total duration and total self time, in seconds."""
        total: dict = defaultdict(float)
        self_time: dict = defaultdict(float)
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            total[name] += dur
            self_time[name] += dur - self.child[i]
        return {"total": dict(total), "self": dict(self_time)}

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps(
                    [name, self.starts[i], self.ends[i], self.parents[i]]
                ))
                fh.write("\n")
