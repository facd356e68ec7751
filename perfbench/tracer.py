"""Spans and counters recorded around calls into the program's layers.

The benchmark does not change the program: :meth:`Tracer.wrap` replaces a
public method on its class with a wrapper that records one span per call
and restores the original on :meth:`Tracer.restore`.  Spans (name, start,
end, parent) are kept in compact arrays and written once, at the end, with
the run's trace id.  A span's self time is its duration minus the time its
child spans cover.  Cyclic garbage collections are spans too
(``host.gc``), charged as child time to the span they interrupt, so GC
time is never in a layer's self time.  A collection can start inside
:meth:`Tracer.begin` or :meth:`Tracer.finish`, so its spans are kept in
arrays of their own that the call stack never touches.
"""

from __future__ import annotations

import gc
import os
import time
from array import array
from typing import Any, Callable, Optional

import numpy as np


class Tracer:
    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        # per name id: calls, total seconds, self seconds
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        #: counters observed from call arguments and results
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []  # [span index, child seconds]
        self._patches: list[tuple[type, str, Any]] = []
        #: the phase GC time is charged to ("build" or "run")
        self.phase = "build"
        self.gc_s: dict[str, float] = {}
        self.gc_gen2: dict[str, int] = {}
        self._gc_started = 0.0
        self.gc_start = array("d")
        self.gc_end = array("d")
        self.gc_parent = array("q")

    # -- spans ---------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def begin(self, name: str) -> None:
        stack = self._stack
        # Allocating the stack entry may start a collection; doing it
        # first keeps that collection out of this span's duration.
        entry = [len(self.start), 0.0]
        self.name_of.append(self.name_id(name))
        self.parent.append(stack[-1][0] if stack else -1)
        self.end.append(0.0)
        stack.append(entry)
        self.start.append(time.perf_counter())

    def finish(self) -> float:
        now = time.perf_counter()
        stack = self._stack
        index, child = stack.pop()
        self.end[index] = now
        duration = now - self.start[index]
        nid = self.name_of[index]
        self.calls[nid] += 1
        self.total_s[nid] += duration
        self.self_s[nid] += duration - child
        if stack:
            stack[-1][1] += duration
        return duration

    def record(self, name: str, start: float, end: float) -> None:
        """A root span timed by the caller, for calls that are not nested
        on the stack (coroutines interleave)."""
        nid = self.name_id(name)
        self.name_of.append(nid)
        self.parent.append(-1)
        self.start.append(start)
        self.end.append(end)
        self.calls[nid] += 1
        self.total_s[nid] += end - start
        self.self_s[nid] += end - start

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, owner: type, attr: str, name: str,
             observe: Optional[Callable[[tuple, Any], None]] = None) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call;
        ``observe(args, result)`` runs after each call, outside the span."""
        original = owner.__dict__[attr]
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                finish()
            if observe is not None:
                observe(args, result)
            return result

        self.patch(owner, attr, traced)

    def patch(self, owner: type, attr: str, replacement: Any) -> None:
        """Replace ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- garbage collection --------------------------------------------
    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._gc_started = now
            return
        duration = now - self._gc_started
        stack = self._stack
        self.gc_start.append(self._gc_started)
        self.gc_end.append(now)
        self.gc_parent.append(stack[-1][0] if stack else -1)
        if stack:
            stack[-1][1] += duration
        self.gc_s[self.phase] = self.gc_s.get(self.phase, 0.0) + duration
        if info.get("generation") == 2:
            self.gc_gen2[self.phase] = self.gc_gen2.get(self.phase, 0) + 1

    # -- results -------------------------------------------------------
    def layer(self, name: str) -> tuple[int, float, float]:
        """``(calls, total seconds, self seconds)`` for one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total_s[nid], self.self_s[nid]

    def write(self, path: str) -> None:
        """Write every span, collections last, with the names table and
        the trace id."""
        gc_id = self.name_id("host.gc")
        collections = len(self.gc_start)

        def joined(calls, collected, dtype):
            return np.concatenate([np.frombuffer(calls, dtype=dtype),
                                   np.frombuffer(collected, dtype=dtype)])

        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            trace_id=np.array(self.trace_id),
            names=np.array(self.names),
            name=np.concatenate([np.frombuffer(self.name_of, dtype=np.int64),
                                 np.full(collections, gc_id, np.int64)]),
            start=joined(self.start, self.gc_start, np.float64),
            end=joined(self.end, self.gc_end, np.float64),
            parent=joined(self.parent, self.gc_parent, np.int64),
        )
