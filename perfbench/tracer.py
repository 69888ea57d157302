"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded by wrappers placed where the program looks a function
up (a module attribute or a class attribute), so no source file changes.
Each span keeps its name, start, end and the index of the span that was
open when it started. The columns live in ``array`` buffers rather than
in per-span Python objects, so tracing adds no objects for the cyclic
garbage collector to scan and does not inflate the GC time it measures.

Collector pauses, reported through ``gc.callbacks``, are kept in columns
of their own and count as children of the span they interrupted, so a
span's self time excludes them.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from array import array
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")  # index of the enclosing span, -1 at top level
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.gc_parent = array("q")
        self.gc_start = array("d")
        self.gc_end = array("d")
        self.gc_gen2 = 0
        self._gc_open: tuple[int, float] | None = None

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self._intern(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (module function or method) by its traced form."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    # -- garbage collector -------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._gc_open = (self._stack[-1], now)
            return
        if self._gc_open is None:
            return
        parent, began = self._gc_open
        self._gc_open = None
        self.gc_parent.append(parent)
        self.gc_start.append(began)
        self.gc_end.append(now)
        if info.get("generation") == 2:
            self.gc_gen2 += 1

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed self time in seconds and number of calls.

        Self time is a span's duration minus the durations of its child
        spans and of the collector pauses inside it. ``runtime.gc`` holds
        the summed collector pauses and the number of collections.
        """
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        gc_dur = np.frombuffer(self.gc_end, dtype=np.float64) - np.frombuffer(self.gc_start, dtype=np.float64)
        gc_parent = np.frombuffer(self.gc_parent, dtype=np.int64)
        children = np.zeros(len(dur))
        inner = parent >= 0
        np.add.at(children, parent[inner], dur[inner])
        gc_inner = gc_parent >= 0
        np.add.at(children, gc_parent[gc_inner], gc_dur[gc_inner])
        self_time = dur - children
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        seconds = np.bincount(name_id, weights=self_time, minlength=len(self.names))
        calls = np.bincount(name_id, minlength=len(self.names))
        totals = {
            name: {"s": float(seconds[i]), "calls": int(calls[i])} for i, name in enumerate(self.names)
        }
        totals["runtime.gc"] = {"s": float(gc_dur.sum()), "calls": len(gc_dur)}
        return totals

    def write(self, path: Path, info: dict) -> None:
        """Write every span and collector pause, with ``info``, as one .npz file."""
        np.savez(
            path,
            info=np.array(json.dumps(info, sort_keys=True)),
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            gc_parent=np.frombuffer(self.gc_parent, dtype=np.int64),
            gc_start=np.frombuffer(self.gc_start, dtype=np.float64),
            gc_end=np.frombuffer(self.gc_end, dtype=np.float64),
        )
