"""Spans around calls into the cubictrace layers, and profiler call counts.

Spans are recorded from the benchmark's side only: a call site wraps its
call in `Tracer.call`, and calls made inside the program are reached by
temporarily replacing a module or class attribute (`Tracer.patched`).  No
file under `src/` is touched.  Spans stay in memory and are written into
the results file when the run ends.

Call counts come from a separate cProfile pass, because the profiler's
per-call cost would distort the span timings.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from contextlib import contextmanager


class NullTracer:
    """Call-site hook of untraced passes: calls straight through."""

    def call(self, name, fn, *args):
        return fn(*args)

    def set_item(self, item):
        pass


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list[dict] = []
        self.busy: dict[str, float] = {}
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._item = None

    def set_item(self, item):
        """Spans opened from now on belong to this item (a request id)."""
        self._item = item

    def call(self, name, fn, *args):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = {"id": span_id, "parent": parent, "item": self._item, "name": name}
        self.spans.append(span)
        self._stack.append(span_id)
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._depth[name] = depth
            span["start"], span["end"] = start, end
            if depth == 0:  # nested spans of one name are counted once
                self.busy[name] = self.busy.get(name, 0.0) + (end - start)

    @contextmanager
    def patched(self, targets):
        """Route calls to `owner.attr` through a span, for each (owner, attr, name)."""
        saved = []
        try:
            for owner, attr, name in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrapper(self, name, original):
        def traced(*args):
            return self.call(name, original, *args)
        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: dict[str, float] = {}
        for span, covered in zip(self.spans, child_time):
            out[span["name"]] = out.get(span["name"], 0.0) + span["end"] - span["start"] - covered
        return out


def _code_key(fn):
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def profiled_calls(thunk, targets: dict) -> dict[str, int]:
    """Run `thunk` under cProfile; return the call count of each target function.

    Counts include recursive calls and are exact, so two runs of the same
    inputs in interpreters with the same PYTHONHASHSEED give equal counts.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        thunk()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    out = {}
    for name, fn in targets.items():
        entry = stats.get(_code_key(fn))
        out[name] = entry[1] if entry else 0
    return out
