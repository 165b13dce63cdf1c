"""Timing wrappers installed from outside on the module attributes bandmoment calls through.

The library looks most of its layers up as module attributes at call time
(`sampler.sample_batch`, `charpoly.tridiagonalize`, ...), and two modules bind
`covariance_profile` by name; replacing those attributes with wrappers times
every layer without touching `src/`.  Block-level calls are kept as spans with
their parent; per-sample calls are only aggregated (count, total, per-call
durations for percentiles).  A layer's self time is its duration minus the
time of the wrapped calls made inside it, so the self times of one unit add
up to the unit's wall time.

Spans are recorded only inside `Tracer.unit()`, so calls the benchmark makes
for its own checks are not attributed to any layer.  The tracer assumes the
library runs on the calling thread (the benchmark uses `threads=1`).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

UNIT = "bench.unit"


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[tuple] = []            # (id, parent id, name, start_s, dur_s, self_s)
        self.durations = defaultdict(list)      # name -> per-call seconds, all units
        self._next_id = 0
        self._stack: list[list] = []            # open calls: [span id, child seconds]
        self._patches: list[tuple] = []
        self.reset_unit()

    def reset_unit(self):
        """Start per-unit accumulators: self/total seconds, calls, computed counts, outputs."""
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.outputs = defaultdict(list)

    def install(self, module, attr: str, name: str, aggregate: bool = False, observe=None):
        """Replace `module.attr` by a timing wrapper reporting as layer `name`.

        `aggregate` marks per-sample calls: no span, only count and duration.
        `observe(tracer, args, kwargs, result)` runs after the timed interval;
        its cost lands in the caller's self time.
        """
        inner = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if not self._stack:
                return inner(*args, **kwargs)
            frame = self._open(aggregate)
            start = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                self._close(name, aggregate, frame, start, time.perf_counter())
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, inner))

    def uninstall(self):
        while self._patches:
            module, attr, inner = self._patches.pop()
            setattr(module, attr, inner)

    def _open(self, aggregate: bool) -> list:
        if aggregate:
            # no span of its own: anything below it hangs off the enclosing span
            span_id = self._stack[-1][0]
        else:
            span_id = self._next_id
            self._next_id += 1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, name, aggregate, frame, start, end):
        self._stack.pop()
        dur = end - start
        own = dur - frame[1]
        self.self_s[name] += own
        self.total_s[name] += dur
        self.calls[name] += 1
        parent = None
        if self._stack:
            self._stack[-1][1] += dur
            parent = self._stack[-1][0]
        if aggregate:
            self.durations[name].append(dur)
        else:
            self.spans.append((frame[0], parent, name, start - self.t0, dur, own))

    @contextmanager
    def unit(self):
        """Root span around one workload unit; every wrapped call inside it is recorded."""
        frame = self._open(False)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(UNIT, False, frame, start, time.perf_counter())

    @staticmethod
    def calibrate(calls: int = 20000) -> float:
        """Seconds of bookkeeping one wrapped call adds, measured on a no-op."""
        class _Mod:
            @staticmethod
            def noop():
                return None

        raw = _Mod.noop
        t = time.perf_counter()
        for _ in range(calls):
            raw()
        bare = time.perf_counter() - t
        probe = Tracer()
        probe.install(_Mod, "noop", "probe")
        with probe.unit():
            t = time.perf_counter()
            for _ in range(calls):
                _Mod.noop()
            wrapped = time.perf_counter() - t
        probe.uninstall()
        return max(wrapped - bare, 0.0) / calls
