"""In-memory span recorder for the traced benchmark run.

A span covers one call from the benchmark into a layer of ``arcones``.
Spans nest: ``exact.lp_min`` and ``exact.integer_row_solution`` are wrapped
where ``arcones.count`` and ``arcones.cone`` bind them, so an LP solved
inside ``SliceFamily`` init or ``prune_redundant`` is a child of that span
and is subtracted from its parent's self time.

With tracing off the recorder keeps nothing and ``span`` returns a shared
no-op context manager, so the untraced run pays one attribute lookup and
one ``with`` per layer call.
"""

import importlib
import time
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()

# (module, attribute, span name): functions of arcones.exact that the
# traced run wraps where these modules bind them
WRAPPED = (
    ("arcones.count", "lp_min", "exact.lp"),
    ("arcones.cone", "lp_min", "exact.lp"),
    ("arcones.count", "integer_row_solution", "exact.hnf"),
)


class Tracer:
    """Records spans as [name, start, end, parent index]."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._stack = []

    def span(self, name):
        if not self.enabled:
            return _NULL
        return self._span(name)

    @contextmanager
    def _span(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def wrapped(self):
        """Patch the WRAPPED functions for the duration of the block."""
        if not self.enabled:
            yield
            return
        saved = []
        try:
            for modname, attr, name in WRAPPED:
                mod = importlib.import_module(modname)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(orig, name))
            yield
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def _wrap(self, fn, name):
        def call(*args, **kwargs):
            with self._span(name):
                return fn(*args, **kwargs)
        return call

    def summary(self, seconds):
        """Per span name: (calls, total self time, longest single span),
        with seconds(start, end) converting each span's wall interval."""
        took = [seconds(start, end)
                for _name, start, end, _parent in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_name, _start, _end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += took[i]
        out = {}
        for i, (name, _start, _end, _parent) in enumerate(self.spans):
            calls, self_s, longest = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, self_s + took[i] - child[i],
                         max(longest, took[i]))
        return out


def span_cost():
    """Seconds one span adds, measured as a wrapped no-op call against a
    plain one; multiplied by the span count it estimates tracing overhead."""
    def noop():
        return None

    samples = 20000
    tr = Tracer(True)
    wrapped = tr._wrap(noop, "noop")
    best = None
    for _ in range(3):
        tr.spans.clear()
        t0 = time.perf_counter()
        for _ in range(samples):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(samples):
            noop()
        t2 = time.perf_counter()
        cost = ((t1 - t0) - (t2 - t1)) / samples
        best = cost if best is None else min(best, cost)
    return max(best, 0.0)
