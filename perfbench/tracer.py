"""In-memory span tracer that wraps kneserlab's public functions from outside.

The tracer never edits the package: it replaces the module attributes,
class attributes and dict entries that callers look names up in with
wrappers that record a span (name, start, end, parent) and a call count.
Because every module that did ``from .graphs import build`` holds its own
binding, ``patch_function`` rebinds every module attribute that is the
original object, not only the defining module's.  Timed runs never
install the wrappers.

Self time is a span's duration minus the durations of its direct child
spans; with one thread the spans nest, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []  # (setter, restore value)

    # ------------------------------------------------------------ spans

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own code."""
        idx, parent = self._open()
        start = self.clock()
        try:
            yield
        finally:
            self._close(idx, parent, name, start)

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, start: float):
        end = self.clock()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent)
        self.calls[name] += 1

    def wrap(self, name: str, fn, measure=None):
        """A wrapper around fn that records a span; measure(counters, args,
        result) may add counts after a call returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = tracer._open()
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, parent, name, start)
            if measure is not None:
                measure(tracer.counters, args, result)
            return result

        return traced

    # --------------------------------------------------------- patching

    def patch_function(self, module, attr: str, name: str, measure=None):
        """Wrap module.attr and rebind every module-level alias of it, so
        callers that imported the name (``from .graphs import build``) see
        the wrapper too."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, measure)
        for mod in list(sys.modules.values()):
            if mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, measure=None):
        self._set(cls, attr, self.wrap(name, getattr(cls, attr), measure))

    def patch_dict(self, table: dict, key, name: str, measure=None):
        original = table[key]
        table[key] = self.wrap(name, original, measure)
        self._patches.append((lambda v, t=table, k=key: t.__setitem__(k, v),
                              original))

    def _set(self, owner, attr: str, value):
        original = getattr(owner, attr)
        setattr(owner, attr, value)
        self._patches.append(
            (lambda v, o=owner, a=attr: setattr(o, a, v), original)
        )

    def uninstall(self):
        """Restore every patched binding, most recent first."""
        while self._patches:
            setter, original = self._patches.pop()
            setter(original)

    # -------------------------------------------------------- summaries

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return dict(out)

    def inclusive_times(self) -> dict[str, float]:
        """Total duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _parent in self.spans:
            out[name] += end - start
        return dict(out)

    def dump(self) -> dict:
        """Spans relative to the first span's start, for writing out."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [name, round(start - t0, 9), round(end - t0, 9), parent]
                for name, start, end, parent in self.spans
            ],
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }

