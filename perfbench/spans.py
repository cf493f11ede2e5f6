"""Spans around the benchmark's calls into connsys, kept in memory until the run ends.

No file of connsys is changed: a span covers one call the benchmark makes into
a public function.  For command-line jobs the traced run also routes the
library functions that `connsys.cli` calls by name through spans, so those
nest under the `cli.main` span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict


class NullTracer:
    """The untraced run: calls go straight through."""

    traced = False
    job = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def wrapped(self, module, names: dict[str, str]):
        return contextlib.nullcontext()


class Tracer:
    """Records spans (name, start, end, parent, job id) and counts per phase."""

    traced = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.stack: list[int] = []
        self.job: str | None = None
        self.phase = "setup"

    def call(self, name, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        span = [name, time.perf_counter(), None, parent, self.job, self.phase]
        self.spans.append(span)
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[self.phase][name] += amount

    @contextlib.contextmanager
    def wrapped(self, module, names: dict[str, str]):
        """Temporarily route module.attr through a span, for each attr -> span name."""
        saved = {attr: getattr(module, attr) for attr in names}
        for attr, span in names.items():
            setattr(module, attr, functools.partial(self.call, span, saved[attr]))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per phase and span name: total duration minus the duration of child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job, _phase in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _parent, _job, phase) in enumerate(self.spans):
            out[phase][name] += (end - start) - child[i]
        return out

    def duration(self, name: str) -> float:
        """Total time of the spans called name, children included."""
        return sum(end - start for span_name, start, end, *_ in self.spans if span_name == name)

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "job", "phase")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)
