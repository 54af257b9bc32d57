"""In-memory spans around calls into revgraph's public functions.

The tracer replaces a public function with a timing wrapper in every loaded
``revgraph`` module that holds a reference to it, so calls made from inside
the package (``synthesis`` calling ``graph.block_samples``, say) are
recorded too.  Only public names are wrapped: private helpers may change
without touching the benchmark.

A span's self time is its duration minus the time its child spans cover.
Several functions may share one span name (the single-frequency transfer
API, say); a call made while a span of that name is innermost is folded
into it, so nested entry points count once.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class Tracer:
    """Spans and counters recorded while wrappers are installed."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _stack: list[Span] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body; the caller's span is its parent."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, len(self.spans), parent and parent.span_id, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += span.end - span.start

    def wrap(self, func, name: str, count=None):
        """Return ``func`` recording a span ``name`` per outermost call.

        ``count(args, kwargs, result)`` returns counter increments, keyed by
        counter name, for each completed call.
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if self._stack and self._stack[-1].name == name:
                return func(*args, **kwargs)
            with self.span(name):
                result = func(*args, **kwargs)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counters[key] += value
            return result

        return traced

    def install(self, module, attr: str, name: str, count=None) -> None:
        """Wrap ``module.attr`` wherever a loaded ``revgraph`` module refers to it."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "revgraph":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_s(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def total_s(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)
