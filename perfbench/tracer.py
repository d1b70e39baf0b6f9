"""Per-layer spans recorded from outside the program.

``Tracer.installed`` wraps named functions and methods of already imported
modules, runs the block, and puts every original back. A function imported
by name into several modules (``from .exact_linalg import snf``) has one
binding per module; all of them are replaced, so a call through any binding
is recorded. Targets that do not exist are skipped, so the tracer keeps
working when the program drops a function.

Each span adds to its name's call count and self time: the span's duration
minus the time covered by the spans it caused. Counting wrappers only count
calls, for hot methods where a span would cost more than the work.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.maxima: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._covered: list[list[float]] = []  # per open span: time covered by children

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.maxima.clear()
        self.counts.clear()

    def span(self, name: str, fn: Callable, measure: Callable | None = None) -> Callable:
        """Wrap fn in a span; measure(tracer, args, result) runs untimed afterwards."""
        clock, covered = self.clock, self._covered

        def wrapper(*args, **kwargs):
            mine = [0.0]
            covered.append(mine)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                covered.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - mine[0]
                if covered:
                    covered[-1][0] += duration
            if measure is not None:
                start = clock()
                measure(self, args, result)
                if covered:  # the measurement is nobody's self time
                    covered[-1][0] += clock() - start
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Count calls of a binary method such as ``__eq__``."""
        counts = self.counts

        def wrapper(this, other):  # a fixed signature halves the cost on hot methods
            counts[name] += 1
            return fn(this, other)

        return wrapper

    @contextmanager
    def installed(self, modules: Iterable[object], spans: Iterable[tuple],
                  counters: Iterable[tuple] = ()):
        """Patch the targets in every module of ``modules`` for the block.

        ``spans`` holds (module, "name" or "Class.method", span name, measure);
        ``counters`` holds (module, "Class.method", counter name).
        """
        modules = list(modules)
        patches: list[tuple[object, str, object]] = []
        try:
            for module, attr, name, measure in spans:
                self._patch(modules, module, attr,
                            lambda fn, n=name, m=measure: self.span(n, fn, m), patches)
            for module, attr, name in counters:
                self._patch(modules, module, attr,
                            lambda fn, n=name: self.counter(n, fn), patches)
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    @staticmethod
    def _patch(modules, module, attr, make, patches) -> None:
        owner_name, _, key = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None:
            return
        original = vars(owner).get(key) if isinstance(owner, type) else getattr(owner, key, None)
        if original is None:
            return
        wrapper = make(original)
        owners = [owner] if isinstance(owner, type) else [owner, *modules]
        for holder in owners:
            for bound_key, value in list(vars(holder).items()):
                if value is original:
                    patches.append((holder, bound_key, original))
                    setattr(holder, bound_key, wrapper)
