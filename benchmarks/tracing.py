"""In-memory spans around calls into the program, and their self-time arithmetic.

A span is a list `[name_id, start, end, parent_index]`, with `parent_index`
-1 for a root. Spans are appended when a wrapped call starts and closed when
it returns, so the list stays in start order and every parent precedes its
children. Nothing here imports the program: the caller hands in the objects
to wrap.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Callable, Iterable, Optional


class Tracer:
    """Records one span per wrapped call, plus named counters."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """`fn` inside a span; `observe(result, args, kwargs)` runs after it returns."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [nid, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable, count: str) -> Callable:
        """A generator function whose every `next` is a span; yields add to `count`."""
        step = self.wrap(name, next)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                try:
                    item = step(items)
                except StopIteration:
                    return
                counters[count] += 1
                yield item

        return traced

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counters": dict(self.counters)}


def self_times(spans: list) -> list[float]:
    """For each span, its duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged first, so children
    that overlap each other are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append((end - start) - covered)
    return result


def aggregate(names: list[str], spans: list) -> dict[str, dict]:
    """Per span name: total seconds `s`, self seconds `self_s` and `calls`."""
    totals = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in names}
    for (nid, start, end, _), own in zip(spans, self_times(spans)):
        entry = totals[names[nid]]
        entry["s"] += end - start
        entry["self_s"] += own
        entry["calls"] += 1
    return totals


def replace_everywhere(original, replacement, modules: Iterable) -> int:
    """Rebind every module attribute that is `original` to `replacement`.

    A function imported by name (`from .autodiff import matmul`) lives on in
    each importing module, so patching the defining module alone misses
    those callers. Returns how many attributes were rebound.
    """
    rebound = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                rebound += 1
    return rebound


def leftovers(originals: Iterable, modules: Iterable) -> list[str]:
    """`module.attr` names that still hold one of `originals`."""
    wanted = {id(fn) for fn in originals}
    return [
        f"{module.__name__}.{attr}"
        for module in modules
        for attr, value in vars(module).items()
        if id(value) in wanted
    ]
