"""Call tracing for the traced benchmark run, installed from outside the
library: each traced public function is re-bound, in every loaded
`heckeis` module that holds it, to a wrapper that records a span
(name, start, end, parent).

`upper_incomplete_gamma` is called millions of times per run, so it gets no
span of its own: each call adds one to a counter and its duration to the
span open around it (the parent span's covered time).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

# span record fields
NAME, START, END, PARENT, COUNTED = range(5)


def union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by a set of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """In-memory spans plus per-name counters; one instance per traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.peak_array_bytes = 0
        self._seen: Dict[str, dict] = defaultdict(dict)
        self._orders: Dict[complex, int] = defaultdict(int)
        self._patches: List[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, 0.0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = self.clock()
        self.stack.pop()

    def note_array(self, nbytes: int) -> None:
        if nbytes > self.peak_array_bytes:
            self.peak_array_bytes = nbytes

    def note_identity(self, name: str, obj) -> None:
        """Count a hit when `obj` is an object already returned under `name`
        (objects are held, so their ids stay unique)."""
        seen = self._seen[name]
        if id(obj) in seen:
            self.counts[name + ".hits"] += 1
        else:
            seen[id(obj)] = obj

    # -- wrappers ----------------------------------------------------------

    def spanned(self, name: str, fn: Callable, after: Callable = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def spanned_generator(self, name: str, fn: Callable,
                          per_item: Callable = None) -> Callable:
        """A span around each resume of the generator, so the consumer's
        work between items is not charged to it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    idx = self.open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    if per_item is not None:
                        per_item(item)
                    yield item
            finally:
                gen.close()
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Count and time each call without a span of its own; the time is
        credited to the enclosing span as covered by a child."""
        spans, stack, clock, orders = self.spans, self.stack, self.clock, self._orders
        counts, busy_key = self.counts, name + ".busy_s"

        @functools.wraps(fn)
        def wrapper(order, *args, **kwargs):
            t0 = clock()
            try:
                return fn(order, *args, **kwargs)
            finally:
                dt = clock() - t0
                if stack:
                    spans[stack[-1]][COUNTED] += dt
                orders[order] += 1
                counts[busy_key] += dt
        return wrapper

    def order_counts(self) -> Dict[complex, int]:
        return dict(self._orders)

    # -- installation ------------------------------------------------------

    def rebind(self, original, wrapped, package: str = "heckeis") -> int:
        """Replace `original` by `wrapped` wherever a loaded module of the
        package holds it under any name; returns the number of bindings."""
        n = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package
                                   or modname.startswith(package + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
                    n += 1
        return n

    def patch_method(self, cls, attr: str, wrapped) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def _has_ancestor_named(self, idx: int, name: str) -> bool:
        p = self.spans[idx][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy_s (time inside the outermost span of
        that name) and self_s (span time minus the time its child spans and
        counted calls cover)."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for sp in self.spans:
            if sp[PARENT] >= 0:
                children[sp[PARENT]].append((sp[START], sp[END]))
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for idx, sp in enumerate(self.spans):
            row = out[sp[NAME]]
            dur = sp[END] - sp[START]
            row["calls"] += 1
            row["self_s"] += dur - union_length(children[idx]) - sp[COUNTED]
            if not self._has_ancestor_named(idx, sp[NAME]):
                row["busy_s"] += dur
        return dict(out)
