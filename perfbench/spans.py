"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: a wrapper replaces a
module attribute that callers look up at call time (for example
``qapga.ga.order_crossover_two_point``, the name ``evolve_step`` calls), so
nothing under ``src/`` changes.  Each span keeps its name, start, end and
parent span; they live in flat arrays until ``save`` writes them out.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [NO_PARENT]

    def _wrapper(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
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

        return wrapper

    @contextmanager
    def wrapped(self, targets):
        """Wrap each (module, attribute, span name) for the duration of the block."""
        saved = []
        try:
            for module, attr, name in targets:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrapper(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _arrays(self):
        # copies: a live view would stop the arrays from growing
        return (
            np.array(self.name_id, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def _ids(self, name: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n == name]

    def indices(self, name: str) -> np.ndarray:
        """Positions of every span recorded under `name`."""
        name_id = self._arrays()[0]
        return np.flatnonzero(np.isin(name_id, self._ids(name)))

    def count(self, name: str) -> int:
        return int(self.indices(name).size)

    def durations(self, name: str) -> np.ndarray:
        _, _, start, end = self._arrays()
        idx = self.indices(name)
        return end[idx] - start[idx]

    def child_time(self, name: str, child: str | None = None) -> np.ndarray:
        """Per span of `name`: seconds covered by its direct children.

        Children of one span run one after another, so their durations add
        up to the part of the parent's interval they cover.
        """
        name_id, parent, start, end = self._arrays()
        covered = np.zeros(len(start))
        kids = parent != NO_PARENT
        if child is not None:
            kids &= np.isin(name_id, self._ids(child))
        np.add.at(covered, parent[kids], (end - start)[kids])
        return covered[self.indices(name)]

    def self_times(self, name: str) -> np.ndarray:
        return self.durations(name) - self.child_time(name)

    def save(self, path) -> None:
        name_id, parent, start, end = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_id, parent=parent,
            start=start, end=end,
        )


@contextmanager
def capture_results(module, attr: str, sink: list):
    """Append every return value of module.attr to `sink` while active."""
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def tapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, attr, tapped)
    try:
        yield sink
    finally:
        setattr(module, attr, fn)
