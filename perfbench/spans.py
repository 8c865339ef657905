"""In-memory span recorder and the wrappers that feed it.

A span is one call of a wrapped function: its name, start, end, parent
span and run id.  Spans are appended to flat arrays while the program
runs and are written out once, at the end.  Counters (integrand points,
scanned windows, ...) are kept next to the spans under their full metric
names.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from typing import Callable, Iterable

import numpy as np

NO_PARENT = -1


class Tracer:
    """Span and counter store for one traced process (one run id)."""

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        # 1 when no enclosing span has the same name, so that total time
        # of a function that re-enters itself is not counted twice
        self.outer = array("b")
        self._stack: list[int] = []
        self._active: dict[int, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str, now: float) -> int:
        nid = self._name_id(name)
        idx = len(self.start)
        self.name.append(nid)
        self.start.append(now)
        self.end.append(now)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.outer.append(self._active[nid] == 0)
        self._active[nid] += 1
        self._stack.append(idx)
        return idx

    def finish(self, idx: int, now: float) -> None:
        self.end[idx] = now
        self._active[self.name[idx]] -= 1
        self._stack.pop()

    def inside(self, name: str) -> bool:
        """True while a span of this name is open."""
        nid = self._name_ids.get(name)
        return nid is not None and self._active[nid] > 0

    def count(self, metric: str, amount: int = 1) -> None:
        self.counts[metric] += int(amount)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
            "run": np.full(len(self.start), self.run_id, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans from one thread nest and do not overlap, so the covered part
    of a parent is the sum of its children's durations.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    dur = end - start
    has_parent = parent != NO_PARENT
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered


def per_name(tracer: Tracer) -> dict[str, tuple[int, float, float]]:
    """calls, total seconds and self seconds for every span name."""
    arr = tracer.arrays()
    n = len(arr["names"])
    dur = arr["end"] - arr["start"]
    own = self_times(arr["start"], arr["end"], arr["parent"])
    calls = np.bincount(arr["name"], minlength=n)
    total = np.bincount(arr["name"], weights=dur * arr["outer"], minlength=n)
    selfs = np.bincount(arr["name"], weights=own, minlength=n)
    return {name: (int(calls[i]), float(total[i]), float(selfs[i]))
            for i, name in enumerate(arr["names"])}


def traced(fn: Callable, name: str, tracer: Tracer, clock: Callable[[], float],
           around: Callable | None = None,
           key: Callable | None = None) -> Callable:
    """``fn`` wrapped in a span named ``name`` (or ``name.<key(args)>``).

    ``around(tracer, fn, *args, **kwargs)``, when given, makes the call
    itself, so it can wrap arguments or read the result into counters.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = name if key is None else f"{name}.{key(*args, **kwargs)}"
        idx = tracer.begin(span, clock())
        try:
            if around is None:
                return fn(*args, **kwargs)
            return around(tracer, fn, *args, **kwargs)
        finally:
            tracer.finish(idx, clock())

    return wrapper


Patch = tuple[object, str, object]


def patch_everywhere(original: Callable, replacement: Callable,
                     namespaces: Iterable[object]) -> list[Patch]:
    """Rebind every attribute that is ``original`` in the given modules.

    Modules that imported a function by name hold their own reference to
    it, so each of them has to be patched.
    """
    patches = []
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, attr, replacement)
                patches.append((ns, attr, original))
    return patches


def patch_attribute(owner: object, attr: str, replacement) -> list[Patch]:
    original = owner.__dict__[attr]
    setattr(owner, attr, replacement)
    return [(owner, attr, original)]


def restore(patches: list[Patch]) -> None:
    """Undo patches in reverse order, putting every original back."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
