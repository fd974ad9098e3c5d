"""Span recorder that wraps slhnet's public functions from the outside.

Each wrapped function records one span per call: name, start, end, parent
span and job id, plus a size count taken at the boundary (bytes parsed,
channels eliminated, matrix entries built, grid points swept).  Spans stay
in memory until the run ends.

A wrapper must replace the function in every namespace where a caller
looks it up, not only where it is defined: ``cli`` imports ``parse``,
``serialize``, ``feedback_reduce``, ``freq_response`` and friends by name,
``netfile`` imports ``concatenate``, ``network.redheffer_star`` calls the
module global ``feedback_reduce``, ``transfer.freq_response`` calls the
module global ``eval_transfer``, and ``matkit.solve`` is looked up as an
attribute of ``matkit``.  :meth:`Recorder.installed` therefore rebinds
every attribute of every loaded ``slhnet`` module that is the original
function, and restores them all on exit, so untraced calls run the
unmodified code.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass


def _points(result) -> tuple[int, int]:
    """(grid points, singular points) of a freq_response result."""
    return len(result), sum(1 for p in result if getattr(p, "singular", False))


def _entries(comp) -> int:
    return comp.S.size + comp.C.size + comp.Omega.size


# (module, function, size counter) for every traced public function.  The
# counter maps (args, kwargs, result) to a dict of integer counts.
TRACED = [
    ("cli", "main", None),
    ("netfile", "parse", lambda a, k, r: {"bytes": len(a[0])}),
    ("netfile", "build_partitioned", lambda a, k, r: {"entries": _entries(r.comp)}),
    ("netfile", "serialize", lambda a, k, r: {"bytes": len(r)}),
    ("slh", "concatenate", lambda a, k, r: {"entries": _entries(r)}),
    ("network", "feedback_reduce", lambda a, k, r: {"channels": len(a[0].internal_out)}),
    ("network", "series_product", None),
    ("network", "redheffer_star", None),
    ("network", "beamsplitter_loop", None),
    ("network", "mobius", None),
    ("transfer", "eval_transfer", None),
    ("transfer", "freq_response",
     lambda a, k, r: dict(zip(("points", "singular"), _points(r)))),
    ("transfer", "commuting_form", None),
    ("matkit", "solve", None),
    ("stratcal", "strat_to_ito", None),
    ("stratcal", "ito_to_strat", None),
]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    counts: dict | None


class Recorder:
    """Collects spans for the job set in :attr:`job`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, 0.0, 0.0, parent, self.job, None)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every lookup site of the traced functions for the duration."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "slhnet" or key.startswith("slhnet.")]
        wrappers = {}
        for owner, fname, counter in TRACED:
            original = getattr(sys.modules[f"slhnet.{owner}"], fname)
            wrappers[id(original)] = self.wrap(f"{owner}.{fname}", original, counter)
        restore = []
        try:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None and wrapper.__wrapped__ is value:
                        setattr(mod, attr, wrapper)
                        restore.append((mod, attr, value))
            yield self
        finally:
            for mod, attr, value in restore:
                setattr(mod, attr, value)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "job": s.job,
                                     "counts": s.counts}) + "\n")


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self time and summed counts.

    Self time is a span's duration minus the durations of its direct
    children; calls are strictly nested, so children never overlap.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start
    totals: dict[str, dict[str, float]] = {}
    for s in spans:
        t = totals.setdefault(s.name, {"calls": 0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += (s.end - s.start) - child_time.get(s.id, 0.0)
        for key, value in (s.counts or {}).items():
            t[key] = t.get(key, 0) + value
    return totals


def nested_counts(spans: list[Span], outer: str, inner: str, key: str) -> int:
    """Sum of ``key`` over ``inner`` spans that run inside an ``outer`` span."""
    by_id = {s.id: s for s in spans}
    total = 0
    for s in spans:
        if s.name != inner or not s.counts:
            continue
        p = s.parent
        while p is not None and by_id[p].name != outer:
            p = by_id[p].parent
        if p is not None:
            total += s.counts.get(key, 0)
    return total
