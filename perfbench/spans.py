"""Span recording for the traced run, installed from outside the program.

:func:`install` wraps each layer's public function at its call sites:
every ``repro`` module attribute that *is* the original function (the
defining module, re-exports and private aliases alike) is rebound to a
wrapper that records one span per call.  Nothing inside ``repro`` is
edited; an untraced server never imports this module.

A span is ``(id, name, start, end, parent, request, attrs)``.  The
benchmark's client is a closed loop, so at most one wire request is in
the server at a time: the wire dispatch wrapper marks it current, and a
span opened on a pool thread with no enclosing span takes the request's
root span as its parent.  Spans stay in memory until :meth:`Recorder.dump`.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: PhaseCounters fields read off a first-phase result.
FIRST_PHASE_COUNTS = (
    "raises", "mis_rounds", "steps", "satisfaction_checks", "adjacency_touches",
)


class Recorder:
    """In-memory span store shared by every thread of the server."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.request = None
        self.root: Optional[int] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span; yields a dict the caller may fill with counts."""
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        request = self.request
        sid = next(self._ids)
        attrs: Dict[str, int] = {}
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (sid, name, start, end, parent, request, attrs)
                )

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, req, attrs in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "request": req, "attrs": attrs,
                }) + "\n")


def _rebind(original: Callable, wrapper: Callable) -> int:
    """Point every ``repro`` module attribute bound to *original* at
    *wrapper*; returns how many call sites were rebound."""
    n = 0
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                n += 1
    return n


def _wrap(rec: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _wrap_first_phase(rec: Recorder, fn: Callable) -> Callable:
    """The first phase, with its PhaseCounters work counts."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span("first_phase") as attrs:
            out = fn(*args, **kwargs)
            counters = out[3]
            attrs.update({k: getattr(counters, k) for k in FIRST_PHASE_COUNTS})
        return out
    return wrapper


def _wrap_admission(rec: Recorder, fn: Callable) -> Callable:
    """The second phase, with the fits-checks and admissions it added to
    the run's PhaseCounters."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counters = kwargs.get("counters")
        with rec.span("admission") as attrs:
            if counters is None:
                return fn(*args, **kwargs)
            checks, admitted = counters.admission_checks, counters.admitted
            out = fn(*args, **kwargs)
            attrs["checks"] = counters.admission_checks - checks
            attrs["admitted"] = counters.admitted - admitted
        return out
    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every traced layer.

    Must run after ``repro.service`` is imported (so every call site
    exists) and before the service is constructed.  Raises
    ``RuntimeError`` when a layer's function is bound nowhere, so a
    renamed layer fails the traced run instead of reading 0.
    """
    from repro.algorithms.auto import solve_auto
    from repro.algorithms.base import line_layouts, tree_layouts
    from repro.core.engines.admission import run_second_phase
    from repro.core.framework import run_first_phase
    from repro.service.async_front import AsyncSchedulingService
    from repro.service.cache import ResultCache, report_semantic_digest
    from repro.service.fingerprint import solve_fingerprint
    from repro.service.server import SchedulingService
    from repro.workloads.random_suite import build_workload
    from repro.workloads.trajectories import build_trajectory

    missing = []
    for name, fn, wrapper in (
        ("workloads.build", build_workload, None),
        ("workloads.build", build_trajectory, None),
        ("fingerprint.solve", solve_fingerprint, None),
        ("solve", solve_auto, None),
        ("trees.layout", tree_layouts, None),
        ("lines.layout", line_layouts, None),
        ("first_phase", run_first_phase, _wrap_first_phase(rec, run_first_phase)),
        ("admission", run_second_phase, _wrap_admission(rec, run_second_phase)),
        ("digest", report_semantic_digest, None),
    ):
        if not _rebind(fn, wrapper or _wrap(rec, name, fn)):
            missing.append(fn.__qualname__)
    if missing:
        raise RuntimeError(f"no call site of {', '.join(missing)} to trace")

    # The cache's digest hook is bound when the class is defined, so
    # its default argument is a call site of its own.
    init = ResultCache.__init__
    digest = _wrap(rec, "digest", report_semantic_digest)

    @functools.wraps(init)
    def cache_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.digest_fn is report_semantic_digest:
            self.digest_fn = digest
    ResultCache.__init__ = cache_init

    get_memory = ResultCache.get_memory

    @functools.wraps(get_memory)
    def probe(self, fingerprint):
        with rec.span("cache.probe") as attrs:
            value = get_memory(self, fingerprint)
            attrs["hit"] = int(value is not None)
        return value
    ResultCache.get_memory = probe

    SchedulingService._delta_solve = _wrap(
        rec, "delta.solve", SchedulingService._delta_solve
    )

    dispatch = AsyncSchedulingService._dispatch_wire

    @functools.wraps(dispatch)
    async def dispatch_wire(self, line, pusher=None):
        try:
            rec.request = json.loads(line).get("id")
        except (ValueError, AttributeError):
            rec.request = None
        with rec.span("wire.dispatch"):
            rec.root = rec._stack()[-1]
            try:
                return await dispatch(self, line, pusher)
            finally:
                rec.root = None
    AsyncSchedulingService._dispatch_wire = dispatch_wire


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
