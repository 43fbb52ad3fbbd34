"""Spans recorded from the benchmark around calls into each defectwalk layer.

Tracing patches the layer-boundary functions with wrappers that record
``(span id, parent id, task id, name, start, end)`` in memory; nothing is
written until the benchmark ends.  The program itself carries no trace
code, so an untraced run executes exactly the code users run.

Self time is attributed by a sweep over each task's spans: every instant of
the task is split evenly among the innermost spans open at that instant.
On one thread this is the usual "duration minus children"; under the
``region`` thread pool, where spans of two threads overlap while they take
turns on the interpreter lock, it keeps the per-layer self times summing to
the task's wall time instead of counting the overlap twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# (module name, attribute) -> layer.  The span name is "<module>.<attribute>".
# Only layer boundaries are wrapped: helpers called once per site or per
# grid node (index_of, zeta_point, ...) would cost more to trace than to run.
TARGETS = {
    ("cli", "main"): "cli",
    ("cli", "build_parser"): "cli",
    ("cmv", "build_transition"): "cmv.build",
    ("cmv", "return_probability_series"): "cmv.evolve",
    ("cmv", "moments_at_origin"): "cmv.evolve",
    ("cmv", "evolve"): "cmv.evolve",
    ("cmv.BandedUnitary", "step"): "cmv.evolve",
    ("line", "classify"): "line",
    ("line", "return_probability_limit"): "line",
    ("line", "imaginary_a_limit"): "line",
    ("line", "nonlocalized_qubit"): "line",
    ("line", "atom_weight"): "line",
    ("halfline", "mass_points"): "halfline",
    ("halfline", "mass_point_count"): "halfline",
    ("halfline", "classify_region"): "halfline",
    ("halfline", "return_probability_cesaro"): "halfline",
    ("halfline", "return_asymptotics"): "halfline",
    ("halfline", "nonlocalized_qubit"): "halfline",
    ("halfline", "atom_weight"): "halfline",
    ("schur", "weight_halfline"): "schur",
    ("schur", "weight_line"): "schur",
    ("schur", "support_arcs"): "schur",
    ("schur", "arc_nodes"): "schur",
    ("oracles", "moment_by_quadrature"): "oracles",
    ("oracles", "walk_moment_prediction"): "oracles",
    ("oracles", "simulated_moments"): "oracles",
    ("oracles", "wiener_prediction"): "oracles",
    ("oracles", "wiener_average"): "oracles",
    ("oracles", "brute_force_return"): "oracles",
}

LAYERS = ("bench", "cli", "cmv.build", "cmv.evolve", "line", "halfline", "schur", "oracles")

TASK = "bench.task"


@dataclass(frozen=True, slots=True)
class Span:
    sid: int
    parent: int
    task: int
    name: str
    start: float
    end: float


class Tracer:
    """In-memory span recorder; one per traced round."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._task = 0
        self._task_stack: list[int] = []  # span stack of the thread running the task

    @contextmanager
    def task(self):
        """Root span of one benchmark operation; yields its task id."""
        sid = next(self._ids)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        self._task, self._task_stack = sid, stack
        stack.append(sid)
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            stack.pop()
            self._task, self._task_stack = 0, []
            self.spans.append(Span(sid, 0, sid, TASK, start, end))

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call, as a child of the innermost
        open span of its thread.  A call on a pool thread has no span open on
        its own thread; its parent is the innermost span of the task's thread."""
        local, spans, ids = self._local, self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            task = self._task
            if not task:  # the benchmark's own checks run between tasks
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            outer = self._task_stack
            parent = stack[-1] if stack else (outer[-1] if outer else 0)
            sid = next(ids)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(Span(sid, parent, task, name, start, end))

        return traced


def _owner(package, dotted: str):
    module, _, cls = dotted.partition(".")
    obj = importlib.import_module(f"{package.__name__}.{module}")
    return getattr(obj, cls) if cls else obj


@contextmanager
def patched(tracer: Tracer, package):
    """Route every module-level reference to a target through a tracing wrapper.

    Modules that imported a target by name (``from .cmv import ...``) hold
    their own reference, so each one found in the package is replaced too.
    Everything is restored on exit.
    """
    modules = [package] + [
        importlib.import_module(f"{package.__name__}.{m}")
        for m in ("cli", "cmv", "coins", "halfline", "line", "oracles", "schur")
    ]
    saved = []
    try:
        for (owner_name, attr), _layer in TARGETS.items():
            owner = _owner(package, owner_name)
            original = vars(owner)[attr]
            wrapper = tracer.wrap(f"{owner_name.split('.')[0]}.{attr}", original)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        saved.append((holder, key, value))
                        setattr(holder, key, wrapper)
        yield tracer
    finally:
        for holder, key, value in reversed(saved):
            setattr(holder, key, value)


LAYER_OF = {f"{owner.split('.')[0]}.{attr}": layer for (owner, attr), layer in TARGETS.items()}
LAYER_OF[TASK] = "bench"


def attribute(spans: list[Span]) -> dict[int, float]:
    """Self time of each span of one task, by the even-split sweep."""
    parent = {s.sid: s.parent for s in spans}
    events = sorted(
        [(s.start, 1, s.sid) for s in spans] + [(s.end, 0, s.sid) for s in spans]
    )
    open_children: dict[int, int] = defaultdict(int)
    is_open: set[int] = set()
    leaves: set[int] = set()
    own: dict[int, float] = defaultdict(float)
    last = events[0][0] if events else 0.0
    for t, opening, sid in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        last = t
        p = parent[sid]
        if opening:
            is_open.add(sid)
            leaves.add(sid)
            if p in is_open:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open.discard(sid)
            leaves.discard(sid)
            if p in is_open:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return own


@dataclass
class TaskProfile:
    """Attributed times of one traced task."""

    wall: float  # root span duration
    layer_self: dict[str, float]  # layer -> self seconds
    calls: dict[str, list[tuple[float, float]]]  # span name -> [(self, inclusive)]


def profile_tasks(spans: list[Span]) -> dict[int, TaskProfile]:
    by_task: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_task[s.task].append(s)
    out = {}
    for task, group in by_task.items():
        own = attribute(group)
        root = next(s for s in group if s.sid == task)
        layer_self: dict[str, float] = defaultdict(float)
        calls: dict[str, list[tuple[float, float]]] = defaultdict(list)
        for s in group:
            layer_self[LAYER_OF[s.name]] += own.get(s.sid, 0.0)
            calls[s.name].append((own.get(s.sid, 0.0), s.end - s.start))
        out[task] = TaskProfile(root.end - root.start, dict(layer_self), dict(calls))
    return out
