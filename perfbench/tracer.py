"""Out-of-program tracing: wrap the public functions of each metricserve layer.

The package imports by name (``from .steiner import steiner_approx``), so
patching only the defining module would miss every engine call.  A patch
therefore replaces *every* binding of the original object in every loaded
``metricserve`` module, and methods are replaced on their class.  Every
patch is undone when the ``installed`` context exits.

A spanned function records ``(span_id, name, start, end, parent_id,
instance_id)`` in memory and accumulates calls, inclusive time and self
time (inclusive time minus the time of its direct child spans; spans nest
because the program is single-threaded).  A counted function only bumps
its call count, for methods called too often for a span each.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (metric prefix, defining module, attribute path) of every spanned function
SPANNED = [
    ("metric.build_metric", "metricserve.metric", "build_metric"),
    ("metric.complete_graph_on", "metricserve.metric", "complete_graph_on"),
    ("metric.shortest_path_nodes", "metricserve.metric", "MetricSpace.shortest_path_nodes"),
    ("steiner.steiner_approx", "metricserve.steiner", "steiner_approx"),
    ("steiner.pcst_approx", "metricserve.steiner", "pcst_approx"),
    ("instance.generate", "metricserve.instance", "generate"),
    ("instance.parse_instance", "metricserve.instance", "parse_instance"),
    ("deadline_engine.run_deadline", "metricserve.deadline_engine", "run_deadline"),
    ("deadline_engine.upon_deadline", "metricserve.deadline_engine", "DeadlineEngine.upon_deadline"),
    ("delay_engine.run_delay", "metricserve.delay_engine", "run_delay"),
    ("delay_engine.upon_critical", "metricserve.delay_engine", "DelayEngine.upon_critical"),
    ("delay_engine.next_critical_event", "metricserve.delay_engine", "DelayEngine.next_critical_event"),
    ("delay_engine.max_critical_level", "metricserve.delay_engine", "DelayEngine.max_critical_level"),
    ("offline_oracle.opt_deadline", "metricserve.offline_oracle", "opt_deadline"),
    ("offline_oracle.opt_delay", "metricserve.offline_oracle", "opt_delay"),
    ("analysis.charge_report", "metricserve.analysis", "charge_report"),
    ("cli.main", "metricserve.cli", "main"),
]

# counted only: ~63k calls per delay-sparse pass
COUNTED = [
    ("instance.DelayFunction.value", "metricserve.instance", "DelayFunction.value"),
]

# the online service decisions, the only functions timed in untraced passes
DECISIONS = [
    t for t in SPANNED if t[0] in ("deadline_engine.upon_deadline", "delay_engine.upon_critical")
]

WRAPPED_MARK = "__perfbench_wrapped__"


def _resolve(module: str, path: str):
    """Return (owner, attribute name, original object) for ``module:path``."""
    owner = sys.modules[module]
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def _program_modules():
    return [
        (name, mod)
        for name, mod in list(sys.modules.items())
        if name == "metricserve" or name.startswith("metricserve.")
    ]


def _bindings(owner, attr: str, original) -> list[tuple[object, str]]:
    """Every place the original object is reachable from metricserve code."""
    if isinstance(owner, type):
        return [(owner, attr)]
    return [
        (mod, key)
        for _, mod in _program_modules()
        for key, value in list(vars(mod).items())
        if value is original
    ]


@contextmanager
def installed(targets, make_wrapper):
    """Replace every binding of each target with ``make_wrapper(name, fn)``."""
    undo: list[tuple[object, str, object]] = []
    try:
        for name, module, path in targets:
            owner, attr, original = _resolve(module, path)
            wrapper = make_wrapper(name, original)
            setattr(wrapper, WRAPPED_MARK, True)
            for where, key in _bindings(owner, attr, original):
                undo.append((where, key, original))
                setattr(where, key, wrapper)
        yield
    finally:
        for where, key, original in reversed(undo):
            setattr(where, key, original)


def leftover_wrappers() -> list[str]:
    """Names of metricserve bindings that still hold a wrapper."""
    left = []
    for name, mod in _program_modules():
        for key, value in vars(mod).items():
            if getattr(value, WRAPPED_MARK, False):
                left.append(f"{name}.{key}")
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    if getattr(member, WRAPPED_MARK, False):
                        left.append(f"{name}.{key}.{attr}")
    return left


class DecisionTimer:
    """Times each online service decision; nothing else is wrapped."""

    def __init__(self):
        self.samples: list[float] = []

    def _wrap(self, name, fn):
        samples = self.samples
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                samples.append(clock() - start)

        return timed

    def installed(self):
        return installed(DECISIONS, self._wrap)


class Tracer:
    """Spans and per-name aggregates for one traced phase at a time."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None, str | None]] = []
        self.instance: str | None = None
        self._stack: list[list] = []  # [span_id, child_time] per open span
        self._ids = itertools.count()
        self.reset()

    def reset(self) -> None:
        """Start a new traced phase: clear its spans and aggregates."""
        self.spans.clear()
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.checks = 0

    def _span(self, name, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = tracer._stack
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.incl[name] += duration
                tracer.self_time[name] += duration - frame[1]
                tracer.spans.append((span_id, name, start, end, parent, tracer.instance))
            if name == "analysis.charge_report":
                tracer.checks += len(result.checks)
            return result

        return spanned

    def _count(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        with installed(SPANNED, self._span), installed(COUNTED, self._count):
            yield
