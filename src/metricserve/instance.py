"""Request and instance model, on-disk JSON format, seeded generators.

Delay functions are restricted to piecewise-linear, continuous,
nondecreasing curves with a strictly positive final slope.  The class is
dense in the continuous nondecreasing functions and makes every event
time in the delay engine the solution of a linear equation, so
criticality detection is exact rather than a numeric root search.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import random
import sys
from dataclasses import dataclass, field
from functools import cached_property

from . import config
from .metric import MetricSpace, WeightedGraph, build_metric

__all__ = [
    "DeadlineRequest",
    "DelayFunction",
    "DelayRequest",
    "Instance",
    "InstanceFormatError",
    "parse_instance",
    "serialize_instance",
    "generate",
    "distinct_deadlines_normalize",
]


class InstanceFormatError(ValueError):
    """Raised on schema or semantic violations in an instance document."""


# abs(x) <= _FLOAT_MAX is false for NaN, +-inf and ints too large for a float
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class DeadlineRequest:
    id: int
    point: int
    release: float
    deadline: float

    def __post_init__(self):
        if not (abs(self.release) <= _FLOAT_MAX and abs(self.deadline) <= _FLOAT_MAX):
            raise InstanceFormatError(f"request {self.id}: release and deadline must be finite")
        if self.deadline < self.release:
            raise InstanceFormatError(
                f"request {self.id}: deadline {self.deadline} precedes release {self.release}"
            )


@dataclass(frozen=True)
class DelayFunction:
    """Piecewise-linear nondecreasing delay, zero at release.

    ``breakpoints`` is the ordered list of (time, value) pairs starting at
    (release, 0); beyond the last breakpoint the curve continues with
    ``final_slope`` forever.
    """

    breakpoints: tuple[tuple[float, float], ...]
    final_slope: float
    _times: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.breakpoints:
            raise InstanceFormatError("delay function needs at least one breakpoint")
        values = (self.final_slope, *itertools.chain(*self.breakpoints))
        try:
            finite = all(map(math.isfinite, values))
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise InstanceFormatError("delay times, values and final slope must be finite")
        object.__setattr__(
            self,
            "breakpoints",
            tuple((float(t), float(y)) for t, y in self.breakpoints),
        )
        object.__setattr__(self, "_times", tuple(t for t, _ in self.breakpoints))
        if self.breakpoints[0][1] != 0.0:
            raise InstanceFormatError("delay must be zero at release")
        for (t0, y0), (t1, y1) in zip(self.breakpoints, self.breakpoints[1:]):
            if t1 <= t0:
                raise InstanceFormatError("delay breakpoint times must increase")
            if y1 < y0:
                raise InstanceFormatError("delay values must be nondecreasing")
        if self.final_slope <= 0:
            raise InstanceFormatError("final slope must be strictly positive")

    @property
    def release(self) -> float:
        return self.breakpoints[0][0]

    def value(self, t: float) -> float:
        """y(t); requires t >= release up to tolerance."""
        times = self._times
        if t < times[0] - config.EPS:
            raise ValueError(f"delay evaluated at {t} before release {times[0]}")
        t = max(t, times[0])
        i = bisect.bisect_right(times, t) - 1
        t0, y0 = self.breakpoints[i]
        if i == len(self.breakpoints) - 1:
            return y0 + self.final_slope * (t - t0)
        t1, y1 = self.breakpoints[i + 1]
        return y0 + (y1 - y0) * (t - t0) / (t1 - t0)

    def slope_at(self, t: float) -> float:
        """Right-derivative at t (constant between breakpoints)."""
        times = self._times
        t = max(t, times[0])
        i = bisect.bisect_right(times, t) - 1
        if i >= len(self.breakpoints) - 1:
            return self.final_slope
        t0, y0 = self.breakpoints[i]
        t1, y1 = self.breakpoints[i + 1]
        return (y1 - y0) / (t1 - t0)

    def first_time_at_least(self, c: float) -> float:
        """Earliest t with y(t) >= c; the inverse query used for counters."""
        if c <= 0:
            return self.release
        for (t0, y0), (t1, y1) in zip(self.breakpoints, self.breakpoints[1:]):
            if y1 >= c:
                if y1 == y0:
                    return t0
                return t0 + (c - y0) * (t1 - t0) / (y1 - y0)
        t0, y0 = self.breakpoints[-1]
        return t0 + (c - y0) / self.final_slope


@dataclass(frozen=True)
class DelayRequest:
    id: int
    point: int
    release: float
    delay: DelayFunction

    def __post_init__(self):
        if not abs(self.release) <= _FLOAT_MAX:
            raise InstanceFormatError(f"request {self.id}: release must be finite")
        if abs(self.delay.release - self.release) > config.EPS:
            raise InstanceFormatError(
                f"request {self.id}: delay curve starts at {self.delay.release}, "
                f"release is {self.release}"
            )


@dataclass(frozen=True)
class Instance:
    graph: WeightedGraph
    server_start: int
    mode: str  # "deadline" | "delay"
    requests: tuple

    def __post_init__(self):
        if self.mode not in ("deadline", "delay"):
            raise InstanceFormatError(f"unknown mode {self.mode!r}")
        if not (0 <= self.server_start < self.graph.node_count):
            raise InstanceFormatError("server_start out of node range")
        ids = [q.id for q in self.requests]
        if len(ids) != len(set(ids)):
            raise InstanceFormatError("request ids must be unique")
        want = DeadlineRequest if self.mode == "deadline" else DelayRequest
        for q in self.requests:
            if not isinstance(q, want):
                raise InstanceFormatError(
                    f"request {q.id} has wrong kind for mode {self.mode}"
                )
            if not (0 <= q.point < self.graph.node_count):
                raise InstanceFormatError(f"request {q.id} on invalid point {q.point}")

    @cached_property
    def metric(self) -> MetricSpace:
        """The graph's shortest-path metric, built on first use and shared
        by every engine, oracle and report that reads this instance."""
        return build_metric(self.graph)


# ---------------------------------------------------------------------------
# JSON document format
# ---------------------------------------------------------------------------


def _expect_keys(obj, required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{where} must be an object")
    keys = set(obj)
    if keys - required:
        raise InstanceFormatError(f"unknown fields in {where}: {sorted(keys - required)}")
    if required - keys:
        raise InstanceFormatError(f"missing fields in {where}: {sorted(required - keys)}")


def _list(x, where: str, length: int | None = None) -> list:
    if not isinstance(x, list) or (length is not None and len(x) != length):
        shape = "a list" if length is None else f"a list of {length}"
        raise InstanceFormatError(f"{where} must be {shape}, got {x!r:.40}")
    return x


def _number(x, where: str) -> float:
    """A finite JSON number; booleans are not numbers."""
    if type(x) is float:
        if math.isfinite(x):
            return x
    elif type(x) is int:
        try:
            return float(x)
        except OverflowError:
            pass
    raise InstanceFormatError(f"{where} must be a finite number, got {x!r:.40}")


def _integer(x, where: str) -> int:
    """A JSON integer, or a float with an integral value; not a boolean."""
    if type(x) is int:
        return x
    if type(x) is float and x.is_integer():
        return int(x)
    raise InstanceFormatError(f"{where} must be an integer, got {x!r:.40}")


def parse_instance(text: str) -> Instance:
    """Read an instance document; every defect raises InstanceFormatError.

    Numbers must be finite (an infinite deadline is rejected: a request
    is always forced by some finite time, and traces stay plain JSON);
    ids, points, the node count and edge endpoints must be integers.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError("top-level document must be an object")
    _expect_keys(doc, {"graph", "server_start", "mode", "requests"}, "document")
    gdoc = doc["graph"]
    _expect_keys(gdoc, {"nodes", "edges"}, "graph")
    edges = []
    for e in _list(gdoc["edges"], "graph edges"):
        u, v, w = _list(e, "an edge", 3)
        edges.append((_integer(u, "edge end"), _integer(v, "edge end"), _number(w, "edge weight")))
    nodes = _integer(gdoc["nodes"], "nodes")
    try:
        graph = WeightedGraph(node_count=nodes, edges=tuple(edges))
    except ValueError as exc:
        raise InstanceFormatError(f"bad graph: {exc}") from exc
    mode = doc["mode"]
    if mode not in ("deadline", "delay"):
        raise InstanceFormatError(f"unknown mode {mode!r:.40}")
    requests = []
    for rdoc in _list(doc["requests"], "requests"):
        if mode == "deadline":
            _expect_keys(rdoc, {"id", "point", "release", "deadline"}, "request")
            requests.append(
                DeadlineRequest(
                    id=_integer(rdoc["id"], "request id"),
                    point=_integer(rdoc["point"], "request point"),
                    release=_number(rdoc["release"], "release"),
                    deadline=_number(rdoc["deadline"], "deadline"),
                )
            )
        else:
            _expect_keys(rdoc, {"id", "point", "release", "delay"}, "request")
            ddoc = rdoc["delay"]
            _expect_keys(ddoc, {"breakpoints", "final_slope"}, "delay")
            breakpoints = []
            for bp in _list(ddoc["breakpoints"], "breakpoints"):
                t, y = _list(bp, "a breakpoint", 2)
                breakpoints.append((_number(t, "breakpoint time"), _number(y, "delay value")))
            fn = DelayFunction(
                breakpoints=tuple(breakpoints),
                final_slope=_number(ddoc["final_slope"], "final_slope"),
            )
            requests.append(
                DelayRequest(
                    id=_integer(rdoc["id"], "request id"),
                    point=_integer(rdoc["point"], "request point"),
                    release=_number(rdoc["release"], "release"),
                    delay=fn,
                )
            )
    return Instance(
        graph=graph,
        server_start=_integer(doc["server_start"], "server_start"),
        mode=mode,
        requests=tuple(requests),
    )


# one value per line, as json.dumps(doc, sort_keys=True, indent=1) writes them
_EDGE = "   [\n    %d,\n    %d,\n    %r\n   ]"
_BREAKPOINT = "     [\n      %r,\n      %r\n     ]"
_DEADLINE = '  {\n   "deadline": %r,\n   "id": %d,\n   "point": %d,\n   "release": %r\n  }'
_DELAY = (
    '  {\n   "delay": {\n    "breakpoints": %s,\n    "final_slope": %r\n   },'
    '\n   "id": %d,\n   "point": %d,\n   "release": %r\n  }'
)
_DOCUMENT = (
    '{\n "graph": {\n  "edges": %s,\n  "nodes": %d\n },\n "mode": "%s",'
    '\n "requests": %s,\n "server_start": %d\n}\n'
)


def _json_list(items: list[str], indent: str) -> str:
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def serialize_instance(inst: Instance) -> str:
    """The document ``parse_instance`` reads, as the text of
    ``json.dumps(doc, sort_keys=True, indent=1) + "\\n"``.

    Filled from fixed templates rather than by ``json``, whose indented
    output runs the pure-Python encoder.  Floats are written as ``%r``,
    json's own ``float.__repr__`` text, and ids, points and node counts
    as ``%d``: every path that builds an instance stores plain Python
    ints and finite floats.
    """
    if inst.mode == "deadline":
        requests = [_DEADLINE % (q.deadline, q.id, q.point, q.release) for q in inst.requests]
    else:
        requests = [
            _DELAY % (
                _json_list([_BREAKPOINT % bp for bp in q.delay.breakpoints], "    "),
                q.delay.final_slope, q.id, q.point, q.release,
            )
            for q in inst.requests
        ]
    edges = _json_list([_EDGE % e for e in inst.graph.edges], "  ")
    return _DOCUMENT % (
        edges, inst.graph.node_count, inst.mode, _json_list(requests, " "), inst.server_start
    )


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------


def _random_connected_graph(rng: random.Random, n: int, weight_range) -> WeightedGraph:
    lo, hi = weight_range
    edges = []
    used = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, rng.uniform(lo, hi)))
        used.add((u, v))
    extra = rng.randrange(max(1, n))
    while extra:
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u == v or key in used:
            extra -= 1
            continue
        used.add(key)
        edges.append((key[0], key[1], rng.uniform(lo, hi)))
        extra -= 1
    return WeightedGraph(node_count=n, edges=tuple(edges))


def _random_delay_function(rng: random.Random, release: float, horizon: float) -> DelayFunction:
    pts = [(release, 0.0)]
    t, y = release, 0.0
    for _ in range(rng.randrange(3)):
        t += rng.uniform(0.05, 0.3) * horizon
        y += rng.uniform(0.0, 5.0)
        pts.append((t, y))
    return DelayFunction(breakpoints=tuple(pts), final_slope=rng.uniform(0.2, 3.0))


def generate(
    seed: int,
    n_points: int,
    n_requests: int,
    mode: str,
    weight_range: tuple[float, float] = (1.0, 10.0),
    horizon: float = 100.0,
) -> Instance:
    """Deterministic-in-seed random instance on a connected graph."""
    if n_points <= 0 or n_requests < 0 or not 0 < horizon < math.inf:
        raise ValueError("generator parameters must be positive and finite")
    rng = random.Random(seed)
    graph = _random_connected_graph(rng, n_points, weight_range)
    start = rng.randrange(n_points)
    requests = []
    for i in range(n_requests):
        point = rng.randrange(n_points)
        release = rng.uniform(0.0, 0.6 * horizon)
        if mode == "deadline":
            deadline = release + rng.uniform(0.01, 0.4) * horizon
            requests.append(
                DeadlineRequest(id=i, point=point, release=release, deadline=deadline)
            )
        else:
            requests.append(
                DelayRequest(
                    id=i,
                    point=point,
                    release=release,
                    delay=_random_delay_function(rng, release, horizon),
                )
            )
    return Instance(graph=graph, server_start=start, mode=mode, requests=tuple(requests))


def certification_chain(n_far: int = 5, base_deadline: float = 10.0) -> Instance:
    """Star instance that forces an upgrade-and-certify chain.

    A unit-distance trigger leaf starts a level-3 service with tree budget
    32; each weight-8 far leaf adds 8 to the tree, so the budget trips
    after the fourth far leaf, the remaining ones are upgraded instead of
    served, and their own deadlines later fire non-primary services.
    Useful for exercising certified services at sizes the exact offline
    oracle can still handle.
    """
    if n_far < 5:
        raise ValueError("need at least five far leaves to trip the budget")
    edges = [(0, 1, 1.0)] + [(0, 2 + i, 8.0) for i in range(n_far)]
    graph = WeightedGraph(node_count=2 + n_far, edges=tuple(edges))
    requests = [DeadlineRequest(id=0, point=1, release=0.0, deadline=base_deadline)]
    for i in range(n_far):
        requests.append(
            DeadlineRequest(
                id=1 + i, point=2 + i, release=0.0, deadline=base_deadline + 1.0 + i
            )
        )
    return Instance(
        graph=graph, server_start=0, mode="deadline", requests=tuple(requests)
    )


def investment_star(n_leaves: int = 50) -> Instance:
    """Delay-mode star crowded enough to trip the prize-collecting budget.

    Every leaf weighs 4 and carries a unit-slope request from time zero,
    with the server at the hub.  The first criticality fires at the hub's
    distance level, and connecting every leaf costs more than the service
    budget, so the forwarding-time search finds a finite crossing: some
    requests are served, the rest receive counter investments and level
    upgrades, and later services certify earlier ones.  Exercises the code
    paths that sparse random instances rarely reach.
    """
    if n_leaves <= 12:
        raise ValueError("too few leaves to exceed the service budget")
    edges = tuple((0, 1 + i, 4.0) for i in range(n_leaves))
    graph = WeightedGraph(node_count=1 + n_leaves, edges=edges)
    requests = tuple(
        DelayRequest(
            id=i,
            point=1 + i,
            release=0.0,
            delay=DelayFunction(breakpoints=((0.0, 0.0),), final_slope=1.0),
        )
        for i in range(n_leaves)
    )
    return Instance(graph=graph, server_start=0, mode="delay", requests=requests)


def delay_certification_chain(far_slope: float = 0.5) -> Instance:
    """Delay-mode chain that certifies within the exact-oracle cap.

    A unit trigger leaf fires a level-3 service (budget 48).  Seven
    weight-8 leaves are eligible but their penalties cross the budget
    before any of them is worth connecting (7 penalties reach ~6.7 while
    an edge costs 8), so all seven are invested in and upgraded; their
    joint residual later fires a non-primary service that certifies the
    first one.
    """
    edges = [(0, 1, 1.0)] + [(0, 2 + i, 8.0) for i in range(7)]
    graph = WeightedGraph(node_count=9, edges=tuple(edges))
    requests = [
        DelayRequest(
            id=0,
            point=1,
            release=0.0,
            delay=DelayFunction(breakpoints=((0.0, 0.0),), final_slope=1.0),
        )
    ]
    for i in range(7):
        requests.append(
            DelayRequest(
                id=1 + i,
                point=2 + i,
                release=0.0,
                delay=DelayFunction(breakpoints=((0.0, 0.0),), final_slope=far_slope),
            )
        )
    return Instance(graph=graph, server_start=0, mode="delay", requests=tuple(requests))


def distinct_deadlines_normalize(inst: Instance) -> tuple[DeadlineRequest, ...]:
    """The requests with deadline ties broken by id order, offsets below eps/|Q|.

    Within a tied group the lower id keeps the original deadline and each
    subsequent member moves later by one offset step, so release <=
    deadline is preserved.  Without ties this is ``inst.requests`` itself.
    """
    if inst.mode != "deadline":
        raise ValueError("deadline normalization applies to deadline instances")
    if not inst.requests:
        return inst.requests
    step = config.EPS / (len(inst.requests) + 1)
    groups: dict[float, list[DeadlineRequest]] = {}
    for q in inst.requests:
        groups.setdefault(q.deadline, []).append(q)
    if all(len(g) == 1 for g in groups.values()):
        return inst.requests
    replaced = {}
    for deadline, group in groups.items():
        for k, q in enumerate(sorted(group, key=lambda r: r.id)):
            if k:
                replaced[q.id] = DeadlineRequest(
                    id=q.id, point=q.point, release=q.release, deadline=deadline + k * step
                )
    return tuple(replaced.get(q.id, q) for q in inst.requests)
