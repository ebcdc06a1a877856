"""State and bookkeeping shared by the deadline and delay engines.

Both follow one level discipline: a request is revealed at level bottom,
its adjusted level is ``max(level, ceil(log2 d(server, point)))``, and a
service at level L serves some of the requests ``eligible(L)`` returns
and upgrades the rest.  Each engine picks the served set and the tree;
``end_service`` does the rest and records a ``ServiceRecord``, which each
engine extends with its own fields.  Adjusted levels are memoised.  One
changes only when the server moves or the request's level is upgraded,
so both engines make those two writes through ``move_to`` and
``upgrade``, the only places the memo is cleared.

Under the request regime services build their trees (and the delay engine
picks relocation centers) in the metric closure over released points:
revealed request points plus the start.  So tree hops join released
points only; the closure is rebuilt only when a reveal adds a point.

An engine only ever sees requests revealed to it; the runners feed
releases in time order, so decisions cannot depend on the future.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .instance import DeadlineRequest, DelayRequest, write_doc
from .levels import BOTTOM, Level, adjusted_level, clamp_bottom, min_level
from .metric import MetricSpace, complete_graph_on
from .walks import expand_hops, tree_dfs_nodes, walk_cost

__all__ = ["EngineCore", "EngineTrace", "ServiceRecord"]


def _field_doc(obj) -> dict:
    """The fields of ``obj`` that a trace prints, in a shallow dict (no deep
    copy, unlike ``asdict``); dict fields get str keys, since json sorts
    int keys as numbers."""
    doc = {}
    for f in fields(obj):
        if f.metadata.get("traced", True):
            value = getattr(obj, f.name)
            if isinstance(value, dict):
                value = {str(k): v for k, v in value.items()}
            doc[f.name] = value
    return doc


@dataclass(frozen=True)
class ServiceRecord:
    """One service; each engine's record adds its own fields."""

    service_id: int
    time: float
    level: int
    start_position: int
    primary: bool
    eligible_ids: tuple[int, ...]
    served_ids: tuple[int, ...]
    forwarding_time: float
    walk: tuple[int, ...]
    cost: float
    end_position: int

    def to_doc(self) -> dict:
        doc = _field_doc(self)
        # null marks a delay service whose prize-collecting cost never
        # reaches the budget (it serves every eligible request)
        if not math.isfinite(self.forwarding_time):
            doc["forwarding_time"] = None
        return doc


@dataclass(frozen=True)
class EngineTrace:
    """What a run returns; the delay engine's trace adds its own fields."""

    mode: str
    services: tuple[ServiceRecord, ...]
    service_time: dict[int, float]
    serving_service: dict[int, int]
    total_cost: float
    final_position: int

    def to_json(self) -> str:
        doc = _field_doc(self)
        times, sids = doc.pop("service_time"), doc.pop("serving_service")
        doc["services"] = [s.to_doc() for s in self.services]
        doc["requests"] = {
            qid: {"service_time": t, "serving_service": sids[qid]} for qid, t in times.items()
        }
        return write_doc(doc)


class EngineCore:
    """Online state: revealed pending requests, their levels, the server."""

    def __init__(self, m: MetricSpace, start: int, request_regime: bool = False):
        self.m = m
        self.position = start
        self.request_regime = request_regime
        self.released = {start}  # points of revealed requests, plus the start
        self._space: MetricSpace | None = None
        self.level_floor = min_level(m)
        self.requests: dict[int, DeadlineRequest | DelayRequest] = {}
        self.levels: dict[int, Level] = {}
        self._alevels: dict[int, Level] = {}  # memo of adjusted_level_of
        self.pending: set[int] = set()
        self.records: list[ServiceRecord] = []
        self.service_time: dict[int, float] = {}
        self.serving_service: dict[int, int] = {}

    def reveal(self, q: DeadlineRequest | DelayRequest) -> None:
        self.requests[q.id] = q
        self.levels[q.id] = BOTTOM
        self.pending.add(q.id)
        if q.point not in self.released:
            self.released.add(q.point)
            self._space = None

    def adjusted_level_of(self, qid: int) -> Level:
        """``max(level, ceil(log2 d(server, point)))``, memoised until
        ``move_to`` or ``upgrade`` clears it."""
        alevel = self._alevels.get(qid)
        if alevel is None:  # a miss raises no exception: most are after a move
            q = self.requests[qid]
            alevel = adjusted_level(self.levels[qid], self.m.distance(self.position, q.point))
            self._alevels[qid] = alevel
        return alevel

    def clamped_alevel(self, qid: int) -> int:
        """The adjusted level with BOTTOM clamped to the metric floor."""
        return clamp_bottom(self.adjusted_level_of(qid), self.level_floor)

    def eligible(self, level: int) -> list[int]:
        """Pending requests whose adjusted level is at most ``level``."""
        return [qid for qid in self.pending if self.adjusted_level_of(qid) <= level]

    def move_to(self, point: int) -> None:
        """Move the server; every adjusted level may change."""
        if point != self.position:
            self.position = point
            self._alevels.clear()

    def upgrade(self, qid: int, level: Level) -> None:
        """Raise the level of ``qid``; only its adjusted level may change."""
        self.levels[qid] = level
        self._alevels.pop(qid, None)

    def space(self) -> MetricSpace:
        """The metric services build trees in: the graph metric, or under the
        request regime the closure over released points, built once per set."""
        if self._space is None:
            self._space = (
                complete_graph_on(self.m, self.released) if self.request_regime else self.m
            )
        return self._space

    def end_service(
        self, record_type: type[ServiceRecord], t: float, level: int, eligible, served,
        *, primary: bool, forwarding_time: float, tree_edges, root: int, tail, own,
    ) -> ServiceRecord:
        """End a service at ``level``: walk from the server through the
        depth-first tour from ``root`` of ``tree_edges`` (``space()`` node
        ids) and then ``tail``, serve ``served`` at ``t``, upgrade the rest of
        ``eligible`` to ``level + 1`` and move to the walk's end.  Record the
        shared fields and ``own(movement)``, the engine's fields (``cost``
        among them) given the walk's cost."""
        start = self.position
        pts = self.space().points
        tour = tree_dfs_nodes([(pts[u], pts[v]) for u, v in tree_edges], root)
        walk = expand_hops(self.m, [start, *tour, *tail])
        sid = len(self.records)
        for qid in served:
            self.pending.discard(qid)
            self.service_time[qid] = t
            self.serving_service[qid] = sid
        for qid in set(eligible).difference(served):
            self.upgrade(qid, level + 1)
        self.move_to(walk[-1])
        record = record_type(
            service_id=sid,
            time=t,
            level=level,
            start_position=start,
            primary=primary,
            eligible_ids=tuple(sorted(eligible)),
            served_ids=tuple(sorted(served)),
            forwarding_time=forwarding_time,
            walk=tuple(walk),
            end_position=self.position,
            **own(walk_cost(self.m, walk)),
        )
        self.records.append(record)
        return record

    def trace_fields(self) -> dict:
        """The fields of the run's ``EngineTrace`` read off the final state."""
        return {
            "services": tuple(self.records),
            "service_time": dict(self.service_time),
            "serving_service": dict(self.serving_service),
            "final_position": self.position,
        }
