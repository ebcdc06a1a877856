"""Deadline-triggered online service runs.

A run is a chronological event loop over request releases and deadlines.
When a still-pending request's deadline arrives the engine performs an
instantaneous service: it fixes the service level three above the
trigger's adjusted level, gathers eligible requests (adjusted level at
most the service level), grows a Steiner tree over them in increasing
deadline order until the tree cost reaches the budget ``4 * 2**level``,
tours the final tree depth-first, upgrades the unserved eligible
requests one level above the service, and relocates to the trigger if
the service was primary (adjusted level dictated by distance).

Each growth step hands the previous step's tree to ``steiner_approx`` as
``grow_from``, so a step only adds the new terminal's closure edges to
the carried closure MST; the trees, and so the traces, are exactly those
of solving every step from scratch (see ``steiner``).  Shortest-path
expansions are memoised on the metric and live as long as it does.

The walk rule fixes what the tour leaves open: start -> trigger, DFS of
the tree from the trigger with children by ascending node id, back to
the trigger, back to the start, then the optional relocation hop.

Under the request regime the Steiner trees are grown in the metric
closure over released points (revealed request points plus the start),
so tree hops join released points only; the closure is rebuilt only when
a reveal adds a point.

The engine object only ever sees requests that have been revealed to it;
the runner feeds releases in time order, so decisions cannot depend on
the future.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import config
from .instance import DeadlineRequest, Instance, distinct_deadlines_normalize
from .levels import BOTTOM, Level, adjusted_level, clamp_bottom, floor_log2, level_le
from .metric import MetricSpace, build_metric, complete_graph_on
from .steiner import steiner_approx
from .walks import expand_hops, tree_dfs_nodes, walk_cost

__all__ = ["ServiceRecord", "DeadlineTrace", "DeadlineEngine", "run_deadline", "min_level"]


def min_level(m: MetricSpace) -> int:
    """Floor for bottom levels entering arithmetic: floor(log2 d_min) - 1."""
    return floor_log2(m.d_min) - 1


@dataclass(frozen=True)
class ServiceRecord:
    service_id: int
    time: float
    level: int
    start_position: int
    trigger_id: int
    primary: bool
    eligible_ids: tuple[int, ...]
    served_ids: tuple[int, ...]
    forwarding_time: float
    walk: tuple[int, ...]
    cost: float
    end_position: int

    def to_doc(self) -> dict:
        return {
            "service_id": self.service_id,
            "time": self.time,
            "level": self.level,
            "start_position": self.start_position,
            "trigger_id": self.trigger_id,
            "primary": self.primary,
            "eligible_ids": list(self.eligible_ids),
            "served_ids": list(self.served_ids),
            "forwarding_time": self.forwarding_time,
            "walk": list(self.walk),
            "cost": self.cost,
            "end_position": self.end_position,
        }


@dataclass(frozen=True)
class DeadlineTrace:
    mode: str
    services: tuple[ServiceRecord, ...]
    service_time: dict[int, float]
    serving_service: dict[int, int]
    total_cost: float
    final_position: int

    def to_json(self) -> str:
        doc = {
            "mode": self.mode,
            "total_cost": self.total_cost,
            "final_position": self.final_position,
            "services": [s.to_doc() for s in self.services],
            "requests": {
                str(qid): {
                    "service_time": self.service_time[qid],
                    "serving_service": self.serving_service[qid],
                }
                for qid in sorted(self.service_time)
            },
        }
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"


class DeadlineEngine:
    """Online state: revealed pending requests, their levels, the server."""

    def __init__(self, m: MetricSpace, start: int, request_regime: bool = False):
        self.m = m
        self.position = start
        self.request_regime = request_regime
        self.released = {start}  # points of revealed requests, plus the start
        self._space: MetricSpace | None = None
        self.level_floor = min_level(m)
        self.levels: dict[int, Level] = {}
        self.requests: dict[int, DeadlineRequest] = {}
        self.pending: set[int] = set()
        self.records: list[ServiceRecord] = []
        self.service_time: dict[int, float] = {}
        self.serving_service: dict[int, int] = {}

    # -- online interface ---------------------------------------------------

    def reveal(self, q: DeadlineRequest) -> None:
        self.requests[q.id] = q
        self.levels[q.id] = BOTTOM
        self.pending.add(q.id)
        if q.point not in self.released:
            self.released.add(q.point)
            self._space = None

    def adjusted_level_of(self, qid: int) -> Level:
        q = self.requests[qid]
        return adjusted_level(self.levels[qid], self.m.distance(self.position, q.point))

    def upon_deadline(self, qid: int) -> ServiceRecord:
        if qid not in self.pending:
            raise RuntimeError(f"scheduler bug: deadline fired for non-pending {qid}")
        trigger = self.requests[qid]
        t = trigger.deadline
        a = self.position
        alevel = self.adjusted_level_of(qid)
        primary = alevel != self.levels[qid]
        service_level = clamp_bottom(alevel, self.level_floor) + 3
        budget = 4.0 * 2.0**service_level

        eligible = [
            rid for rid in self.pending if level_le(self.adjusted_level_of(rid), service_level)
        ]
        eligible.sort(key=lambda rid: (self.requests[rid].deadline, rid))
        assert eligible and eligible[0] == qid

        space = self.space()
        chosen: list[int] = []
        terminals: set[int] = set()
        tree = None
        for rid in eligible:
            chosen.append(rid)
            terminals.add(space.index[self.requests[rid].point])
            tree = steiner_approx(space, terminals, grow_from=tree)
            if tree.cost >= budget - config.EPS_VAL:
                break

        pts = space.points
        tour = tree_dfs_nodes([(pts[u], pts[v]) for u, v in tree.tree_edges], trigger.point)
        hops = [a] + tour + [a]
        if primary:
            hops.append(trigger.point)
        walk = expand_hops(self.m, hops)
        cost = walk_cost(self.m, walk)

        sid = len(self.records)
        for rid in chosen:
            self.pending.discard(rid)
            self.service_time[rid] = t
            self.serving_service[rid] = sid
        for rid in eligible:
            if rid not in chosen:
                self.levels[rid] = service_level + 1
        self.position = trigger.point if primary else a

        record = ServiceRecord(
            service_id=sid,
            time=t,
            level=service_level,
            start_position=a,
            trigger_id=qid,
            primary=primary,
            eligible_ids=tuple(sorted(eligible)),
            served_ids=tuple(sorted(chosen)),
            forwarding_time=max(self.requests[r].deadline for r in chosen),
            walk=tuple(walk),
            cost=cost,
            end_position=self.position,
        )
        self.records.append(record)
        return record

    def space(self) -> MetricSpace:
        """The metric the Steiner trees are grown in: the graph metric, or
        under the request regime the closure over released points, built
        once per released set."""
        if self._space is None:
            self._space = (
                complete_graph_on(self.m, self.released) if self.request_regime else self.m
            )
        return self._space


def run_deadline(inst: Instance, request_regime: bool = False) -> DeadlineTrace:
    """Run the full event loop; every request is served by its deadline."""
    if inst.mode != "deadline":
        raise ValueError("run_deadline needs a deadline-mode instance")
    inst = distinct_deadlines_normalize(inst)
    m = build_metric(inst.graph)
    engine = DeadlineEngine(m, inst.server_start, request_regime=request_regime)
    events: list[tuple[float, int, int]] = []
    for q in inst.requests:
        events.append((q.release, 0, q.id))
        events.append((q.deadline, 1, q.id))
    events.sort()
    by_id = {q.id: q for q in inst.requests}
    for _, kind, qid in events:
        if kind == 0:
            engine.reveal(by_id[qid])
        elif qid in engine.pending:
            engine.upon_deadline(qid)
    assert not engine.pending
    total = math.fsum(r.cost for r in engine.records)
    return DeadlineTrace(
        mode="deadline",
        services=tuple(engine.records),
        service_time=dict(engine.service_time),
        serving_service=dict(engine.serving_service),
        total_cost=total,
        final_position=engine.position,
    )
