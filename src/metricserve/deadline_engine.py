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
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from . import config
from .engine import EngineCore, requests_doc
from .instance import Instance, distinct_deadlines_normalize
from .levels import clamp_bottom, level_le
from .metric import build_metric  # noqa: F401  perfbench/selftest.py checks this binding
from .metric import complete_graph_on  # noqa: F401  perfbench/selftest.py checks this binding
from .steiner import steiner_approx
from .walks import expand_hops, tree_dfs_nodes, walk_cost

__all__ = ["ServiceRecord", "DeadlineTrace", "DeadlineEngine", "run_deadline"]


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
        return asdict(self)


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
            "requests": requests_doc(self.service_time, self.serving_service),
        }
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"


class DeadlineEngine(EngineCore):
    """Deadline-mode online state; ``upon_deadline`` performs a service."""

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

        sid = self.serve(chosen, t)
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


def run_deadline(inst: Instance, request_regime: bool = False) -> DeadlineTrace:
    """Run the full event loop; every request is served by its deadline."""
    if inst.mode != "deadline":
        raise ValueError("run_deadline needs a deadline-mode instance")
    m = inst.metric  # read first: the normalised copy would build its own
    inst = distinct_deadlines_normalize(inst)
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
