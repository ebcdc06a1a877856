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

Most services never reach the budget, and a certificate proves it with
one Steiner call: the tree of any prefix costs at most twice the
optimum over the prefix (Kou, Markowsky and Berman 1981), which is at
most twice the tree over every eligible request.  When that bound plus
a rounding margin (``steiner.certificate_margin``) stays under the
budget, the service serves every eligible request along the tree over
all of them, which is what the growth loop would have ended with.
Otherwise each growth step hands the previous step's tree to
``steiner_approx`` as ``grow_from``, so a step only adds the new
terminal's closure edges to the carried closure MST; the trees, and so
the traces, are exactly those of solving every step from scratch (see
``steiner``).  Shortest-path expansions are memoised on the metric and
live as long as it does.

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
from .metric import build_metric  # noqa: F401  perfbench/selftest.py checks this binding
from .metric import complete_graph_on  # noqa: F401  perfbench/selftest.py checks this binding
from .steiner import certificate_margin, steiner_approx
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
        """Serve the deadline of pending request ``qid``.

        Certificate.  Let ``full`` be ``steiner_approx`` over the points of
        every eligible request, and P any prefix of them in deadline
        order.  The growth loop's tree over P is the batch tree over P
        (see ``steiner``): the metric-closure MST over P, each edge
        expanded into a shortest path, the union deduplicated by Kruskal
        and leaf-pruned.  The closure MST costs at most 2 * OPT(P) (Kou,
        Markowsky and Berman 1981), OPT(P) <= OPT(eligible) since a tree
        over all of them spans P, and OPT(eligible) <= ``full.cost``.  The
        margin ``certificate_margin(len(eligible), space.n, budget)``
        covers the three ways the code departs from that argument:

        - ``MetricSpace._walk`` accepts a hop when it is within
          ``EPS`` of the remaining distance; the bound telescopes,
          and the last hop lands on ``d(v, v) = 0``, so an expanded path
          exceeds its closure edge by at most ``EPS``, and the at
          most ``len(eligible) - 1`` closure edges add at most
          ``(len(eligible) - 1) * EPS`` over the closure MST;
        - deduplication and leaf pruning only remove weight;
        - float rounding, in the distances and in the summed costs, is
          relative to quantities below the budget and far under ``1e-9``
          of it.

        So every prefix tree costs at most ``2 * full.cost + margin``, and
        when that is below ``budget - EPS`` no prefix stops the loop:
        it would serve every eligible request along the tree over all of
        them, which is ``full``.  The certified service takes that result
        directly; otherwise the loop runs.  A larger margin only certifies
        fewer services, which then grow the tree.
        """
        if qid not in self.pending:
            raise RuntimeError(f"scheduler bug: deadline fired for non-pending {qid}")
        trigger = self.requests[qid]
        t = trigger.deadline
        a = self.position
        primary = self.adjusted_level_of(qid) != self.levels[qid]
        service_level = self.clamped_alevel(qid) + 3
        budget = 4.0 * 2.0**service_level

        eligible = self.eligible(service_level)
        eligible.sort(key=lambda rid: (self.requests[rid].deadline, rid))
        assert eligible and eligible[0] == qid

        space = self.space()
        chosen = eligible
        tree = steiner_approx(space, {space.index[self.requests[rid].point] for rid in eligible})
        margin = certificate_margin(len(eligible), space.n, budget)
        if 2.0 * tree.cost >= budget - config.EPS - margin:
            chosen = []
            terminals: set[int] = set()
            tree = None
            for rid in eligible:
                chosen.append(rid)
                terminals.add(space.index[self.requests[rid].point])
                tree = steiner_approx(space, terminals, grow_from=tree)
                if tree.cost >= budget - config.EPS:
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
                self.upgrade(rid, service_level + 1)
        self.move_to(trigger.point if primary else a)

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
    engine = DeadlineEngine(inst.metric, inst.server_start, request_regime=request_regime)
    requests = distinct_deadlines_normalize(inst)
    events: list[tuple[float, int, int]] = []
    for q in requests:
        events.append((q.release, 0, q.id))
        events.append((q.deadline, 1, q.id))
    events.sort()
    by_id = {q.id: q for q in requests}
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
