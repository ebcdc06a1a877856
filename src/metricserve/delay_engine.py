"""Residual-delay-triggered online service runs.

Each pending request carries an investment counter; its residual delay
at time t is the accrued delay minus the counter, floored at zero.  A
level becomes critical when the total residual of requests with adjusted
level at most that level reaches ``2**level``; the run loop fires a
service at the earliest such crossing, at the maximum critical level.

A service at level L (= critical level + 3):

1. collects triggers (adjusted level <= L - 3, positive residual) and is
   primary when every trigger's plain level sits below L - 4;
2. for a primary service, searches for a relocation center whose
   ``2**(L-8)`` ball holds more than ``2**(L-4)`` of the triggers'
   residual (most residual wins, ties to the lowest node id);
3. zeroes the residual of every eligible request (adjusted level <= L)
   by raising counters to the current delay;
4. forwards time: finds the first moment the prize-collecting tree over
   the eligible set, with penalties equal to the delay growth past the
   counters, costs at least ``6 * 2**L``, unless the tree solved at the
   probe horizon proves that no moment does;
   serves the tree's side of that solution by a depth-first tour, and
   pays the penalty side by raising counters to the forwarded delay;
5. upgrades unserved eligible requests to level L + 1 and finally moves
   to the relocation center when one was found.

When the prize-collecting cost never reaches the budget (all penalties
eventually huge, yet connecting everything stays cheap) the forwarding
time is infinite and the solution at the probe horizon serves every
eligible request, so nothing is left to invest in.

Between releases, breakpoints, and counter crossings every total
residual is linear in time, so crossings are solved exactly.  The
forwarding-time search first solves the probe horizon.  When that
solution serves every eligible point and twice its tree cost is below
the budget (less a rounding margin), the forwarding time is certified
infinite and nothing else is solved.  Otherwise it scans breakpoints and
bisects inside the first crossing segment.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields
from itertools import compress

import numpy as np

from . import config
from .engine import EngineCore, requests_doc
from .instance import DelayRequest, Instance
from .levels import BOTTOM, clamp_bottom, level_le
from .metric import MetricSpace
from .metric import build_metric  # noqa: F401  perfbench/selftest.py checks this binding
from .metric import complete_graph_on  # noqa: F401  perfbench/selftest.py checks this binding
from .steiner import PcstSolution, certificate_margin, pcst_approx
from .walks import expand_hops, tree_dfs_nodes, walk_cost

__all__ = [
    "CriticalEvent",
    "DelayServiceRecord",
    "DelayTrace",
    "DelayEngine",
    "NumericRangeError",
    "run_delay",
]


class NumericRangeError(ArithmeticError):
    """The instance's numbers lie outside the range the engine resolves:
    a threshold crossing found in linear time does not hold once the
    residuals are summed again, because its values dwarf the ``EPS_VAL``
    tolerance or overflow."""


@dataclass(frozen=True)
class CriticalEvent:
    time: float
    level: int


@dataclass(frozen=True)
class DelayServiceRecord:
    service_id: int
    time: float
    level: int
    start_position: int
    trigger_ids: tuple[int, ...]
    primary: bool
    relocation_target: int | None
    eligible_ids: tuple[int, ...]
    served_ids: tuple[int, ...]
    forwarding_time: float
    reset_increment: float
    invest_increment: float
    counter_increments: dict[int, float]
    trigger_residuals: dict[int, float]
    eligible_ctr_before: dict[int, float]
    walk: tuple[int, ...]
    movement_cost: float
    cost: float
    end_position: int

    def to_doc(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}  # no deep copy, unlike asdict
        del doc["trigger_residuals"], doc["eligible_ctr_before"]  # for the charge report only
        # null marks a service whose prize-collecting cost never reaches
        # the budget (it serves every eligible request)
        if not math.isfinite(self.forwarding_time):
            doc["forwarding_time"] = None
        doc["counter_increments"] = {str(k): v for k, v in sorted(self.counter_increments.items())}
        return doc


@dataclass(frozen=True)
class DelayTrace:
    mode: str
    services: tuple[DelayServiceRecord, ...]
    service_time: dict[int, float]
    serving_service: dict[int, int]
    movement_cost: float
    delay_cost: float
    total_cost: float
    counters: dict[int, float]
    final_position: int
    horizon_exhausted: bool
    pending_ids: tuple[int, ...]

    def to_json(self) -> str:
        doc = {
            "mode": self.mode,
            "movement_cost": self.movement_cost,
            "delay_cost": self.delay_cost,
            "total_cost": self.total_cost,
            "final_position": self.final_position,
            "horizon_exhausted": self.horizon_exhausted,
            "pending_ids": list(self.pending_ids),
            "counters": {str(k): v for k, v in sorted(self.counters.items())},
            "services": [s.to_doc() for s in self.services],
            "requests": requests_doc(self.service_time, self.serving_service),
        }
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"


class DelayEngine(EngineCore):
    def __init__(self, m: MetricSpace, start: int, request_regime: bool = False):
        super().__init__(m, start, request_regime)
        self.counters: dict[int, float] = {}

    def reveal(self, q: DelayRequest) -> None:
        super().reveal(q)
        self.counters[q.id] = 0.0

    def residual(self, qid: int, t: float) -> float:
        y = self.requests[qid].delay.value(t)
        return max(y - self.counters[qid], 0.0)

    def clamped_alevel(self, qid: int) -> int:
        return clamp_bottom(self.adjusted_level_of(qid), self.level_floor)

    def total_residual(self, level: int, t: float) -> float:
        return math.fsum(
            self.residual(qid, t)
            for qid in self.pending
            if self.clamped_alevel(qid) <= level
        )

    def max_critical_level(self, t: float) -> int | None:
        """Largest level whose total residual has reached its threshold."""
        if not self.pending:
            return None
        shares = [(self.clamped_alevel(qid), self.residual(qid, t)) for qid in self.pending]
        total = math.fsum(r for _, r in shares)
        if total <= config.EPS_VAL:
            return None
        cap = max(max(lv for lv, _ in shares), math.ceil(math.log2(total)) + 1)
        for level in range(cap, self.level_floor - 1, -1):
            # the same sum as total_residual(level, t)
            if math.fsum(r for lv, r in shares if lv <= level) >= 2.0**level - config.EPS_VAL:
                return level
        return None

    # -- critical-event search ------------------------------------------------

    def next_critical_event(self, from_t: float, until: float) -> CriticalEvent | None:
        """Earliest crossing of some level's threshold in (from_t, until].

        ``until`` may be ``math.inf``; the tail past the last breakpoint is
        handled analytically (all delay slopes are constant there).
        Only currently pending requests participate; the runner advances
        segment by segment between releases.
        """
        if not self.pending:
            return None
        cuts: set[float] = set()
        for qid in self.pending:
            fn = self.requests[qid].delay
            for bp_t, _ in fn.breakpoints:
                if from_t < bp_t < until:
                    cuts.add(bp_t)
            tc = fn.first_time_at_least(self.counters[qid])
            if from_t < tc < until:
                cuts.add(tc)
        boundaries = sorted(cuts) + [until]
        s0 = from_t
        for s1 in boundaries:
            t_star = self._segment_crossing(s0, s1)
            if t_star is not None:
                level = self.max_critical_level(t_star)
                if level is None:
                    raise NumericRangeError(
                        f"the threshold crossing at t={t_star!r} is not critical once summed"
                    )
                return CriticalEvent(time=t_star, level=level)
            s0 = s1
            if s0 >= until:
                break
        return None

    def _segment_crossing(self, s0: float, s1: float) -> float | None:
        """Earliest threshold crossing inside [s0, s1]; residuals are linear."""
        per_level: dict[int, tuple[float, float]] = {}
        for qid in self.pending:
            fn = self.requests[qid].delay
            y0 = fn.value(s0)
            ctr = self.counters[qid]
            if y0 >= ctr - config.EPS_VAL:
                val = max(y0 - ctr, 0.0)
                slope = fn.slope_at(s0)
            else:
                val, slope = 0.0, 0.0
            lv = self.clamped_alevel(qid)
            v, s = per_level.get(lv, (0.0, 0.0))
            per_level[lv] = (v + val, s + slope)
        best: float | None = None
        acc_v, acc_s = 0.0, 0.0
        for lv in sorted(per_level):
            dv, ds = per_level[lv]
            acc_v += dv
            acc_s += ds
            threshold = 2.0**lv
            if acc_v >= threshold - config.EPS_VAL:
                cand = s0
            elif acc_s > 0:
                cand = s0 + (threshold - acc_v) / acc_s
            else:
                continue
            if cand <= s1 + config.EPS_TIME and (best is None or cand < best):
                best = cand
        return best

    # -- the service ----------------------------------------------------------

    def upon_critical(self, critical_level: int, t: float) -> DelayServiceRecord:
        if self.max_critical_level(t) is None:
            raise RuntimeError("scheduler bug: no level is critical now")
        service_level = critical_level + 3
        a = self.position
        budget = 6.0 * 2.0**service_level

        triggers = sorted(
            qid
            for qid in self.pending
            if self.clamped_alevel(qid) <= critical_level
            and self.residual(qid, t) > config.EPS_VAL
        )
        assert triggers, "a critical level implies positive residual below it"
        trigger_residuals = {qid: self.residual(qid, t) for qid in triggers}
        primary = all(
            self.levels[qid] is BOTTOM or self.levels[qid] < service_level - 4
            for qid in triggers
        )

        space = self.space()
        pts = space.points
        relocation = None
        if primary:
            ball_r = 2.0 ** (service_level - 8)
            need = 2.0 ** (service_level - 4)
            # Candidates closer than the relocation lower bound are excluded
            # up front.  Above the clamped levels the residual bound around
            # the server makes such candidates unable to qualify anyway; at
            # clamped levels the floor rule would otherwise admit zero-length
            # relocations.
            min_dist = 2.0 ** (service_level - 5) - 2.0 ** (service_level - 8)
            trigger_points = [self.requests[qid].point for qid in triggers]
            shares = [trigger_residuals[qid] for qid in triggers]
            far = self.m.dist[a, pts] >= min_dist - config.EPS_GEO
            near = self.m.dist[np.ix_(pts, trigger_points)] <= ball_r + config.EPS_GEO
            best_mass = need
            # a ball holding no trigger has mass 0.0, below need
            for i in np.flatnonzero(far & near.any(axis=1)):
                mass = math.fsum(compress(shares, near[i]))
                if mass > best_mass + config.EPS_VAL:
                    best_mass = mass
                    relocation = pts[i]

        eligible = sorted(
            qid for qid in self.pending if level_le(self.adjusted_level_of(qid), service_level)
        )
        eligible_ctr_before = {qid: self.counters[qid] for qid in eligible}
        counter_increments: dict[int, float] = {}
        reset_increment = 0.0
        for qid in eligible:
            inc = max(0.0, self.requests[qid].delay.value(t) - self.counters[qid])
            if inc > 0:
                self.counters[qid] += inc
                counter_increments[qid] = counter_increments.get(qid, 0.0) + inc
                reset_increment += inc

        tau, solution = self._forwarding_time(space, eligible, a, budget, t)
        served_points = {pts[i] for i in solution.served}
        served = [qid for qid in eligible if self.requests[qid].point in served_points]

        invest_increment = 0.0
        for qid in eligible:
            if qid in served:
                continue
            assert math.isfinite(tau), "an infinite forwarding time serves everything"
            inc = max(0.0, self.requests[qid].delay.value(tau) - self.counters[qid])
            if inc > 0:
                self.counters[qid] += inc
                counter_increments[qid] = counter_increments.get(qid, 0.0) + inc
                invest_increment += inc
            self.upgrade(qid, service_level + 1)

        tour = tree_dfs_nodes([(pts[u], pts[v]) for u, v in solution.tree_edges], a)
        hops = list(tour)
        if relocation is not None:
            hops.append(relocation)
        walk = expand_hops(self.m, hops)
        movement = walk_cost(self.m, walk)

        sid = self.serve(served, t)
        if relocation is not None:
            self.move_to(relocation)

        record = DelayServiceRecord(
            service_id=sid,
            time=t,
            level=service_level,
            start_position=a,
            trigger_ids=tuple(triggers),
            primary=primary,
            relocation_target=relocation,
            eligible_ids=tuple(eligible),
            served_ids=tuple(sorted(served)),
            forwarding_time=tau,
            reset_increment=reset_increment,
            invest_increment=invest_increment,
            counter_increments=counter_increments,
            trigger_residuals=trigger_residuals,
            eligible_ctr_before=eligible_ctr_before,
            walk=tuple(walk),
            movement_cost=movement,
            cost=movement + reset_increment + invest_increment,
            end_position=self.position,
        )
        self.records.append(record)
        return record

    # -- internals ------------------------------------------------------------

    def _forwarding_time(
        self, space: MetricSpace, eligible: list[int], root: int, budget: float, t: float
    ):
        """First t' >= t at which the prize-collecting cost reaches the budget.

        Returns (tau, solution), the solution in the node ids of ``space``;
        ``tau`` is ``inf`` when no crossing exists, in which case the
        solution serves all eligible points.

        Certificate.  The search solves the probe horizon ``t_big`` first,
        into ``final``.  When ``final`` serves every eligible point, its tree
        connects them all to the root, so it is a zero-penalty solution at
        every t' and OPT(t') <= ``final.tree_cost``.  The rooted moat growth
        of ``pcst_approx`` raises a dual y that is feasible for the
        prize-collecting LP, so sum(y) <= OPT(t'), and the Goemans-Williamson
        argument (1995) gives a pruned tree of the root's forest component
        costing at most 2 * sum(y) plus the penalty the duals leave unpaid.
        Strong pruning (Johnson-Minkoff-Phillips 2000) picks the best rooted
        subtree of that component, so it is no worse up to its keep rule.
        The margin ``certificate_margin(len(by_node), space.n, budget)``
        covers the three ways the code departs from the exact argument:

        - a component is active only while its surplus exceeds ``EPS_VAL``,
          so each maximal inactive set not containing the root may leave up
          to ``EPS_VAL`` of its penalty unpaid; these sets are disjoint and
          each holds a terminal, so at most ``len(by_node) * EPS_VAL``;
        - strong pruning keeps a subtree only when its benefit exceeds the
          edge by more than ``EPS_VAL``, so by induction over the tree it
          loses at most ``EPS_VAL`` per forest edge, ``(space.n - 1) *
          EPS_VAL`` in all;
        - float rounding, in the moat depths, in the surpluses (one runs
          out only where the duals paid it, and they sum to at most
          OPT(t')), in the ``1e-15`` event tie rule and in the final sums,
          is relative to quantities below the budget and far under ``1e-9``
          of it; the spare ``2 * EPS_VAL`` absorbs absolute rounding at
          small scales.

        So every probe costs at most ``2 * final.tree_cost + margin``, and
        when that is below ``budget - EPS_VAL`` no probe can reach the
        budget: the scan below would solve every probe, find no crossing and
        end at ``evaluate(t_big)``.  The certified search returns that
        solution at once, so its result is the same.  A larger margin only
        certifies fewer searches, which then take the scan; ``evaluate`` is
        cached, so the scan does not solve ``t_big`` again.
        """
        by_node: dict[int, list[int]] = {}
        for qid in eligible:
            by_node.setdefault(space.index[self.requests[qid].point], []).append(qid)
        root = space.index[root]

        @functools.cache  # the closing calls below repeat a probe
        def evaluate(t_prime: float) -> PcstSolution:
            penalties = {
                node: math.fsum(
                    max(0.0, self.requests[qid].delay.value(t_prime) - self.counters[qid])
                    for qid in qids
                )
                for node, qids in by_node.items()
            }
            return pcst_approx(space, set(by_node), penalties, root)

        if not eligible:
            return t, evaluate(t)

        w_total = space.total_weight()
        t_big = max(
            self.requests[qid].delay.first_time_at_least(
                self.counters[qid] + budget + 3.0 * w_total + 1.0
            )
            for qid in eligible
        )
        t_big = max(t_big, t)
        final = evaluate(t_big)
        serves_all = set(by_node) <= final.served
        probes: list[float] = []  # none when the certificate holds
        margin = certificate_margin(len(by_node), space.n, budget)
        if not serves_all or 2.0 * final.tree_cost >= budget - config.EPS_VAL - margin:
            cuts = {
                bp_t
                for qid in eligible
                for bp_t, _ in self.requests[qid].delay.breakpoints
                if t < bp_t < t_big
            }
            for qid in eligible:
                # counters invested past the current delay kink the penalty there
                tc = self.requests[qid].delay.first_time_at_least(self.counters[qid])
                if t < tc < t_big:
                    cuts.add(tc)
            probes = [t, *sorted(cuts), t_big]
        lo = t
        for hi in probes:
            if evaluate(hi).total_cost >= budget - config.EPS_VAL:
                break
            lo = hi
        else:
            assert serves_all, "past the probe horizon an unserved terminal forces a crossing"
            return math.inf, final
        while hi - lo > config.EPS_TIME:
            mid = 0.5 * (lo + hi)
            if evaluate(mid).total_cost >= budget - config.EPS_VAL:
                hi = mid
            else:
                lo = mid
        return hi, evaluate(hi)


def run_delay(
    inst: Instance, request_regime: bool = False, horizon: float | None = None
) -> DelayTrace:
    """Alternate crossing detection and services until everything is served.

    With a finite ``horizon`` the run may stop early and flag
    ``horizon_exhausted`` with the still-pending ids; with the default
    unbounded horizon positive final slopes guarantee completion.
    """
    if inst.mode != "delay":
        raise ValueError("run_delay needs a delay-mode instance")
    m = inst.metric
    engine = DelayEngine(m, inst.server_start, request_regime=request_regime)
    limit = math.inf if horizon is None else horizon
    releases = sorted(inst.requests, key=lambda q: (q.release, q.id))
    idx = 0
    t = -math.inf
    guard = 200 * (len(inst.requests) + 1)
    exhausted = False
    while True:
        guard -= 1
        if guard < 0:
            raise RuntimeError("service cascade failed to terminate")
        while True:
            guard -= 1
            if guard < 0:
                raise RuntimeError("service cascade failed to terminate")
            level = engine.max_critical_level(t) if t > -math.inf else None
            if level is None:
                break
            engine.upon_critical(level, t)
        next_release = releases[idx].release if idx < len(releases) else math.inf
        until = min(next_release, limit)
        event = engine.next_critical_event(t, until) if engine.pending else None
        if event is not None and event.time < next_release - config.EPS_TIME:
            t = event.time
            engine.upon_critical(event.level, t)
            continue
        if next_release <= limit and idx < len(releases):
            # releases first at equal timestamps; a tied crossing fires as a
            # cascade right after the reveal
            t = next_release
            while idx < len(releases) and releases[idx].release <= t + config.EPS_TIME:
                engine.reveal(releases[idx])
                idx += 1
            continue
        if event is not None and event.time <= limit + config.EPS_TIME:
            t = event.time
            engine.upon_critical(event.level, t)
            continue
        if engine.pending or idx < len(releases):
            exhausted = True
        break
    movement = math.fsum(r.movement_cost for r in engine.records)
    counter_total = math.fsum(
        r.reset_increment + r.invest_increment for r in engine.records
    )
    delay_cost = math.fsum(
        engine.requests[qid].delay.value(st) for qid, st in engine.service_time.items()
    )
    pending_ids = tuple(
        sorted(set(engine.pending) | {q.id for q in releases[idx:]})
    )
    assert counter_total >= 0
    return DelayTrace(
        mode="delay",
        services=tuple(engine.records),
        service_time=dict(engine.service_time),
        serving_service=dict(engine.serving_service),
        movement_cost=movement,
        delay_cost=delay_cost,
        total_cost=movement + delay_cost,
        counters=dict(engine.counters),
        final_position=engine.position,
        horizon_exhausted=exhausted,
        pending_ids=pending_ids,
    )
