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
import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from . import config
from .engine import EngineCore, EngineTrace, ServiceRecord
from .instance import DelayRequest, Instance
from .metric import MetricSpace, NumericRangeError
from .metric import build_metric  # noqa: F401  perfbench/selftest.py checks this binding
from .metric import complete_graph_on  # noqa: F401  perfbench/selftest.py checks this binding
from .steiner import PcstSolution, certificate_margin, pcst_approx

__all__ = [
    "CriticalEvent",
    "DelayServiceRecord",
    "DelayTrace",
    "DelayEngine",
    "run_delay",
]


@dataclass(frozen=True)
class CriticalEvent:
    time: float
    level: int


@dataclass(frozen=True)
class DelayServiceRecord(ServiceRecord):
    trigger_ids: tuple[int, ...]
    relocation_target: int | None
    reset_increment: float
    invest_increment: float
    counter_increments: dict[int, float]
    movement_cost: float
    # read only by the charge report, so no trace prints them
    trigger_residuals: dict[int, float] = field(metadata={"traced": False})
    eligible_ctr_before: dict[int, float] = field(metadata={"traced": False})


@dataclass(frozen=True)
class DelayTrace(EngineTrace):
    movement_cost: float
    delay_cost: float
    counters: dict[int, float]
    horizon_exhausted: bool
    pending_ids: tuple[int, ...]


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

    def max_critical_level(self, t: float) -> int | None:
        """Largest level whose total residual has reached its threshold.
        Raises ``NumericRangeError`` when that total is not finite."""
        shares = [(self.clamped_alevel(qid), self.residual(qid, t)) for qid in self.pending]
        total = math.fsum(r for _, r in shares)
        if total <= config.EPS:
            return None
        if not math.isfinite(total):
            raise NumericRangeError(f"the total residual at t={t!r} is {total}")
        cap = max(max(lv for lv, _ in shares), math.ceil(math.log2(total)) + 1)
        for level in range(cap, self.level_floor - 1, -1):
            if math.fsum(r for lv, r in shares if lv <= level) >= 2.0**level - config.EPS:
                return level
        return None

    # -- critical-event search ------------------------------------------------

    def next_critical_event(self, from_t: float, until: float) -> CriticalEvent | None:
        """Earliest moment in [from_t, until] at which some level is critical:
        ``from_t`` when ``max_critical_level(from_t)`` is a level, else the
        first crossing.  ``until`` may be ``math.inf``; the tail past the last
        breakpoint is handled analytically (all delay slopes are constant
        there).  Only pending requests take part; the runner calls this
        between releases.
        """
        if not self.pending:
            return None
        level = self.max_critical_level(from_t)
        if level is not None:
            return CriticalEvent(time=from_t, level=level)
        boundaries = sorted(self._kinks(self.pending, from_t, until)) + [until]
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
        return None

    def _segment_crossing(self, s0: float, s1: float) -> float | None:
        """Earliest threshold crossing inside [s0, s1]; residuals are linear."""
        per_level: dict[int, tuple[float, float]] = {}
        for qid in self.pending:
            fn = self.requests[qid].delay
            y0 = fn.value(s0)
            ctr = self.counters[qid]
            if y0 >= ctr - config.EPS:
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
            if acc_v >= threshold - config.EPS:
                cand = s0
            elif acc_s > 0:
                cand = s0 + (threshold - acc_v) / acc_s
            else:
                continue
            if cand <= s1 + config.EPS and (best is None or cand < best):
                best = cand
        return best

    # -- the service ----------------------------------------------------------

    def upon_critical(self, critical_level: int, t: float) -> DelayServiceRecord:
        """Serve at ``t``; the caller passes ``max_critical_level(t)``, which
        ``next_critical_event`` has just computed."""
        if critical_level is None:
            raise RuntimeError("scheduler bug: no level is critical now")
        service_level = critical_level + 3
        a = self.position
        budget = 6.0 * 2.0**service_level

        trigger_residuals = {
            qid: r
            for qid in sorted(self.pending)
            if self.clamped_alevel(qid) <= critical_level
            and (r := self.residual(qid, t)) > config.EPS
        }
        triggers = list(trigger_residuals)
        if not triggers:
            raise NumericRangeError(f"no trigger at t={t!r} for critical level {critical_level}")
        primary = all(self.levels[qid] < service_level - 4 for qid in triggers)

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
            far = self.m.dist[a, pts] >= min_dist - config.EPS
            near = self.m.dist[np.ix_(pts, trigger_points)] <= ball_r + config.EPS
            best_mass = need
            # a ball holding no trigger has mass 0.0, below need
            for i in np.flatnonzero(far & near.any(axis=1)):
                mass = math.fsum(compress(shares, near[i]))
                if mass > best_mass + config.EPS:
                    best_mass = mass
                    relocation = pts[i]

        eligible = sorted(self.eligible(service_level))
        eligible_ctr_before = {qid: self.counters[qid] for qid in eligible}
        counter_increments: dict[int, float] = {}
        reset_increment = self._raise_counters(eligible, t, counter_increments)

        tau, solution = self._forwarding_time(space, eligible, a, budget, t)
        served_points = {pts[i] for i in solution.served}
        served = [qid for qid in eligible if self.requests[qid].point in served_points]
        unserved = [qid for qid in eligible if qid not in served]
        assert not unserved or math.isfinite(tau), "an infinite forwarding time serves everything"
        invest_increment = self._raise_counters(unserved, tau, counter_increments)
        return self.end_service(
            DelayServiceRecord, t, service_level, eligible, served,
            primary=primary,
            forwarding_time=tau,
            tree_edges=solution.tree_edges,
            root=a,
            tail=[] if relocation is None else [relocation],
            own=lambda movement: {
                "cost": movement + reset_increment + invest_increment,
                "movement_cost": movement,
                "trigger_ids": tuple(triggers),
                "relocation_target": relocation,
                "reset_increment": reset_increment,
                "invest_increment": invest_increment,
                "counter_increments": counter_increments,
                "trigger_residuals": trigger_residuals,
                "eligible_ctr_before": eligible_ctr_before,
            },
        )

    # -- internals ------------------------------------------------------------

    def _kinks(self, qids, lo: float, hi: float) -> set[float]:
        """Delay breakpoints and counter crossings of ``qids`` inside (lo, hi),
        between which every residual is linear in time."""
        cuts: set[float] = set()
        for qid in qids:
            fn = self.requests[qid].delay
            for bp_t, _ in fn.breakpoints:
                if lo < bp_t < hi:
                    cuts.add(bp_t)
            tc = fn.first_time_at_least(self.counters[qid])
            if lo < tc < hi:
                cuts.add(tc)
        return cuts

    def _raise_counters(self, qids, t: float, increments: dict[int, float]) -> float:
        """Raise each counter of ``qids`` to its delay at ``t``; add the raises
        to ``increments`` and return their sum."""
        total = 0.0
        for qid in qids:
            inc = self.residual(qid, t)
            if inc > 0:
                self.counters[qid] += inc
                increments[qid] = increments.get(qid, 0.0) + inc
                total += inc
        return total

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

        - a component is active only while its surplus exceeds ``EPS``,
          so each maximal inactive set not containing the root may leave up
          to ``EPS`` of its penalty unpaid; these sets are disjoint and
          each holds a terminal, so at most ``len(by_node) * EPS``;
        - strong pruning keeps a subtree only when its benefit exceeds the
          edge by more than ``EPS``, so by induction over the tree it
          loses at most ``EPS`` per forest edge, ``(space.n - 1) *
          EPS`` in all;
        - float rounding, in the moat depths, in the surpluses (one runs
          out only where the duals paid it, and they sum to at most
          OPT(t')), in the ``1e-15`` event tie rule and in the final sums,
          is relative to quantities below the budget and far under ``1e-9``
          of it; the spare ``2 * EPS`` absorbs absolute rounding at
          small scales.

        So every probe costs at most ``2 * final.tree_cost + margin``, and
        when that is below ``budget - EPS`` no probe can reach the
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
                node: math.fsum(self.residual(qid, t_prime) for qid in qids)
                for node, qids in by_node.items()
            }
            return pcst_approx(space, set(by_node), penalties, root)

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
        if not serves_all or 2.0 * final.tree_cost >= budget - config.EPS - margin:
            probes = [t, *sorted(self._kinks(eligible, t, t_big)), t_big]
        lo = t
        for hi in probes:
            if evaluate(hi).total_cost >= budget - config.EPS:
                break
            lo = hi
        else:
            assert serves_all, "past the probe horizon an unserved terminal forces a crossing"
            return math.inf, final
        while hi - lo > config.EPS:
            mid = 0.5 * (lo + hi)
            if evaluate(mid).total_cost >= budget - config.EPS:
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
    engine = DelayEngine(inst.metric, inst.server_start, request_regime=request_regime)
    limit = math.inf if horizon is None else horizon
    releases = sorted(inst.requests, key=lambda q: (q.release, q.id))
    idx = 0
    t = -math.inf
    # the guard reads |Q|, yet it changes no trace unless it fires
    guard = 200 * (len(inst.requests) + 1)
    while True:
        guard -= 1
        if guard < 0:
            raise RuntimeError("delay run failed to terminate")
        next_release = releases[idx].release if idx < len(releases) else math.inf
        release_due = idx < len(releases) and next_release <= limit
        until = min(next_release, limit)
        event = engine.next_critical_event(t, until)
        # a crossing lies at most EPS past until <= limit: inside the horizon.
        # An event at t itself passes too: a service at t passed this test
        # already, and a reveal at t took every release up to t + EPS.
        if event is not None and (event.time < next_release - config.EPS or not release_due):
            t = event.time
            engine.upon_critical(event.level, t)
        elif release_due:
            # releases first at equal timestamps; a tied crossing fires next pass
            t = next_release
            while idx < len(releases) and releases[idx].release <= t + config.EPS:
                engine.reveal(releases[idx])
                idx += 1
        else:
            exhausted = bool(engine.pending) or idx < len(releases)
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
        movement_cost=movement,
        delay_cost=delay_cost,
        total_cost=movement + delay_cost,
        counters=dict(engine.counters),
        horizon_exhausted=exhausted,
        pending_ids=pending_ids,
        **engine.trace_fields(),
    )
