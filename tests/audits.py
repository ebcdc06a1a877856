"""Trace audits shared between the unit suites and the acceptance suite.

These reconstruct state from the instance and the trace records alone, so
they stay independent of the engines' internal bookkeeping.
"""

from __future__ import annotations

import math

from metricserve.levels import BOTTOM, Level, adjusted_level, clamp_bottom, min_level


def audit_deadline_trace(inst, trace, m) -> int:
    """Window, cost-constant, ball, level, and walk checks; returns the
    number of service records inspected."""
    by_id = {q.id: q for q in inst.requests}
    for q in inst.requests:
        t = trace.service_time[q.id]
        assert q.release - 1e-9 <= t <= q.deadline + 1e-9
    levels: dict[int, Level] = {q.id: BOTTOM for q in inst.requests}
    for s in trace.services:
        for rid in s.eligible_ids:
            assert by_id[rid].release <= s.time + 1e-9
        assert s.cost <= 21.0 * 2.0**s.level + 1e-6
        for rid in s.eligible_ids:
            assert m.distance(s.start_position, by_id[rid].point) <= 2.0**s.level + 1e-9
        assert s.walk[0] == s.start_position and s.walk[-1] == s.end_position
        if s.primary:
            assert s.end_position == by_id[s.trigger_id].point
        else:
            assert s.end_position == s.start_position
        for rid in s.eligible_ids:
            if rid not in s.served_ids:
                old = levels[rid]
                assert old is BOTTOM or s.level + 1 >= old
                levels[rid] = s.level + 1
    return len(trace.services)


def audit_delay_trace(inst, trace, m) -> int:
    """Cost constant, eligibility ball, relocation bounds, counter
    domination; returns the number of service records inspected."""
    by_id = {q.id: q for q in inst.requests}
    for s in trace.services:
        for rid in s.eligible_ids:
            assert by_id[rid].release <= s.time + 1e-9
        assert set(s.trigger_ids) <= set(s.eligible_ids)
        assert set(s.served_ids) <= set(s.eligible_ids)
        assert s.cost <= 39.0 * 2.0**s.level + 1e-6
        for rid in s.eligible_ids:
            assert m.distance(s.start_position, by_id[rid].point) <= 2.0**s.level + 1e-9
        if s.relocation_target is not None:
            d = m.distance(s.start_position, s.relocation_target)
            lo = 2.0 ** (s.level - 5) - 2.0 ** (s.level - 8)
            hi = 2.0 ** (s.level - 3) + 2.0 ** (s.level - 8)
            assert lo - 1e-9 <= d <= hi + 1e-9
            assert s.end_position == s.relocation_target
        else:
            assert s.end_position == s.start_position
        assert s.walk[0] == s.start_position and s.walk[-1] == s.end_position
    for qid, t_served in trace.service_time.items():
        y = by_id[qid].delay.value(t_served)
        assert trace.counters[qid] >= y - 1e-9
    return len(trace.services)


def replay_no_supercritical(inst, trace, m) -> int:
    """Reconstruct counters/levels from the records alone and check
    trd_i <= 2^(i+1) immediately after every service (the only places the
    totals can spike, via relocation shifting adjusted levels).  Returns
    the number of boundaries checked."""
    floor = min_level(m)
    counters = {q.id: 0.0 for q in inst.requests}
    levels = {q.id: BOTTOM for q in inst.requests}
    served: set[int] = set()
    checked = 0
    for s in trace.services:
        for qid, inc in s.counter_increments.items():
            counters[qid] += inc
        for qid in s.eligible_ids:
            if qid not in s.served_ids:
                levels[qid] = s.level + 1
        served.update(s.served_ids)
        pos = s.end_position
        pending = [
            q for q in inst.requests if q.release <= s.time + 1e-12 and q.id not in served
        ]
        residuals = {
            q.id: max(0.0, q.delay.value(s.time) - counters[q.id]) for q in pending
        }
        total = sum(residuals.values())
        if total <= 1e-9:
            continue
        alev = {
            q.id: clamp_bottom(
                adjusted_level(levels[q.id], m.distance(pos, q.point)), floor
            )
            for q in pending
        }
        cap = max(max(alev.values()), math.ceil(math.log2(total)) + 1)
        for i in range(floor, cap + 1):
            trd = sum(residuals[q.id] for q in pending if alev[q.id] <= i)
            assert trd <= 2.0 ** (i + 1) + 1e-6
            checked += 1
    return checked
