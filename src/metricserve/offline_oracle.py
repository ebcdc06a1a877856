"""Exact offline optimum for desk-scale instances, with timed traces.

Deadline mode
-------------
Movement is instantaneous and time-independent, so an optimal solution
may be assumed lazy (it parks only on request points) and to serve each
next request as early as its window allows.  Under the greedy visit
times ``t_i = max(t_{i-1}, release_i)`` the completion time of a visited
set depends only on the set (it is the maximum release), so a bitmask DP
over (served set, last request) with min movement cost is exact; it is
cross-checked against permutation brute force in the tests.

Dead states
-----------
A served set is dead when a request outside it has ``deadline + EPS``
before the set's completion.  Visits only get later, so that request is
never served: a successor either adds it and fails the deadline test,
or leaves it out and is dead too.  So a live set takes candidates only
from live sets, and the DP drops dead sets without changing a live cost
or parent.  Between live sets the deadline test holds by itself, since
no request is released after its deadline.

Delay mode
----------
Batch-shift lemma: take any solution and any service batch, and move the
batch's service time earlier to the latest release among its members.
Movement cost is unchanged (movement is instantaneous and
time-independent) and each member's delay ``y_q`` is nondecreasing, so
the total cost does not increase.  Hence some optimal solution serves
only at release times, and a DP over (release event, server position,
served subset) with exact intra-batch walks is exact.  The tests
cross-check it against exhaustive enumeration of batch assignments and
visit orders.

Evaluation order
----------------
A candidate replaces the incumbent only if it is cheaper by more than
1e-15, so the order in which candidates are tried breaks ties and fixes
the trace.  The reference order is the scalar push loop: masks, then
``last``, then ``nxt``, all ascending.  A target ``(mask | 1 << nxt,
nxt)`` has one predecessor mask, and popcount layer p writes only into
layer p + 1, so the push loop offers each target its candidates by
``last`` ascending.  The numpy tables pull in that order: per layer each
target's candidates form one row, ``last = 0 .. k-1``, with the same
float additions, and the row takes its first minimum.  That is the
scalar rule's choice unless a value other than the minimum lies at most
1e-15 above it: every incumbent before the first minimum is more than
1e-15 dearer, so it yields, and no later value, an exact copy or dearer,
is cheaper by more than 1e-15.  A row with such a close rival is
replayed by the scalar rule, and a row of infinite costs keeps no parent.

``opt_delay`` builds one such table per instance, from every walk start
at once over the masks of the distinct request points: a batch's own DP
reads only its points, in the same ascending order, so each entry is
what that batch computes alone.  The outer DP goes one release event at
a time.  It lists every ``(state, batch, end)`` candidate in the scalar
loop's order (states as created, batches descending, ends ascending),
and each target ``(end, served)``, a slot of a dense table, takes the
first of its cheapest candidates under the same rule, with the same
replay.  A new state takes its place at its target's first finite
candidate, where the scalar loop creates it; a candidate of infinite
cost (a request released within ``EPS`` after the event) creates
nothing.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import config
from .instance import Instance
from .metric import EdgeSet, MetricSpace
from .metric import build_metric  # noqa: F401  perfbench/selftest.py checks this binding
from .walks import expand_hops, walk_cost

__all__ = ["OptEvent", "OptTrace", "OracleCapError", "opt_deadline", "opt_delay", "opt_edges_during"]

_DEADLINE_CAP = 12
_DELAY_CAP = 8


class OracleCapError(ValueError):
    """Instance exceeds the exact oracle's request cap."""


@dataclass(frozen=True)
class OptEvent:
    time: float
    walk: tuple[int, ...]
    served_ids: tuple[int, ...]


@dataclass(frozen=True)
class OptTrace:
    mode: str
    start: int
    events: tuple[OptEvent, ...]
    movement_cost: float
    delay_cost: float
    service_time: dict[int, float]

    def position_at(self, t: float) -> int:
        """Server position after all events with time <= t."""
        pos = self.start
        for ev in self.events:
            if ev.time <= t + config.EPS:
                pos = ev.walk[-1] if ev.walk else pos
            else:
                break
        return pos

    @property
    def total_cost(self) -> float:
        return self.movement_cost + self.delay_cost

    def to_json(self) -> str:
        doc = {
            "mode": self.mode,
            "start": self.start,
            "movement_cost": self.movement_cost,
            "delay_cost": self.delay_cost,
            "total_cost": self.total_cost,
            "events": [
                {"time": ev.time, "walk": list(ev.walk), "served_ids": list(ev.served_ids)}
                for ev in self.events
            ],
            "requests": {str(q): t for q, t in sorted(self.service_time.items())},
        }
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def opt_edges_during(trace: OptTrace, t1: float, t2: float) -> EdgeSet:
    """Deduplicated graph edges traversed by any walk event inside [t1, t2]."""
    if t1 > t2:
        raise ValueError("interval start exceeds its end")
    edges: set[tuple[int, int]] = set()
    for ev in trace.events:
        if t1 - config.EPS <= ev.time <= t2 + config.EPS:
            for u, v in zip(ev.walk, ev.walk[1:]):
                if u != v:
                    edges.add((min(u, v), max(u, v)))
    return frozenset(edges)


def _opt_trace(inst: Instance, mode: str, visits, delay_cost: float) -> OptTrace:
    """The trace of ``visits``, each ``(time, points in visit order, served ids)``:
    walks chain on from the server start, and movement sums their costs in order."""
    m = inst.metric
    events = []
    movement = 0.0
    service_time: dict[int, float] = {}
    pos = inst.server_start
    for t, points, served_ids in visits:
        walk = expand_hops(m, [pos, *points])
        movement += walk_cost(m, walk)
        events.append(OptEvent(time=t, walk=tuple(walk), served_ids=served_ids))
        for qid in served_ids:
            service_time[qid] = t
        pos = walk[-1]
    return OptTrace(mode, inst.server_start, tuple(events), movement, delay_cost, service_time)


def _walk_order(parent: np.ndarray, pts: list, s: int, mask: int, last: int) -> list:
    """The entries of ``pts`` along the walk in ``parent`` (``parent[None]`` if it
    has no start axis) from start ``s`` through ``mask`` to ``pts[last]``."""
    order = []
    while last != -1:
        order.append(pts[last])
        mask, last = mask ^ (1 << last), int(parent[s, mask, last])
    return order[::-1]


def _scalar_min(values: list[float]) -> tuple[float, int]:
    """The value and index that a scalar loop keeps when it replaces its
    incumbent only if cheaper by more than 1e-15; (inf, -1) if none is finite."""
    best, arg = math.inf, -1
    for i, c in enumerate(values):
        if c < best - 1e-15:
            best, arg = c, i
    return best, arg


def _row_winners(cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_scalar_min`` of every row of ``cand``: the first minimum, except in rows
    where another value lies at most 1e-15 above it (or none is finite), replayed."""
    arg = cand.argmin(1)
    best = cand[np.arange(len(cand)), arg]
    rival = np.where(cand == best[:, None], np.inf, cand).min(1, initial=np.inf)
    for r in np.flatnonzero(~(best < rival - 1e-15)):
        best[r], arg[r] = _scalar_min(cand[r].tolist())
    return best, arg


# ---------------------------------------------------------------------------
# deadline mode
# ---------------------------------------------------------------------------


def opt_deadline(inst: Instance) -> OptTrace:
    if inst.mode != "deadline":
        raise ValueError("opt_deadline needs a deadline-mode instance")
    if len(inst.requests) > _DEADLINE_CAP:
        raise OracleCapError(
            f"opt_deadline caps at {_DEADLINE_CAP} requests, got {len(inst.requests)}"
        )
    m = inst.metric
    reqs = list(inst.requests)
    if not reqs:
        return OptTrace("deadline", inst.server_start, (), 0.0, 0.0, {})
    k = len(reqs)
    release = np.array([q.release for q in reqs])
    deadline = np.array([q.deadline for q in reqs])
    point = [q.point for q in reqs]
    d = m.dist[np.ix_(point, point)]

    # completion[mask] = max(releases in mask), -inf for the empty mask, and
    # due[mask] = min(deadline + EPS outside mask): mask is live if it completes by then
    completion, due = np.full(1, -np.inf), np.full(1, np.inf)
    for i in range(k):
        completion = np.concatenate([completion, np.maximum(completion, release[i])])
        due = np.concatenate([np.minimum(due, deadline[i] + config.EPS), due])
    live = completion <= due
    bit = 1 << np.arange(k)

    # by popcount layer: cost[r] is masks[r]'s row; unreached and dead masks are left out
    parent = np.full((1 << k, k), -1, dtype=np.int8)
    first = np.flatnonzero(live[bit])
    masks = bit[first]
    cost = np.full((len(first), k), np.inf)
    cost[np.arange(len(first)), first] = m.dist[inst.server_start, point][first]
    for _ in range(1, k):
        row, nxt = np.nonzero(((masks[:, None] & bit) == 0) & live[masks[:, None] | bit])
        best, arg = _row_winners(cost[row] + d.T[nxt])
        tgt = masks[row] | bit[nxt]
        parent[tgt, nxt] = arg
        masks, at = np.unique(tgt, return_inverse=True)
        cost = np.full((len(masks), k), np.inf)
        cost[at, nxt] = best
    assert len(masks) == 1, "deadline instances are always feasible"
    best_last = min(range(k), key=lambda i: (cost[0, i], i))

    visits = []
    t = -math.inf
    for q in _walk_order(parent[None], reqs, 0, (1 << k) - 1, best_last):
        t = max(t, q.release)
        visits.append((t, [q.point], (q.id,)))
    return _opt_trace(inst, "deadline", visits, 0.0)


# ---------------------------------------------------------------------------
# delay mode
# ---------------------------------------------------------------------------


@functools.cache  # one entry per request count, at most _DELAY_CAP + 1
def _submask_rows(k: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR rows over k-bit masks: every submask of each mask, descending."""
    subs = np.arange((1 << k) - 1, -1, -1)
    mask, col = np.nonzero((subs & ~np.arange(1 << k)[:, None]) == 0)
    return np.searchsorted(mask, np.arange((1 << k) + 1)), subs[col]


def _rows(ptr: np.ndarray, values: np.ndarray, keys: np.ndarray):
    """The CSR rows ``keys`` one after another, each entry with its key's index."""
    cnt = ptr[keys + 1] - ptr[keys]
    owner = np.repeat(np.arange(len(keys)), cnt)
    skip = np.repeat(ptr[keys] - np.cumsum(cnt) + cnt, cnt)
    return owner, values[skip + np.arange(len(owner))]


def _walk_table(m: MetricSpace, starts: list[int], pts: list[int]):
    """Held-Karp from every start at once over the point masks of ``pts``.

    ``cost[s, mask, e]`` is the cheapest walk from ``starts[s]`` through the
    points of ``mask`` that ends at ``starts[e]`` (``starts`` begins with
    ``pts``, so bits and ends share indices), and ``parent`` holds its
    previous point, -1 at the first.  The empty batch stays put at 0.0.
    """
    p, ns = len(pts), len(starts)
    d = m.dist[np.ix_(pts, pts)]
    bit = 1 << np.arange(p)
    inside = (np.arange(1 << p)[:, None] & bit) != 0
    cost = np.full((ns, 1 << p, ns), np.inf)
    parent = np.full(cost.shape, -1, dtype=np.int8)
    cost[np.arange(ns), 0, np.arange(ns)] = 0.0
    cost[:, bit, np.arange(p)] = m.dist[np.ix_(starts, pts)]
    for size in range(2, p + 1):
        tgt, nxt = np.nonzero(inside & (inside.sum(1) == size)[:, None])
        best, arg = _row_winners((cost[:, tgt ^ bit[nxt], :p] + d.T[nxt]).reshape(-1, p))
        cost[:, tgt, nxt] = best.reshape(ns, -1)
        parent[:, tgt, nxt] = arg.reshape(ns, -1)
    return cost, parent, inside


def _scalar_winners(tid: np.ndarray, cost: np.ndarray, slots: int) -> tuple[np.ndarray, np.ndarray]:
    """For each target in ``range(slots)`` with a finite candidate: the
    candidate that ``_scalar_min`` keeps over its candidates in index order,
    and the target's first finite candidate."""
    at = np.arange(len(cost))
    low, rival = np.full(slots, np.inf), np.full(slots, np.inf)
    win, first = np.full(slots, len(at)), np.full(slots, len(at))
    np.minimum.at(low, tid, cost)
    tie = cost == low[tid]
    np.minimum.at(win, tid, np.where(tie, at, len(at)))
    np.minimum.at(rival, tid, np.where(tie, np.inf, cost))
    np.minimum.at(first, tid, np.where(cost < np.inf, at, len(at)))
    keep = low < np.inf
    for g in np.flatnonzero(keep & ~(low < rival - 1e-15)):
        group = np.flatnonzero(tid == g)
        win[g] = group[_scalar_min(cost[group].tolist())[1]]
    return win[keep], first[keep]


def opt_delay(inst: Instance) -> OptTrace:
    if inst.mode != "delay":
        raise ValueError("opt_delay needs a delay-mode instance")
    if len(inst.requests) > _DELAY_CAP:
        raise OracleCapError(
            f"opt_delay caps at {_DELAY_CAP} requests, got {len(inst.requests)}"
        )
    m = inst.metric
    reqs = list(inst.requests)
    if not reqs:
        return OptTrace("delay", inst.server_start, (), 0.0, 0.0, {})
    k = len(reqs)
    events = sorted({q.release for q in reqs})
    n_ev = len(events)
    delay_at = [[q.delay.value(t) if t >= q.release else math.inf for t in events] for q in reqs]
    released_mask = [0] * n_ev
    for j, t in enumerate(events):
        for i, q in enumerate(reqs):
            if q.release <= t + config.EPS:
                released_mask[j] |= 1 << i
    pts = sorted({q.point for q in reqs})
    starts = pts + [inst.server_start] * (inst.server_start not in pts)
    table, parent, inside = _walk_table(m, starts, pts)
    # per request subset: its batch's point mask, and its delay at each
    # event summed over ascending i from 0
    pmask, extra = np.zeros(1, np.int64), np.zeros((1, n_ev))
    for i, q in enumerate(reqs):
        pmask = np.concatenate([pmask, pmask | 1 << pts.index(q.point)])
        extra = np.concatenate([extra, extra + delay_at[i]])
    subs = np.arange(1 << k)
    # walk ends per point mask: its points, or column p (stay) for the empty one
    ends = np.column_stack([inside, ~inside.any(1)])

    # states in creation order: position (index into starts), served mask, cost;
    # candidates in the scalar loop's order: state, then sub descending, then end
    loc = np.array([starts.index(inst.server_start)])
    served, cost = np.zeros(1, np.int64), np.zeros(1)
    back = []
    for j in range(n_ev):
        # everything still pending must be served at the last event
        sub_rows = _submask_rows(k) if j < n_ev - 1 else (np.arange((1 << k) + 1), subs)
        st, sub = _rows(*sub_rows, released_mask[j] & ~served)
        pair, end = np.nonzero(ends[pmask[sub]])
        st, sub = st[pair], sub[pair]
        start = loc[st]
        end = np.where(end == len(pts), start, end)
        c = (cost[st] + table[start, pmask[sub], end]) + extra[sub, j]
        win, first = _scalar_winners(end << k | served[st] | sub, c, len(starts) << k)
        win = win[np.argsort(first)]
        back.append((st[win], sub[win], start[win], end[win]))
        loc, served, cost = end[win], served[st[win]] | sub[win], c[win]

    # every request is released by the last event, so every state has served all
    _, _, at = min((c, starts[e], i) for i, (c, e) in enumerate(zip(cost.tolist(), loc.tolist())))

    # backtrack, recovering visit orders only for the winning batches
    steps = []
    for j in range(n_ev - 1, -1, -1):
        st, sub, start, end = (int(a[at]) for a in back[j])
        if sub:
            steps.append((j, sub, _walk_order(parent, pts, start, int(pmask[sub]), end)))
        at = st

    visits = []
    delay_cost = 0.0
    for j, batch, order in reversed(steps):
        members = [i for i in range(k) if batch & (1 << i)]
        for i in members:
            delay_cost += delay_at[i][j]
        visits.append((events[j], order, tuple(sorted(reqs[i].id for i in members))))
    return _opt_trace(inst, "delay", visits, delay_cost)
