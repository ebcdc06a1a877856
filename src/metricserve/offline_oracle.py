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
``last`` ascending.  ``opt_deadline`` pulls in that order: per layer it
lists every target in numpy and sweeps ``last = 0 .. k-1`` under the same
strict rule, giving the same cost and parent tables.  The batch walks of
``opt_delay`` stay a scalar push loop over precomputed tables: batches
hold at most eight points, mostly two to five, too few for numpy's
per-call overhead to pay off.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import config
from .instance import Instance
from .metric import EdgeSet, MetricSpace, build_metric
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
            if ev.time <= t + config.EPS_TIME:
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
        if t1 - config.EPS_TIME <= ev.time <= t2 + config.EPS_TIME:
            for u, v in zip(ev.walk, ev.walk[1:]):
                if u != v:
                    edges.add((min(u, v), max(u, v)))
    return frozenset(edges)


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
    m = build_metric(inst.graph)
    reqs = list(inst.requests)
    if not reqs:
        return OptTrace("deadline", inst.server_start, (), 0.0, 0.0, {})
    k = len(reqs)
    release = np.array([q.release for q in reqs])
    deadline = np.array([q.deadline for q in reqs])
    point = [q.point for q in reqs]
    d = m.dist[np.ix_(point, point)]

    # completion[mask] = max(0, releases in mask)
    completion = np.zeros(1)
    for i in range(k):
        completion = np.concatenate([completion, np.maximum(completion, release[i])])
    bit = 1 << np.arange(k)

    # by popcount layer: cost[r] is masks[r]'s row; unreached masks (all inf) are left out
    parent = np.full((1 << k, k), -1, dtype=np.int8)
    # the first visit happens at max(release_i, -inf) = release_i
    first = np.flatnonzero(release <= deadline + config.EPS_TIME)
    masks = bit[first]
    cost = np.full((len(first), k), np.inf)
    cost[np.arange(len(first)), first] = m.dist[inst.server_start, point][first]
    for _ in range(1, k):
        ok = (masks[:, None] & bit) == 0
        ok &= np.maximum(completion[masks][:, None], release) <= deadline + config.EPS_TIME
        row, nxt = np.nonzero(ok)
        best = np.full(len(row), np.inf)
        arg = np.full(len(row), -1, dtype=np.int8)
        for last in range(k):
            cand = cost[row, last] + d[last, nxt]
            better = cand < best - 1e-15
            best = np.where(better, cand, best)
            arg = np.where(better, last, arg)
        tgt = masks[row] | bit[nxt]
        parent[tgt, nxt] = arg
        masks, at = np.unique(tgt, return_inverse=True)
        cost = np.full((len(masks), k), np.inf)
        cost[at, nxt] = best
    assert len(masks) == 1, "deadline instances are always feasible"
    best_last = min(range(k), key=lambda i: (cost[0, i], i))

    order = []
    mask, last = (1 << k) - 1, best_last
    while last != -1:
        order.append(last)
        mask, last = mask ^ (1 << last), int(parent[mask, last])
    order.reverse()

    events = []
    pos = inst.server_start
    t = -math.inf
    movement = 0.0
    service_time: dict[int, float] = {}
    for i in order:
        t = max(t, reqs[i].release)
        walk = m.shortest_path_nodes(pos, point[i])
        movement += walk_cost(m, walk)
        events.append(OptEvent(time=t, walk=tuple(walk), served_ids=(reqs[i].id,)))
        service_time[reqs[i].id] = t
        pos = point[i]
    return OptTrace("deadline", inst.server_start, tuple(events), movement, 0.0, service_time)


# ---------------------------------------------------------------------------
# delay mode
# ---------------------------------------------------------------------------


@functools.cache  # at most 2 ** _DELAY_CAP entries
def _submasks(mask: int) -> tuple[int, ...]:
    """Every submask of ``mask``, descending."""
    return tuple(s for s in range(mask, -1, -1) if s & mask == s)


@functools.cache
def _subset_moves(k: int) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...]], ...]:
    """Per mask over k points: its members ascending, and each
    ``(nxt, mask | 1 << nxt)`` for nxt outside it, ascending."""
    moves = []
    for mask in range(1 << k):
        inside = tuple(i for i in range(k) if mask >> i & 1)
        moves.append((inside, tuple((i, mask | 1 << i) for i in range(k) if i not in inside)))
    return tuple(moves)


class _BatchWalks:
    """Cheapest walks through point sets by bitmask DP, with order recovery."""

    def __init__(self, m: MetricSpace, points):
        # distance rows of every possible walk start and stop, as floats
        self.rows = {u: m.dist[u].tolist() for u in points}
        # the empty batch: stay put at no cost
        self.memo = {(u, ()): [(u, 0.0, ())] for u in points}

    def walks(self, start: int, pts: tuple[int, ...]) -> list[tuple[int, float, tuple[int, ...]]]:
        """``(end, cost, visit order)`` of the cheapest walk from ``start``
        through all of ``pts`` that ends at each of them, in ``pts`` order."""
        key = (start, pts)
        out = self.memo.get(key)
        if out is not None:
            return out
        k = len(pts)
        dd = [[self.rows[a][b] for b in pts] for a in pts]
        dp = [[math.inf] * k for _ in range(1 << k)]
        par = [[-1] * k for _ in range(1 << k)]
        for i in range(k):
            dp[1 << i][i] = self.rows[start][pts[i]]
        for mask, (lasts, targets) in enumerate(_subset_moves(k)):
            row = dp[mask]
            for last in lasts:
                c = row[last]
                if c == math.inf:
                    continue
                dl = dd[last]
                for nxt, nmask in targets:
                    nc = c + dl[nxt]
                    if nc < dp[nmask][nxt] - 1e-15:
                        dp[nmask][nxt] = nc
                        par[nmask][nxt] = last
        out = self.memo[key] = []
        for i in range(k):
            seq = []
            mask, last = (1 << k) - 1, i
            while last != -1:
                seq.append(pts[last])
                mask, last = mask ^ (1 << last), par[mask][last]
            out.append((pts[i], dp[-1][i], tuple(reversed(seq))))
        return out


def opt_delay(inst: Instance) -> OptTrace:
    if inst.mode != "delay":
        raise ValueError("opt_delay needs a delay-mode instance")
    if len(inst.requests) > _DELAY_CAP:
        raise OracleCapError(
            f"opt_delay caps at {_DELAY_CAP} requests, got {len(inst.requests)}"
        )
    m = build_metric(inst.graph)
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
            if q.release <= t + config.EPS_TIME:
                released_mask[j] |= 1 << i
    walks = _BatchWalks(m, {inst.server_start} | {q.point for q in reqs})
    full = (1 << k) - 1
    batch_pts: dict[int, tuple[int, ...]] = {}

    # states[(position, served_mask)] = cost; back[j][state] = (parent, batch, order)
    states: dict[tuple[int, int], float] = {(inst.server_start, 0): 0.0}
    back: list[dict[tuple[int, int], tuple]] = []
    for j in range(n_ev):
        nxt: dict[tuple[int, int], float] = {}
        via: dict[tuple[int, int], tuple] = {}
        extra_delay: dict[int, float] = {}
        for parent_key, cost in states.items():
            pos, served = parent_key
            pending = released_mask[j] & ~served
            # everything still pending must be served at the last event
            for sub in [pending] if j == n_ev - 1 else _submasks(pending):
                pts = batch_pts.get(sub)
                if pts is None:
                    pts = batch_pts[sub] = tuple(
                        sorted({reqs[i].point for i in range(k) if sub & (1 << i)})
                    )
                extra = extra_delay.get(sub)
                if extra is None:
                    extra = extra_delay[sub] = sum(
                        delay_at[i][j] for i in range(k) if sub & (1 << i)
                    )
                for end, wcost, order in walks.walks(pos, pts):
                    key = (end, served | sub)
                    c = cost + wcost + extra
                    if c < nxt.get(key, math.inf) - 1e-15:
                        nxt[key] = c
                        via[key] = (parent_key, sub, order)
        states = nxt
        back.append(via)

    finals = {key: c for key, c in states.items() if key[1] == full}
    best_key = min(finals, key=lambda key: (finals[key], key))

    # backtrack
    steps = []
    key = best_key
    for j in range(n_ev - 1, -1, -1):
        parent_key, batch, order = back[j][key]
        steps.append((j, batch, order))
        key = parent_key
    steps.reverse()

    out_events = []
    movement = 0.0
    delay_cost = 0.0
    service_time: dict[int, float] = {}
    pos = inst.server_start
    for j, batch, order in steps:
        if not batch:
            continue
        walk = expand_hops(m, [pos] + list(order))
        movement += walk_cost(m, walk)
        served_ids = tuple(sorted(reqs[i].id for i in range(k) if batch & (1 << i)))
        for i in range(k):
            if batch & (1 << i):
                service_time[reqs[i].id] = events[j]
                delay_cost += delay_at[i][j]
        out_events.append(OptEvent(time=events[j], walk=tuple(walk), served_ids=served_ids))
        pos = walk[-1]
    return OptTrace(
        "delay", inst.server_start, tuple(out_events), movement, delay_cost, service_time
    )
