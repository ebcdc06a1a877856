"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive and written against the problem
statements, not against the library implementations, so that the two
routes stay independent: Floyd-style relaxation for distances, linear
scans for balls, pure interval arithmetic for measures, subset/permutation
enumeration for trees and offline optima.

The exceptions are the last four sections: the per-node hole scan for
perforated-ball claims, the broadcast-add relaxation and the metric
closure built through the complete graph's edge list, the scalar
push-form exact oracles, and the ``json.dumps`` instance writer, kept
as they were before the library versions were simplified or sped up.
They are references for byte and trace equality (ties and visit
orders), not independent routes.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import replace

import numpy as np

from metricserve import config
from metricserve.instance import Instance
from metricserve.metric import (
    Ball,
    MetricSpace,
    PerforatedBall,
    WeightedGraph,
    build_metric,
    edge_intervals_in_shape,
)
from metricserve.offline_oracle import OptEvent, OptTrace
from metricserve.walks import expand_hops, walk_cost


# ---------------------------------------------------------------------------
# metric oracles
# ---------------------------------------------------------------------------


def floyd_distances(g: WeightedGraph) -> list[list[float]]:
    """Triple-loop Floyd-Warshall over plain Python floats."""
    n = g.node_count
    d = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0.0
    for u, v, w in g.edges:
        d[u][v] = min(d[u][v], w)
        d[v][u] = min(d[v][u], w)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def shortest_path_reference(m: MetricSpace, u: int, v: int) -> list[int]:
    """The greedy smallest-id shortest path from u to v, recomputed per
    call from ``m.dist`` read as numpy scalars."""
    path, cur, remaining = [u], u, float(m.dist[u, v])
    while cur != v:
        for z, w in m._adj[cur]:
            if abs(w + float(m.dist[z, v]) - remaining) <= config.EPS:
                path.append(z)
                remaining -= w
                cur = z
                break
        else:
            raise RuntimeError("no shortest-path step")
    return path


def ball_scan(m: MetricSpace, v: int, r: float, eps: float = 1e-9) -> set[int]:
    return {u for u in range(m.n) if m.distance(v, u) <= r + eps}


def interval_ball_measure(m: MetricSpace, edges, v: int, r: float) -> float:
    """Ball measure from first principles: positions t on edge (u, x) with
    min(dist(v,u)+t, dist(v,x)+w-t) <= r, summed over the given edges.

    Valid as a cross-check only on instances without shortcut edges (where
    an edge's interior never leaves a ball containing both endpoints).
    """
    total = 0.0
    for u, x in edges:
        w = m.edge_weight(u, x)
        left = max(0.0, min(w, r - m.distance(v, u)))
        right = max(0.0, min(w, r - m.distance(v, x)))
        total += min(w, left + right)
    return total


def has_shortcut_edge(m: MetricSpace) -> bool:
    """True when some edge is strictly longer than the distance it spans."""
    return any(
        m.edge_weight(u, x) > m.distance(u, x) + 1e-9 for u, x in m.edges
    )


def ball_buries_an_edge(m: MetricSpace, v: int, r: float) -> bool:
    """True when some edge has both endpoints inside Ball(v, r) but an
    interior stretch outside it; there the endpoint rule and the interval
    computation legitimately disagree."""
    for u, x in m.edges:
        w = m.edge_weight(u, x)
        du, dx = m.distance(v, u), m.distance(v, x)
        if du <= r and dx <= r and (r - du) + (r - dx) < w - 1e-9:
            return True
    return False


# ---------------------------------------------------------------------------
# Steiner oracles
# ---------------------------------------------------------------------------


def _kruskal_cost(nodes: set[int], weight: dict[tuple[int, int], float]) -> float | None:
    """MST cost over the induced subgraph; None when disconnected."""
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    cost = 0.0
    joined = 0
    for (u, v), w in sorted(weight.items(), key=lambda kv: (kv[1], kv[0])):
        if u not in nodes or v not in nodes:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            cost += w
            joined += 1
    if joined != len(nodes) - 1:
        return None
    return cost


def steiner_enumeration(m: MetricSpace, terminals: set[int]) -> float:
    """Exact Steiner cost: min over Steiner-node subsets of the induced MST."""
    terminals = set(terminals)
    if len(terminals) <= 1:
        return 0.0
    weight = {e: m.edge_weight(*e) for e in m.edges}
    others = [v for v in range(m.n) if v not in terminals]
    best = math.inf
    for k in range(len(others) + 1):
        for extra in itertools.combinations(others, k):
            cost = _kruskal_cost(terminals | set(extra), weight)
            if cost is not None and cost < best:
                best = cost
    return best


def pcst_enumeration(
    m: MetricSpace, terminals: set[int], penalties: dict[int, float], root: int
) -> float:
    """Exact PCST cost: min over served subsets of Steiner cost + penalties."""
    terminals = sorted(terminals)
    best = math.inf
    for k in range(len(terminals) + 1):
        for served in itertools.combinations(terminals, k):
            tree = steiner_enumeration(m, set(served) | {root})
            penalty = sum(penalties[t] for t in terminals if t not in served)
            best = min(best, tree + penalty)
    return best


def piecewise_value(breakpoints, final_slope, t: float) -> float:
    """Straight-line evaluation of a piecewise-linear curve, written against
    the definition rather than the library's bisect-based implementation."""
    (t0, y0) = breakpoints[0]
    assert t >= t0 - 1e-12
    for (ta, ya), (tb, yb) in zip(breakpoints, breakpoints[1:]):
        if t <= tb:
            return ya + (yb - ya) * (t - ta) / (tb - ta)
    ta, ya = breakpoints[-1]
    return ya + final_slope * (t - ta)


# ---------------------------------------------------------------------------
# offline-optimum oracles
# ---------------------------------------------------------------------------


def opt_deadline_bruteforce(m: MetricSpace, inst: Instance) -> float:
    """Minimum movement over all request permutations (greedy visit times)."""
    reqs = inst.requests
    if not reqs:
        return 0.0
    best = math.inf
    for order in itertools.permutations(range(len(reqs))):
        t = -math.inf
        pos = inst.server_start
        cost = 0.0
        ok = True
        for i in order:
            q = reqs[i]
            t = max(t, q.release)
            if t > q.deadline + 1e-9:
                ok = False
                break
            cost += m.distance(pos, q.point)
            pos = q.point
        if ok and cost < best:
            best = cost
    return best


def opt_deadline_unrestricted(m: MetricSpace, inst: Instance) -> float:
    """Deadline optimum allowing arbitrary relocation stops between visits.

    Dijkstra over (served set, position) states; relocations to any node
    are permitted at any event, so this search is not restricted to lazy
    solutions.  Only for tiny instances.
    """
    import heapq

    reqs = inst.requests
    if not reqs:
        return 0.0
    release_of = [q.release for q in reqs]

    def completion(mask):
        t = -math.inf
        for i in range(len(reqs)):
            if mask & (1 << i):
                t = max(t, release_of[i])
        return t

    full = (1 << len(reqs)) - 1
    start = (0, inst.server_start)
    dist = {start: 0.0}
    heap = [(0.0, 0, inst.server_start)]
    while heap:
        cost, mask, pos = heapq.heappop(heap)
        if cost > dist.get((mask, pos), math.inf) + 1e-12:
            continue
        if mask == full:
            return cost
        t_now = completion(mask)
        for i, q in enumerate(reqs):
            if mask & (1 << i):
                continue
            if max(t_now, q.release) > q.deadline + 1e-9:
                continue
            nxt = (mask | (1 << i), q.point)
            c = cost + m.distance(pos, q.point)
            if c < dist.get(nxt, math.inf) - 1e-15:
                dist[nxt] = c
                heapq.heappush(heap, (c, nxt[0], nxt[1]))
        for v in range(m.n):
            if v == pos:
                continue
            nxt = (mask, v)
            c = cost + m.distance(pos, v)
            if c < dist.get(nxt, math.inf) - 1e-15:
                dist[nxt] = c
                heapq.heappush(heap, (c, mask, v))
    return math.inf


def opt_delay_exhaustive(m: MetricSpace, inst: Instance) -> float:
    """Exact delay optimum by enumerating batch assignments and visit orders.

    Every request is assigned to a serving event (a release time no earlier
    than its own release); each event's batch is walked in the cheapest
    order found by permutation enumeration.
    """
    reqs = inst.requests
    if not reqs:
        return 0.0
    events = sorted({q.release for q in reqs})
    n_ev = len(events)
    ev_index = {t: i for i, t in enumerate(events)}
    delay_at = [
        [q.delay.value(t) if t >= q.release else math.inf for t in events] for q in reqs
    ]

    walk_memo: dict[tuple[int, tuple[int, ...]], dict[int, float]] = {}

    def walk_costs(start: int, pts: tuple[int, ...]) -> dict[int, float]:
        key = (start, pts)
        if key not in walk_memo:
            ends: dict[int, float] = {}
            for order in itertools.permutations(pts):
                cost = 0.0
                pos = start
                for p in order:
                    cost += m.distance(pos, p)
                    pos = p
                if cost < ends.get(pos, math.inf):
                    ends[pos] = cost
            walk_memo[key] = ends
        return walk_memo[key]

    best = math.inf
    choices = [range(ev_index[q.release], n_ev) for q in reqs]
    for assignment in itertools.product(*choices):
        batches: list[list[int]] = [[] for _ in range(n_ev)]
        for qi, ev in enumerate(assignment):
            batches[ev].append(qi)
        # positions -> min cost so far
        frontier = {inst.server_start: 0.0}
        total_delay = 0.0
        for ev in range(n_ev):
            batch = batches[ev]
            if not batch:
                continue
            total_delay += sum(delay_at[qi][ev] for qi in batch)
            pts = tuple(sorted({reqs[qi].point for qi in batch}))
            nxt: dict[int, float] = {}
            for pos, cost in frontier.items():
                for end, wcost in walk_costs(pos, pts).items():
                    c = cost + wcost
                    if c < nxt.get(end, math.inf):
                        nxt[end] = c
            frontier = nxt
        best = min(best, min(frontier.values()) + total_delay)
    return best


# ---------------------------------------------------------------------------
# reference perforated-ball claim: the ball claim minus the hole of every
# node, merged interval by interval, kept so that the library's closed form
# can be checked against it for exact equality
# ---------------------------------------------------------------------------


def _merge_reference(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sorted union of the intervals; zero-length ones are dropped and
    intervals within ``EPS`` of each other join."""
    out: list[tuple[float, float]] = []
    for lo, hi in sorted(intervals):
        if hi - lo <= 0:
            continue
        if out and lo <= out[-1][1] + config.EPS:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _subtract_reference(base, holes) -> list[tuple[float, float]]:
    holes = _merge_reference(holes)
    out: list[tuple[float, float]] = []
    for lo, hi in base:
        cur = lo
        for hlo, hhi in holes:
            if hhi <= cur or hlo >= hi:
                continue
            if hlo > cur:
                out.append((cur, hlo))
            cur = max(cur, hhi)
            if cur >= hi:
                break
        if cur < hi:
            out.append((cur, hi))
    return out


def _positions_within_reference(m: MetricSpace, u: int, x: int, w: float, z: int, r: float):
    """Positions t on edge (u, x) with min(d(z,u)+t, d(z,x)+w-t) <= r."""
    out = []
    left = r - m.distance(z, u)
    if left > 0:
        out.append((0.0, min(w, left)))
    right = r - m.distance(z, x)
    if right > 0:
        out.append((max(0.0, w - right), w))
    return _merge_reference(out)


def perforated_claim_reference(
    m: MetricSpace, u: int, x: int, w: float, shape: PerforatedBall
) -> list[tuple[float, float]]:
    """The claim of ``shape`` on edge (u, x) by its definition: the plain
    ball's endpoint-rule claim minus the radius/rho hole of every node."""
    base = edge_intervals_in_shape(m, u, x, w, Ball(shape.center, shape.radius))
    if not base:
        return []
    hole_r = shape.radius / shape.rho
    holes: list[tuple[float, float]] = []
    for z in range(m.n):
        holes.extend(_positions_within_reference(m, u, x, w, z, hole_r))
    return _subtract_reference(base, holes)


# ---------------------------------------------------------------------------
# reference relaxation and metric closure: the broadcast-add Floyd-Warshall
# rounds, and the complete graph's edge list through WeightedGraph and
# build_metric, kept so that the library versions can be checked against
# them byte for byte
# ---------------------------------------------------------------------------


def relax_reference(start: np.ndarray) -> np.ndarray:
    """Floyd-Warshall rounds on a copy of ``start``, k ascending, each
    candidate matrix a broadcast add of column k and row k."""
    dist = start.copy()
    buf = np.empty_like(dist)
    for k in range(len(dist)):
        # in place: row and column k do not change in round k (dist[k, k] == 0)
        np.minimum(dist, np.add(dist[:, k, None], dist[None, k, :], out=buf), out=dist)
    return dist


def complete_graph_on_reference(m: MetricSpace, points) -> MetricSpace:
    """The closure over ``points`` as the complete graph on the sorted points,
    weighted by m's distances and run through ``build_metric``."""
    pts = sorted(set(points))
    edges = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            edges.append((i, j, m.distance(pts[i], pts[j])))
    closure = build_metric(WeightedGraph(node_count=len(pts), edges=tuple(edges)))
    return replace(closure, points=tuple(pts))


# ---------------------------------------------------------------------------
# reference exact oracles: the scalar push-form DPs, kept verbatim so that
# faster library oracles can be checked against them trace for trace
# ---------------------------------------------------------------------------


def opt_deadline_reference(inst: Instance) -> OptTrace:
    """Held-Karp over (served set, last request) in scalar push form."""
    m = build_metric(inst.graph)
    reqs = list(inst.requests)
    if not reqs:
        return OptTrace("deadline", inst.server_start, (), 0.0, 0.0, {})
    k = len(reqs)
    full = (1 << k) - 1
    release = [q.release for q in reqs]
    deadline = [q.deadline for q in reqs]
    point = [q.point for q in reqs]

    completion = [-math.inf] * (1 << k)  # the empty mask has no release
    for mask in range(1, 1 << k):
        low = mask & -mask
        completion[mask] = max(completion[mask ^ low], release[low.bit_length() - 1])

    INF = math.inf
    cost = [[INF] * k for _ in range(1 << k)]
    parent: list[list[int]] = [[-1] * k for _ in range(1 << k)]
    for i in range(k):
        if release[i] <= deadline[i] + config.EPS:
            cost[1 << i][i] = m.distance(inst.server_start, point[i])
    for mask in range(1, 1 << k):
        for last in range(k):
            c = cost[mask][last]
            if c == INF or not mask & (1 << last):
                continue
            t_done = completion[mask]
            for nxt in range(k):
                if mask & (1 << nxt):
                    continue
                if max(t_done, release[nxt]) > deadline[nxt] + config.EPS:
                    continue
                nmask = mask | (1 << nxt)
                nc = c + m.distance(point[last], point[nxt])
                if nc < cost[nmask][nxt] - 1e-15:
                    cost[nmask][nxt] = nc
                    parent[nmask][nxt] = last
    best_last = min(range(k), key=lambda i: (cost[full][i], i))
    assert cost[full][best_last] < INF, "deadline instances are always feasible"

    order = []
    mask, last = full, best_last
    while last != -1:
        order.append(last)
        mask, last = mask ^ (1 << last), parent[mask][last]
    order.reverse()

    events = []
    pos = inst.server_start
    t = -math.inf
    movement = 0.0
    service_time: dict[int, float] = {}
    for i in order:
        t = max(t, release[i])
        walk = m.shortest_path_nodes(pos, point[i])
        movement += walk_cost(m, walk)
        events.append(OptEvent(time=t, walk=tuple(walk), served_ids=(reqs[i].id,)))
        service_time[reqs[i].id] = t
        pos = point[i]
    return OptTrace("deadline", inst.server_start, tuple(events), movement, 0.0, service_time)


class _BatchWalksReference:
    """Cheapest walks through point sets by scalar bitmask DP."""

    def __init__(self, m: MetricSpace):
        self.m = m
        self.memo: dict[tuple[int, tuple[int, ...]], dict[int, float]] = {}
        self.orders: dict[tuple[int, tuple[int, ...], int], tuple[int, ...]] = {}

    def end_costs(self, start: int, pts: tuple[int, ...]) -> dict[int, float]:
        key = (start, pts)
        if key in self.memo:
            return self.memo[key]
        k = len(pts)
        dp = [[math.inf] * k for _ in range(1 << k)]
        par = [[None] * k for _ in range(1 << k)]
        for i in range(k):
            dp[1 << i][i] = self.m.distance(start, pts[i])
        for mask in range(1, 1 << k):
            for last in range(k):
                c = dp[mask][last]
                if c == math.inf or not mask & (1 << last):
                    continue
                for nxt in range(k):
                    if mask & (1 << nxt):
                        continue
                    nc = c + self.m.distance(pts[last], pts[nxt])
                    nmask = mask | (1 << nxt)
                    if nc < dp[nmask][nxt] - 1e-15:
                        dp[nmask][nxt] = nc
                        par[nmask][nxt] = last
        full = (1 << k) - 1
        out = {}
        for i in range(k):
            out[pts[i]] = dp[full][i]
            seq = []
            mask, last = full, i
            while last is not None:
                seq.append(pts[last])
                mask, last = mask ^ (1 << last), par[mask][last]
            self.orders[(start, pts, pts[i])] = tuple(reversed(seq))
        self.memo[key] = out
        return out

    def order(self, start: int, pts: tuple[int, ...], end: int) -> tuple[int, ...]:
        self.end_costs(start, pts)
        return self.orders[(start, pts, end)]


def opt_delay_reference(inst: Instance) -> OptTrace:
    """DP over (release event, position, served subset) with scalar walks."""
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
            if q.release <= t + config.EPS:
                released_mask[j] |= 1 << i
    walks = _BatchWalksReference(m)
    full = (1 << k) - 1

    states: dict[tuple[int, int], float] = {(inst.server_start, 0): 0.0}
    back: dict[tuple[int, tuple[int, int]], tuple] = {}
    for j in range(n_ev):
        nxt: dict[tuple[int, int], float] = {}

        def consider(key, cost, parent_key, batch, order):
            if cost < nxt.get(key, math.inf) - 1e-15:
                nxt[key] = cost
                back[(j, key)] = (parent_key, batch, order)

        for (pos, served), cost in states.items():
            pending = released_mask[j] & ~served
            if j == n_ev - 1:
                subsets = [pending]
            else:
                subsets = []
                s = pending
                while True:
                    subsets.append(s)
                    if s == 0:
                        break
                    s = (s - 1) & pending
            for sub in subsets:
                if sub == 0:
                    consider((pos, served), cost, (pos, served), 0, ())
                    continue
                batch_pts = tuple(sorted({reqs[i].point for i in range(k) if sub & (1 << i)}))
                extra_delay = sum(delay_at[i][j] for i in range(k) if sub & (1 << i))
                for end, wcost in walks.end_costs(pos, batch_pts).items():
                    consider(
                        (end, served | sub),
                        cost + wcost + extra_delay,
                        (pos, served),
                        sub,
                        walks.order(pos, batch_pts, end),
                    )
        states = nxt

    finals = {key: c for key, c in states.items() if key[1] == full}
    best_key = min(finals, key=lambda key: (finals[key], key))

    steps = []
    key = best_key
    for j in range(n_ev - 1, -1, -1):
        parent_key, batch, order = back[(j, key)]
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
    return OptTrace("delay", inst.server_start, tuple(out_events), movement, delay_cost, service_time)


# ---------------------------------------------------------------------------
# reference instance writer: the document built as a dict and written by
# json, kept verbatim so that the template writer can be checked against
# it byte for byte
# ---------------------------------------------------------------------------


def serialize_instance_reference(inst: Instance) -> str:
    doc = {
        "graph": {
            "nodes": inst.graph.node_count,
            "edges": [[u, v, w] for u, v, w in inst.graph.edges],
        },
        "server_start": inst.server_start,
        "mode": inst.mode,
        "requests": [],
    }
    for q in inst.requests:
        if inst.mode == "deadline":
            doc["requests"].append(
                {"id": q.id, "point": q.point, "release": q.release, "deadline": q.deadline}
            )
        else:
            doc["requests"].append(
                {
                    "id": q.id,
                    "point": q.point,
                    "release": q.release,
                    "delay": {
                        "breakpoints": [[t, y] for t, y in q.delay.breakpoints],
                        "final_slope": q.delay.final_slope,
                    },
                }
            )
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
