"""Steiner-tree and prize-collecting Steiner-tree solvers.

Two routes for each problem: a polynomial constant-factor approximation
used inside the online engines, and an exact exponential oracle used by
tests and acceptance runs.

- ``steiner_approx``: metric-closure MST expanded through shortest paths
  (the classic 2-approximation), optionally grown from an earlier
  solution over fewer terminals.
- ``steiner_exact``: subset dynamic programming over terminals
  (Dreyfus-Wagner), capped at 10 terminals.
- ``pcst_approx``: primal-dual moat growth with strong pruning
  (Goemans-Williamson style; factor 2, well inside the required 3).
- ``pcst_exact``: one Dreyfus-Wagner table plus a scan over served
  subsets, capped at 10 terminals.

Ties break deterministically so traces are reproducible: Kruskal orders
equal weights by node ids, shortest paths prefer the lowest-id neighbour,
and ``pcst_approx`` keeps the first event in its scan order unless a later
one is smaller by more than ``1e-15``.

Growing a Steiner tree
----------------------
The deadline engine adds terminals one at a time and needs the tree
after each step.  A ``SteinerSolution`` from ``steiner_approx`` keeps its
terminals and its closure-MST edges, and ``steiner_approx(m, T,
grow_from=s)`` with ``s.terminals`` a subset of ``T`` runs Kruskal only
over ``s``'s closure-MST edges plus the closure edges of the new
terminals, read as one row of ``m.dist`` each.  This is exact, not an
approximation of the batch result: Kruskal orders edges by the strict key
``(w, u, v)``, so the MST is unique, and by the cycle property every
closure edge between old terminals that is not in the old MST is the
largest key on a cycle of old edges, so it is not in the new MST either.
The batch call is growth from nothing.  The rest of a step is cheap as
well: ``MetricSpace.path_edges`` memoises each shortest-path expansion,
a union of paths with one edge fewer than nodes is already the tree the
second Kruskal would return, and leaf pruning is one queue pass that
keeps list order, so costs are summed in the same order as before.

Moat events that take no time
-----------------------------
Each event of ``pcst_approx`` is chosen by a scan over the candidates in
scan order: edges in ``(u, v)`` order, then live components by root id.
The scan keeps the running best ``b`` and replaces it by a value ``x``
only when ``x < b - 1e-15``, with the difference rounded to a float.  On
inputs with many equal distances, such as a star of equal leaves, most
events take no time: their delta is 0.0.  Adding 0.0 to a depth or
subtracting it from a surplus gives an equal value, so the loop skips
that pass, and every candidate then keeps the value the scan gave it
except the edges and the components that the event itself merges or
deactivates.  So after the first such event the loop keeps the
candidates in a list sorted by (value, scan position) and re-keys only
those, until an event takes time.

Let ``(m, p)`` be the front of that list and ``v`` the smallest value
above ``m``.  When ``m < v - 1e-15`` (the scan's own test, in floats),
the scan picks ``p``.  Every candidate the scan meets before ``p`` has a
value other than ``m`` (one equal to it, met earlier, would sort first),
so at least ``v``, and the running best ``b`` on reaching ``p`` is one of
those values or infinite.  Rounding is monotone, so ``b - 1e-15 >= v -
1e-15 > m`` and ``p`` replaces ``b``.  After ``p`` every value ``x`` is at
least ``m``, which is at least ``m - 1e-15``, so none replaces it.  When
the test fails, ``v`` is in the tie window, and the loop replays the
scan.  The window is narrow: with ``g <= math.ulp(m)`` the gap from ``m``
to the next float, ``v - 1e-15`` rounds to at most ``m`` only if ``v <=
m + 1e-15 + g / 2``, and ``v >= m + g``, so the window lies inside
``(m, m + 1e-15 + math.ulp(m) / 2]`` and is empty once ``g`` exceeds
``2e-15`` (from about ``m = 16`` on).  Any fixed width of at least
``2e-15`` would hold every rival; testing ``v`` itself needs none.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import config
from .metric import EdgeSet, MetricSpace

__all__ = [
    "SteinerSolution",
    "PcstSolution",
    "TerminalCapError",
    "steiner_approx",
    "steiner_exact",
    "pcst_approx",
    "pcst_exact",
    "infinite_penalty",
    "certificate_margin",
]

_EXACT_TERMINAL_CAP = 10


class TerminalCapError(ValueError):
    """Exact solver invoked above its terminal-count cap."""


WeightedEdge = tuple[float, int, int]  # (weight, min id, max id)


@dataclass(frozen=True)
class SteinerSolution:
    tree_edges: EdgeSet
    cost: float
    # what steiner_approx needs to grow this solution by more terminals
    terminals: frozenset[int] = field(default=frozenset(), compare=False, repr=False)
    closure_mst: tuple[WeightedEdge, ...] = field(default=(), compare=False, repr=False)


_NOTHING = SteinerSolution(frozenset(), 0.0)


@dataclass(frozen=True)
class PcstSolution:
    tree_edges: EdgeSet
    served: frozenset[int]
    tree_cost: float
    penalty_cost: float
    total_cost: float


def infinite_penalty(m: MetricSpace) -> float:
    """Finite stand-in for an infinite penalty: forces service whenever
    connecting is at all possible (larger than 10x the total graph weight)."""
    return 10.0 * m.total_weight() + 1.0


def certificate_margin(n_terminals: int, n_nodes: int, scale: float) -> float:
    """Additive slack of ``steiner_approx`` and ``pcst_approx`` over twice
    the optimum, for a solve with ``n_terminals`` terminals in a space of
    ``n_nodes`` nodes whose costs are at most ``scale``.  The engines'
    certificates rest on it: see ``DeadlineEngine.upon_deadline`` and
    ``DelayEngine._forwarding_time`` for what it covers."""
    return (n_terminals + n_nodes + 1) * config.EPS_VAL + 1e-9 * scale


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _kruskal(nodes: set[int], candidates) -> list[WeightedEdge] | None:
    """MST edges over the given nodes in acceptance order, that is sorted by
    (weight, u, v); None if the nodes end up disconnected."""
    parent = {v: v for v in nodes}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    out = []
    need = len(nodes) - 1
    for e in sorted(candidates):
        if len(out) == need:
            break
        ru, rv = find(e[1]), find(e[2])
        if ru != rv:
            parent[ru] = rv
            out.append(e)
    if len(out) != need:
        return None
    return out


def _prune_leaves(edges: list[WeightedEdge], keep: set[int]) -> list[WeightedEdge]:
    """Drop degree-1 nodes outside ``keep`` until none is left.

    One pass over a queue of leaves; the surviving edges keep their list
    order, so sums over them add the same weights in the same order.
    """
    if not edges:
        return edges
    _, us, vs = zip(*edges)
    degree = Counter(us)
    degree.update(vs)
    leaves = [x for x, d in degree.items() if d == 1 and x not in keep]
    if not leaves:
        return edges
    incident: dict[int, list[int]] = {}
    for i, (_, u, v) in enumerate(edges):
        incident.setdefault(u, []).append(i)
        incident.setdefault(v, []).append(i)
    alive = [True] * len(edges)
    while leaves:
        x = leaves.pop()
        for i in incident[x]:
            if alive[i]:
                alive[i] = False
                _, u, v = edges[i]
                y = v if u == x else u
                degree[y] -= 1
                if degree[y] == 1 and y not in keep:
                    leaves.append(y)
                break
    return [e for e, a in zip(edges, alive) if a]


def _edge_cost(m: MetricSpace, edges) -> float:
    return sum(m.edge_weight(u, v) for u, v in edges)


def _tree_from_paths(union: set[WeightedEdge], keep: set[int]) -> list[WeightedEdge]:
    """Deduplicate a connected union of shortest paths into a tree
    spanning ``keep``, by Kruskal and leaf pruning.  A union with one edge
    fewer than nodes is already a tree, and Kruskal would return it
    sorted."""
    if not union:
        return []
    _, us, vs = zip(*union)
    nodes = set(us)
    nodes.update(vs)
    if len(union) == len(nodes) - 1:
        mst = sorted(union)
    else:
        mst = _kruskal(nodes, union)
    return _prune_leaves(mst, keep)


def _solution(tree: list[WeightedEdge], **extra) -> SteinerSolution:
    return SteinerSolution(
        tree_edges=frozenset([(u, v) for _, u, v in tree]),
        cost=sum([w for w, _, _ in tree]),
        **extra,
    )


# ---------------------------------------------------------------------------
# Steiner tree, 2-approximation (metric closure MST + path expansion)
# ---------------------------------------------------------------------------


def steiner_approx(
    m: MetricSpace, terminals, grow_from: SteinerSolution | None = None
) -> SteinerSolution:
    """Closure MST over the terminals, expanded through shortest paths,
    deduplicated into a tree and leaf-pruned.

    ``grow_from`` is an earlier solution in the same metric.  When its
    terminals are a subset of these, Kruskal only looks at its closure-MST
    edges and the new terminals' closure edges; otherwise, and without
    it, at the whole closure.  Both give the same tree (see the module
    docstring).
    """
    terminals = frozenset(terminals)
    if not terminals:
        raise ValueError("terminal set must be nonempty")
    if grow_from is None or not grow_from.terminals <= terminals:
        grow_from = _NOTHING
    elif grow_from.terminals == terminals:
        return grow_from
    if len(terminals) == 1:
        return SteinerSolution(frozenset(), 0.0, terminals=terminals)
    old = grow_from.terminals
    known = sorted(old)
    candidates = list(grow_from.closure_mst)
    for t in sorted(terminals - old):
        # closure edges from t to the terminals placed so far: one row slice
        ws = m.dist[t, known].tolist()
        i = bisect.bisect(known, t)
        candidates += zip(ws[:i], known[:i], repeat(t))
        candidates += zip(ws[i:], repeat(t), known[i:])
        known.insert(i, t)
    closure_mst = _kruskal(terminals, candidates)
    union: set[WeightedEdge] = set()
    for _, u, v in closure_mst:
        union.update(m.path_edges(u, v))
    return _solution(
        _tree_from_paths(union, terminals),
        terminals=terminals,
        closure_mst=tuple(closure_mst),
    )


# ---------------------------------------------------------------------------
# Steiner tree, exact (Dreyfus-Wagner subset DP)
# ---------------------------------------------------------------------------


class _DreyfusWagner:
    """DP tables over terminal subsets.

    ``cost[mask][v]`` is the optimal cost of a tree connecting the
    terminals of ``mask`` and the node ``v``.  Recurrence per composite
    mask: first the best split of the mask at each node, then one
    relaxation through the metric closure (exact because distances are a
    metric).  ``split_from[mask][v]`` stores the chosen sub-mask and
    ``grow_from[mask][v]`` the relaxation predecessor for reconstruction.
    """

    def __init__(self, m: MetricSpace, terminals: list[int]):
        self.m = m
        self.terminals = terminals
        n, k = m.n, len(terminals)
        dist = m.dist
        full = 1 << k
        self.cost = np.full((full, n), np.inf)
        self.split_from = np.zeros((full, n), dtype=np.int64)
        self.grow_from = np.zeros((full, n), dtype=np.int64)
        for i, t in enumerate(terminals):
            self.cost[1 << i] = dist[t]
            self.grow_from[1 << i] = np.arange(n)
        for mask in range(1, full):
            if mask & (mask - 1) == 0:
                continue
            split_cost = np.full(n, np.inf)
            split_pick = np.zeros(n, dtype=np.int64)
            sub = (mask - 1) & mask
            while sub:
                rest = mask ^ sub
                if sub < rest:
                    cand = self.cost[sub] + self.cost[rest]
                    better = cand < split_cost - 1e-15
                    split_cost = np.where(better, cand, split_cost)
                    split_pick[better] = sub
                sub = (sub - 1) & mask
            totals = split_cost[:, None] + dist
            self.cost[mask] = totals.min(axis=0)
            self.grow_from[mask] = totals.argmin(axis=0)
            self.split_from[mask] = split_pick

    def collect_edges(self, mask: int, v: int, out: set[WeightedEdge]) -> None:
        if mask & (mask - 1) == 0:
            out.update(self.m.path_edges(v, self.terminals[mask.bit_length() - 1]))
            return
        u = int(self.grow_from[mask][v])
        out.update(self.m.path_edges(v, u))
        sub = int(self.split_from[mask][u])
        self.collect_edges(sub, u, out)
        self.collect_edges(mask ^ sub, u, out)


def steiner_exact(m: MetricSpace, terminals) -> SteinerSolution:
    terminals = sorted(set(terminals))
    if not terminals:
        raise ValueError("terminal set must be nonempty")
    if len(terminals) > _EXACT_TERMINAL_CAP:
        raise TerminalCapError(
            f"steiner_exact supports at most {_EXACT_TERMINAL_CAP} terminals, "
            f"got {len(terminals)}"
        )
    if len(terminals) == 1:
        return SteinerSolution(tree_edges=frozenset(), cost=0.0)
    dw = _DreyfusWagner(m, terminals)
    full = (1 << len(terminals)) - 1
    root = terminals[0]
    union: set[WeightedEdge] = set()
    dw.collect_edges(full, root, union)
    solution = _solution(_tree_from_paths(union, set(terminals)))
    # path unions may share edges; the deduplicated tree is still optimal
    assert solution.cost <= dw.cost[full][root] + 1e-6
    return solution


# ---------------------------------------------------------------------------
# prize-collecting Steiner tree, exact
# ---------------------------------------------------------------------------


def pcst_exact(m: MetricSpace, terminals, penalties: dict[int, float], root: int) -> PcstSolution:
    terminals = sorted(set(terminals))
    for t in terminals:
        if penalties.get(t, 0.0) < 0:
            raise ValueError("penalties must be nonnegative")
    others = [t for t in terminals if t != root]
    if len(others) > _EXACT_TERMINAL_CAP:
        raise TerminalCapError(
            f"pcst_exact supports at most {_EXACT_TERMINAL_CAP} terminals, got {len(others)}"
        )
    if not others:
        served = frozenset(t for t in terminals if t == root)
        return PcstSolution(frozenset(), served, 0.0, 0.0, 0.0)
    dw = _DreyfusWagner(m, others)
    total_penalty = sum(penalties.get(t, 0.0) for t in others)
    best_total, best_mask = total_penalty, 0
    for mask in range(1, 1 << len(others)):
        pen = total_penalty - sum(
            penalties.get(others[i], 0.0) for i in range(len(others)) if mask & (1 << i)
        )
        total = float(dw.cost[mask][root]) + pen
        if total < best_total - 1e-12:
            best_total, best_mask = total, mask
    union: set[WeightedEdge] = set()
    if best_mask:
        dw.collect_edges(best_mask, root, union)
    served_pts = {others[i] for i in range(len(others)) if best_mask & (1 << i)}
    tree = _tree_from_paths(union, served_pts | {root})
    tree_cost = sum(w for w, _, _ in tree)
    served = frozenset(served_pts | ({root} if root in terminals else set()))
    penalty_cost = sum(penalties.get(t, 0.0) for t in terminals if t not in served)
    return PcstSolution(
        tree_edges=frozenset((u, v) for _, u, v in tree),
        served=served,
        tree_cost=tree_cost,
        penalty_cost=penalty_cost,
        total_cost=tree_cost + penalty_cost,
    )


# ---------------------------------------------------------------------------
# prize-collecting Steiner tree, primal-dual approximation
# ---------------------------------------------------------------------------


def pcst_approx(m: MetricSpace, terminals, penalties: dict[int, float], root: int) -> PcstSolution:
    """Moat growth plus strong pruning, rooted variant.

    Components not containing the root grow uniform duals while they have
    surplus (remaining penalty mass); an edge goes tight when the moats
    around its endpoints cover its weight; tight edges merge components.
    The tree hanging off the root's component is then strong-pruned: a
    subtree is kept only when the penalty mass it rescues exceeds the
    edge cost paid to reach it.

    Each moat event is the first candidate in scan order: edges going tight
    in sorted ``(u, v)`` order, then active components running out of
    surplus by ascending root id.  A later candidate replaces the current
    one only when it is smaller by more than ``1e-15``; a merge keeps the
    root id of the edge's ``v`` side.

    An event whose delta is 0.0 changes no depth or surplus, so it skips
    that pass.  From the first such event until one takes time, the
    candidates sit in a list sorted by (value, scan position), and only
    those the event merged or deactivated are re-keyed.  The front is the
    scan's event unless the next larger value fails the scan's own
    ``1e-15`` test against it; then the scan is replayed.  The module
    docstring proves both steps exact and bounds the tie window.
    """
    terminals = set(terminals)
    for t in terminals:
        if penalties.get(t, 0.0) < 0:
            raise ValueError("penalties must be nonnegative")
    eps = config.EPS_VAL

    # every node carries the id of its component's root; a merge relabels
    # the members of the absorbed root
    comp = list(range(m.n))
    members: list[list[int]] = [[v] for v in range(m.n)]
    surplus = [0.0] * m.n
    active = [False] * m.n
    for t in terminals:
        if t != root:
            surplus[t] = penalties.get(t, 0.0)
            active[t] = surplus[t] > eps
    live = sorted(t for t in terminals if active[t])  # active roots, ascending

    depth = [0.0] * m.n  # accumulated moat depth per node
    # edges between distinct components, in sorted order; a merge marks the
    # list stale, and the next scan filters it
    edges = m.sorted_edges
    stale = False
    forest: list[tuple[int, int]] = []
    # While the depths stand still: every candidate, (value, 0, u, v) for
    # an edge and (value, 1, c) for a live component, in sorted order;
    # ``keyed`` maps each candidate's key to its entry, ``incident`` each
    # node to its edges (built with the first queue).
    queue: list[tuple] | None = None
    keyed: dict[tuple, tuple] = {}
    incident: dict[int, list[tuple[int, int, float]]] = {}

    def edge_value(u: int, v: int, w: float) -> float:
        """The scan's value for the edge; inf when it is no candidate."""
        cu, cv = comp[u], comp[v]
        rate = active[cu] + active[cv] if cu != cv else 0
        if rate == 0:
            return math.inf
        slack = w - depth[u] - depth[v]  # max(0.0, slack) without the call
        return (slack if slack > 0.0 else 0.0) / rate

    def requeue(key: tuple, value: float) -> None:
        """Give a candidate its current value; inf takes it out."""
        old = keyed.pop(key, None)
        if old is not None:
            if old[0] == value:
                keyed[key] = old
                return
            del queue[bisect.bisect_left(queue, old)]
        if value < math.inf:
            keyed[key] = entry = (value, *key)
            bisect.insort(queue, entry)

    def requeue_edges(nodes) -> None:
        for x in nodes:
            for u, v, w in incident.get(x, ()):
                requeue((0, u, v), edge_value(u, v, w))

    while live:
        best_event: tuple | None = None
        if queue is not None:
            if not queue:
                break
            best_delta = queue[0][0]
            # the smallest value above the minimum decides, by the scan's test
            rival = bisect.bisect_right(queue, (best_delta, 2))
            if rival == len(queue) or best_delta < queue[rival][0] - 1e-15:
                best_event = queue[0][1:]
        if best_event is None:
            if stale:
                edges = [e for e in edges if comp[e[0]] != comp[e[1]]]
                stale = False
            best_delta = math.inf
            for u, v, w in edges:
                rate = active[comp[u]] + active[comp[v]]
                if rate == 0:
                    continue
                slack = w - depth[u] - depth[v]
                delta = (slack if slack > 0.0 else 0.0) / rate
                if delta < best_delta - 1e-15:
                    best_delta = delta
                    best_event = (0, u, v)
            for c in live:
                if surplus[c] < best_delta - 1e-15:
                    best_delta = surplus[c]
                    best_event = (1, c)
            if best_event is None:
                break
        if best_delta != 0.0:
            queue = None
            for c in live:
                surplus[c] -= best_delta
                for v in members[c]:
                    depth[v] += best_delta
        if best_event[0] == 0:
            _, u, v = best_event
            cu, cv = comp[u], comp[v]
            was_u, was_v = active[cu], active[cv]
            nu, nv = len(members[cu]), len(members[cv])
            forest.append((min(u, v), max(u, v)))
            for x in members[cu]:
                comp[x] = cv
            members[cv].extend(members[cu])
            surplus[cv] = max(0.0, surplus[cu]) + max(0.0, surplus[cv])
            active[cv] = comp[root] != cv and surplus[cv] > eps
            live = [c for c in live if c != cu and c != cv]
            if active[cv]:
                bisect.insort(live, cv)
            stale = True
            if queue is not None:
                requeue((1, cu), math.inf)
                requeue((1, cv), surplus[cv] if active[cv] else math.inf)
                # the smaller side holds an end of each edge now inside cv;
                # a side whose activity changed re-rates all of its edges
                if was_v != active[cv] or nv < nu:
                    requeue_edges(members[cv][:nv])
                if was_u != active[cv] or nu <= nv:
                    requeue_edges(members[cu])
        else:
            c = best_event[1]
            surplus[c] = 0.0
            active[c] = False
            live.remove(c)
            if queue is not None:
                requeue((1, c), math.inf)
                requeue_edges(members[c])
        if queue is None and best_delta == 0.0:
            # edge_value leaves out the edges a merge put inside a component
            if not incident:
                for e in edges:
                    incident.setdefault(e[0], []).append(e)
                    incident.setdefault(e[1], []).append(e)
            queue = [(edge_value(u, v, w), 0, u, v) for u, v, w in edges]
            queue += [(surplus[c], 1, c) for c in live]
            queue = sorted(e for e in queue if e[0] < math.inf)
            keyed = {e[1:]: e for e in queue}

    # strong pruning over the forest tree containing the root: keep a child
    # subtree only when the penalty mass it rescues strictly exceeds the
    # cost of the edge reaching it.  Post-order over an explicit stack of
    # [node, parent, remaining children, benefit], children by ascending id.
    adj: dict[int, list[int]] = {}
    for u, v in forest:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    def open_frame(u: int, par: int) -> list:
        b = penalties.get(u, 0.0) if u in terminals else 0.0
        return [u, par, iter(sorted(adj.get(u, []))), b]

    kept: set[tuple[int, int]] = set()
    stack = [open_frame(root, -1)]
    while stack:
        frame = stack[-1]
        u, par, children, _ = frame
        for v in children:
            if v != par:
                stack.append(open_frame(v, u))
                break
        else:
            stack.pop()
            if stack:
                up = stack[-1]
                w = m.edge_weight(up[0], u)
                if frame[3] > w + eps:
                    kept.add((min(up[0], u), max(up[0], u)))
                    up[3] += frame[3] - w
    # the root's component of the kept edges, a subforest of the forest
    tree_nodes = {root}
    todo = [root]
    while todo:
        u = todo.pop()
        for v in adj.get(u, ()):
            if v not in tree_nodes and (min(u, v), max(u, v)) in kept:
                tree_nodes.add(v)
                todo.append(v)
    tree = [e for e in kept if e[0] in tree_nodes and e[1] in tree_nodes]
    served = frozenset(t for t in terminals if t in tree_nodes or t == root)
    tree_cost = _edge_cost(m, tree)
    penalty_cost = sum(penalties.get(t, 0.0) for t in terminals if t not in served)
    return PcstSolution(
        tree_edges=frozenset(tree),
        served=served,
        tree_cost=tree_cost,
        penalty_cost=penalty_cost,
        total_cost=tree_cost + penalty_cost,
    )
