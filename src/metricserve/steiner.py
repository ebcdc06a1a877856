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
A call with nothing to grow from runs Prim instead: O(k^2) compares over
k terminals, and no edge list, sort or union-find.  Under the same strict
key, each weight read from ``m.dist[max id, min id]`` as Kruskal over the
whole closure reads it, Prim finds the same unique MST, and sorted by the
key its edges are in Kruskal's acceptance order, which growth consumes.
The rest of a step is cheap as well: ``MetricSpace.path_edges`` memoises
each shortest-path expansion, a union of paths with one edge fewer than
nodes is already the tree the second Kruskal would return, and leaf
pruning is one queue pass that keeps list order, so costs are summed in
the same order as before.

One scan per moat event
-----------------------
Each event of ``pcst_approx`` is chosen by one scan over the candidates
in scan order: edges in ``(u, v)`` order, then live components by root
id.  A value replaces the running best ``b`` only when it is below the
bar ``b - 1e-15``, rounded to a float.  Three rules keep every choice.

- *Zero-delta exit.*  Edge deltas are slacks clamped at 0.0 over a
  positive rate, so never negative.  Once one is 0.0 the bar is at most
  0.0 (it is ``-1e-15`` if that edge became ``b``), so no later edge can
  pass; the scan stops and keeps the unread edges for the next scan,
  which drops those a merge has put inside a component.
- *Surplus floor.*  ``floor`` is at most every live surplus, so when it
  is not below the bar no component can pass and none is scanned.  A
  component scan sets it to the least live surplus; an event that takes
  time resets it to ``-inf``.  An event that takes no time keeps it a
  bound: a deactivation drops a component, and a merge's ``max(0, s_u) +
  max(0, s_v)`` is at least the surplus of its live side.
- *No-merge exit.*  Let ``own(x)`` be the penalty of a terminal other
  than the root, else 0, and ``margin`` the solve's ``certificate_margin``
  scaled by the largest edge weight.  If every edge ``(u, v, w)`` has
  ``own(u) + own(v) + margin < w``, no edge event is ever chosen.  With no
  merge, every component is one node.  A terminal's depth ``d`` stays
  within rounding of its penalty less its surplus ``s``, which stays above
  about ``-1e-15``, and other depths stay 0.  So an edge with one live end
  has delta ``w - d(u) - d(v) > s(u) + margin`` and one with two has
  ``(w - d(u) - d(v)) / 2 > (s(u) + s(v) + margin) / 2``, up to rounding
  relative to penalties below ``w`` that the margin's ``1e-9 * scale``
  covers.  Every edge's delta thus exceeds the least live surplus by
  more than half the margin, at least ``EPS`` and far above ``1e-15``,
  and every event is a deactivation.  The forest stays empty, so the
  solve skips the growth.
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
from .walks import tree_dfs_nodes

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
    ``DelayEngine._forwarding_time`` for what it covers.  ``pcst_approx``
    also reads it as the gap of its no-merge exit (module docstring)."""
    return (n_terminals + n_nodes + 1) * config.EPS + 1e-9 * scale


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


def _prim(m: MetricSpace, terminals: list[int]) -> list[WeightedEdge]:
    """Closure MST over the sorted terminals by Prim under Kruskal's strict
    key, in Kruskal's acceptance order (see the module docstring)."""
    view = m.dist_view
    root, *rest = terminals
    # best[j]: the least key joining rest[j] to the tree
    best = [(view[t, root], root, t) for t in rest]
    mst = []
    while best:
        i = best.index(min(best))
        mst.append(best.pop(i))
        x = rest.pop(i)
        for j, t in enumerate(rest):
            key = (view[x, t], t, x) if t < x else (view[t, x], x, t)
            if key < best[j]:
                best[j] = key
    return sorted(mst)


def _prune_leaves(edges: list[WeightedEdge], keep: set[int]) -> list[WeightedEdge]:
    """Drop degree-1 nodes outside ``keep`` from nonempty ``edges`` until none is left.

    One pass over a queue of leaves; the surviving edges keep their list
    order, so sums over them add the same weights in the same order.
    """
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
    terminals are a nonempty subset of these, Kruskal only looks at its
    closure-MST edges and the new terminals' closure edges; otherwise,
    and without it, Prim runs over the whole closure.  Both give the same
    tree (see the module docstring).
    """
    terminals = frozenset(terminals)
    if not terminals:
        raise ValueError("terminal set must be nonempty")
    old = grow_from.terminals if grow_from is not None else frozenset()
    if old == terminals:
        return grow_from
    if len(terminals) == 1:
        return SteinerSolution(frozenset(), 0.0, terminals=terminals)
    if not old or not old <= terminals:
        closure_mst = _prim(m, sorted(terminals))
    else:
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

    The edge scan stops at the first edge whose delta is 0.0, as no later
    edge can replace it, and keeps the unread rest of the sorted list for
    the next scan.  Live components are scanned only while ``floor``, a
    lower bound on their surpluses, is below the bar the edges left.  When
    no edge can go tight at all, the growth is skipped.  The module
    docstring proves the three rules exact.

    ``tree_cost`` adds the kept edges in the iteration order of the set
    ``kept``, which follows the node ids.  Summed in sorted order, some
    costs on 200-400-node graphs differ in the last bits, so renumbering
    the nodes (a closure keyed by point ids, say) can move tree costs.
    """
    terminals = set(terminals)
    for t in terminals:
        if penalties.get(t, 0.0) < 0:
            raise ValueError("penalties must be nonnegative")
    eps = config.EPS

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
    # edges between distinct components as of the last scan, in sorted
    # order, then the edges that scan left unread; each scan drops those a
    # merge has put inside a component
    edges = m.sorted_edges
    forest: dict[tuple[int, int], float] = {}  # (min id, max id) -> weight
    # the no-merge exit: no edge can go tight (see the module docstring)
    w_max = max((w for _, _, w in edges), default=0.0)
    margin = certificate_margin(len(terminals), m.n, w_max)
    if all(surplus[u] + surplus[v] + margin < w for u, v, w in edges):
        live = []
    floor = -math.inf  # at most every live surplus

    while live:
        best_delta = bar = math.inf
        best_event = None
        between = []
        unread = iter(edges)
        for e in unread:
            u, v, w = e
            cu, cv = comp[u], comp[v]
            if cu == cv:
                continue
            between.append(e)
            rate = active[cu] + active[cv]
            if rate == 0:
                continue
            slack = w - depth[u] - depth[v]
            delta = (slack if slack > 0.0 else 0.0) / rate
            if delta < bar:
                best_delta, bar = delta, delta - 1e-15
                best_event = (0, u, v)
            if delta == 0.0:
                # now bar <= 0.0, and no later delta is negative
                between.extend(unread)
                break
        edges = between
        if floor < bar:
            floor = math.inf
            for c in live:
                s = surplus[c]
                if s < floor:
                    floor = s
                if s < bar:
                    best_delta, bar = s, s - 1e-15
                    best_event = (1, c)
        if best_delta != 0.0:
            floor = -math.inf
            for c in live:
                surplus[c] -= best_delta
                for v in members[c]:
                    depth[v] += best_delta
        if best_event[0] == 0:
            _, u, v = best_event
            cu, cv = comp[u], comp[v]
            forest[(min(u, v), max(u, v))] = m.edge_weight(u, v)
            for x in members[cu]:
                comp[x] = cv
            members[cv].extend(members[cu])
            for c in (cu, cv):
                if active[c]:
                    live.remove(c)
            surplus[cv] = max(0.0, surplus[cu]) + max(0.0, surplus[cv])
            active[cv] = comp[root] != cv and surplus[cv] > eps
            if active[cv]:
                bisect.insort(live, cv)
        else:
            c = best_event[1]
            surplus[c] = 0.0
            active[c] = False
            live.remove(c)

    # strong pruning over the forest tree containing the root: keep a child
    # subtree only when the penalty mass it rescues strictly exceeds the
    # cost of the edge reaching it.  One depth-first tour, children by
    # ascending id: a step to a node already seen returns from a finished
    # child, so the benefits add up in post-order.
    tour = tree_dfs_nodes(forest, root)
    benefit = {root: 0.0}  # the root's own benefit is never read
    kept: set[tuple[int, int]] = set()
    for u, v in zip(tour, tour[1:]):
        if v not in benefit:
            benefit[v] = penalties.get(v, 0.0) if v in terminals else 0.0
            continue
        e = (min(u, v), max(u, v))
        if benefit[u] > forest[e] + eps:
            kept.add(e)
            benefit[v] += benefit[u] - forest[e]
    # the root's component of the kept edges: a node is in it when its parent
    # is and the edge between them is kept, and the tour reaches parents first
    tree_nodes = {root}
    for u, v in zip(tour, tour[1:]):
        if u in tree_nodes and v not in tree_nodes and (min(u, v), max(u, v)) in kept:
            tree_nodes.add(v)
    tree = [e for e in kept if e[0] in tree_nodes and e[1] in tree_nodes]
    served = frozenset(t for t in terminals if t in tree_nodes or t == root)
    tree_cost = sum(forest[e] for e in tree)
    penalty_cost = sum(penalties.get(t, 0.0) for t in terminals if t not in served)
    return PcstSolution(
        tree_edges=frozenset(tree),
        served=served,
        tree_cost=tree_cost,
        penalty_cost=penalty_cost,
        total_cost=tree_cost + penalty_cost,
    )
