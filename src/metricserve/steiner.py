"""Steiner-tree and prize-collecting Steiner-tree solvers.

One polynomial constant-factor approximation for each problem, the route
the online engines take:

- ``steiner_approx``: metric-closure MST expanded through shortest paths
  (the classic 2-approximation).
- ``pcst_approx``: primal-dual moat growth with strong pruning
  (Goemans-Williamson style; factor 2, well inside the required 3).

The exact exponential solvers that audit them (Dreyfus-Wagner, capped at
10 terminals) are test oracles in ``tests/exact.py``.

Ties break deterministically so traces are reproducible: Kruskal orders
equal weights by node ids, shortest paths prefer the lowest-id neighbour,
and ``pcst_approx`` keeps the first event in its scan order unless a later
one is smaller by more than ``1e-15``.

One closure MST
---------------
``steiner_approx`` builds its closure MST by Prim: O(k^2) compares over
k terminals, and no edge list, sort or union-find.  Prim compares edges
by the strict key ``(w, min id, max id)``, each weight read from
``m.dist[max id, min id]``; no two edges share a key, so the MST is
unique, and Prim finds the same one as Kruskal over the whole closure.
The rest of a solve is cheap as well: ``MetricSpace.path_edges``
memoises each shortest-path expansion, a union of paths with one edge
fewer than nodes is already the tree the second Kruskal would return,
and leaf pruning is one queue pass that keeps list order, so costs are
summed in a fixed order.

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
from dataclasses import dataclass

from . import config
from .metric import EdgeSet, MetricSpace
from .walks import tree_dfs_nodes

__all__ = [
    "SteinerSolution",
    "PcstSolution",
    "steiner_approx",
    "pcst_approx",
    "certificate_margin",
]

WeightedEdge = tuple[float, int, int]  # (weight, min id, max id)


@dataclass(frozen=True)
class SteinerSolution:
    tree_edges: EdgeSet
    cost: float


@dataclass(frozen=True)
class PcstSolution:
    tree_edges: EdgeSet
    served: frozenset[int]
    tree_cost: float
    penalty_cost: float
    total_cost: float


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
    key (see the module docstring)."""
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
    return mst


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


def _solution(tree: list[WeightedEdge]) -> SteinerSolution:
    return SteinerSolution(
        tree_edges=frozenset([(u, v) for _, u, v in tree]),
        cost=sum([w for w, _, _ in tree]),
    )


# ---------------------------------------------------------------------------
# Steiner tree, 2-approximation (metric closure MST + path expansion)
# ---------------------------------------------------------------------------


def steiner_approx(m: MetricSpace, terminals) -> SteinerSolution:
    """Closure MST over the terminals by Prim, expanded through shortest
    paths, deduplicated into a tree and leaf-pruned."""
    terminals = frozenset(terminals)
    if not terminals:
        raise ValueError("terminal set must be nonempty")
    if len(terminals) == 1:
        return SteinerSolution(frozenset(), 0.0)
    union: set[WeightedEdge] = set()
    for _, u, v in _prim(m, sorted(terminals)):
        union.update(m.path_edges(u, v))
    return _solution(_tree_from_paths(union, terminals))


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
