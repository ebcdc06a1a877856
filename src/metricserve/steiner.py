"""Steiner-tree and prize-collecting Steiner-tree solvers.

Two routes for each problem: a polynomial constant-factor approximation
used inside the online engines, and an exact exponential oracle used by
tests and acceptance runs.

- ``steiner_approx``: metric-closure MST expanded through shortest paths
  (the classic 2-approximation).
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
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

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
]

_EXACT_TERMINAL_CAP = 10


class TerminalCapError(ValueError):
    """Exact solver invoked above its terminal-count cap."""


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


def infinite_penalty(m: MetricSpace) -> float:
    """Finite stand-in for an infinite penalty: forces service whenever
    connecting is at all possible (larger than 10x the total graph weight)."""
    return 10.0 * m.total_weight() + 1.0


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _kruskal(
    nodes: set[int], weighted_edges: list[tuple[float, int, int]]
) -> list[tuple[int, int]] | None:
    """MST edges over the given nodes; None if they end up disconnected.

    Ties break on (weight, u, v).
    """
    parent = {v: v for v in nodes}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    out = []
    for w, u, v in sorted(weighted_edges):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            out.append((min(u, v), max(u, v)))
    if len(out) != len(nodes) - 1:
        return None
    return out


def _prune_leaves(edges: list[tuple[int, int]], keep: set[int]) -> list[tuple[int, int]]:
    """Iteratively drop degree-1 nodes outside ``keep``."""
    edges = list(edges)
    while True:
        degree: dict[int, int] = {}
        for u, v in edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        removable = {v for v, d in degree.items() if d == 1 and v not in keep}
        if not removable:
            return edges
        edges = [e for e in edges if e[0] not in removable and e[1] not in removable]


def _edge_cost(m: MetricSpace, edges) -> float:
    return sum(m.edge_weight(u, v) for u, v in edges)


def _add_path(m: MetricSpace, u: int, v: int, out: set[tuple[int, int]]) -> None:
    path = m.shortest_path_nodes(u, v)
    out.update((min(a, b), max(a, b)) for a, b in zip(path, path[1:]))


def _tree_from_edges(
    m: MetricSpace, edges: set[tuple[int, int]], keep: set[int]
) -> list[tuple[int, int]]:
    """Deduplicate a shortest-path union into a tree spanning ``keep``."""
    if not edges:
        return []
    nodes = {u for e in edges for u in e} | keep
    mst = _kruskal(nodes, [(m.edge_weight(u, v), u, v) for u, v in edges])
    return _prune_leaves(mst, keep)


# ---------------------------------------------------------------------------
# Steiner tree, 2-approximation (metric closure MST + path expansion)
# ---------------------------------------------------------------------------


def steiner_approx(m: MetricSpace, terminals) -> SteinerSolution:
    terminals = set(terminals)
    if not terminals:
        raise ValueError("terminal set must be nonempty")
    if len(terminals) == 1:
        return SteinerSolution(tree_edges=frozenset(), cost=0.0)
    pts = sorted(terminals)
    closure = [
        (m.distance(pts[i], pts[j]), pts[i], pts[j])
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    ]
    closure_mst = _kruskal(set(pts), closure)
    union: set[tuple[int, int]] = set()
    for u, v in closure_mst:
        _add_path(m, u, v, union)
    nodes = {u for e in union for u in e}
    sub_mst = _kruskal(nodes, [(m.edge_weight(u, v), u, v) for u, v in union])
    pruned = _prune_leaves(sub_mst, terminals)
    return SteinerSolution(tree_edges=frozenset(pruned), cost=_edge_cost(m, pruned))


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

    def collect_edges(self, mask: int, v: int, out: set[tuple[int, int]]) -> None:
        if mask & (mask - 1) == 0:
            t = self.terminals[mask.bit_length() - 1]
            if t != v:
                _add_path(self.m, v, t, out)
            return
        u = int(self.grow_from[mask][v])
        if u != v:
            _add_path(self.m, v, u, out)
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
    edges: set[tuple[int, int]] = set()
    dw.collect_edges(full, root, edges)
    tree = _tree_from_edges(m, edges, set(terminals))
    tree_cost = _edge_cost(m, tree)
    # path unions may share edges; the deduplicated tree is still optimal
    assert tree_cost <= dw.cost[full][root] + 1e-6
    return SteinerSolution(tree_edges=frozenset(tree), cost=tree_cost)


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
    edges: set[tuple[int, int]] = set()
    if best_mask:
        dw.collect_edges(best_mask, root, edges)
    served_pts = {others[i] for i in range(len(others)) if best_mask & (1 << i)}
    tree = _tree_from_edges(m, edges, served_pts | {root}) if served_pts else []
    tree_cost = _edge_cost(m, tree)
    served = frozenset(served_pts | ({root} if root in terminals else set()))
    penalty_cost = sum(penalties.get(t, 0.0) for t in terminals if t not in served)
    return PcstSolution(
        tree_edges=frozenset(tree),
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
    # edges between distinct components, in sorted order
    edges = [(u, v, m.edge_weight(u, v)) for u, v in sorted(m.edges)]
    forest: list[tuple[int, int]] = []

    while live:
        best_delta = math.inf
        best_event: tuple | None = None
        for u, v, w in edges:
            rate = active[comp[u]] + active[comp[v]]
            if rate == 0:
                continue
            slack = w - depth[u] - depth[v]  # max(0.0, slack) without the call
            delta = (slack if slack > 0.0 else 0.0) / rate
            if delta < best_delta - 1e-15:
                best_delta = delta
                best_event = ("edge", u, v)
        for c in live:
            if surplus[c] < best_delta - 1e-15:
                best_delta = surplus[c]
                best_event = ("deactivate", c)
        if best_event is None:
            break
        for c in live:
            surplus[c] -= best_delta
            for v in members[c]:
                depth[v] += best_delta
        if best_event[0] == "edge":
            _, u, v = best_event
            cu, cv = comp[u], comp[v]
            forest.append((min(u, v), max(u, v)))
            for x in members[cu]:
                comp[x] = cv
            members[cv].extend(members[cu])
            surplus[cv] = max(0.0, surplus[cu]) + max(0.0, surplus[cv])
            active[cv] = comp[root] != cv and surplus[cv] > eps
            live = [c for c in live if c != cu and c != cv]
            if active[cv]:
                bisect.insort(live, cv)
            edges = [e for e in edges if comp[e[0]] != comp[e[1]]]
        else:
            c = best_event[1]
            surplus[c] = 0.0
            active[c] = False
            live.remove(c)

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
    tree_nodes = {root}
    changed = True
    while changed:
        changed = False
        for u, v in kept:
            in_u, in_v = u in tree_nodes, v in tree_nodes
            if in_u != in_v:
                tree_nodes.update((u, v))
                changed = True
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
