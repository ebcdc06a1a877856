"""Exact Steiner-tree and prize-collecting Steiner-tree solvers: the
test suite's oracles for the approximations the engines run.

- ``steiner_exact``: subset dynamic programming over terminals
  (Dreyfus-Wagner), capped at 10 terminals.
- ``pcst_exact``: one Dreyfus-Wagner table plus a scan over served
  subsets, capped at 10 terminals.

Both expand their trees through ``MetricSpace.path_edges`` and prune them
with the library's ``steiner._tree_from_paths``, as ``steiner_approx`` does.
"""

from __future__ import annotations

import numpy as np

from metricserve.metric import MetricSpace
from metricserve.steiner import (
    PcstSolution,
    SteinerSolution,
    WeightedEdge,
    _solution,
    _tree_from_paths,
)

_EXACT_TERMINAL_CAP = 10


class TerminalCapError(ValueError):
    """Exact solver invoked above its terminal-count cap."""


def infinite_penalty(m: MetricSpace) -> float:
    """Finite stand-in for an infinite penalty: forces service whenever
    connecting is at all possible (larger than 10x the total graph weight)."""
    return 10.0 * m.total_weight() + 1.0


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
    ``relax_from[mask][v]`` the relaxation predecessor for reconstruction.
    """

    def __init__(self, m: MetricSpace, terminals: list[int]):
        self.m = m
        self.terminals = terminals
        n, k = m.n, len(terminals)
        dist = m.dist
        full = 1 << k
        self.cost = np.full((full, n), np.inf)
        self.split_from = np.zeros((full, n), dtype=np.int64)
        self.relax_from = np.zeros((full, n), dtype=np.int64)
        for i, t in enumerate(terminals):
            self.cost[1 << i] = dist[t]
            self.relax_from[1 << i] = np.arange(n)
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
            self.relax_from[mask] = totals.argmin(axis=0)
            self.split_from[mask] = split_pick

    def collect_edges(self, mask: int, v: int, out: set[WeightedEdge]) -> None:
        if mask & (mask - 1) == 0:
            out.update(self.m.path_edges(v, self.terminals[mask.bit_length() - 1]))
            return
        u = int(self.relax_from[mask][v])
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
