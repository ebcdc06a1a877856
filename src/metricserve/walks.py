"""Walk construction shared by the engines and the offline oracle.

Walks are node sequences; every hop between consecutive recorded nodes is
expanded through the deterministic (lexicographically smallest) shortest
path, and walk cost is the sum of consecutive distances.
"""

from __future__ import annotations

from .metric import MetricSpace

__all__ = ["expand_hops", "walk_cost", "tree_dfs_nodes", "tree_adjacency"]


def tree_adjacency(edges) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for u in adj:
        adj[u].sort()
    return adj


def tree_dfs_nodes(edges, start: int) -> list[int]:
    """Depth-first tour of a tree from start, children by ascending id.

    Returns the closed node tour [start, ..., start]; every tree edge is
    traversed exactly twice.
    """
    adj = tree_adjacency(edges)
    if start not in adj:
        return [start]
    tour = [start]
    # explicit stack of (node, parent, remaining children): no recursion limit
    stack = [(start, -1, iter(adj[start]))]
    while stack:
        u, parent, children = stack[-1]
        for v in children:
            if v != parent:
                tour.append(v)
                stack.append((v, u, iter(adj[v])))
                break
        else:
            stack.pop()
            if stack:
                tour.append(stack[-1][0])
    return tour


def expand_hops(m: MetricSpace, hops: list[int]) -> list[int]:
    """Expand a hop sequence into a full node walk along shortest paths."""
    walk = list(hops[:1])
    for target in hops[1:]:
        cur = walk[-1]
        if target != cur:
            for _, a, b in m.path_edges(cur, target):
                cur = b if a == cur else a
                walk.append(cur)
    return walk


def walk_cost(m: MetricSpace, walk: list[int]) -> float:
    return sum(map(m.dist_view.__getitem__, zip(walk, walk[1:])))
