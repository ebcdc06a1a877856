"""Depth-first tours: visit order and independence from the recursion limit."""

import random

from metricserve.walks import tree_adjacency, tree_dfs_nodes


def _recursive_tour(edges, start):
    """Reference: the recursive depth-first tour, children by ascending id."""
    adj = tree_adjacency(edges)
    tour = [start]

    def visit(u, parent):
        for v in adj.get(u, []):
            if v != parent:
                tour.append(v)
                visit(v, u)
                tour.append(u)

    visit(start, -1)
    return tour


def test_tree_dfs_nodes_matches_recursive_order():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(1, 30)
        labels = rng.sample(range(100), n)
        edges = []
        for v in range(1, n):
            a, b = labels[rng.randrange(v)], labels[v]
            edges.append((a, b) if rng.random() < 0.5 else (b, a))
        rng.shuffle(edges)
        start = rng.choice(labels)
        assert tree_dfs_nodes(edges, start) == _recursive_tour(edges, start)


def test_tree_dfs_nodes_deep_path():
    n = 1500
    edges = [(i, i + 1) for i in range(n - 1)]
    tour = tree_dfs_nodes(edges, 0)
    assert tour == list(range(n)) + list(range(n - 2, -1, -1))
