"""Walks: hop expansion, walk cost, and depth-first tours (visit order and
independence from the recursion limit)."""

import random

from metricserve.metric import build_metric
from metricserve.walks import expand_hops, tree_adjacency, tree_dfs_nodes, walk_cost

from conftest import random_graph
from oracles import shortest_path_reference


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


def test_expand_hops_matches_reference_paths():
    """Hop by hop, the walk is the reference shortest path's nodes, on
    integer-weight graphs full of equal-length routes, with repeated hops
    (u -> u) and every pair also walked in reverse; its cost is the
    left-to-right sum of ``float(dist[u, v])``."""
    rng = random.Random(409)
    for i in range(200):
        n = rng.randint(1, 25)
        m = build_metric(random_graph(rng, n, extra_edges=rng.randrange(2 * n),
                                      weight_range=(1, 3), integer_weights=True))
        hops = [rng.randrange(n) for _ in range(rng.randint(1, 8))]
        for _ in range(3):
            j = rng.randrange(len(hops))
            hops.insert(j, hops[j])
        hops += hops[::-1]
        want = [hops[0]]
        for target in hops[1:]:
            want += shortest_path_reference(m, want[-1], target)[1:]
        walk = expand_hops(m, hops)
        assert walk == want, i
        assert walk_cost(m, walk) == sum(float(m.dist[u, v]) for u, v in zip(want, want[1:]))
    assert expand_hops(m, []) == []
