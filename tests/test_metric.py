"""Metric construction, balls, edge-part measures, perforation bound."""

import random

import numpy as np
import pytest

from metricserve import metric
from metricserve.metric import (
    Ball,
    DisconnectedGraphError,
    MetricSpace,
    PerforatedBall,
    WeightedGraph,
    ball_points,
    build_metric,
    complete_graph_on,
    perforation_gap_bound_check,
    shape_edge_measure,
    shapes_edge_disjoint,
)

from conftest import random_graph
from oracles import (
    ball_buries_an_edge,
    ball_scan,
    complete_graph_on_reference,
    floyd_distances,
    interval_ball_measure,
)


def test_path_graph_distance(path_metric):
    assert path_metric.distance(0, 2) == 3.0
    assert path_metric.distance(2, 0) == 3.0
    assert path_metric.d_min == 1.0


def test_single_node_metric():
    m = build_metric(WeightedGraph(node_count=1, edges=()))
    assert m.n == 1
    assert m.distance(0, 0) == 0.0


def test_disconnected_graph_rejected():
    g = WeightedGraph(node_count=3, edges=((0, 1, 1.0),))
    with pytest.raises(DisconnectedGraphError):
        build_metric(g)


def test_graph_validation():
    with pytest.raises(ValueError):
        WeightedGraph(node_count=2, edges=((0, 0, 1.0),))
    with pytest.raises(ValueError):
        WeightedGraph(node_count=2, edges=((0, 1, -1.0),))
    with pytest.raises(ValueError):
        WeightedGraph(node_count=2, edges=((0, 3, 1.0),))
    with pytest.raises(ValueError):
        WeightedGraph(node_count=2, edges=((0, 1, 1.0), (1, 0, 2.0)))


@pytest.mark.parametrize("weight", [0.0, -1.0, float("inf"), float("-inf"), float("nan")])
def test_graph_rejects_non_positive_or_non_finite_weights(weight):
    """The edge is named: a NaN weight would otherwise fail inside the
    relaxation, and an infinite one would read as a disconnected node."""
    with pytest.raises(ValueError, match=r"edge \(1,2\) has weight .*, not finite and positive"):
        WeightedGraph(node_count=3, edges=((0, 1, 1.0), (1, 2, weight)))


def test_distances_match_floyd_oracle():
    """50 random graphs against a triple-loop relaxation, exact equality."""
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, 8, extra_edges=rng.randrange(6), integer_weights=True)
        m = build_metric(g)
        oracle = floyd_distances(g)
        for i in range(8):
            for j in range(8):
                assert m.distance(i, j) == oracle[i][j]


def test_in_place_relaxation_matches_out_of_place_loop():
    """Relaxing in place gives bit-identical distances to allocating a new
    matrix each round, on graphs whose weights span 1e-3 to 1e3."""
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(5, 120)
        tree = random_graph(rng, n, extra_edges=rng.randrange(2 * n))
        g = WeightedGraph(
            node_count=n,
            edges=tuple((u, v, w * 10.0 ** rng.uniform(-3, 2)) for u, v, w in tree.edges),
        )
        ref = np.full((n, n), np.inf)
        np.fill_diagonal(ref, 0.0)
        for u, v, w in g.edges:
            ref[u, v] = ref[v, u] = w
        for k in range(n):
            ref = np.minimum(ref, ref[:, k, None] + ref[None, k, :])
        assert np.array_equal(build_metric(g).dist, ref)


def test_triangle_inequality_exhaustive():
    rng = random.Random(11)
    g = random_graph(rng, 12, extra_edges=8)
    m = build_metric(g)
    for u in range(m.n):
        for v in range(m.n):
            for w in range(m.n):
                assert m.distance(u, w) <= m.distance(u, v) + m.distance(v, w) + 1e-9


def test_ball_points_path(path_metric):
    assert ball_points(path_metric, 0, 1.0) == {0, 1}
    assert ball_points(path_metric, 1, 0.0) == {1}


def test_ball_points_match_scan():
    rng = random.Random(23)
    for _ in range(20):
        g = random_graph(rng, 9, extra_edges=4)
        m = build_metric(g)
        pairwise = sorted(m.distance(i, j) for i in range(9) for j in range(i + 1, 9))
        r = pairwise[len(pairwise) // 2]
        v = rng.randrange(9)
        assert ball_points(m, v, r) == ball_scan(m, v, r)


def test_ball_monotone_in_radius():
    rng = random.Random(31)
    g = random_graph(rng, 8, extra_edges=5)
    m = build_metric(g)
    edges = m.edges
    for v in range(m.n):
        prev_pts, prev_measure = set(), 0.0
        for r in [0.0, 1.0, 2.5, 4.0, 8.0, 16.0]:
            pts = ball_points(m, v, r)
            measure = shape_edge_measure(m, edges, Ball(v, r))
            assert prev_pts <= pts
            assert measure >= prev_measure - 1e-9
            prev_pts, prev_measure = set(pts), measure


def test_edge_measure_one_endpoint(path_metric):
    edges = frozenset({(1, 2)})
    assert shape_edge_measure(path_metric, edges, Ball(0, 2.0)) == pytest.approx(1.0)


def test_edge_measure_radius_zero(path_metric):
    assert shape_edge_measure(path_metric, path_metric.edges, Ball(1, 0.0)) == 0.0


def test_edge_measure_full_edges(path_metric):
    assert shape_edge_measure(path_metric, path_metric.edges, Ball(0, 3.0)) == pytest.approx(3.0)


def test_ball_measure_matches_interval_oracle():
    """100 random (graph, ball) pairs without shortcut edges."""
    rng = random.Random(47)
    checked = 0
    while checked < 100:
        g = random_graph(rng, rng.randint(4, 9), extra_edges=rng.randrange(5))
        m = build_metric(g)
        v = rng.randrange(m.n)
        r = rng.uniform(0.0, float(m.dist.max()) * 1.2)
        if ball_buries_an_edge(m, v, r):
            continue
        got = shape_edge_measure(m, m.edges, Ball(v, r))
        want = interval_ball_measure(m, m.edges, v, r)
        assert got == pytest.approx(want, abs=1e-9)
        checked += 1


def test_disjoint_balls_measures_additive():
    rng = random.Random(53)
    for _ in range(40):
        g = random_graph(rng, 8, extra_edges=4)
        m = build_metric(g)
        v1, v2 = rng.sample(range(8), 2)
        d = m.distance(v1, v2)
        r1 = rng.uniform(0, d / 2 * 0.9)
        r2 = rng.uniform(0, (d - r1) * 0.9)
        assert shapes_edge_disjoint(m, Ball(v1, r1), Ball(v2, r2))
        total = shape_edge_measure(m, m.edges, Ball(v1, r1)) + shape_edge_measure(
            m, m.edges, Ball(v2, r2)
        )
        assert total <= m.total_weight() + 1e-9


def test_perforated_leq_ball():
    rng = random.Random(61)
    for _ in range(40):
        g = random_graph(rng, 7, extra_edges=4)
        m = build_metric(g)
        v = rng.randrange(7)
        r = rng.uniform(0.1, float(m.dist.max()))
        rho = rng.uniform(1.5, 100.0)
        ball = shape_edge_measure(m, m.edges, Ball(v, r))
        perf = shape_edge_measure(m, m.edges, PerforatedBall(v, r, rho))
        assert perf <= ball + 1e-9


def test_perforation_gap_bound_path(path_metric):
    for v in range(3):
        for r in [0.5, 1.0, 2.0, 3.0]:
            assert perforation_gap_bound_check(path_metric, path_metric.edges, v, r, 4.0)


def test_perforation_gap_bound_empty(path_metric):
    assert perforation_gap_bound_check(path_metric, frozenset(), 0, 1.0, 2.0)


def test_perforation_gap_bound_random():
    """200 random cases, must always hold."""
    rng = random.Random(71)
    for _ in range(200):
        g = random_graph(rng, rng.randint(3, 9), extra_edges=rng.randrange(6))
        m = build_metric(g)
        v = rng.randrange(m.n)
        r = rng.uniform(0.0, float(m.dist.max()) * 1.5)
        rho = rng.uniform(1.1, 64.0)
        sub = frozenset(e for e in m.edges if rng.random() < 0.7)
        assert perforation_gap_bound_check(m, sub, v, r, rho)


def test_perforated_ball_contains_no_nodes():
    """Every node sits inside its own hole, so claims never touch endpoints."""
    rng = random.Random(83)
    g = random_graph(rng, 6, extra_edges=3)
    m = build_metric(g)
    shape = PerforatedBall(0, 4.0, 8.0)
    hole = 4.0 / 8.0
    for u, x in m.edges:
        w = m.edge_weight(u, x)
        from metricserve.metric import edge_intervals_in_shape

        for lo, hi in edge_intervals_in_shape(m, u, x, w, shape):
            assert lo >= hole - 1e-9
            assert hi <= w - hole + 1e-9


def test_shortest_path_nodes_deterministic(path_metric):
    assert path_metric.shortest_path_nodes(0, 2) == [0, 1, 2]
    assert path_metric.shortest_path_nodes(2, 0) == [2, 1, 0]
    assert path_metric.shortest_path_nodes(1, 1) == [1]


def test_shortest_path_lexicographic():
    # two equal-cost routes 0-1-3 and 0-2-3; the smaller middle node wins
    g = WeightedGraph(
        node_count=4, edges=((0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 1.0))
    )
    m = build_metric(g)
    assert m.shortest_path_nodes(0, 3) == [0, 1, 3]


def test_shortest_path_memo_is_not_shared_with_callers():
    """Mutating a returned path leaves the memoised one intact."""
    rng = random.Random(89)
    m = build_metric(random_graph(rng, 12, extra_edges=6))
    first = m.shortest_path_nodes(0, 11)
    kept = list(first)
    first.append(99)
    first[0] = -1
    assert m.shortest_path_nodes(0, 11) == kept
    assert kept[0] == 0 and kept[-1] == 11
    hops = m.path_edges(0, 11)
    assert [(min(a, b), max(a, b)) for a, b in zip(kept, kept[1:])] == [e[1:] for e in hops]
    assert [w for w, _, _ in hops] == [m.edge_weight(a, b) for a, b in zip(kept, kept[1:])]


def test_complete_graph_on_subset():
    rng = random.Random(97)
    g = random_graph(rng, 8, extra_edges=5)
    m = build_metric(g)
    sub_m = complete_graph_on(m, [5, 2, 7, 5])
    assert sub_m.points == (2, 5, 7)
    assert sub_m.index == {2: 0, 5: 1, 7: 2}
    assert m.points == tuple(range(8))
    assert len(sub_m.edges) == 3
    for i, p in enumerate(sub_m.points):
        for j, q in enumerate(sub_m.points):
            assert sub_m.distance(i, j) == pytest.approx(m.distance(p, q))


def _assert_same_space(got, ref):
    assert got.dist.tobytes() == ref.dist.tobytes()
    assert (got.n, got.d_min, got.points) == (ref.n, ref.d_min, ref.points)
    assert got._adj == ref._adj
    assert got._edge_weight == ref._edge_weight
    assert got.edges == ref.edges
    assert not got.dist.flags.writeable


def test_complete_graph_on_matches_edge_list_reference():
    """300 seeded parents, float and unit weights, four closures each: a
    singleton, the full point set, a random subset and a closure of that
    subset's closure, all byte-equal to the edge-list construction."""
    rng = random.Random(1301)
    for trial in range(300):
        n = rng.randint(1, 24)
        weights = (1.0, 1.0) if trial % 2 else (1.0, 10.0)
        m = build_metric(random_graph(rng, n, extra_edges=rng.randrange(n + 1),
                                      weight_range=weights))
        subset = rng.sample(range(n), rng.randint(1, n))
        for pts in ([rng.randrange(n)], range(n), subset):
            _assert_same_space(complete_graph_on(m, pts), complete_graph_on_reference(m, pts))
        inner = complete_graph_on_reference(m, subset)
        pts = rng.sample(range(inner.n), rng.randint(1, inner.n))
        _assert_same_space(complete_graph_on(complete_graph_on(m, subset), pts),
                           complete_graph_on_reference(inner, pts))


def test_complete_graph_on_does_not_build_a_graph_metric(monkeypatch):
    """The closure is sliced from the parent, not run through build_metric."""
    m = build_metric(random_graph(random.Random(5), 9, extra_edges=4))

    def refuse(g):
        raise AssertionError("build_metric called")

    monkeypatch.setattr(metric, "build_metric", refuse)
    assert complete_graph_on(m, [8, 1, 4]).points == (1, 4, 8)


@pytest.mark.parametrize("points", [[-1, 2], [0, 3], [2, 99], [], set()])
def test_complete_graph_on_rejects_points_outside_the_space(path_metric, points):
    """Negative ids would wrap around in numpy; ids past n and the empty
    set have no closure either."""
    with pytest.raises(ValueError, match=r"nonempty subset of range\(3\)"):
        complete_graph_on(path_metric, points)


@pytest.mark.parametrize("weight", [0.0, -1.0, np.inf, np.nan])
def test_complete_graph_on_rejects_non_positive_or_infinite_weights(weight):
    dist = np.array([[0.0, 2.0, weight], [2.0, 0.0, 1.0], [weight, 1.0, 0.0]])
    m = MetricSpace(n=3, dist=dist, d_min=1.0, points=(0, 1, 2))
    with pytest.raises(ValueError, match="finite and positive"):
        complete_graph_on(m, [0, 1, 2])
    assert complete_graph_on(m, [0, 1]).dist.tolist() == [[0.0, 2.0], [2.0, 0.0]]
