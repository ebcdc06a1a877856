"""Metric construction, balls, edge-part measures, perforation bound."""

import math
import random

import numpy as np
import pytest

from metricserve import metric
from metricserve.instance import generate, investment_star
from metricserve.metric import (
    Ball,
    DisconnectedGraphError,
    MetricSpace,
    NumericRangeError,
    PerforatedBall,
    WeightedGraph,
    ball_points,
    build_metric,
    complete_graph_on,
    edge_intervals_in_shape,
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
    perforated_claim_reference,
    relax_reference,
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


def test_overflowing_distance_is_not_reported_as_disconnected():
    """A connected path whose one distance passes the float range."""
    g = WeightedGraph(node_count=3, edges=((0, 1, 1e308), (1, 2, 1e308)))
    with pytest.raises(NumericRangeError, match="overflows"):
        build_metric(g)


def test_disconnected_graph_names_the_first_unreachable_node():
    """A disconnected graph stays disconnected when a reachable distance
    also overflows; the message names the smallest node 0 cannot reach."""
    g = WeightedGraph(node_count=5, edges=((0, 1, 1e308), (1, 3, 1e308), (2, 4, 1.0)))
    with pytest.raises(DisconnectedGraphError, match="node 2 unreachable"):
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


@pytest.mark.parametrize(
    "weight", [0.0, -1.0, float("inf"), float("-inf"), float("nan"), 10**400, -(10**400)]
)
def test_graph_rejects_non_positive_or_non_finite_weights(weight):
    """The edge is named: a NaN weight would otherwise fail inside the
    relaxation, an infinite one would read as a disconnected node, and an
    int too large for a float would raise ``OverflowError``."""
    with pytest.raises(ValueError, match=r"edge \(1,2\) has weight .*, not finite and positive"):
        WeightedGraph(node_count=3, edges=((0, 1, 1.0), (1, 2, weight)))


WEIGHT_KINDS = {
    "integer": lambda rng: float(rng.randint(1, 10)),
    "float": lambda rng: rng.uniform(1.0, 10.0),
    "unit": lambda rng: 1.0,
    "tenths": lambda rng: rng.randint(1, 30) / 10,
    "subnormal": lambda rng: rng.uniform(5e-324, 2.2e-308),
    "1e300": lambda rng: rng.uniform(1.0, 10.0) * 1e300,
}


@pytest.mark.filterwarnings("error")
def test_distances_match_floyd_oracle():
    """50 seeded graphs per weight kind, n <= 40, against the triple loop,
    byte for byte: the rank-2 product rounds each candidate sum exactly as
    one add does, for subnormal sums and sums near the top of the float
    range too."""
    rng = random.Random(7)
    for kind, weight in WEIGHT_KINDS.items():
        for _ in range(50):
            n = rng.randint(1, 40)
            tree = random_graph(rng, n, extra_edges=rng.randrange(2 * n))
            g = WeightedGraph(n, tuple((u, v, weight(rng)) for u, v, _ in tree.edges))
            oracle = np.array(floyd_distances(g))
            assert build_metric(g).dist.tobytes() == oracle.tobytes(), kind


def _start_matrix(g: WeightedGraph) -> np.ndarray:
    """The matrix ``build_metric`` relaxes: edge weights, zero diagonal, inf."""
    dist = np.full((g.node_count, g.node_count), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v, w in g.edges:
        dist[u, v] = dist[v, u] = w
    return dist


@pytest.mark.filterwarnings("error")
def test_relaxation_matches_broadcast_reference_byte_for_byte():
    """Benchmark-size graphs, the investment star and closures over random
    subsets of them, against the broadcast-add rounds."""
    rng = random.Random(2029)
    graphs = [generate(seed=s, n_points=200, n_requests=0, mode="deadline").graph
              for s in range(4)]
    for g in [*graphs, investment_star(120).graph]:
        m = build_metric(g)
        assert m.dist.tobytes() == relax_reference(_start_matrix(g)).tobytes()
        for size in (2, 13, rng.randint(3, m.n - 1), m.n):
            pts = sorted(rng.sample(range(m.n), size))
            closure = complete_graph_on(m, pts)
            assert closure.dist.tobytes() == relax_reference(m.dist[np.ix_(pts, pts)]).tobytes()


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
        ref = _start_matrix(g)
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
        for lo, hi in edge_intervals_in_shape(m, u, x, w, shape):
            assert lo >= hole - 1e-9
            assert hi <= w - hole + 1e-9


def _perforated_branch(w: float, shape: PerforatedBall, claim) -> str:
    """Which case of the closed form a nonempty ball claim falls in."""
    h = shape.radius / shape.rho
    if h == 0:
        return "no hole"
    if w - h == w:
        return "one hole (w - h == w)"
    if w - h <= h + 1e-9:
        return "holes join"
    [(lo, hi)] = claim
    return "clipped" if max(lo, h) < min(hi, w - h) else "clipped away"


def test_perforated_claim_closed_form_matches_per_node_holes():
    """The closed form (the holes of the edge's own ends only) equals the
    definition (the hole of every node, merged) exactly, on weights from
    1e-12 to 1e9 and unit weights, radius 0 and boundary radii, rho from
    just above 1 to 512 n^2 and rho that makes the end holes just meet."""
    rng = random.Random(907)
    draws = {
        "log": lambda: 10 ** rng.uniform(-12, 9),
        "unit": lambda: 1.0,
        "uniform": lambda: rng.uniform(1.0, 10.0),
    }
    hits: dict[str, int] = {}
    for trial in range(600):
        n = rng.randint(2, 9)
        draw = draws[("log", "unit", "uniform")[trial % 3]]
        tree = random_graph(rng, n, extra_edges=rng.randrange(5))
        m = build_metric(WeightedGraph(n, tuple((u, v, draw()) for u, v, _ in tree.edges)))
        edges = m.sorted_edges
        for _ in range(20):
            v = rng.randrange(n)
            eu, ex, ew = rng.choice(edges)
            r = rng.choice([
                0.0,
                10 ** rng.uniform(-40, -9),
                m.distance(v, rng.randrange(n)),
                m.distance(v, eu) + rng.random() * ew,
                rng.uniform(0.0, 1.5 * float(m.dist.max())),
            ])
            rho = rng.choice([
                math.nextafter(1.0, 2.0),
                1.0 + 10 ** rng.uniform(-15, 0),
                2 ** rng.uniform(0.0, math.log2(512 * n * n)),
                512.0 * n * n,
                max(math.nextafter(1.0, 2.0), 2 * r / ew * (1 + rng.uniform(-1e-9, 1e-9))),
            ])
            shape = PerforatedBall(v, r, rho)
            for u, x, w in edges:
                claim = edge_intervals_in_shape(m, u, x, w, shape)
                assert claim == perforated_claim_reference(m, u, x, w, shape), (u, x, w, shape)
                ball = edge_intervals_in_shape(m, u, x, w, Ball(v, r))
                if ball:
                    branch = _perforated_branch(w, shape, ball)
                    hits[branch] = hits.get(branch, 0) + 1
    print(sorted(hits.items()))
    assert set(hits) == {"no hole", "one hole (w - h == w)", "holes join", "clipped",
                         "clipped away"}, hits


@pytest.mark.parametrize("w,radius,expected", [
    # h = 1.0 and the holes' gap w - 2h is exactly EPS: they join
    (1.0 + (1.0 + 1e-9), 2.0, []),
    # one ulp wider, they do not
    (math.nextafter(1.0 + (1.0 + 1e-9), 3.0), 2.0, "nonempty"),
    # h = 5e-301 leaves w - h == w: x's hole is empty, u's still cuts
    (1e-12, 1e-300, [(5e-301, 1e-12)]),
])
def test_perforated_claim_hole_boundaries(w, radius, expected):
    """Exact cases of the closed form on one edge of weight w, center 0 and
    rho = 2, checked against the per-node definition too."""
    m = build_metric(WeightedGraph(2, ((0, 1, w),)))
    shape = PerforatedBall(0, radius, 2.0)
    claim = edge_intervals_in_shape(m, 0, 1, w, shape)
    assert claim == perforated_claim_reference(m, 0, 1, w, shape)
    if expected == "nonempty":
        assert claim and claim[0][0] == 1.0
    else:
        assert claim == expected


def test_distance_reads_dist_in_any_layout():
    """``distance`` reads through a memoryview of ``dist`` that copies
    nothing; every pair gives the Python float ``float(dist[u, v])`` gives,
    on a built metric and on spaces over a Fortran-ordered matrix and a
    sliced, non-contiguous one."""
    m = build_metric(random_graph(random.Random(101), 23, extra_edges=15))
    sliced = np.random.default_rng(7).random((2 * m.n, 3 * m.n))[::2, 1::3]
    spaces = [m, MetricSpace(m.n, np.asfortranarray(m.dist), m.d_min, m.points),
              MetricSpace(m.n, sliced, 0.0, m.points)]
    for space in spaces:
        assert space.dist_view.obj is space.dist
        for u in range(m.n):
            for v in range(m.n):
                d = space.distance(u, v)
                assert type(d) is float and d == float(space.dist[u, v])
    assert not spaces[1].dist.flags.c_contiguous and not sliced.flags.contiguous


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
