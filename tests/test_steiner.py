"""Steiner / PCST solvers against enumeration oracles and ratio bounds."""

import math
import random
from dataclasses import replace

import pytest

from metricserve import config
from metricserve.metric import WeightedGraph, build_metric, complete_graph_on
from metricserve.steiner import (
    PcstSolution,
    TerminalCapError,
    certificate_margin,
    infinite_penalty,
    pcst_approx,
    pcst_exact,
    steiner_approx,
    steiner_exact,
)
from metricserve.walks import tree_adjacency

from conftest import random_graph
from oracles import pcst_enumeration, shortest_path_reference, steiner_enumeration


def _connects(edges, required):
    """The edge set links every required node into one component."""
    required = set(required)
    if len(required) <= 1:
        return True
    adj = tree_adjacency(edges)
    if not required <= set(adj):
        return False
    start = next(iter(required))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj.get(u, []):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return required <= seen


def _acyclic(edges):
    return len(edges) == 0 or len({u for e in edges for u in e}) == len(edges) + 1


def test_steiner_single_terminal(path_metric):
    sol = steiner_approx(path_metric, {1})
    assert sol.cost == 0.0 and not sol.tree_edges


def test_steiner_two_terminals(path_metric):
    sol = steiner_approx(path_metric, {0, 2})
    assert sol.cost == pytest.approx(3.0)
    assert _connects(sol.tree_edges, {0, 2})


def test_steiner_star_leaves(star_metric):
    exact = steiner_exact(star_metric, {1, 2, 3})
    approx = steiner_approx(star_metric, {1, 2, 3})
    assert exact.cost == pytest.approx(3.0)
    assert approx.cost == pytest.approx(3.0)


def test_steiner_exact_two_terminals(path_metric):
    assert steiner_exact(path_metric, {0, 2}).cost == pytest.approx(3.0)


def test_steiner_exact_whole_tree():
    rng = random.Random(3)
    g = random_graph(rng, 7, extra_edges=0)
    m = build_metric(g)
    sol = steiner_exact(m, set(range(7)))
    assert sol.cost == pytest.approx(sum(w for _, _, w in g.edges))


def test_steiner_exact_cap_enforced():
    rng = random.Random(5)
    g = random_graph(rng, 12, extra_edges=6)
    m = build_metric(g)
    with pytest.raises(TerminalCapError):
        steiner_exact(m, set(range(11)))


def test_steiner_exact_matches_enumeration():
    """200 random instances, |T| <= 6, against subset enumeration + MST."""
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(3, 9)
        g = random_graph(rng, n, extra_edges=rng.randrange(6))
        m = build_metric(g)
        k = rng.randint(2, min(6, n))
        terminals = set(rng.sample(range(n), k))
        sol = steiner_exact(m, terminals)
        want = steiner_enumeration(m, terminals)
        assert sol.cost == pytest.approx(want, abs=1e-9)
        assert _connects(sol.tree_edges, terminals)
        assert _acyclic(sol.tree_edges)


def test_steiner_ratio_bound():
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(3, 10)
        g = random_graph(rng, n, extra_edges=rng.randrange(8))
        m = build_metric(g)
        k = rng.randint(1, min(8, n))
        terminals = set(rng.sample(range(n), k))
        exact = steiner_exact(m, terminals)
        approx = steiner_approx(m, terminals)
        assert exact.cost - 1e-9 <= approx.cost <= 2 * exact.cost + 1e-9
        assert _connects(approx.tree_edges, terminals)
        assert _acyclic(approx.tree_edges)


def test_pcst_all_zero_penalties(path_metric):
    sol = pcst_approx(path_metric, {0, 2}, {0: 0.0, 2: 0.0}, root=1)
    assert sol.total_cost == pytest.approx(0.0)
    exact = pcst_exact(path_metric, {0, 2}, {0: 0.0, 2: 0.0}, root=1)
    assert exact.total_cost == pytest.approx(0.0)


def test_pcst_single_terminal_tradeoff(path_metric):
    # terminal at node 2, root 0, distance 3
    for p in (0.5, 3.0, 10.0):
        sol = pcst_approx(path_metric, {2}, {2: p}, root=0)
        best = min(3.0, p)
        assert best - 1e-9 <= sol.total_cost <= 3 * best + 1e-9
        exact = pcst_exact(path_metric, {2}, {2: p}, root=0)
        assert exact.total_cost == pytest.approx(best)


def test_pcst_infinite_penalty_forces_service():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(3, 8)
        g = random_graph(rng, n, extra_edges=rng.randrange(5))
        m = build_metric(g)
        k = rng.randint(1, min(5, n))
        terminals = set(rng.sample(range(n), k))
        root = rng.randrange(n)
        pen = {t: infinite_penalty(m) for t in terminals}
        exact = pcst_exact(m, terminals, pen, root)
        st = steiner_exact(m, terminals | {root})
        assert exact.total_cost == pytest.approx(st.cost, abs=1e-9)
        approx = pcst_approx(m, terminals, pen, root)
        assert approx.served == frozenset(terminals)


def test_pcst_exact_matches_enumeration():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(3, 8)
        g = random_graph(rng, n, extra_edges=rng.randrange(5))
        m = build_metric(g)
        k = rng.randint(1, min(5, n))
        terminals = set(rng.sample(range(n), k))
        root = rng.randrange(n)
        pen = {t: rng.uniform(0.0, 15.0) for t in terminals}
        sol = pcst_exact(m, terminals, pen, root)
        want = pcst_enumeration(m, terminals, pen, root)
        assert sol.total_cost == pytest.approx(want, abs=1e-9)
        assert sol.total_cost == pytest.approx(sol.tree_cost + sol.penalty_cost)
        assert _connects(sol.tree_edges, sol.served - {root} | {root} if sol.served else set())


def test_pcst_ratio_bound():
    """exact <= approx <= 3 * exact on random instances."""
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(3, 10)
        g = random_graph(rng, n, extra_edges=rng.randrange(6))
        m = build_metric(g)
        k = rng.randint(1, min(6, n))
        terminals = set(rng.sample(range(n), k))
        root = rng.randrange(n)
        pen = {t: rng.uniform(0.0, 20.0) for t in terminals}
        exact = pcst_exact(m, terminals, pen, root)
        approx = pcst_approx(m, terminals, pen, root)
        assert exact.total_cost - 1e-9 <= approx.total_cost
        assert approx.total_cost <= 3 * exact.total_cost + 1e-9
        assert _acyclic(approx.tree_edges)
        assert _connects(approx.tree_edges, approx.served | {root})


def _certificate_case(rng, i, max_n):
    """A seeded rooted PCST case for the delay engine's factor-2 certificate:
    a sparse integer-weight, random-weight or metric-closure space, penalty
    scales from 0 to 1e6, and the root inside or outside the terminals."""
    n = rng.randint(2, max_n)
    kind = i % 3
    if kind == 0:
        m = build_metric(random_graph(rng, n, extra_edges=rng.randrange(n), weight_range=(1, 4),
                                      integer_weights=True))
    elif kind == 1:
        m = build_metric(random_graph(rng, n, extra_edges=rng.randrange(n)))
    else:
        base = build_metric(random_graph(rng, n + 3, extra_edges=rng.randrange(4),
                                         weight_range=(1, 5), integer_weights=True))
        m = complete_graph_on(base, rng.sample(range(n + 3), n))
    root = rng.randrange(n)
    terminals = set(rng.sample(range(n), rng.randint(1, n)))
    if (i // 3) % 2:
        terminals.add(root)
    else:
        terminals.discard(root)
    scale = [0.0, 1e-3, 1.0, 10.0, 1e3, 1e6][(i // 6) % 6]
    mode = (i // 36) % 3
    if mode == 0:
        pen = {t: rng.uniform(0.0, scale) for t in terminals}
    elif mode == 1:
        pen = {t: rng.randint(0, 4) * scale for t in terminals}
    else:
        pen = {t: rng.choice([0.0, scale]) for t in terminals}
    return m, terminals, pen, root


def test_pcst_approx_within_twice_exact_plus_engine_margin():
    """pcst_approx <= 2 * pcst_exact + the delay engine's certificate margin
    on 300 seeded cases with n <= 9."""
    rng = random.Random(61)
    for i in range(300):
        m, terminals, pen, root = _certificate_case(rng, i, 9)
        exact = pcst_exact(m, terminals, pen, root).total_cost
        approx = pcst_approx(m, terminals, pen, root).total_cost
        assert approx <= 2 * exact + certificate_margin(len(terminals), m.n, 2 * exact), i


def test_pcst_approx_within_twice_spanning_tree_plus_engine_margin():
    """pcst_approx <= 2 * steiner_approx(terminals | {root}) + the margin on
    1000 seeded cases with n <= 30: the bound the delay engine's
    forwarding-time certificate rests on."""
    rng = random.Random(67)
    for i in range(1000):
        m, terminals, pen, root = _certificate_case(rng, i, 30)
        span = steiner_approx(m, terminals | {root}).cost
        approx = pcst_approx(m, terminals, pen, root).total_cost
        assert approx <= 2 * span + certificate_margin(len(terminals), m.n, 2 * span), i


def test_pcst_approx_within_twice_horizon_tree_plus_engine_margin():
    """pcst_approx <= 2 * the tree of the solve whose every penalty exceeds
    the space's total weight, plus the margin, whenever that solve serves
    every terminal, on the same 1000 seeded cases: the bound the delay
    engine's forwarding-time certificate rests on."""
    rng = random.Random(67)
    checked = 0
    for i in range(1000):
        m, terminals, pen, root = _certificate_case(rng, i, 30)
        horizon = pcst_approx(m, terminals, dict.fromkeys(terminals, infinite_penalty(m)), root)
        if not terminals <= horizon.served:
            continue
        checked += 1
        tree = horizon.tree_cost
        approx = pcst_approx(m, terminals, pen, root).total_cost
        assert approx <= 2 * tree + certificate_margin(len(terminals), m.n, 2 * tree), i
    assert checked == 1000


def test_pcst_exact_monotone_in_penalties():
    """Pointwise-larger penalties never decrease the exact total."""
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(3, 8)
        g = random_graph(rng, n, extra_edges=rng.randrange(4))
        m = build_metric(g)
        k = rng.randint(1, min(5, n))
        terminals = set(rng.sample(range(n), k))
        root = rng.randrange(n)
        pen_lo = {t: rng.uniform(0.0, 10.0) for t in terminals}
        pen_hi = {t: p + rng.uniform(0.0, 5.0) for t, p in pen_lo.items()}
        lo = pcst_exact(m, terminals, pen_lo, root)
        hi = pcst_exact(m, terminals, pen_hi, root)
        assert lo.total_cost <= hi.total_cost + 1e-9


def test_pcst_terminal_at_root(path_metric):
    sol = pcst_approx(path_metric, {0, 2}, {0: 5.0, 2: 0.0}, root=0)
    assert 0 in sol.served
    assert sol.penalty_cost == pytest.approx(0.0)


def test_pcst_approx_deep_tree_under_low_recursion_limit():
    """Strong pruning walks a 300-edge path with 100 frames of headroom."""
    import inspect
    import sys

    n = 301
    path = tuple((i, i + 1, 1.0) for i in range(n - 1))
    m = build_metric(WeightedGraph(node_count=n, edges=path))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        far = pcst_approx(m, {n - 1}, {n - 1: 400.0}, root=0)
        cheap = pcst_approx(m, {n - 1}, {n - 1: 200.0}, root=0)
    finally:
        sys.setrecursionlimit(old)
    assert far.served == {n - 1}
    assert far.tree_edges == {(i, i + 1) for i in range(n - 1)}
    assert far.total_cost == pytest.approx(n - 1)
    assert cheap.served == frozenset() and cheap.tree_edges == frozenset()
    assert cheap.total_cost == pytest.approx(200.0)


def _reference_pcst_approx(m, terminals, penalties, root):
    """Reference: moat growth over a union-find, rescanning every edge per event."""
    terminals = set(terminals)
    eps = config.EPS
    parent = list(range(m.n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    surplus = [0.0] * m.n
    active = [False] * m.n
    has_root = [False] * m.n
    members = [[v] for v in range(m.n)]
    for t in terminals:
        if t != root:
            surplus[t] = penalties.get(t, 0.0)
            active[t] = surplus[t] > eps
    has_root[root] = True
    depth = [0.0] * m.n
    graph_edges = sorted(m.edges)
    forest = []
    while True:
        roots = sorted({find(v) for v in range(m.n)})
        if not any(active[c] for c in roots):
            break
        best_delta = math.inf
        best_event = None
        for u, v in graph_edges:
            cu, cv = find(u), find(v)
            if cu == cv:
                continue
            rate = (1 if active[cu] else 0) + (1 if active[cv] else 0)
            if rate == 0:
                continue
            delta = max(0.0, m.edge_weight(u, v) - depth[u] - depth[v]) / rate
            if delta < best_delta - 1e-15:
                best_delta = delta
                best_event = ("edge", u, v)
        for c in roots:
            if active[c] and surplus[c] < best_delta - 1e-15:
                best_delta = surplus[c]
                best_event = ("deactivate", c)
        if best_event is None:
            break
        for c in roots:
            if active[c]:
                surplus[c] -= best_delta
                for v in members[c]:
                    depth[v] += best_delta
        if best_event[0] == "edge":
            _, u, v = best_event
            cu, cv = find(u), find(v)
            forest.append((min(u, v), max(u, v)))
            parent[cu] = cv
            members[cv].extend(members[cu])
            surplus[cv] = max(0.0, surplus[cu]) + max(0.0, surplus[cv])
            has_root[cv] = has_root[cv] or has_root[cu]
            active[cv] = (not has_root[cv]) and surplus[cv] > eps
        else:
            c = find(best_event[1])
            surplus[c] = 0.0
            active[c] = False

    adj = {}
    for u, v in forest:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    def open_frame(u, par):
        b = penalties.get(u, 0.0) if u in terminals else 0.0
        return [u, par, iter(sorted(adj.get(u, []))), b]

    kept = set()
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
    tree_cost = sum(m.edge_weight(u, v) for u, v in tree)
    penalty_cost = sum(penalties.get(t, 0.0) for t in terminals if t not in served)
    return PcstSolution(
        tree_edges=frozenset(tree),
        served=served,
        tree_cost=tree_cost,
        penalty_cost=penalty_cost,
        total_cost=tree_cost + penalty_cost,
    )


def test_pcst_approx_matches_reference_moat_growth():
    """Exactly the reference's solution on 320 cases: sparse graphs with
    integer weights (exact ties) or tenths (ties off by an ulp or two),
    random-weight graphs and metric closures, under integer, equal, zero
    and random penalties, with and without the root among the terminals.
    Then on 48 stars of 40-130 equal leaves, rooted at the hub or a leaf,
    where most moat events take no time: equal penalties below the leaf
    weight (a deactivation cascade), above it (a merge cascade), both in
    turn, and tenth weights whose penalties are an ulp or two off the
    weight, so that the 1e-15 tie rule decides between unequal values.
    Then on 40 denser graphs whose terminals each take one of two
    penalties, and on 12 sparse graphs of 200-400 nodes under random and
    equal penalties, with and without the root among the terminals."""
    rng = random.Random(53)
    for i in range(320):
        n = rng.randint(2, 30)
        kind = i % 4
        if kind == 0:
            m = build_metric(
                random_graph(rng, n, extra_edges=rng.randrange(n), weight_range=(1, 4),
                             integer_weights=True)
            )
        elif kind == 1:
            g = random_graph(rng, n, extra_edges=rng.randrange(n), weight_range=(1, 9),
                             integer_weights=True)
            m = build_metric(replace(g, edges=tuple((u, v, w / 10) for u, v, w in g.edges)))
        elif kind == 2:
            m = build_metric(random_graph(rng, n, extra_edges=rng.randrange(n)))
        else:
            base = build_metric(random_graph(rng, n + 4, extra_edges=rng.randrange(4),
                                             weight_range=(1, 5), integer_weights=True))
            m = complete_graph_on(base, rng.sample(range(n + 4), n))
        root = rng.randrange(n)
        terminals = set(rng.sample(range(n), rng.randint(1, n)))
        if (i // 16) % 2:
            terminals.add(root)
        else:
            terminals.discard(root)
        unit = 0.1 if kind == 1 else 1.0
        mode = (i // 4) % 4
        if mode == 0:
            pen = {t: rng.randint(0, 12) * unit for t in terminals}
        elif mode == 1:
            same = rng.randint(1, 8) * unit
            pen = {t: same for t in terminals}
        elif mode == 2:
            pen = {t: 0.0 for t in terminals}
        else:
            pen = {t: rng.choice([0.0, rng.uniform(0.0, 20.0)]) for t in terminals}
        assert pcst_approx(m, terminals, pen, root) == _reference_pcst_approx(
            m, terminals, pen, root
        ), i
    # (weight, penalty) pairs an ulp or two apart
    tenths = [(0.3, 0.1 * 3), (0.3, 0.7 - 0.4), (0.6, 0.1 * 6), (0.7, 0.1 * 7),
              (0.2, 0.3 - 0.1), (0.6, 0.9 - 0.3)]
    for i in range(48):
        n = rng.randint(40, 130)
        kind = i % 4
        if kind == 3:
            w, p = tenths[rng.randrange(len(tenths))]
            assert p != w and abs(p - w) < 1e-15
            pen = {t: p for t in range(1, n + 1)}
        else:
            w = float(rng.randint(1, 4))
            below, above = w / 2, w + rng.randint(1, 3)
            pen = {t: [below, above, (below, above)[t % 2]][kind] for t in range(1, n + 1)}
        m = build_metric(WeightedGraph(n + 1, tuple((0, t, w) for t in range(1, n + 1))))
        root = 0 if (i // 4) % 2 else rng.randint(1, n)
        terminals = set(pen) | {root}
        assert pcst_approx(m, terminals, pen, root) == _reference_pcst_approx(
            m, terminals, pen, root
        ), ("star", i)
    # Denser graphs where most terminals share one of two penalties.  In
    # cases 15 and 32 of this seed a component deactivates while the moat
    # depths stand still, and the moat growth must re-rate its edges.
    rng = random.Random(2)
    for i in range(40):
        n = rng.randint(8, 40)
        unit = rng.choice([1.0, 0.1])
        g = random_graph(rng, n, extra_edges=rng.randrange(2 * n), weight_range=(1, 6),
                         integer_weights=True)
        m = build_metric(replace(g, edges=tuple((u, v, w * unit) for u, v, w in g.edges)))
        root = rng.randrange(n)
        terminals = set(rng.sample(range(n), rng.randint(n // 2, n)))
        two = [rng.randint(1, 12) * unit / rng.choice([1, 2]) for _ in range(2)]
        pen = {t: rng.choice(two) for t in terminals}
        assert pcst_approx(m, terminals, pen, root) == _reference_pcst_approx(
            m, terminals, pen, root
        ), ("two penalties", i)
    # Sparse graphs of 200-400 nodes, where each scan after a merge drops
    # the edges the merge put inside a component.
    rng = random.Random(59)
    for i in range(12):
        n = rng.randint(200, 400)
        m = build_metric(random_graph(rng, n, extra_edges=n // 2))
        root = rng.randrange(n)
        terminals = set(rng.sample(range(n), rng.randint(n // 4, n)))
        if i % 2:
            terminals.add(root)
        else:
            terminals.discard(root)
        same = rng.uniform(1.0, 20.0)
        pen = {t: same if i % 4 < 2 else rng.uniform(0.0, 20.0) for t in terminals}
        assert pcst_approx(m, terminals, pen, root) == _reference_pcst_approx(
            m, terminals, pen, root
        ), ("sparse", i)


def test_pcst_approx_matches_reference_on_large_stars():
    """Exactly the reference's solution on stars of 40-250 equal leaves,
    rooted at the hub or a leaf, the hub a terminal or not.  Leaf
    penalties are zero, half the leaf weight (the no-merge exit fires),
    just under the weight by less than the exit's margin (a deactivation
    cascade that the exit leaves to the growth), above the weight (a merge
    cascade of zero-time events), over it by less than the margin (a
    merge cascade whose leaves strong pruning keeps from the hub) or
    alternately half and above."""
    rng = random.Random(71)
    for i in range(24):
        n = rng.randint(40, 250)
        w = rng.choice([float(rng.randint(1, 4)), 0.3, 0.7])
        kind = i % 6
        half, near, above, over = w / 2, w * (1 - 1e-12), w + rng.randint(1, 3), w + n * 1e-9
        pen = {
            t: [0.0, half, near, above, over, (half, above)[t % 2]][kind] for t in range(1, n + 1)
        }
        m = build_metric(WeightedGraph(n + 1, tuple((0, t, w) for t in range(1, n + 1))))
        root = 0 if (i // 6) % 2 else rng.randint(1, n)
        if i // 12:
            pen[0] = rng.choice([half, above])
        terminals = set(pen) | {root}
        assert pcst_approx(m, terminals, pen, root) == _reference_pcst_approx(
            m, terminals, pen, root
        ), ("star", i)


@pytest.mark.parametrize("w", [1.0, 0.3, 7.5, 1e3])
@pytest.mark.parametrize("split", [0.5, 0.2])
def test_pcst_approx_matches_reference_at_the_no_merge_exit(w, split):
    """Edge (0, 1) of weight w joins two terminals and the root 2 hangs off
    node 1 by a heavy edge.  Their penalties sum to just under, then just
    over, w less the no-merge exit's margin, so the exit fires on one side
    only; both sides give the reference's solution."""
    m = build_metric(WeightedGraph(3, ((0, 1, w), (1, 2, 10.0 * w))))
    terminals = {0, 1, 2}
    margin = certificate_margin(len(terminals), m.n, 10.0 * w)
    for side in (-1, 1):
        total = (w - margin) + side * 1e-3 * margin
        pen = {0: split * total, 1: (1 - split) * total, 2: 0.0}
        assert (pen[0] + pen[1] + margin < w) == (side < 0)
        assert pcst_approx(m, terminals, pen, 2) == _reference_pcst_approx(
            m, terminals, pen, 2
        ), side


def _reference_kruskal(nodes, weighted_edges):
    parent = {v: v for v in nodes}

    def find(v):
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
    return out if len(out) == len(nodes) - 1 else None


def _reference_prune(edges, keep):
    edges = list(edges)
    while True:
        degree = {}
        for u, v in edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        removable = {v for v, d in degree.items() if d == 1 and v not in keep}
        if not removable:
            return edges
        edges = [e for e in edges if e[0] not in removable and e[1] not in removable]


def _reference_steiner_approx(m, terminals):
    """Reference: the batch 2-approximation over the full metric closure."""
    terminals = set(terminals)
    if len(terminals) == 1:
        return frozenset(), 0.0
    pts = sorted(terminals)
    closure = [
        (m.distance(pts[i], pts[j]), pts[i], pts[j])
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    ]
    union = set()
    for u, v in _reference_kruskal(set(pts), closure):
        path = shortest_path_reference(m, u, v)
        union.update((min(a, b), max(a, b)) for a, b in zip(path, path[1:]))
    nodes = {u for e in union for u in e}
    sub_mst = _reference_kruskal(nodes, [(m.edge_weight(u, v), u, v) for u, v in union])
    pruned = _reference_prune(sub_mst, terminals)
    return frozenset(pruned), sum(m.edge_weight(u, v) for u, v in pruned)


def test_prune_leaves_matches_reference_order():
    """The one-pass leaf queue keeps the same edges, in list order."""
    from metricserve.steiner import _prune_leaves

    rng = random.Random(61)
    for _ in range(300):
        n = rng.randint(2, 25)
        g = random_graph(rng, n, extra_edges=rng.randrange(4))
        edges = [(w, u, v) for u, v, w in g.edges]
        rng.shuffle(edges)
        keep = set(rng.sample(range(n), rng.randint(0, n)))
        got = _prune_leaves(edges, keep)
        want = _reference_prune([(u, v) for _, u, v in edges], keep)
        assert [(u, v) for _, u, v in got] == want


def test_steiner_approx_growth_matches_batch_reference():
    """Growing one terminal at a time (repeats included) gives, at every
    step, exactly the batch reference's tree and cost, on 320 cases:
    integer-weight graphs (exact ties), tenths, random weights and metric
    closures.  Every fifth step grows from a solution whose terminals are
    not a subset, which must fall back to the full closure."""
    rng = random.Random(67)
    for i in range(320):
        n = rng.randint(2, 30)
        kind = i % 4
        if kind == 0:
            m = build_metric(random_graph(rng, n, extra_edges=rng.randrange(n),
                                          weight_range=(1, 3), integer_weights=True))
        elif kind == 1:
            g = random_graph(rng, n, extra_edges=rng.randrange(n), weight_range=(1, 9),
                             integer_weights=True)
            m = build_metric(replace(g, edges=tuple((u, v, w / 10) for u, v, w in g.edges)))
        elif kind == 2:
            m = build_metric(random_graph(rng, n, extra_edges=rng.randrange(n)))
        else:
            base = build_metric(random_graph(rng, n + 4, extra_edges=rng.randrange(4),
                                             weight_range=(1, 4), integer_weights=True))
            m = complete_graph_on(base, rng.sample(range(n + 4), n))
        order = [rng.randrange(n) for _ in range(rng.randint(1, n + 5))]
        terminals = set()
        tree = None
        for step, t in enumerate(order):
            terminals.add(t)
            if step % 5 == 4:
                stranger = set(rng.sample(range(n), rng.randint(1, n))) - terminals
                tree = steiner_approx(m, stranger | {t}) if stranger else tree
            tree = steiner_approx(m, terminals, grow_from=tree)
            want_edges, want_cost = _reference_steiner_approx(m, terminals)
            assert (tree.tree_edges, tree.cost) == (want_edges, want_cost), (i, step)
            assert steiner_approx(m, terminals) == tree, (i, step)


def test_closure_mst_from_scratch_is_kruskal_acceptance_order():
    """A solve with nothing to grow from builds its closure MST by Prim; it
    must be Kruskal's over the whole closure, edge for edge and in
    acceptance order, and growing from it must give the batch tree.  320
    seeded spaces of up to 60 nodes and 40 terminals: integer weights
    (exact ties), tenths, random floats and metric closures."""
    rng = random.Random(83)
    for i in range(320):
        n = rng.randint(2, 60)
        kind = i % 4
        if kind == 0:
            m = build_metric(random_graph(rng, n, extra_edges=rng.randrange(2 * n),
                                          weight_range=(1, 3), integer_weights=True))
        elif kind == 1:
            g = random_graph(rng, n, extra_edges=rng.randrange(2 * n), weight_range=(1, 9),
                             integer_weights=True)
            m = build_metric(replace(g, edges=tuple((u, v, w / 10) for u, v, w in g.edges)))
        elif kind == 2:
            m = build_metric(random_graph(rng, n, extra_edges=rng.randrange(2 * n)))
        else:
            base = build_metric(random_graph(rng, n + 4, extra_edges=rng.randrange(4),
                                             weight_range=(1, 4), integer_weights=True))
            m = complete_graph_on(base, rng.sample(range(n + 4), n))
        terminals = set(rng.sample(range(n), rng.randint(2, min(n, 40))))
        pts = sorted(terminals)
        closure = [(m.distance(a, b), a, b) for j, a in enumerate(pts) for b in pts[j + 1:]]
        want = tuple((m.distance(a, b), a, b) for a, b in _reference_kruskal(terminals, closure))
        solution = steiner_approx(m, terminals)
        assert solution.closure_mst == want, i
        more = terminals | set(rng.sample(range(n), rng.randint(1, n)))
        grown = steiner_approx(m, more, grow_from=solution)
        assert (grown.tree_edges, grown.cost) == _reference_steiner_approx(m, more), i


def test_steiner_approx_prefix_within_twice_full_plus_engine_margin():
    """Every prefix of a terminal order costs at most twice the tree over
    the whole order plus the certificate margin, on 300 seeded cases over
    sparse float-weight, unit-weight and metric-closure spaces: the bound
    the deadline engine's certificate rests on."""
    rng = random.Random(71)
    for i in range(300):
        n = rng.randint(2, 30)
        kind = i % 3
        if kind == 0:
            m = build_metric(random_graph(rng, n, extra_edges=rng.randrange(n)))
        elif kind == 1:
            m = build_metric(random_graph(rng, n, extra_edges=rng.randrange(n),
                                          weight_range=(1, 1), integer_weights=True))
        else:
            base = build_metric(random_graph(rng, n + 4, extra_edges=rng.randrange(4)))
            m = complete_graph_on(base, rng.sample(range(n + 4), n))
        order = [rng.randrange(n) for _ in range(rng.randint(1, n + 5))]
        full = steiner_approx(m, order).cost
        bound = 2 * full + certificate_margin(len(order), m.n, 2 * full)
        for k in range(1, len(order) + 1):
            assert steiner_approx(m, order[:k]).cost <= bound, (i, k)
