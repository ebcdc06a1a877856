"""Offline optimum DPs against permutation / exhaustive enumeration."""

import math
import random

import pytest

from metricserve.deadline_engine import run_deadline
from metricserve.instance import DeadlineRequest, DelayFunction, DelayRequest, Instance, generate
from metricserve.metric import WeightedGraph, build_metric
from metricserve.offline_oracle import (
    _DEADLINE_CAP,
    _DELAY_CAP,
    OracleCapError,
    _walk_order,
    _walk_table,
    opt_deadline,
    opt_delay,
    opt_edges_during,
)

from golden_traces import FAMILY
from oracles import (
    _BatchWalksReference,
    opt_deadline_bruteforce,
    opt_deadline_reference,
    opt_deadline_unrestricted,
    opt_delay_exhaustive,
    opt_delay_reference,
)


def _deadline_instance(graph, start, reqs):
    return Instance(
        graph=graph,
        server_start=start,
        mode="deadline",
        requests=tuple(DeadlineRequest(*r) for r in reqs),
    )


def test_single_request_cost_is_distance(path_graph):
    inst = _deadline_instance(path_graph, 0, [(0, 2, 1.0, 4.0)])
    trace = opt_deadline(inst)
    assert trace.movement_cost == pytest.approx(3.0)
    assert trace.service_time[0] == 1.0


def test_two_requests_one_node_single_trip(path_graph):
    inst = _deadline_instance(path_graph, 0, [(0, 2, 0.0, 9.0), (1, 2, 1.0, 8.0)])
    trace = opt_deadline(inst)
    assert trace.movement_cost == pytest.approx(3.0)


def test_empty_deadline_instance(path_graph):
    trace = opt_deadline(_deadline_instance(path_graph, 1, []))
    assert trace.movement_cost == 0.0 and trace.events == ()


def test_deadline_cap_enforced(path_graph):
    reqs = [(i, 0, 0.0, 100.0) for i in range(13)]
    with pytest.raises(OracleCapError):
        opt_deadline(_deadline_instance(path_graph, 0, reqs))


def test_opt_deadline_matches_permutation_bruteforce():
    """200 random instances with up to 7 requests, exact equality."""
    rng = random.Random(71)
    for _ in range(200):
        inst = generate(
            seed=rng.randrange(10**9),
            n_points=rng.randint(2, 8),
            n_requests=rng.randint(0, 7),
            mode="deadline",
        )
        m = build_metric(inst.graph)
        trace = opt_deadline(inst)
        want = opt_deadline_bruteforce(m, inst)
        assert trace.movement_cost == pytest.approx(want, abs=1e-9)


def test_opt_deadline_laziness_validity():
    """Allowing relocation stops at arbitrary nodes never beats the lazy DP."""
    rng = random.Random(73)
    for _ in range(40):
        inst = generate(
            seed=rng.randrange(10**9),
            n_points=rng.randint(2, 6),
            n_requests=rng.randint(1, 5),
            mode="deadline",
        )
        m = build_metric(inst.graph)
        lazy = opt_deadline(inst).movement_cost
        unrestricted = opt_deadline_unrestricted(m, inst)
        assert lazy == pytest.approx(unrestricted, abs=1e-9)


def test_opt_never_exceeds_alg():
    rng = random.Random(79)
    for _ in range(60):
        inst = generate(
            seed=rng.randrange(10**9),
            n_points=rng.randint(2, 8),
            n_requests=rng.randint(0, 7),
            mode="deadline",
        )
        alg = run_deadline(inst).total_cost
        opt = opt_deadline(inst).movement_cost
        assert opt <= alg + 1e-9


def _slope_request(rid, point, release, slope):
    fn = DelayFunction(breakpoints=((release, 0.0),), final_slope=slope)
    return DelayRequest(id=rid, point=point, release=release, delay=fn)


def test_opt_delay_single_request(path_graph):
    inst = Instance(
        graph=path_graph,
        server_start=0,
        mode="delay",
        requests=(_slope_request(0, 2, 1.5, 1.0),),
    )
    trace = opt_delay(inst)
    assert trace.movement_cost == pytest.approx(3.0)
    assert trace.delay_cost == pytest.approx(0.0)  # served at release
    assert trace.service_time[0] == 1.5


def test_opt_delay_collocated_request(path_graph):
    inst = Instance(
        graph=path_graph,
        server_start=2,
        mode="delay",
        requests=(_slope_request(0, 2, 0.0, 2.0),),
    )
    trace = opt_delay(inst)
    assert trace.total_cost == pytest.approx(0.0)


def test_opt_delay_cap(path_graph):
    reqs = tuple(_slope_request(i, 0, 0.0, 1.0) for i in range(9))
    inst = Instance(graph=path_graph, server_start=0, mode="delay", requests=reqs)
    with pytest.raises(OracleCapError):
        opt_delay(inst)


def test_opt_delay_matches_exhaustive():
    """100 random instances with up to 5 requests, exact equality."""
    rng = random.Random(83)
    for _ in range(100):
        inst = generate(
            seed=rng.randrange(10**9),
            n_points=rng.randint(2, 6),
            n_requests=rng.randint(0, 5),
            mode="delay",
        )
        m = build_metric(inst.graph)
        trace = opt_delay(inst)
        want = opt_delay_exhaustive(m, inst)
        if not inst.requests:
            assert trace.total_cost == 0.0
            continue
        assert trace.total_cost == pytest.approx(want, abs=1e-9)


def test_opt_edges_during_intervals():
    rng = random.Random(89)
    inst = generate(seed=rng.randrange(10**9), n_points=7, n_requests=6, mode="deadline")
    m = build_metric(inst.graph)
    trace = opt_deadline(inst)
    times = [ev.time for ev in trace.events]
    assert opt_edges_during(trace, -100.0, min(times) - 1.0) == frozenset()
    all_edges = opt_edges_during(trace, -math.inf, math.inf)
    for ev in trace.events:
        for u, v in zip(ev.walk, ev.walk[1:]):
            assert (min(u, v), max(u, v)) in all_edges
    # union semantics under splits
    t1, t2, t3 = min(times) - 1, times[len(times) // 2], max(times) + 1
    left = opt_edges_during(trace, t1, t2)
    right = opt_edges_during(trace, t2, t3)
    assert left | right == all_edges


def test_position_at():
    g = WeightedGraph(node_count=3, edges=((0, 1, 1.0), (1, 2, 2.0)))
    inst = _deadline_instance(g, 0, [(0, 2, 1.0, 5.0)])
    trace = opt_deadline(inst)
    assert trace.position_at(0.5) == 0
    assert trace.position_at(1.0) == 2
    assert trace.position_at(10.0) == 2


# the exact oracles must reproduce the scalar reference DPs trace for trace:
# same totals, same tie-breaking, same visit orders


_ORACLES = {
    "deadline": (opt_deadline, opt_deadline_reference),
    "delay": (opt_delay, opt_delay_reference),
}


def _unit_weights(inst: Instance) -> Instance:
    """Same instance with every edge weight 1.0: many equal-cost walks, so
    the 1e-15 tie rule decides which one the DP keeps."""
    edges = tuple((u, v, 1.0) for u, v, _ in inst.graph.edges)
    graph = WeightedGraph(node_count=inst.graph.node_count, edges=edges)
    return Instance(graph=graph, server_start=inst.server_start, mode=inst.mode,
                    requests=inst.requests)


def _assert_same_trace(inst: Instance):
    fast, reference = _ORACLES[inst.mode]
    assert fast(inst).to_json() == reference(inst).to_json()


@pytest.mark.parametrize("mode,n_requests", [("deadline", 12), ("delay", 8)])
def test_oracle_matches_reference_at_benchmark_shapes(mode, n_requests):
    """Seeded instances at the verify-oracle sizes (n=10, the request cap)."""
    rng = random.Random(97)
    for _ in range(8):
        _assert_same_trace(generate(seed=rng.randrange(10**9), n_points=10,
                                    n_requests=n_requests, mode=mode))


@pytest.mark.parametrize("mode,cap", [("deadline", _DEADLINE_CAP), ("delay", _DELAY_CAP)])
def test_oracle_matches_reference_for_every_request_count(mode, cap):
    rng = random.Random(101)
    for k in range(cap + 1):
        for _ in range(2):
            _assert_same_trace(generate(seed=rng.randrange(10**9),
                                        n_points=rng.randint(2, 10),
                                        n_requests=k, mode=mode))


@pytest.mark.parametrize("mode,cap", [("deadline", _DEADLINE_CAP), ("delay", _DELAY_CAP)])
def test_oracle_matches_reference_on_unit_weights(mode, cap):
    rng = random.Random(103)
    for _ in range(12):
        inst = generate(seed=rng.randrange(10**9), n_points=rng.randint(3, 10),
                        n_requests=rng.randint(cap // 2, cap), mode=mode)
        _assert_same_trace(_unit_weights(inst))


def test_opt_deadline_with_negative_times():
    """Every time shifted by -64: a mask whose releases are all negative
    completes at its latest release, not at 0, so the instance stays
    feasible and the oracle matches the reference and the brute force."""
    rng = random.Random(109)
    for _ in range(30):
        inst = generate(seed=rng.randrange(10**9), n_points=6, n_requests=6, mode="deadline")
        inst = _deadline_instance(inst.graph, inst.server_start, [
            (q.id, q.point, q.release - 64.0, q.deadline - 64.0) for q in inst.requests
        ])
        assert min(q.release for q in inst.requests) < 0
        trace = opt_deadline(inst)
        assert trace.to_json() == opt_deadline_reference(inst).to_json()
        assert trace.total_cost == pytest.approx(
            opt_deadline_bruteforce(build_metric(inst.graph), inst)
        )


@pytest.mark.parametrize("family", sorted(FAMILY))
def test_opt_delay_matches_reference_near_ties(family):
    """Tenth weights tie many plans up to rounding, so the 1e-15 rule
    must be replayed where a first minimum is not clear; releases 1e-12
    after an event give candidates of infinite cost, which must not
    create states."""
    rng = random.Random(family)
    for _ in range(300):
        _assert_same_trace(FAMILY[family](rng.randrange(10**9)))


def test_walk_table_matches_reference_walks():
    """Every (start, point subset, end) entry of the batch-walk table has
    the cost and visit order of a Held-Karp run on that subset alone."""
    rng = random.Random(113)
    for trial in range(10):
        inst = generate(seed=rng.randrange(10**9), n_points=rng.randint(2, 10),
                        n_requests=rng.randint(1, _DELAY_CAP), mode="delay")
        if trial % 2:
            inst = _unit_weights(inst)
        m = build_metric(inst.graph)
        pts = sorted({q.point for q in inst.requests})
        starts = pts + [inst.server_start] * (inst.server_start not in pts)
        cost, parent, _ = _walk_table(m, starts, pts)
        reference = _BatchWalksReference(m)
        for s, start in enumerate(starts):
            assert cost[s, 0].tolist() == [0.0 if e == s else math.inf for e in range(len(starts))]
            for mask in range(1, 1 << len(pts)):
                batch = tuple(p for i, p in enumerate(pts) if mask >> i & 1)
                ends = {starts[e]: c for e, c in enumerate(cost[s, mask].tolist()) if c < math.inf}
                assert ends == reference.end_costs(start, batch)
                for e, end in enumerate(pts):
                    if mask >> e & 1:
                        order = tuple(_walk_order(parent, pts, s, mask, e))
                        assert order == reference.order(start, batch, end)
