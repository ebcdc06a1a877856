"""Offline optimum DPs against permutation / exhaustive enumeration."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricserve import config
from metricserve.deadline_engine import run_deadline
from metricserve.instance import DeadlineRequest, DelayFunction, DelayRequest, Instance, generate
from metricserve.metric import WeightedGraph, build_metric
from metricserve.offline_oracle import (
    _DEADLINE_CAP,
    _DELAY_CAP,
    OracleCapError,
    _row_winners,
    _scalar_winners,
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


def test_opt_deadline_first_visit_on_the_server_start(path_graph):
    """A request on the start node is served by the one-node walk [start]
    at no movement, and the optimum equals the reference's."""
    inst = _deadline_instance(path_graph, 1, [(0, 1, 0.0, 1.0), (1, 2, 2.0, 5.0)])
    trace = opt_deadline(inst)
    assert trace.events[0].walk == (1,) and trace.events[0].served_ids == (0,)
    assert trace.events[1].walk == (1, 2)
    assert trace.to_json() == opt_deadline_reference(inst).to_json()
    only_start = _deadline_instance(path_graph, 1, [(0, 1, 0.0, 1.0)])
    trace = opt_deadline(only_start)
    assert [ev.walk for ev in trace.events] == [(1,)] and trace.movement_cost == 0.0
    assert trace.to_json() == opt_deadline_reference(only_start).to_json()


def test_opt_delay_batch_served_out_of_id_order(path_graph):
    """One batch whose walk meets its requests against id order, listed
    in the instance against id order too: the event lists the ids sorted,
    and the optimum equals the reference's."""
    reqs = (_slope_request(7, 2, 0.0, 5.0), _slope_request(3, 1, 0.0, 5.0),
            _slope_request(5, 2, 0.0, 5.0))
    inst = Instance(graph=path_graph, server_start=0, mode="delay", requests=reqs)
    trace = opt_delay(inst)
    assert [(ev.walk, ev.served_ids) for ev in trace.events] == [((0, 1, 2), (3, 5, 7))]
    assert trace.to_json() == opt_delay_reference(inst).to_json()


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


# the 1e-15 rule in numpy: first minima, with near ties replayed


def _scalar_rule(values) -> tuple[float, int]:
    """The rule as the scalar DPs apply it: the incumbent changes only for
    a value cheaper by more than 1e-15."""
    best, arg = math.inf, -1
    for i, c in enumerate(values):
        if c < best - 1e-15:
            best, arg = c, i
    return best, arg


def _assert_row_winners(rows):
    best, arg = _row_winners(np.array(rows, dtype=float))
    assert list(zip(best.tolist(), arg.tolist())) == [_scalar_rule(row) for row in rows]


def _assert_scalar_winners(tid, cost):
    """Each target's candidates in index order: the kept one and the first finite one."""
    slots = max(tid, default=0) + 1
    win, first = _scalar_winners(np.array(tid, dtype=np.int64), np.array(cost), slots)
    want_win, want_first = [], []
    for g in range(slots):
        group = [i for i, t in enumerate(tid) if t == g]
        _, at = _scalar_rule([cost[i] for i in group])
        if at != -1:
            want_win.append(group[at])
            want_first.append(next(i for i in group if cost[i] < math.inf))
    assert win.tolist() == want_win and first.tolist() == want_first


_NEAR = 0.1 + 0.2  # one ulp above 0.3
_HAND_ROWS = [
    [2.0, 1.0, 1.0],  # exact tie: the first copy
    [_NEAR, 0.3, math.inf],  # 0.3 is not cheaper by more than 1e-15
    [0.3, _NEAR, 1.0],
    [_NEAR, 5.0, 0.3],  # a near tie placed before the minimum
    [math.inf, 2.0, math.inf],
    [math.inf, math.inf, math.inf],  # no candidate: column -1
]


def test_row_winners_follow_the_scalar_rule():
    best, arg = _row_winners(np.array(_HAND_ROWS))
    assert arg.tolist() == [1, 0, 0, 0, 1, -1]
    assert best.tolist() == [1.0, _NEAR, 0.3, _NEAR, 2.0, math.inf]
    _assert_row_winners(_HAND_ROWS)


def test_scalar_winners_follow_the_scalar_rule():
    """The hand rows as targets, their candidates interleaved: the all-inf
    target is left out."""
    cells = [(r, c) for c in range(3) for r, row in enumerate(_HAND_ROWS)]
    win, first = _scalar_winners(np.array([r for r, _ in cells]),
                                 np.array([_HAND_ROWS[r][c] for r, c in cells]), 8)
    assert [cells[i] for i in win] == [(0, 1), (1, 0), (2, 0), (3, 0), (4, 1)]
    assert [cells[i] for i in first] == [(0, 0), (1, 0), (2, 0), (3, 0), (4, 1)]
    _assert_scalar_winners([r for r, _ in cells], [_HAND_ROWS[r][c] for r, c in cells])


_TIE_VALUES = st.sampled_from([0.3, _NEAR, 1.0, math.inf])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(1, 6).flatmap(lambda k: st.lists(st.lists(_TIE_VALUES, min_size=k, max_size=k),
                                                    min_size=1, max_size=8)))
def test_row_winners_match_the_scalar_rule_on_near_ties(rows):
    _assert_row_winners(rows)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 4), _TIE_VALUES), max_size=24))
def test_scalar_winners_match_the_scalar_rule_on_near_ties(candidates):
    _assert_scalar_winners([t for t, _ in candidates], [c for _, c in candidates])


# deadline inputs where the 1e-15 rule and the dead-state prune decide


def _tenth_weight_deadline(seed: int, k: int) -> Instance:
    """Tenth edge weights, so walks tie up to rounding, and windows of 0-11
    from integer releases, some moved ``EPS`` later: a served set completes
    at another request's deadline, or exactly at its deadline + ``EPS``."""
    rng = random.Random(seed)
    inst = generate(seed=rng.randrange(10**9), n_points=rng.randint(3, 10),
                    n_requests=k, mode="deadline")
    edges = tuple((u, v, 0.1 * rng.randrange(1, 6)) for u, v, _ in inst.graph.edges)
    reqs = []
    for q in inst.requests:
        release = rng.randrange(40) + rng.choice([0.0, config.EPS])
        reqs.append((q.id, q.point, release, release + rng.randrange(12)))
    return _deadline_instance(WeightedGraph(inst.graph.node_count, edges), inst.server_start, reqs)


def _short_window_deadline(seed: int, k: int) -> Instance:
    """Releases spread over the generator's horizon, each window at most 6
    long, so most served sets leave a request already past its deadline."""
    rng = random.Random(seed)
    inst = generate(seed=rng.randrange(10**9), n_points=rng.randint(3, 10),
                    n_requests=k, mode="deadline")
    return _deadline_instance(inst.graph, inst.server_start, [
        (q.id, q.point, q.release, q.release + rng.uniform(0.0, 6.0)) for q in inst.requests
    ])


def _dead_share(inst: Instance) -> float:
    """Share of served sets that leave some request past its deadline."""
    reqs = inst.requests
    dead = 0
    for mask in range(1 << len(reqs)):
        done = max((q.release for i, q in enumerate(reqs) if mask >> i & 1), default=-math.inf)
        dead += any(q.deadline + config.EPS < done for i, q in enumerate(reqs) if not mask >> i & 1)
    return dead / (1 << len(reqs))


@pytest.mark.parametrize("family", [_tenth_weight_deadline, _short_window_deadline],
                         ids=["tenth-weight", "short-window"])
def test_opt_deadline_matches_reference_and_bruteforce_on_dead_states(family):
    """Every request count up to the cap, twice: the trace equals the
    scalar reference's and the movement the brute force's.  At 12
    requests most served sets are dead, so the prune decides what is left."""
    rng = random.Random(127)
    for k in range(_DEADLINE_CAP + 1):
        for _ in range(2):
            inst = family(rng.randrange(10**9), k)
            trace = opt_deadline(inst)
            assert trace.to_json() == opt_deadline_reference(inst).to_json()
            assert trace.movement_cost == pytest.approx(
                opt_deadline_bruteforce(build_metric(inst.graph), inst), abs=1e-9)
            if k == _DEADLINE_CAP:
                assert _dead_share(inst) > 0.9
