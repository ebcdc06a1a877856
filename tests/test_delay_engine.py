"""Delay engine: event detection, hand-stepped service, invariant audits."""

import math
import random

import pytest

from metricserve.delay_engine import DelayEngine, run_delay
from metricserve.instance import DelayFunction, DelayRequest, Instance, generate
from metricserve.levels import min_level
from metricserve.metric import WeightedGraph, build_metric

from conftest import random_graph


def _slope_request(rid, point, release, slope):
    fn = DelayFunction(breakpoints=((release, 0.0),), final_slope=slope)
    return DelayRequest(id=rid, point=point, release=release, delay=fn)


def _delay_instance(graph, start, reqs):
    return Instance(graph=graph, server_start=start, mode="delay", requests=tuple(reqs))


@pytest.fixture
def unit_edge_metric():
    return build_metric(WeightedGraph(node_count=2, edges=((0, 1, 1.0),)))


def test_residual_delay_formula(unit_edge_metric):
    engine = DelayEngine(unit_edge_metric, 0)
    engine.reveal(_slope_request(0, 1, 0.0, 1.0))
    engine.counters[0] = 2.0
    assert engine.residual(0, 5.0) == pytest.approx(3.0)
    assert engine.residual(0, 1.0) == 0.0  # positive part


def test_residual_matches_direct_evaluation(unit_edge_metric):
    """Random piecewise functions against a straight-line evaluator."""
    from oracles import piecewise_value

    rng = random.Random(2)
    for i in range(50):
        release = rng.uniform(0.0, 3.0)
        pts = [(release, 0.0)]
        t, y = release, 0.0
        for _ in range(rng.randrange(4)):
            t += rng.uniform(0.1, 2.0)
            y += rng.uniform(0.0, 3.0)
            pts.append((t, y))
        slope = rng.uniform(0.1, 2.0)
        engine = DelayEngine(unit_edge_metric, 0)
        engine.reveal(
            DelayRequest(
                id=0, point=1, release=release,
                delay=DelayFunction(breakpoints=tuple(pts), final_slope=slope),
            )
        )
        engine.counters[0] = rng.uniform(0.0, 4.0)
        probe = release + rng.uniform(0.0, 8.0)
        direct = max(0.0, piecewise_value(pts, slope, probe) - engine.counters[0])
        assert engine.residual(0, probe) == pytest.approx(direct, abs=1e-9)


def test_total_residual_membership(unit_edge_metric):
    engine = DelayEngine(unit_edge_metric, 0)
    engine.reveal(_slope_request(0, 1, 0.0, 1.0))  # alevel 0 at distance 1
    t = 0.75
    assert engine.total_residual(-1, t) == 0.0
    assert engine.total_residual(0, t) == pytest.approx(0.75)
    assert engine.total_residual(5, t) == pytest.approx(0.75)


def test_total_residual_nondecreasing_in_level():
    rng = random.Random(5)
    g = random_graph(rng, 6, extra_edges=3)
    m = build_metric(g)
    engine = DelayEngine(m, 0)
    for i in range(5):
        engine.reveal(_slope_request(i, rng.randrange(6), 0.0, rng.uniform(0.2, 2.0)))
        engine.counters[i] = rng.uniform(0.0, 1.0)
    prev = 0.0
    for level in range(engine.level_floor, 12):
        cur = engine.total_residual(level, 3.0)
        assert cur >= prev - 1e-12
        prev = cur


def test_next_critical_event_hand_case(unit_edge_metric):
    engine = DelayEngine(unit_edge_metric, 0)
    engine.reveal(_slope_request(0, 1, 0.0, 1.0))
    ev = engine.next_critical_event(0.0, math.inf)
    assert ev.time == pytest.approx(1.0)
    assert ev.level == 0


def test_next_critical_event_none_when_served(unit_edge_metric):
    engine = DelayEngine(unit_edge_metric, 0)
    assert engine.next_critical_event(0.0, math.inf) is None


def test_crossings_match_grid_scan():
    """Exact crossing vs a 1e-4-step scanner, within 1e-3."""
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 6), extra_edges=2)
        m = build_metric(g)
        engine = DelayEngine(m, 0)
        for i in range(rng.randint(1, 4)):
            release = rng.uniform(0.0, 1.0)
            pts = [(release, 0.0)]
            t, y = release, 0.0
            for _ in range(rng.randrange(3)):
                t += rng.uniform(0.2, 2.0)
                y += rng.uniform(0.0, 2.0)
                pts.append((t, y))
            fn = DelayFunction(breakpoints=tuple(pts), final_slope=rng.uniform(0.2, 2.0))
            engine.reveal(DelayRequest(id=i, point=rng.randrange(m.n), release=release, delay=fn))
            engine.counters[i] = rng.uniform(0.0, 0.5)
        start = 1.0
        ev = engine.next_critical_event(start, math.inf)
        if ev is None:
            continue
        # grid scan: coarse bracket first, then the fine 1e-4 grid inside it
        t = start
        bracket = None
        while t < ev.time + 2.0:
            if engine.max_critical_level(t) is not None:
                bracket = t
                break
            t += 1e-2
        assert bracket is not None
        t = max(start, bracket - 1e-2)
        found = None
        while t <= bracket + 1e-12:
            if engine.max_critical_level(t) is not None:
                found = t
                break
            t += 1e-4
        assert found is not None
        assert abs(found - ev.time) < 1e-3


def test_single_request_service_hand_stepped(unit_edge_metric):
    """Distance-1 request, unit slope: crossing at t=1 fires a level-3 service
    that serves the request, then relocates into the concentrated-delay ball."""
    inst = _delay_instance(
        unit_edge_metric.source_graph, 0, [_slope_request(0, 1, 0.0, 1.0)]
    )
    trace = run_delay(inst)
    assert not trace.horizon_exhausted
    assert len(trace.services) == 1
    s = trace.services[0]
    assert s.time == pytest.approx(1.0)
    assert s.level == 3
    assert s.primary
    assert s.eligible_ids == (0,)
    assert s.served_ids == (0,)
    # tour 0 -> 1 -> 0 plus the relocation hop 0 -> 1
    assert s.relocation_target == 1
    assert s.movement_cost == pytest.approx(3.0)
    assert trace.delay_cost == pytest.approx(1.0)
    assert trace.final_position == 1


def test_collocated_requests_served_at_zero_movement(unit_edge_metric):
    inst = _delay_instance(
        unit_edge_metric.source_graph, 1, [_slope_request(0, 1, 0.0, 2.0)]
    )
    trace = run_delay(inst)
    assert trace.movement_cost == 0.0
    assert len(trace.services) == 1
    s = trace.services[0]
    assert s.relocation_target is None
    assert s.served_ids == (0,)
    assert s.level == min_level(unit_edge_metric) + 3


def test_empty_delay_instance(unit_edge_metric):
    trace = run_delay(_delay_instance(unit_edge_metric.source_graph, 0, []))
    assert trace.total_cost == 0.0
    assert not trace.horizon_exhausted


def test_horizon_exhaustion_flagged(unit_edge_metric):
    inst = _delay_instance(
        unit_edge_metric.source_graph, 0, [_slope_request(0, 1, 0.0, 0.001)]
    )
    trace = run_delay(inst, horizon=5.0)
    assert trace.horizon_exhausted
    assert trace.pending_ids == (0,)


def test_non_primary_trigger_blocks_relocation_search():
    """A trigger whose level sits at service level - 4 makes the service
    non-primary, so no relocation happens even with concentrated delay."""
    g = WeightedGraph(node_count=3, edges=((0, 1, 4.0), (1, 2, 4.0)))
    m = build_metric(g)
    engine = DelayEngine(m, 0)
    engine.reveal(_slope_request(0, 2, 0.0, 4.0))
    engine.levels[0] = 3  # as if upgraded by an earlier service
    # alevel = max(3, ceil log2 8) = 3; critical when residual reaches 8
    ev = engine.next_critical_event(0.0, math.inf)
    assert ev.level == 3
    record = engine.upon_critical(ev.level, ev.time)
    assert record.level == 6
    assert not record.primary
    assert record.relocation_target is None


from audits import audit_delay_trace as _audit_delay_trace
from audits import replay_no_supercritical as _replay_no_supercritical


def test_random_suite_invariants():
    rng = random.Random(20240)
    for _ in range(40):
        inst = generate(
            seed=rng.randrange(10**9),
            n_points=rng.randint(2, 8),
            n_requests=rng.randint(0, 6),
            mode="delay",
        )
        m = build_metric(inst.graph)
        trace = run_delay(inst)
        assert not trace.horizon_exhausted
        assert len(trace.service_time) == len(inst.requests)
        _audit_delay_trace(inst, trace, m)
        _replay_no_supercritical(inst, trace, m)


def test_request_regime_run():
    rng = random.Random(321)
    for _ in range(15):
        inst = generate(
            seed=rng.randrange(10**9),
            n_points=rng.randint(2, 7),
            n_requests=rng.randint(1, 5),
            mode="delay",
        )
        m = build_metric(inst.graph)
        trace = run_delay(inst, request_regime=True)
        assert not trace.horizon_exhausted
        _audit_delay_trace(inst, trace, m)
        released = {q.point for q in inst.requests} | {inst.server_start}
        for s in trace.services:
            if s.relocation_target is not None:
                assert s.relocation_target in released


def test_investment_star_exercises_forwarding():
    """Crowded star trips the prize-collecting budget: a finite forwarding
    time, positive investments, upgrades, and a later certification."""
    from metricserve.analysis import classify
    from metricserve.instance import investment_star

    inst = investment_star()
    m = build_metric(inst.graph)
    trace = run_delay(inst)
    assert not trace.horizon_exhausted
    assert any(math.isfinite(s.forwarding_time) for s in trace.services)
    assert any(s.invest_increment > 0 for s in trace.services)
    _audit_delay_trace(inst, trace, m)
    _replay_no_supercritical(inst, trace, m)
    cls = classify(trace)
    assert cls.certified_ids
    for sid in cls.certified_ids:
        assert len(cls.certifier_lists[sid]) == 1


def test_delay_certification_chain_structure():
    """Penalties cross the budget before any far leaf is worth connecting:
    the first service invests in all seven, and their joint residual later
    fires the certifying service."""
    from metricserve.analysis import classify
    from metricserve.instance import delay_certification_chain

    inst = delay_certification_chain()
    m = build_metric(inst.graph)
    trace = run_delay(inst)
    assert len(trace.services) == 2
    first, second = trace.services
    assert first.primary and first.served_ids == (0,)
    assert math.isfinite(first.forwarding_time)
    assert first.invest_increment > 0
    assert not second.primary
    assert set(second.served_ids) == set(range(1, 8))
    cls = classify(trace)
    assert cls.certified_ids == {0}
    assert second.level - first.level == 4
    _audit_delay_trace(inst, trace, m)
    _replay_no_supercritical(inst, trace, m)


def test_trace_json_roundtrip_stable():
    inst = generate(seed=9, n_points=5, n_requests=4, mode="delay")
    a = run_delay(inst).to_json()
    b = run_delay(inst).to_json()
    assert a == b


def test_request_regime_builds_one_closure_per_released_set(monkeypatch):
    import metricserve.delay_engine as engine_module
    from golden_traces import GOLDEN, INSTANCES
    from metricserve.instance import parse_instance
    from metricserve.metric import complete_graph_on

    built = []

    def counting(m, points):
        built.append(frozenset(points))
        return complete_graph_on(m, points)

    monkeypatch.setattr(engine_module, "complete_graph_on", counting)
    for golden in sorted((GOLDEN / "run-request-regime").glob("delay-*.json")):
        built.clear()
        inst = parse_instance((INSTANCES / golden.name).read_text())
        trace = run_delay(inst, request_regime=True)
        assert built and len(built) == len(set(built))
        assert len(built) <= len({q.point for q in inst.requests} | {inst.server_start})
        assert trace.to_json() == golden.read_text()


def test_forwarding_search_solves_each_probe_once(monkeypatch):
    """No forwarding-time search solves the same prize-collecting problem
    twice: probing one time twice would repeat its penalties.  The traces
    stay the golden ones."""
    import metricserve.delay_engine as engine_module
    from golden_traces import INSTANCES, cases, golden_path, render
    from metricserve.steiner import pcst_approx

    searches = []
    real_search = DelayEngine._forwarding_time

    def search(self, *args):
        searches.append([])
        return real_search(self, *args)

    def solve(space, terminals, penalties, root):
        searches[-1].append(tuple(sorted(penalties.items())))
        return pcst_approx(space, terminals, penalties, root)

    monkeypatch.setattr(DelayEngine, "_forwarding_time", search)
    monkeypatch.setattr(engine_module, "pcst_approx", solve)
    paths = [
        p for c, p in cases()
        if c == "run" and p.parent == INSTANCES and not p.name.startswith("deadline-")
    ]
    assert paths
    for path in paths:
        searches.clear()
        assert render("run", path) == golden_path("run", path).read_text()
        assert searches and all(len(s) == len(set(s)) for s in searches), path.name


def _seeded_delay_runs():
    """(instance, request_regime) for 100 small seeded delay instances in
    both regimes, plus the budget-crossing constructions in the default
    regime: investment_star with 50 and 120 leaves and the certification
    chain."""
    from metricserve.instance import delay_certification_chain, investment_star

    rng = random.Random(6060)
    runs = []
    for _ in range(100):
        inst = generate(
            seed=rng.randrange(10**9),
            n_points=rng.randint(2, 14),
            n_requests=rng.randint(1, 24),
            mode="delay",
        )
        runs += [(inst, False), (inst, True)]
    extra = [investment_star(50), investment_star(120), delay_certification_chain()]
    return runs + [(inst, False) for inst in extra]


def test_traces_unchanged_with_forwarding_certificate_off(monkeypatch):
    """An infinite Steiner bound certifies no forwarding search, so every
    search scans its probes.  Every delay golden still matches, and the
    seeded runs give the same trace with the certificate on and off."""
    import metricserve.delay_engine as engine_module
    from golden_traces import cases, golden_path, render
    from metricserve.instance import parse_instance
    from metricserve.steiner import SteinerSolution

    runs = _seeded_delay_runs()
    with_certificate = [run_delay(inst, request_regime=rr).to_json() for inst, rr in runs]
    def no_bound(space, terminals):
        return SteinerSolution(frozenset(), math.inf)

    monkeypatch.setattr(engine_module, "steiner_approx", no_bound)
    goldens = [
        (c, p) for c, p in cases()
        if c.startswith("run") and parse_instance(p.read_text()).mode == "delay"
    ]
    assert goldens
    for command, path in goldens:
        assert render(command, path) == golden_path(command, path).read_text(), path.name
    for (inst, rr), want in zip(runs, with_certificate):
        assert run_delay(inst, request_regime=rr).to_json() == want


def test_certified_search_solves_once(monkeypatch):
    """A forwarding search whose Steiner bound certifies tau = inf solves one
    prize-collecting problem, at the probe horizon.  On investment_star(120)
    some search is not certified and bisects, so the scan stays covered."""
    import metricserve.delay_engine as engine_module
    from metricserve import config
    from metricserve.delay_engine import certificate_margin
    from metricserve.instance import investment_star
    from metricserve.steiner import pcst_approx, steiner_approx

    searches = []
    real_search = DelayEngine._forwarding_time
    real_value = DelayFunction.value

    def search(self, space, eligible, root, budget, t):
        rec = {"n": space.n, "budget": budget, "span": None, "terminals": None,
               "solves": 0, "times": []}
        searches.append(rec)
        rec["tau"], solution = real_search(self, space, eligible, root, budget, t)
        rec["done"] = True
        return rec["tau"], solution

    def span(space, terminals):
        sol = steiner_approx(space, terminals)
        searches[-1]["span"] = sol.cost
        return sol

    def solve(space, terminals, penalties, root):
        searches[-1]["solves"] += 1
        searches[-1]["terminals"] = len(terminals)
        return pcst_approx(space, terminals, penalties, root)

    def value(fn, t):
        # inside a search only the probes evaluate delays
        if searches and "done" not in searches[-1]:
            searches[-1]["times"].append(t)
        return real_value(fn, t)

    monkeypatch.setattr(DelayEngine, "_forwarding_time", search)
    monkeypatch.setattr(engine_module, "steiner_approx", span)
    monkeypatch.setattr(engine_module, "pcst_approx", solve)
    monkeypatch.setattr(DelayFunction, "value", value)

    def certified(rec):
        margin = certificate_margin(rec["terminals"], rec["n"], rec["budget"])
        return 2.0 * rec["span"] < rec["budget"] - config.EPS_VAL - margin

    star = investment_star(120)
    for inst in [star] + [
        generate(seed=s, n_points=30, n_requests=40, mode="delay") for s in (31, 32, 33)
    ]:
        searches.clear()
        run_delay(inst)
        assert searches and all(rec["span"] is not None for rec in searches)
        hits = [rec for rec in searches if certified(rec)]
        assert hits
        for rec in hits:
            assert rec["solves"] == 1 and rec["tau"] == math.inf
        if inst is star:
            # the probe scan runs in increasing time, so a probe earlier
            # than its predecessor is a bisection step
            assert any(
                not certified(rec)
                and math.isfinite(rec["tau"])
                and any(b < a for a, b in zip(rec["times"], rec["times"][1:]))
                for rec in searches
            )
