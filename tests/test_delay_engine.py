"""Delay engine: event detection, hand-stepped service, invariant audits."""

import math
import random

import pytest

from metricserve import config
from metricserve.delay_engine import CriticalEvent, DelayEngine, run_delay
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
def unit_edge_graph():
    return WeightedGraph(node_count=2, edges=((0, 1, 1.0),))


@pytest.fixture
def unit_edge_metric(unit_edge_graph):
    return build_metric(unit_edge_graph)


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


def test_max_critical_level_counts_requests_at_or_below_it():
    """A level's total counts only requests whose clamped adjusted level is
    at most that level: the distance-1 request (adjusted level 0) makes
    level 0 critical at t = 1.0, and never level -1, whose threshold 0.5 its
    residual passes at t = 0.75."""
    g = WeightedGraph(node_count=3, edges=((0, 1, 1.0), (1, 2, 0.25)))
    engine = DelayEngine(build_metric(g), 0)
    engine.reveal(_slope_request(0, 1, 0.0, 1.0))
    assert engine.level_floor < -1 and engine.clamped_alevel(0) == 0
    assert engine.max_critical_level(0.75) is None
    assert engine.max_critical_level(1.0) == 0
    assert engine.max_critical_level(3.0) == 1


def test_max_critical_level_is_the_largest_level_over_its_threshold():
    """Against the rule summed level by level: the largest level whose
    requests at or below it hold ``2**level - EPS`` of residual."""
    rng = random.Random(5)
    g = random_graph(rng, 6, extra_edges=3)
    m = build_metric(g)
    engine = DelayEngine(m, 0)
    for i in range(5):
        engine.reveal(_slope_request(i, rng.randrange(6), 0.0, rng.uniform(0.2, 2.0)))
        engine.counters[i] = rng.uniform(0.0, 1.0)
    found = []
    for t in (0.25, 0.5, 1.0, 2.0, 3.0, 6.0, 12.0):
        critical = [
            level
            for level in range(engine.level_floor, 12)
            if math.fsum(
                engine.residual(qid, t)
                for qid in engine.pending
                if engine.clamped_alevel(qid) <= level
            )
            >= 2.0**level - config.EPS
        ]
        found.append(max(critical, default=None))
        assert engine.max_critical_level(t) == found[-1], t
    assert None in found and len(set(found) - {None}) > 1


def test_next_critical_event_starts_at_from_t(unit_edge_metric):
    """A level already critical at ``from_t`` is an event at ``from_t``."""
    engine = DelayEngine(unit_edge_metric, 0)
    engine.reveal(_slope_request(0, 1, 0.0, 1.0))
    ev = engine.next_critical_event(2.0, math.inf)
    assert ev == CriticalEvent(time=2.0, level=engine.max_critical_level(2.0))
    assert ev.level == 1


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


def test_single_request_service_hand_stepped(unit_edge_graph):
    """Distance-1 request, unit slope: crossing at t=1 fires a level-3 service
    that serves the request, then relocates into the concentrated-delay ball."""
    inst = _delay_instance(unit_edge_graph, 0, [_slope_request(0, 1, 0.0, 1.0)])
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


def test_collocated_requests_served_at_zero_movement(unit_edge_graph, unit_edge_metric):
    inst = _delay_instance(unit_edge_graph, 1, [_slope_request(0, 1, 0.0, 2.0)])
    trace = run_delay(inst)
    assert trace.movement_cost == 0.0
    assert len(trace.services) == 1
    s = trace.services[0]
    assert s.relocation_target is None
    assert s.served_ids == (0,)
    assert s.level == min_level(unit_edge_metric) + 3


def test_empty_delay_instance(unit_edge_graph):
    trace = run_delay(_delay_instance(unit_edge_graph, 0, []))
    assert trace.total_cost == 0.0
    assert not trace.horizon_exhausted


def test_horizon_exhaustion_flagged(unit_edge_graph):
    inst = _delay_instance(unit_edge_graph, 0, [_slope_request(0, 1, 0.0, 0.001)])
    trace = run_delay(inst, horizon=5.0)
    assert trace.horizon_exhausted
    assert trace.pending_ids == (0,)


def test_crossing_within_eps_of_a_release_past_the_horizon(unit_edge_graph):
    """Request 0 becomes critical at t = 8, and request 1 is released
    5e-10 later, inside the release tolerance.  When that release lies past
    the horizon, the crossing still fires at t = 8 and request 1 stays
    pending; without a horizon the release comes first and one service at
    its time serves both."""
    release = 8.0 + 5e-10
    inst = _delay_instance(unit_edge_graph, 0, [
        _slope_request(0, 0, 0.0, 0.0625), _slope_request(1, 0, release, 1.0)
    ])
    trace = run_delay(inst, horizon=8.0 + 2e-10)
    assert [(s.time, s.served_ids) for s in trace.services] == [(8.0, (0,))]
    assert trace.pending_ids == (1,)
    assert trace.horizon_exhausted
    trace = run_delay(inst)
    assert [(s.time, s.served_ids) for s in trace.services] == [(release, (0, 1))]
    assert trace.total_cost == 0.50000000003125
    assert not trace.horizon_exhausted


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


def test_relocation_matches_scalar_search():
    """The relocation search tests distances as numpy comparisons; on every
    primary service of the seeded default-regime runs it picks the center
    that the scalar loop kept here as the reference picks."""
    from metricserve import config

    relocations = 0
    for inst, request_regime in _seeded_delay_runs():
        if request_regime:
            continue
        m = inst.metric
        point = {q.id: q.point for q in inst.requests}
        for s in run_delay(inst).services:
            if not s.primary:
                continue
            a, ball_r, best_mass = s.start_position, 2.0 ** (s.level - 8), 2.0 ** (s.level - 4)
            min_dist = 2.0 ** (s.level - 5) - 2.0 ** (s.level - 8)
            want = None
            for v in range(m.n):
                if m.distance(a, v) < min_dist - config.EPS:
                    continue
                mass = math.fsum(
                    s.trigger_residuals[qid]
                    for qid in s.trigger_ids
                    if m.distance(v, point[qid]) <= ball_r + config.EPS
                )
                if mass > best_mass + config.EPS:
                    best_mass, want = mass, v
            assert s.relocation_target == want
            relocations += want is not None
    assert relocations


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


def _assert_delay_run_goldens_match():
    """Every delay ``run`` golden, in both regimes and investment_star(120)
    among them, is reproduced byte for byte."""
    from golden_traces import cases, golden_path, render
    from metricserve.instance import parse_instance

    goldens = [
        (c, p) for c, p in cases()
        if c.startswith("run") and parse_instance(p.read_text()).mode == "delay"
    ]
    assert {c for c, _ in goldens} == {"run", "run-request-regime"}
    assert any(p.stem == "investment_star-120" for _, p in goldens)
    for command, path in goldens:
        assert render(command, path) == golden_path(command, path).read_text(), path.name


def test_traces_unchanged_with_forwarding_certificate_off(monkeypatch):
    """An infinite certificate margin certifies no forwarding search, so
    every search scans its probes.  Every delay golden still matches, the
    seeded runs give the same trace with the certificate on and off, and
    the certificate saves prize-collecting solves."""
    import metricserve.delay_engine as engine_module
    from metricserve.steiner import pcst_approx

    solves = []

    def solve(*args):
        solves.append(None)
        return pcst_approx(*args)

    monkeypatch.setattr(engine_module, "pcst_approx", solve)
    runs = _seeded_delay_runs()
    with_certificate = [run_delay(inst, request_regime=rr).to_json() for inst, rr in runs]
    solves_with_certificate = len(solves)
    solves.clear()
    monkeypatch.setattr(engine_module, "certificate_margin", lambda *args: math.inf)
    for (inst, rr), want in zip(runs, with_certificate):
        assert run_delay(inst, request_regime=rr).to_json() == want
    assert solves_with_certificate < len(solves)
    _assert_delay_run_goldens_match()


def test_traces_unchanged_with_no_merge_exit_off(monkeypatch):
    """``pcst_approx`` skips the moat growth when no edge can go tight.  An
    infinite margin in ``metricserve.steiner`` turns that exit off, while the
    engines keep their own binding of ``certificate_margin``.  The exit
    fires in some solves of the seeded runs, their traces are the same with
    it on and off, and every delay golden still matches with it off."""
    import metricserve.delay_engine as engine_module
    import metricserve.steiner as steiner_module

    fired = []

    def solve(m, terminals, penalties, root):
        def own(x):
            return penalties.get(x, 0.0) if x in terminals and x != root else 0.0

        edges = m.sorted_edges
        w_max = max((w for _, _, w in edges), default=0.0)
        margin = steiner_module.certificate_margin(len(terminals), m.n, w_max)
        fired.append(all(own(u) + own(v) + margin < w for u, v, w in edges))
        return steiner_module.pcst_approx(m, terminals, penalties, root)

    monkeypatch.setattr(engine_module, "pcst_approx", solve)
    runs = _seeded_delay_runs()
    with_exit = [run_delay(inst, request_regime=rr).to_json() for inst, rr in runs]
    assert 0 < sum(fired) < len(fired)
    monkeypatch.setattr(steiner_module, "certificate_margin", lambda *args: math.inf)
    for (inst, rr), want in zip(runs, with_exit):
        assert run_delay(inst, request_regime=rr).to_json() == want
    _assert_delay_run_goldens_match()


def test_certified_search_solves_once(monkeypatch):
    """Every forwarding search solves the probe horizon first.  It is
    certified when that solution serves every eligible point and twice its
    tree cost is below the budget less the margin; then tau = inf, and it
    solves nothing else and builds no Steiner tree.  On investment_star(120)
    some search is not certified and bisects, so the scan stays covered."""
    import metricserve.delay_engine as engine_module
    import metricserve.steiner as steiner_module
    from metricserve import config
    from metricserve.instance import investment_star
    from metricserve.steiner import certificate_margin, pcst_approx

    assert "steiner_approx" not in vars(engine_module)
    searches = []
    real_search = DelayEngine._forwarding_time
    real_value = DelayFunction.value

    def search(self, space, eligible, root, budget, t):
        rec = {"n": space.n, "budget": budget, "last_t": None, "probes": [], "solutions": []}
        searches.append(rec)
        rec["tau"], solution = real_search(self, space, eligible, root, budget, t)
        rec["done"] = True
        return rec["tau"], solution

    def solve(space, terminals, penalties, root):
        rec = searches[-1]
        rec["terminals"] = set(terminals)
        rec["probes"].append(rec["last_t"])
        rec["solutions"].append(pcst_approx(space, terminals, penalties, root))
        return rec["solutions"][-1]

    def value(fn, t):
        # inside a search only the probes evaluate delays, each just
        # before its solve
        if searches and "done" not in searches[-1]:
            searches[-1]["last_t"] = t
        return real_value(fn, t)

    def no_steiner_tree(*args, **kwargs):
        raise AssertionError("a forwarding search builds no Steiner tree")

    monkeypatch.setattr(DelayEngine, "_forwarding_time", search)
    monkeypatch.setattr(engine_module, "pcst_approx", solve)
    monkeypatch.setattr(DelayFunction, "value", value)
    monkeypatch.setattr(steiner_module, "steiner_approx", no_steiner_tree)

    def certified(rec):
        horizon = rec["solutions"][0]
        margin = certificate_margin(len(rec["terminals"]), rec["n"], rec["budget"])
        return (
            rec["terminals"] <= horizon.served
            and 2.0 * horizon.tree_cost < rec["budget"] - config.EPS - margin
        )

    star = investment_star(120)
    for inst in [star] + [
        generate(seed=s, n_points=30, n_requests=40, mode="delay") for s in (31, 32, 33)
    ]:
        searches.clear()
        run_delay(inst)
        assert searches
        for rec in searches:
            # the horizon is the latest probe
            assert rec["probes"][0] == max(rec["probes"])
        hits = [rec for rec in searches if certified(rec)]
        assert hits
        for rec in hits:
            assert len(rec["solutions"]) == 1 and rec["tau"] == math.inf
        if inst is star:
            # after the horizon the probe scan runs in increasing time, so
            # a probe earlier than its predecessor is a bisection step
            assert any(
                not certified(rec)
                and math.isfinite(rec["tau"])
                and any(b < a for a, b in zip(rec["probes"][1:], rec["probes"][2:]))
                for rec in searches
            )


def test_upon_critical_is_passed_the_critical_level(monkeypatch):
    """upon_critical trusts its caller for the critical level: at every
    call over every delay run golden in both regimes, investment_star(120)
    among them, the level passed equals max_critical_level(t) afresh, and
    each trace still equals its golden."""
    levels = []
    real = DelayEngine.upon_critical

    def spy(self, critical_level, t):
        assert self.max_critical_level(t) == critical_level, (critical_level, t)
        levels.append(critical_level)
        return real(self, critical_level, t)

    monkeypatch.setattr(DelayEngine, "upon_critical", spy)
    _assert_delay_run_goldens_match()
    assert levels


def test_upon_critical_refuses_no_critical_level(unit_edge_graph):
    engine = DelayEngine(build_metric(unit_edge_graph), 0)
    engine.reveal(_slope_request(0, 1, 0.0, 1.0))
    with pytest.raises(RuntimeError, match="no level is critical"):
        engine.upon_critical(None, 0.0)
