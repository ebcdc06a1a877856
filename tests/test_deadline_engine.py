"""Deadline engine: hand-stepped fixtures plus trace-audit properties."""

import math
import random

import pytest

from metricserve.deadline_engine import DeadlineEngine, run_deadline
from metricserve.instance import DeadlineRequest, Instance, generate
from metricserve.levels import BOTTOM, Level, adjusted_level, ceil_log2, min_level
from metricserve.metric import build_metric



def _deadline_instance(graph, start, reqs):
    return Instance(
        graph=graph,
        server_start=start,
        mode="deadline",
        requests=tuple(DeadlineRequest(*r) for r in reqs),
    )


def test_adjusted_level_formula():
    assert adjusted_level(2, 5.0) == 3
    assert adjusted_level(BOTTOM, 8.0) == 3
    assert adjusted_level(BOTTOM, 0.0) is BOTTOM
    assert adjusted_level(4, 2.0) == 4


def test_lone_request_hand_example(path_graph):
    # (id, point, release, deadline); dist(0, 2) = 3
    inst = _deadline_instance(path_graph, 0, [(0, 2, 0.0, 10.0)])
    trace = run_deadline(inst)
    assert len(trace.services) == 1
    s = trace.services[0]
    assert s.level == ceil_log2(3.0) + 3 == 5
    assert s.primary
    assert s.served_ids == (0,)
    assert s.cost == pytest.approx(9.0)  # 3 out + 3 back + 3 relocation
    assert s.end_position == 2
    assert trace.total_cost == pytest.approx(9.0)
    assert trace.service_time[0] == 10.0


def test_collocated_request_zero_cost(path_graph):
    inst = _deadline_instance(path_graph, 1, [(0, 1, 0.0, 5.0)])
    trace = run_deadline(inst)
    s = trace.services[0]
    m = build_metric(path_graph)
    assert s.level == min_level(m) + 3
    assert not s.primary
    assert s.cost == 0.0
    assert s.end_position == 1


def test_two_requests_same_node_one_service(path_graph):
    inst = _deadline_instance(path_graph, 0, [(0, 2, 0.0, 5.0), (1, 2, 0.0, 6.0)])
    trace = run_deadline(inst)
    assert len(trace.services) == 1
    s = trace.services[0]
    assert s.time == 5.0
    assert set(s.served_ids) == {0, 1}
    assert trace.service_time[1] == 5.0


def test_empty_instance(path_graph):
    inst = _deadline_instance(path_graph, 0, [])
    trace = run_deadline(inst)
    assert trace.total_cost == 0.0
    assert trace.services == ()


def test_deadline_fired_for_served_request_is_skipped(path_graph):
    inst = _deadline_instance(path_graph, 0, [(0, 2, 0.0, 5.0), (1, 2, 0.0, 6.0)])
    trace = run_deadline(inst)
    # request 1's deadline at t=6 must not produce a second service
    assert len(trace.services) == 1


def test_upon_deadline_requires_pending(path_metric):
    engine = DeadlineEngine(path_metric, 0)
    with pytest.raises(RuntimeError, match="scheduler bug"):
        engine.upon_deadline(3)


def _audit_trace(inst, trace, m):
    """Shared invariants for any deadline trace."""
    by_id = {q.id: q for q in inst.requests}
    # every request served within its window
    for q in inst.requests:
        t = trace.service_time[q.id]
        assert q.release - 1e-9 <= t <= q.deadline + 1e-9
    levels: dict[int, Level] = {q.id: BOTTOM for q in inst.requests}
    for s in trace.services:
        # no peeking: everything the service touched was released by then
        for rid in s.eligible_ids:
            assert by_id[rid].release <= s.time + 1e-9
        # service-cost constant
        assert s.cost <= 21.0 * 2.0**s.level + 1e-6
        # eligible set inside the service ball
        for rid in s.eligible_ids:
            assert m.distance(s.start_position, by_id[rid].point) <= 2.0**s.level + 1e-9
        # walk really starts and ends where recorded
        assert s.walk[0] == s.start_position
        assert s.walk[-1] == s.end_position
        if s.primary:
            assert s.end_position == by_id[s.trigger_id].point
        else:
            assert s.end_position == s.start_position
        # levels never decrease; unserved eligible land exactly one above
        for rid in s.eligible_ids:
            if rid in s.served_ids:
                continue
            old = levels[rid]
            new = s.level + 1
            assert old is BOTTOM or new >= old
            levels[rid] = new
        assert s.forwarding_time == max(by_id[r].deadline for r in s.served_ids)


def test_random_suite_serves_everything():
    rng = random.Random(2024)
    for _ in range(120):
        seed = rng.randrange(10**9)
        inst = generate(
            seed=seed,
            n_points=rng.randint(2, 10),
            n_requests=rng.randint(0, 10),
            mode="deadline",
        )
        m = build_metric(inst.graph)
        trace = run_deadline(inst)
        _audit_trace(inst, trace, m)
        assert trace.total_cost == pytest.approx(
            math.fsum(s.cost for s in trace.services)
        )


def test_request_regime_run_still_serves():
    rng = random.Random(77)
    for _ in range(40):
        inst = generate(
            seed=rng.randrange(10**9),
            n_points=rng.randint(2, 9),
            n_requests=rng.randint(1, 8),
            mode="deadline",
        )
        m = build_metric(inst.graph)
        trace = run_deadline(inst, request_regime=True)
        _audit_trace(inst, trace, m)


def test_walk_steps_are_graph_edges():
    rng = random.Random(31337)
    inst = generate(seed=rng.randrange(10**9), n_points=8, n_requests=8, mode="deadline")
    m = build_metric(inst.graph)
    trace = run_deadline(inst)
    edges = m.edges
    for s in trace.services:
        for u, v in zip(s.walk, s.walk[1:]):
            assert u == v or (min(u, v), max(u, v)) in edges


def test_tied_deadlines_auto_normalized(path_graph):
    inst = _deadline_instance(
        path_graph, 0, [(3, 2, 0.0, 5.0), (1, 1, 0.0, 5.0), (2, 2, 0.0, 5.0)]
    )
    trace = run_deadline(inst)
    assert len(trace.service_time) == 3
    # the lowest tied id keeps the original deadline and fires first
    first = trace.services[0]
    assert first.trigger_id == 1
    assert first.time == 5.0


def test_zero_width_window(path_graph):
    inst = _deadline_instance(path_graph, 0, [(0, 2, 4.0, 4.0)])
    trace = run_deadline(inst)
    assert trace.service_time[0] == 4.0


def test_release_at_another_deadline_is_eligible(path_graph):
    # request 1 releases exactly when request 0's deadline fires; it is
    # pending at that instant and collocated, so the service sweeps it up
    inst = _deadline_instance(path_graph, 0, [(0, 2, 0.0, 6.0), (1, 2, 6.0, 50.0)])
    trace = run_deadline(inst)
    assert len(trace.services) == 1
    assert set(trace.services[0].served_ids) == {0, 1}


def test_access_log_never_ahead_of_time():
    """Access-logging wrapper: reveals happen exactly at releases, in order,
    and every service decision touches only already-revealed requests."""
    inst = generate(seed=314, n_points=8, n_requests=9, mode="deadline")
    m = build_metric(inst.graph)
    log = []

    class LoggingEngine(DeadlineEngine):
        def reveal(self, q):
            log.append(("reveal", q.release, q.id))
            super().reveal(q)

        def upon_deadline(self, qid):
            record = super().upon_deadline(qid)
            log.append(("service", record.time, qid))
            return record

    import metricserve.deadline_engine as de

    original = de.DeadlineEngine
    de.DeadlineEngine = LoggingEngine
    try:
        trace = run_deadline(inst)
    finally:
        de.DeadlineEngine = original

    assert len(log) >= len(inst.requests)  # the wrapper really intercepted
    times = [entry[1] for entry in log]
    assert times == sorted(times)
    revealed = set()
    by_id = {q.id: q for q in inst.requests}
    for kind, t, qid in log:
        if kind == "reveal":
            assert by_id[qid].release == t
            revealed.add(qid)
    for s in trace.services:
        released_then = {q.id for q in inst.requests if q.release <= s.time}
        assert set(s.eligible_ids) <= released_then


def test_trace_json_stable():
    inst = generate(seed=5, n_points=6, n_requests=5, mode="deadline")
    a = run_deadline(inst).to_json()
    b = run_deadline(inst).to_json()
    assert a == b
    import json

    doc = json.loads(a)
    assert set(doc) == {"mode", "total_cost", "final_position", "services", "requests"}


def test_deadline_run_expands_each_path_once(monkeypatch):
    """A run on a benchmark-size input walks no shortest path twice: the
    metric memoises every expansion.  The trace stays the golden one."""
    from metricserve.metric import MetricSpace

    from golden_traces import INSTANCES, golden_path, render

    walked = []
    real_walk = MetricSpace._walk

    def walk(self, u, v):
        walked.append((u, v))
        return real_walk(self, u, v)

    monkeypatch.setattr(MetricSpace, "_walk", walk)
    path = INSTANCES / "deadline-n200-m300-s41.json"
    assert render("run", path) == golden_path("run", path).read_text()
    assert walked and len(walked) == len(set(walked))


def test_traces_unchanged_with_steiner_certificate_off(monkeypatch):
    """An infinite margin certifies no service, so every service grows its
    tree prefix by prefix.  Every deadline golden still matches, and 100
    seeded instances with up to 30 points and 40 requests give the same
    trace with the certificate on and off, in both regimes."""
    import metricserve.deadline_engine as engine_module
    from golden_traces import cases, golden_path, render
    from metricserve.instance import parse_instance
    from metricserve.steiner import steiner_approx

    calls = [0]

    def counted(space, terminals, grow_from=None):
        calls[0] += 1
        return steiner_approx(space, terminals, grow_from=grow_from)

    monkeypatch.setattr(engine_module, "steiner_approx", counted)
    rng = random.Random(1212)
    runs = []
    for _ in range(100):
        inst = generate(
            seed=rng.randrange(10**9),
            n_points=rng.randint(2, 30),
            n_requests=rng.randint(1, 40),
            mode="deadline",
        )
        runs += [(inst, False), (inst, True)]
    with_certificate = [run_deadline(inst, request_regime=rr).to_json() for inst, rr in runs]
    calls_on, calls[0] = calls[0], 0

    monkeypatch.setattr(engine_module, "certificate_margin", lambda *args: math.inf)
    for (inst, rr), want in zip(runs, with_certificate):
        assert run_deadline(inst, request_regime=rr).to_json() == want
    assert calls_on < calls[0]  # the certificate fired in the seeded runs
    goldens = [
        (c, p) for c, p in cases()
        if c.startswith("run") and parse_instance(p.read_text()).mode == "deadline"
    ]
    assert any(p.stem.endswith(("-s48", "-s59")) for _, p in goldens)
    for command, path in goldens:
        assert render(command, path) == golden_path(command, path).read_text(), path.name


def test_certified_service_makes_one_steiner_call(monkeypatch):
    """A certified service makes one steiner_approx call, over every
    eligible request, and serves them all; a service that is not certified
    makes one more per request it serves.  The seed-48 input has both
    kinds, and one service that stops growing early."""
    import metricserve.deadline_engine as engine_module
    from golden_traces import INSTANCES
    from metricserve import config
    from metricserve.instance import parse_instance
    from metricserve.steiner import certificate_margin, steiner_approx

    decisions = []
    real_upon = DeadlineEngine.upon_deadline

    def upon(self, qid):
        decisions.append({"costs": [], "n": self.space().n})
        decisions[-1]["record"] = real_upon(self, qid)
        return decisions[-1]["record"]

    def counted(space, terminals, grow_from=None):
        solution = steiner_approx(space, terminals, grow_from=grow_from)
        decisions[-1]["costs"].append(solution.cost)
        return solution

    monkeypatch.setattr(DeadlineEngine, "upon_deadline", upon)
    monkeypatch.setattr(engine_module, "steiner_approx", counted)
    inst = parse_instance((INSTANCES / "deadline-n200-m300-s48.json").read_text())
    run_deadline(inst)
    kinds = {"certified": 0, "grown": 0, "stopped early": 0}
    for d in decisions:
        s = d["record"]
        budget = 4.0 * 2.0**s.level
        margin = certificate_margin(len(s.eligible_ids), d["n"], budget)
        if 2.0 * d["costs"][0] < budget - config.EPS - margin:
            kinds["certified"] += 1
            assert len(d["costs"]) == 1 and s.served_ids == s.eligible_ids
        else:
            kinds["grown"] += 1
            assert len(d["costs"]) == 1 + len(s.served_ids)
            if s.served_ids != s.eligible_ids:
                kinds["stopped early"] += 1
    assert kinds == {"certified": len(decisions) - 1, "grown": 1, "stopped early": 1}
