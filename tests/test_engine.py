"""The state and bookkeeping both online engines share."""

import pytest

from metricserve.deadline_engine import DeadlineEngine, run_deadline
from metricserve.delay_engine import DelayEngine, run_delay
from metricserve.engine import EngineCore
from metricserve.instance import generate, parse_instance
from metricserve.levels import adjusted_level
from metricserve.metric import complete_graph_on

from golden_traces import CORPUS, GOLDEN, INSTANCES


@pytest.mark.parametrize(
    "mode, run", [("deadline", run_deadline), ("delay", run_delay)], ids=["deadline", "delay"]
)
def test_request_regime_builds_one_closure_per_released_set(monkeypatch, mode, run):
    import metricserve.engine as engine_module

    built = []

    def counting(m, points):
        built.append(frozenset(points))
        return complete_graph_on(m, points)

    monkeypatch.setattr(engine_module, "complete_graph_on", counting)
    goldens = sorted((GOLDEN / "run-request-regime").glob(f"{mode}-*.json"))
    assert goldens
    for golden in goldens:
        built.clear()
        inst = parse_instance((INSTANCES / golden.name).read_text())
        trace = run(inst, request_regime=True)
        assert built and len(built) == len(set(built))
        assert len(built) <= len({q.point for q in inst.requests} | {inst.server_start})
        assert trace.to_json() == golden.read_text()


@pytest.mark.parametrize("request_regime", [False, True], ids=["default", "request-regime"])
@pytest.mark.parametrize(
    "mode, run, engine, service",
    [("deadline", run_deadline, DeadlineEngine, "upon_deadline"),
     ("delay", run_delay, DelayEngine, "upon_critical")],
    ids=["deadline", "delay"],
)
def test_memoised_adjusted_levels_stay_fresh(
    monkeypatch, mode, run, engine, service, request_regime
):
    """Each pending request's memoised adjusted level equals one computed
    afresh from its level and the server's position: after every service,
    and right after every level upgrade and server move inside one (a
    move clears all, so a missed upgrade would hide behind a later move).
    Inputs: seeded instances, where a move changes a pending request's
    adjusted level now and then (seed 16 for deadline, 8 for delay), and
    the corpus chains, whose services upgrade levels (seeded instances of
    these sizes never do)."""
    seen = dict.fromkeys(["checked", "upgrade", "move_to", service], 0)

    def check(self):
        for qid in self.pending:
            if qid in self._alevels:
                point = self.requests[qid].point
                fresh = adjusted_level(self.levels[qid], self.m.distance(self.position, point))
                assert self._alevels[qid] == fresh, (qid, len(self.records))
                seen["checked"] += 1

    def checked(name, method):
        def wrapped(self, *args):
            position = self.position
            out = method(self, *args)
            if name != "move_to" or self.position != position:
                seen[name] += 1
            check(self)
            return out
        return wrapped

    for cls, name in [(EngineCore, "upgrade"), (EngineCore, "move_to"), (engine, service)]:
        monkeypatch.setattr(cls, name, checked(name, getattr(cls, name)))
    inputs = [generate(seed=seed, n_points=40, n_requests=60, mode=mode) for seed in range(20)]
    for path in sorted(CORPUS.glob("*chain*.json")):
        inst = parse_instance(path.read_text())
        if inst.mode == mode:
            inputs.append(inst)
    for inst in inputs:
        run(inst, request_regime=request_regime)
    assert all(seen.values()), seen
