"""The state and bookkeeping both online engines share."""

import pytest

from metricserve.deadline_engine import run_deadline
from metricserve.delay_engine import run_delay
from metricserve.instance import parse_instance
from metricserve.metric import complete_graph_on

from golden_traces import GOLDEN, INSTANCES


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
