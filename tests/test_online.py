"""Online-ness as a checked property: a prefix differential.

A service at time s may depend only on the requests released by s.  So
cutting an instance to those requests and running it again must repeat
every service up to s, field for field.  Delay runs reveal each release
together with every release within ``EPS`` after it, so there the cut
keeps the requests released by s + ``EPS``.  Releases, deadlines and
delay breakpoints lie on a coarse grid, so many of them tie.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricserve import config
from metricserve.deadline_engine import run_deadline
from metricserve.delay_engine import run_delay
from metricserve.instance import DeadlineRequest, DelayFunction, DelayRequest, Instance
from metricserve.metric import WeightedGraph

GRID = 5.0


@st.composite
def tied_instances(draw, mode: str) -> Instance:
    """A random tree with integer weights and up to 7 requests whose times
    are multiples of ``GRID``."""
    n = draw(st.integers(2, 6))
    edges = tuple(
        (draw(st.integers(0, v - 1)), v, float(draw(st.integers(1, 8)))) for v in range(1, n)
    )
    requests = []
    for qid in range(draw(st.integers(1, 7))):
        point = draw(st.integers(0, n - 1))
        release = GRID * draw(st.integers(0, 4))
        if mode == "deadline":
            deadline = release + GRID * draw(st.integers(0, 3))
            requests.append(DeadlineRequest(qid, point, release, deadline))
        else:
            rise = GRID * draw(st.integers(0, 2))
            steps = ((release, 0.0), (release + GRID, rise)) if rise else ((release, 0.0),)
            slope = draw(st.sampled_from([0.5, 1.0, 2.0]))
            requests.append(DelayRequest(qid, point, release, DelayFunction(steps, slope)))
    start = draw(st.integers(0, n - 1))
    return Instance(WeightedGraph(n, edges), start, mode, tuple(requests))


def services_by(trace, s: float) -> list[dict]:
    return [r.to_doc() for r in trace.services if r.time <= s]


CASES = [
    ("deadline", run_deadline, 0.0),
    ("delay", run_delay, config.EPS),
]


@pytest.mark.parametrize("request_regime", [False, True], ids=["default", "request-regime"])
@pytest.mark.parametrize("mode, run, reveal_slack", CASES, ids=[c[0] for c in CASES])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_services_depend_only_on_released_requests(mode, run, reveal_slack, request_regime, data):
    inst = data.draw(tied_instances(mode))
    full = run(inst, request_regime=request_regime)
    for s in sorted({r.time for r in full.services}):
        cut = dataclasses.replace(
            inst, requests=tuple(q for q in inst.requests if q.release <= s + reveal_slack)
        )
        part = run(cut, request_regime=request_regime)
        assert services_by(part, s) == services_by(full, s), f"services up to t={s}"
