"""Instance model: parsing, serialization round-trips, generation, normalization."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricserve.instance import (
    DeadlineRequest,
    DelayFunction,
    DelayRequest,
    Instance,
    InstanceFormatError,
    certification_chain,
    delay_certification_chain,
    distinct_deadlines_normalize,
    generate,
    investment_star,
    parse_instance,
    serialize_instance,
)
from metricserve.metric import WeightedGraph

import golden_traces
from oracles import serialize_instance_reference

MINIMAL_DEADLINE = """
{"graph": {"nodes": 1, "edges": []},
 "server_start": 0, "mode": "deadline",
 "requests": [{"id": 0, "point": 0, "release": 1.0, "deadline": 2.0}]}
"""


def test_minimal_roundtrip():
    inst = parse_instance(MINIMAL_DEADLINE)
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert again == inst
    assert serialize_instance(again) == text


def test_unknown_field_rejected():
    doc = json.loads(MINIMAL_DEADLINE)
    doc["surprise"] = 1
    with pytest.raises(InstanceFormatError, match="unknown fields"):
        parse_instance(json.dumps(doc))


def test_nonunique_ids_rejected():
    doc = json.loads(MINIMAL_DEADLINE)
    doc["requests"].append(dict(doc["requests"][0]))
    with pytest.raises(InstanceFormatError, match="unique"):
        parse_instance(json.dumps(doc))


def test_deadline_before_release_rejected():
    doc = json.loads(MINIMAL_DEADLINE)
    doc["requests"][0]["deadline"] = 0.5
    with pytest.raises(InstanceFormatError, match="precedes release"):
        parse_instance(json.dumps(doc))


def test_decreasing_breakpoints_rejected():
    with pytest.raises(InstanceFormatError, match="nondecreasing"):
        DelayFunction(breakpoints=((0.0, 0.0), (1.0, 2.0), (2.0, 1.0)), final_slope=1.0)


def test_delay_function_validation():
    with pytest.raises(InstanceFormatError, match="zero at release"):
        DelayFunction(breakpoints=((0.0, 1.0),), final_slope=1.0)
    with pytest.raises(InstanceFormatError, match="positive"):
        DelayFunction(breakpoints=((0.0, 0.0),), final_slope=0.0)
    with pytest.raises(InstanceFormatError, match="increase"):
        DelayFunction(breakpoints=((0.0, 0.0), (0.0, 1.0)), final_slope=1.0)


def test_delay_function_evaluation():
    fn = DelayFunction(breakpoints=((1.0, 0.0), (3.0, 4.0), (5.0, 4.0)), final_slope=2.0)
    assert fn.value(1.0) == 0.0
    assert fn.value(2.0) == pytest.approx(2.0)
    assert fn.value(3.0) == pytest.approx(4.0)
    assert fn.value(4.0) == pytest.approx(4.0)  # flat stretch
    assert fn.value(7.0) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        fn.value(0.5)


def test_delay_inverse_on_flat_segment():
    fn = DelayFunction(breakpoints=((0.0, 0.0), (2.0, 4.0), (6.0, 4.0)), final_slope=1.0)
    assert fn.first_time_at_least(4.0) == pytest.approx(2.0)
    assert fn.first_time_at_least(5.0) == pytest.approx(7.0)
    assert fn.first_time_at_least(0.0) == 0.0


@st.composite
def delay_functions(draw):
    release = draw(st.floats(0, 10, allow_nan=False))
    times = [release]
    values = [0.0]
    for _ in range(draw(st.integers(0, 4))):
        times.append(times[-1] + draw(st.floats(0.1, 5.0)))
        values.append(values[-1] + draw(st.floats(0.0, 5.0)))
    slope = draw(st.floats(0.1, 4.0))
    return DelayFunction(
        breakpoints=tuple(zip(times, values)), final_slope=slope
    )


@given(delay_functions(), st.floats(0, 40), st.floats(0, 40))
@settings(max_examples=200, deadline=None)
def test_delay_function_nondecreasing(fn, a, b):
    t1 = fn.release + min(a, b)
    t2 = fn.release + max(a, b)
    assert fn.value(t1) <= fn.value(t2) + 1e-9


@given(delay_functions(), st.floats(0, 50))
@settings(max_examples=200, deadline=None)
def test_delay_inverse_identity(fn, c):
    t = fn.first_time_at_least(c)
    assert fn.value(t) == pytest.approx(c, abs=1e-9) or fn.value(t) >= c


def test_breakpoint_values_exact():
    fn = DelayFunction(breakpoints=((0.0, 0.0), (1.5, 2.5), (4.0, 7.0)), final_slope=0.5)
    for t, y in fn.breakpoints:
        assert fn.value(t) == y


def test_generate_deterministic():
    a = generate(seed=42, n_points=6, n_requests=5, mode="deadline")
    b = generate(seed=42, n_points=6, n_requests=5, mode="deadline")
    assert a == b
    assert serialize_instance(a) == serialize_instance(b)


def test_generate_empty():
    inst = generate(seed=1, n_points=4, n_requests=0, mode="delay")
    assert inst.requests == ()


def test_generated_suite_roundtrips():
    for seed in range(100):
        mode = "deadline" if seed % 2 == 0 else "delay"
        inst = generate(seed=seed, n_points=3 + seed % 6, n_requests=seed % 7, mode=mode)
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert serialize_instance(again) == text


def _assert_written_as_json(named):
    for name, inst in named:
        assert serialize_instance(inst) == serialize_instance_reference(inst), name


@pytest.mark.parametrize("folder", [golden_traces.CORPUS, golden_traces.INSTANCES],
                         ids=["corpus", "golden-instances"])
def test_writer_matches_json_on_stored_files(folder):
    paths = sorted(folder.glob("*.json"))
    assert paths
    _assert_written_as_json((p.name, parse_instance(p.read_text())) for p in paths)


@pytest.mark.parametrize("mode", ["deadline", "delay"])
def test_writer_matches_json_on_generated_instances(mode):
    """Empty edge and request lists (one point, no requests) included."""
    shapes = [(1, 0), (1, 3), (4, 0), (2, 1)] + [(1 + s % 9, s % 7) for s in range(40)]
    _assert_written_as_json(
        ((seed, n, m), generate(seed=seed, n_points=n, n_requests=m, mode=mode))
        for seed, (n, m) in enumerate(shapes)
    )


def test_writer_matches_json_on_constructed_instances():
    gt = golden_traces
    _assert_written_as_json([
        ("investment_star", investment_star(120)),
        ("certification_chain", certification_chain(6)),
        ("delay_certification_chain", delay_certification_chain(0.75)),
        ("tenth_weight_star", gt.tenth_weight_star(gt.TENTH_STAR_LEAVES)),
        *((f"{family}-{seed}", gt.FAMILY[family](seed)) for family, seed in gt.SEEDED_FAMILY),
        *((f"tenth-weight-{seed}", gt.tenth_weight_instance(seed)) for seed in range(10)),
        *((f"close-release-{seed}", gt.close_release_instance(seed)) for seed in range(10)),
    ])


def test_writer_matches_json_on_extreme_floats():
    """Subnormal, huge, exponent-form, negative-zero and rounded floats,
    and negative times."""
    tiny, sum_ = 5e-324, 0.1 + 0.2
    graph = WeightedGraph(node_count=7, edges=(
        (0, 1, tiny), (1, 2, 1e300), (2, 3, 1e16), (3, 4, 1e-5), (4, 5, sum_), (5, 6, 2.0),
    ))
    deadline = Instance(graph, 6, "deadline", (
        DeadlineRequest(id=0, point=0, release=-0.0, deadline=tiny),
        DeadlineRequest(id=1, point=1, release=-1e300, deadline=-1e16),
        DeadlineRequest(id=2, point=2, release=-2.0, deadline=1e-5),
        DeadlineRequest(id=3, point=3, release=sum_, deadline=1e300),
    ))
    curves = [
        DelayFunction(((-1e16, 0.0), (-2.0, tiny), (1e-5, sum_), (2.0, 1e300)), 1e-5),
        DelayFunction(((-0.0, -0.0), (1e16, 2.0)), sum_),
        DelayFunction(((-1e300, 0.0),), 1e300),
    ]
    delay = Instance(graph, 0, "delay", tuple(
        DelayRequest(id=i, point=i, release=fn.release, delay=fn)
        for i, fn in enumerate(curves)
    ))
    _assert_written_as_json([("deadline", deadline), ("delay", delay)])


NON_FINITE = [math.nan, math.inf, -math.inf]
UNIT_CURVE = DelayFunction(((0.0, 0.0),), 1.0)


@pytest.mark.parametrize("x", [*NON_FINITE, 10**400], ids=["nan", "inf", "-inf", "int-1e400"])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: DeadlineRequest(id=0, point=0, release=x, deadline=1.0),
        lambda x: DeadlineRequest(id=0, point=0, release=0.0, deadline=x),
        lambda x: DelayRequest(id=0, point=0, release=x, delay=UNIT_CURVE),
        lambda x: DelayFunction(((x, 0.0),), 1.0),
        lambda x: DelayFunction(((0.0, x),), 1.0),
        lambda x: DelayFunction(((0.0, 0.0), (x, 1.0)), 1.0),
        lambda x: DelayFunction(((0.0, 0.0), (1.0, x)), 1.0),
        lambda x: DelayFunction(((0.0, 0.0),), x),
    ],
    ids=["deadline-release", "deadline", "delay-release", "first-time", "first-value",
         "later-time", "later-value", "final-slope"],
)
def test_non_finite_numbers_refused_in_memory(build, x):
    """As the parser and WeightedGraph refuse them, so nothing in memory
    can be written as a NaN or Infinity the parser would then refuse; an
    int too large for a float is refused too, not an OverflowError."""
    with pytest.raises(InstanceFormatError, match="finite"):
        build(x)


def test_normalize_no_ties_is_identity():
    inst = generate(seed=9, n_points=5, n_requests=6, mode="deadline")
    assert distinct_deadlines_normalize(inst) is inst.requests


def test_normalize_breaks_tie_by_id():
    g = WeightedGraph(node_count=2, edges=((0, 1, 1.0),))
    reqs = (
        DeadlineRequest(id=5, point=0, release=0.0, deadline=4.0),
        DeadlineRequest(id=2, point=1, release=0.0, deadline=4.0),
    )
    inst = Instance(graph=g, server_start=0, mode="deadline", requests=reqs)
    normed = distinct_deadlines_normalize(inst)
    by_id = {q.id: q for q in normed}
    assert by_id[2].deadline < by_id[5].deadline
    assert by_id[2].deadline == 4.0


def test_normalize_makes_deadlines_distinct():
    rng = random.Random(123)
    for _ in range(1000):
        n = rng.randint(1, 8)
        g = WeightedGraph(
            node_count=n, edges=tuple((i, i + 1, 1.0) for i in range(n - 1))
        )
        reqs = []
        for i in range(rng.randint(0, 8)):
            rel = rng.choice([0.0, 1.0, 2.0])
            reqs.append(
                DeadlineRequest(
                    id=i,
                    point=rng.randrange(n),
                    release=rel,
                    deadline=rel + rng.choice([1.0, 2.0, 3.0]),
                )
            )
        inst = Instance(graph=g, server_start=0, mode="deadline", requests=tuple(reqs))
        normed = distinct_deadlines_normalize(inst)
        deadlines = [q.deadline for q in normed]
        assert len(set(deadlines)) == len(deadlines)
        for q0, q1 in zip(inst.requests, normed):
            assert q1.release <= q1.deadline
            assert abs(q1.deadline - q0.deadline) < 1e-9


def test_mode_mismatch_rejected():
    g = WeightedGraph(node_count=1, edges=())
    fn = DelayFunction(breakpoints=((0.0, 0.0),), final_slope=1.0)
    req = DelayRequest(id=0, point=0, release=0.0, delay=fn)
    with pytest.raises(InstanceFormatError, match="wrong kind"):
        Instance(graph=g, server_start=0, mode="deadline", requests=(req,))


MINIMAL_DELAY = {
    "graph": {"nodes": 2, "edges": [[0, 1, 1.5]]},
    "server_start": 0,
    "mode": "delay",
    "requests": [{"id": 0, "point": 1, "release": 0.0,
                  "delay": {"breakpoints": [[0.0, 0.0], [2.0, 1.0]], "final_slope": 1.0}}],
}


def _with(doc, path, value):
    """A deep copy of ``doc`` with the field at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "path,value",
    [
        (("requests", 0, "release"), float("nan")),
        (("requests", 0, "release"), float("-inf")),
        (("requests", 0, "deadline"), float("inf")),
        (("requests", 0, "point"), 1.5),
        (("requests", 0, "point"), True),
        (("requests", 0, "id"), "0"),
        (("requests", 0, "deadline"), False),
        (("requests", 0, "release"), 10**400),
        (("graph", "nodes"), 1.25),
        (("graph", "nodes"), True),
        (("graph", "nodes"), 0),
        (("graph", "edges"), "x"),
        (("graph", "edges"), [[0, 0, 1.0]]),
        (("graph",), [1]),
        (("requests",), {"id": 0}),
        (("requests", 0), [0, 0, 1.0, 2.0]),
        (("server_start",), 0.5),
        (("mode",), ["deadline"]),
    ],
)
def test_malformed_deadline_documents_rejected(path, value):
    with pytest.raises(InstanceFormatError):
        parse_instance(_with(json.loads(MINIMAL_DEADLINE), path, value))


@pytest.mark.parametrize(
    "path,value",
    [
        (("graph", "edges", 0, 2), float("nan")),
        (("graph", "edges", 0, 2), -1.0),
        (("graph", "edges", 0), [0, 1]),
        (("graph", "edges", 0, 1), 1.0000001),
        (("requests", 0, "delay", "final_slope"), float("nan")),
        (("requests", 0, "delay", "final_slope"), float("inf")),
        (("requests", 0, "delay", "breakpoints"), [[0.0, 0.0, 1.0]]),
        (("requests", 0, "delay", "breakpoints", 1, 1), float("nan")),
        (("requests", 0, "delay", "breakpoints"), "[]"),
        (("requests", 0, "delay"), None),
    ],
)
def test_malformed_delay_documents_rejected(path, value):
    with pytest.raises(InstanceFormatError):
        parse_instance(_with(MINIMAL_DELAY, path, value))


def test_integral_numbers_accepted_as_ids():
    doc = json.loads(MINIMAL_DEADLINE)
    doc["graph"]["nodes"] = 1.0
    doc["requests"][0]["point"] = 0.0
    doc["requests"][0]["release"] = 1
    assert parse_instance(json.dumps(doc)) == parse_instance(MINIMAL_DEADLINE)
    assert parse_instance(json.dumps(MINIMAL_DELAY)).requests[0].point == 1


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=12), inner, max_size=4),
    max_leaves=12,
)


def _fields(doc, prefix=()):
    """Paths of every field and list entry of a JSON document."""
    out = [prefix] if prefix else []
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return out
    for key, value in items:
        out += _fields(value, prefix + (key,))
    return out


_DOCS = [json.loads(MINIMAL_DEADLINE), MINIMAL_DELAY]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parse_instance_raises_only_instance_format_error(data):
    """Valid documents with one field replaced by arbitrary JSON (or
    dropped), and arbitrary JSON documents, either parse or raise
    InstanceFormatError, never another exception."""
    base = data.draw(st.sampled_from(_DOCS))
    choice = data.draw(st.integers(0, 2))
    if choice == 0:
        text = json.dumps(data.draw(_json_values))
    elif choice == 1:
        path = data.draw(st.sampled_from(_fields(base)))
        text = _with(base, path, data.draw(_json_values))
    else:
        path = data.draw(st.sampled_from(_fields(base)))
        doc = json.loads(json.dumps(base))
        target = doc
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        text = json.dumps(doc)
    try:
        parse_instance(text)
    except InstanceFormatError:
        pass
