"""Classification, cylinders, perforated partitions, charge reports."""

import math
import random

from metricserve.analysis import (
    build_certified_cylinders,
    build_primary_cylinders,
    charge_report,
    classify,
    cylinders_disjoint,
    default_rho_certified,
    default_rho_primary,
    perforate_and_partition,
    Cylinder,
)
from metricserve.deadline_engine import run_deadline
from metricserve.delay_engine import run_delay
from metricserve.instance import DeadlineRequest, Instance, generate
from metricserve.levels import ceil_log2
from metricserve.metric import Ball, WeightedGraph, build_metric
from metricserve.offline_oracle import opt_deadline, opt_delay


def _deadline_instance(graph, start, reqs):
    return Instance(
        graph=graph,
        server_start=start,
        mode="deadline",
        requests=tuple(DeadlineRequest(*r) for r in reqs),
    )


def test_classify_all_primary_trace(path_graph):
    inst = _deadline_instance(path_graph, 0, [(0, 2, 0.0, 10.0)])
    trace = run_deadline(inst)
    cls = classify(trace)
    assert cls.primary_ids == {0}
    assert cls.certified_ids == frozenset()


def certification_star(n_far: int = 5) -> Instance:
    """Star with a unit trigger leaf and weight-8 far leaves.

    The trigger's deadline starts a level-3 service with budget 32; each
    far leaf adds 8 (plus 1 for the trigger's edge) to the tree, so the
    budget trips after the fourth far leaf and the last one is upgraded
    instead of served.  Its own deadline then fires a non-primary
    service certifying the first one.
    """
    edges = [(0, 1, 1.0)] + [(0, 2 + i, 8.0) for i in range(n_far)]
    g = WeightedGraph(node_count=2 + n_far, edges=tuple(edges))
    reqs = [(0, 1, 0.0, 10.0)]
    reqs += [(1 + i, 2 + i, 0.0, 11.0 + i) for i in range(n_far)]
    return _deadline_instance(g, 0, reqs)


def test_classify_certification_chain():
    inst = certification_star()
    trace = run_deadline(inst)
    cls = classify(trace)
    assert len(trace.services) == 2
    first, second = trace.services
    assert first.primary and not second.primary
    assert set(first.served_ids) == {0, 1, 2, 3, 4}
    assert cls.certified_ids == {0}
    assert cls.certifier_lists[0] == (1,)
    assert second.level - first.level == 4
    assert cls.witness_of[1] == 5


def double_certification_instance() -> Instance:
    """Two certification chains back to back.

    The first chain runs from hub 0 and relocates the server to node 1; a
    second star hangs off node 1 and replays the pattern, so two certified
    level-3 services arise at distance 1.  The later one's cylinder must
    start at the earlier one's forwarding time.
    """
    edges = [(0, 1, 1.0)] + [(0, 2 + i, 8.0) for i in range(5)]
    edges += [(1, 7, 1.0)] + [(1, 8 + i, 8.0) for i in range(5)]
    g = WeightedGraph(node_count=13, edges=tuple(edges))
    reqs = [(0, 1, 0.0, 10.0)] + [(1 + i, 2 + i, 0.0, 11.0 + i) for i in range(5)]
    reqs += [(6, 7, 20.0, 30.0)] + [(7 + i, 8 + i, 20.0, 31.0 + i) for i in range(5)]
    return _deadline_instance(g, 0, reqs)


def test_ptime_chains_between_same_level_certified():
    inst = double_certification_instance()
    m = build_metric(inst.graph)
    trace = run_deadline(inst)
    cls = classify(trace)
    assert sorted(cls.certified_ids) == [0, 2]
    assert trace.services[0].level == trace.services[2].level == 3
    cyls = {c.service_id: c for c in build_certified_cylinders(inst, trace, cls)}
    first, second = cyls[0], cyls[2]
    assert first.t_start == -math.inf
    assert second.t_start == first.t_end == trace.services[0].forwarding_time
    assert cylinders_disjoint(m, first, second)
    opt = opt_deadline(inst)
    report = charge_report(inst, trace, opt)
    assert report.all_pass, report.failures()


def test_certification_star_charge_report():
    """The constructed chain exercises the certified-cylinder bound
    against the exact optimum."""
    inst = certification_star()
    trace = run_deadline(inst)
    opt = opt_deadline(inst)
    report = charge_report(inst, trace, opt)
    assert report.all_pass, report.failures()
    kinds = [c.kind for c in report.checks]
    assert "certified-intersection" in kinds


def test_certified_once_on_random_suite():
    rng = random.Random(555)
    for _ in range(80):
        mode = "deadline" if rng.random() < 0.5 else "delay"
        inst = generate(
            seed=rng.randrange(10**9),
            n_points=rng.randint(2, 9),
            n_requests=rng.randint(0, 8),
            mode=mode,
        )
        trace = run_deadline(inst) if mode == "deadline" else run_delay(inst)
        cls = classify(trace)
        for sid in cls.certified_ids:
            assert len(cls.certifier_lists[sid]) == 1
            gap = (
                trace.services[cls.certifier_of(sid)].level - trace.services[sid].level
            )
            if mode == "deadline":
                assert gap == 4
            else:
                assert gap in (4, 5)


def test_primary_cylinder_lone_request(path_graph):
    inst = _deadline_instance(path_graph, 0, [(0, 2, 0.0, 10.0)])
    trace = run_deadline(inst)
    cyls = build_primary_cylinders(inst, trace)
    assert len(cyls) == 1
    cyl = cyls[0]
    assert cyl.shape == Ball(0, 2.0**3)
    assert cyl.t_start == 0.0 and cyl.t_end == 10.0
    assert cyl.level == 5


def test_no_primary_no_cylinders(path_graph):
    inst = _deadline_instance(path_graph, 1, [(0, 1, 0.0, 5.0)])
    trace = run_deadline(inst)
    assert build_primary_cylinders(inst, trace) == []
    assert build_certified_cylinders(inst, trace) == []


def test_per_level_disjointness_random_suite():
    rng = random.Random(777)
    for _ in range(60):
        mode = "deadline" if rng.random() < 0.5 else "delay"
        inst = generate(
            seed=rng.randrange(10**9),
            n_points=rng.randint(2, 9),
            n_requests=rng.randint(1, 8),
            mode=mode,
        )
        m = build_metric(inst.graph)
        trace = run_deadline(inst) if mode == "deadline" else run_delay(inst)
        for family in (
            build_primary_cylinders(inst, trace),
            build_certified_cylinders(inst, trace),
        ):
            by_level = {}
            for cyl in family:
                by_level.setdefault(cyl.level, []).append(cyl)
            for group in by_level.values():
                for i in range(len(group)):
                    for j in range(i + 1, len(group)):
                        assert cylinders_disjoint(m, group[i], group[j])


def test_perforated_partition_single_cylinder(path_metric):
    cyl = Cylinder(shape=Ball(0, 2.0), t_start=0.0, t_end=1.0, service_id=0,
                   kind="primary", level=3)
    partition = perforate_and_partition(path_metric, [cyl], rho=8.0)
    assert len(partition.classes) == ceil_log2(8.0) + 1 == 4
    assert partition.disjoint
    assert sum(len(c) for c in partition.classes) == 1


def test_perforated_partition_cross_level_disjoint(path_metric):
    """A level gap of at least the class width lands two overlapping balls in
    the same class, where perforation separates them."""
    rho = 4.0
    width = ceil_log2(rho) + 1  # 3
    big = Cylinder(shape=Ball(0, 2.0**4), t_start=0.0, t_end=10.0, service_id=0,
                   kind="primary", level=6)
    small = Cylinder(shape=Ball(1, 2.0**1), t_start=0.0, t_end=10.0, service_id=1,
                     kind="primary", level=3)
    assert (big.radius_class() - small.radius_class()) % width == 0
    partition = perforate_and_partition(path_metric, [big, small], rho=rho)
    assert partition.disjoint
    sizes = [len(c) for c in partition.classes]
    assert sorted(sizes) == [0, 0, 2]


def test_partition_class_count_arithmetic():
    for n in (4, 32, 1024):
        rho = 24.0 * n * n
        assert ceil_log2(rho) + 1 <= 2 * math.log2(n) + 7


def test_charge_report_deadline_clean():
    rng = random.Random(999)
    seen_far = 0
    for _ in range(40):
        inst = generate(
            seed=rng.randrange(10**9),
            n_points=rng.randint(2, 8),
            n_requests=rng.randint(1, 7),
            mode="deadline",
        )
        trace = run_deadline(inst)
        opt = opt_deadline(inst)
        report = charge_report(inst, trace, opt)
        assert report.all_pass, report.failures()
        seen_far += sum(1 for c in report.checks if c.kind == "far-primary-intersection")
    assert seen_far > 0  # the suite must actually exercise the bound


def test_charge_report_delay_clean():
    rng = random.Random(111)
    exercised = 0
    for _ in range(25):
        inst = generate(
            seed=rng.randrange(10**9),
            n_points=rng.randint(2, 7),
            n_requests=rng.randint(1, 5),
            mode="delay",
        )
        trace = run_delay(inst)
        opt = opt_delay(inst)
        report = charge_report(inst, trace, opt)
        assert report.all_pass, report.failures()
        exercised += sum(
            1 for c in report.checks if c.kind == "primary-intersection-plus-pdchg"
        )
    assert exercised > 0


def test_charge_report_without_opt_is_structural_only():
    inst = generate(seed=4, n_points=6, n_requests=5, mode="deadline")
    trace = run_deadline(inst)
    report = charge_report(inst, trace)
    kinds = {c.kind for c in report.checks}
    assert not any("intersection" in k for k in kinds)
    assert report.all_pass


def test_default_rho_values():
    inst = generate(seed=4, n_points=6, n_requests=2, mode="deadline")
    m = build_metric(inst.graph)
    assert default_rho_primary(m, "deadline") == 64 * 36
    assert default_rho_primary(m, "delay") == 512 * 36
    assert default_rho_certified(m) == 24 * 36


def test_report_json():
    inst = generate(seed=8, n_points=5, n_requests=4, mode="deadline")
    trace = run_deadline(inst)
    report = charge_report(inst, trace, opt_deadline(inst))
    doc = report.to_json()
    assert '"all_pass": true' in doc
