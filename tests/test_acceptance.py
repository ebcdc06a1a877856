"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The suites are
seeded and shared across criteria through session fixtures; every bound
is pinned here, nothing is deferred to calibration.
"""

import csv
import random
import time

import pytest

from metricserve.analysis import (
    build_certified_cylinders,
    build_primary_cylinders,
    charge_report,
    classify,
    cylinders_disjoint,
    default_rho_certified,
    default_rho_primary,
    perforate_and_partition,
)
from metricserve.deadline_engine import run_deadline
from metricserve.delay_engine import run_delay
from metricserve.instance import (
    certification_chain,
    delay_certification_chain,
    generate,
    investment_star,
)
from metricserve.levels import ceil_log2
from metricserve.metric import build_metric
from metricserve.offline_oracle import opt_deadline, opt_delay
from metricserve.steiner import pcst_approx, pcst_exact, steiner_approx, steiner_exact

from conftest import random_graph
from audits import audit_delay_trace, replay_no_supercritical
from oracles import opt_deadline_bruteforce, opt_delay_exhaustive

_SUITE_START = time.time()


def _verdict(criterion: int, label: str, detail: str) -> None:
    print(f"\n[acceptance] criterion {criterion:2d} ({label}): PASS — {detail}")


@pytest.fixture(scope="module")
def deadline_suite():
    """500 seeded deadline instances (n <= 10, m <= 10) with their traces."""
    suite = []
    rng = random.Random(190_001)
    for _ in range(500):
        inst = generate(
            seed=rng.randrange(10**9),
            n_points=rng.randint(2, 10),
            n_requests=rng.randint(0, 10),
            mode="deadline",
        )
        m = build_metric(inst.graph)
        suite.append((inst, m, run_deadline(inst)))
    return suite


@pytest.fixture(scope="module")
def delay_suite():
    """300 seeded delay instances with their traces; includes crowded stars
    so that finite forwarding times and investments are represented."""
    suite = []
    rng = random.Random(190_002)
    for i in range(300):
        if i % 30 == 29:
            inst = investment_star(n_leaves=49 + i % 4)
        else:
            inst = generate(
                seed=rng.randrange(10**9),
                n_points=rng.randint(2, 8),
                n_requests=rng.randint(0, 6),
                mode="delay",
            )
        m = build_metric(inst.graph)
        suite.append((inst, m, run_delay(inst)))
    return suite


def test_criterion_1_service_correctness():
    t0 = time.time()
    violations = 0
    rng = random.Random(190_001)
    for _ in range(500):
        inst = generate(
            seed=rng.randrange(10**9),
            n_points=rng.randint(2, 10),
            n_requests=rng.randint(0, 10),
            mode="deadline",
        )
        trace = run_deadline(inst)
        assert len(trace.service_time) == len(inst.requests)
        for q in inst.requests:
            t = trace.service_time[q.id]
            if not (q.release - 1e-9 <= t <= q.deadline + 1e-9):
                violations += 1
    elapsed = time.time() - t0
    assert violations == 0
    assert elapsed < 60.0
    _verdict(1, "deadline windows", f"500 instances, 0 violations, {elapsed:.1f}s")


def test_criterion_2_steiner_ratio():
    rng = random.Random(190_003)
    worst = 1.0
    for _ in range(300):
        n = rng.randint(3, 12)
        g = random_graph(rng, n, extra_edges=rng.randrange(n))
        m = build_metric(g)
        terminals = set(rng.sample(range(n), rng.randint(2, min(7, n))))
        exact = steiner_exact(m, terminals)
        approx = steiner_approx(m, terminals)
        assert exact.cost - 1e-9 <= approx.cost <= 2.0 * exact.cost + 1e-9
        if exact.cost > 0:
            worst = max(worst, approx.cost / exact.cost)
    _verdict(2, "steiner ratio", f"300 instances, worst ratio {worst:.4f} <= 2")


def test_criterion_3_pcst_ratio():
    rng = random.Random(190_004)
    worst = 1.0
    for _ in range(200):
        n = rng.randint(3, 10)
        g = random_graph(rng, n, extra_edges=rng.randrange(n))
        m = build_metric(g)
        terminals = set(rng.sample(range(n), rng.randint(1, min(6, n))))
        root = rng.randrange(n)
        penalties = {t: rng.uniform(0.0, 25.0) for t in terminals}
        exact = pcst_exact(m, terminals, penalties, root)
        approx = pcst_approx(m, terminals, penalties, root)
        assert exact.total_cost - 1e-9 <= approx.total_cost
        assert approx.total_cost <= 3.0 * exact.total_cost + 1e-9
        if exact.total_cost > 0:
            worst = max(worst, approx.total_cost / exact.total_cost)
    _verdict(3, "pcst ratio", f"200 instances, worst ratio {worst:.4f} <= 3")


def test_criterion_4_service_cost_constants(deadline_suite, delay_suite):
    n_deadline = n_delay = 0
    for inst, m, trace in deadline_suite:
        for s in trace.services:
            assert s.cost <= 21.0 * 2.0**s.level + 1e-6
            n_deadline += 1
    for inst, m, trace in delay_suite:
        for s in trace.services:
            assert s.cost <= 39.0 * 2.0**s.level + 1e-6
            n_delay += 1
    _verdict(
        4,
        "service-cost constants",
        f"{n_deadline} deadline services <= 21*2^l, {n_delay} delay services <= 39*2^l",
    )


def test_criterion_5_certified_once(deadline_suite, delay_suite):
    n_certified = 0
    for suite in (deadline_suite, delay_suite):
        for inst, m, trace in suite:
            cls = classify(trace)
            for sid in cls.certified_ids:
                assert len(cls.certifier_lists[sid]) == 1
                n_certified += 1
    assert n_certified > 0  # the suites must actually contain certifications
    _verdict(5, "certified once", f"{n_certified} certified services, all unique")


def test_criterion_6_delay_invariants(delay_suite):
    boundaries = relocations = gaps = 0
    for inst, m, trace in delay_suite:
        assert not trace.horizon_exhausted
        audit_delay_trace(inst, trace, m)
        boundaries += replay_no_supercritical(inst, trace, m)
        for s in trace.services:
            if s.relocation_target is not None:
                d = m.distance(s.start_position, s.relocation_target)
                lo = 2.0 ** (s.level - 5) - 2.0 ** (s.level - 8)
                hi = 2.0 ** (s.level - 3) + 2.0 ** (s.level - 8)
                assert lo - 1e-9 <= d <= hi + 1e-9
                relocations += 1
        cls = classify(trace)
        for sid in cls.certified_ids:
            gap = trace.services[cls.certifier_of(sid)].level - trace.services[sid].level
            assert gap in (4, 5)
            gaps += 1
    assert relocations > 0
    _verdict(
        6,
        "delay invariants",
        f"{boundaries} residual boundaries, {relocations} relocations, "
        f"{gaps} certification gaps, 0 violations",
    )


def test_criterion_7_cylinder_structure(deadline_suite, delay_suite):
    pairs = classes = 0
    for suite, mode in ((deadline_suite, "deadline"), (delay_suite, "delay")):
        for inst, m, trace in suite:
            primary = build_primary_cylinders(inst, trace)
            certified = build_certified_cylinders(inst, trace)
            for family, rho in (
                (primary, default_rho_primary(m, mode)),
                (certified, default_rho_certified(m)),
            ):
                by_level = {}
                for cyl in family:
                    by_level.setdefault(cyl.level, []).append(cyl)
                for group in by_level.values():
                    for i in range(len(group)):
                        for j in range(i + 1, len(group)):
                            assert cylinders_disjoint(m, group[i], group[j])
                            pairs += 1
                if family:
                    partition = perforate_and_partition(m, family, rho)
                    assert len(partition.classes) == ceil_log2(rho) + 1
                    assert partition.disjoint
                    classes += len(partition.classes)
    _verdict(
        7,
        "cylinder structure",
        f"{pairs} same-level pairs disjoint, {classes} perforated classes verified",
    )


def test_criterion_8_charge_inequalities():
    rng = random.Random(190_005)
    kinds_seen: dict[str, int] = {}
    checks = 0
    for i in range(150):
        if i % 8 == 7:
            inst = certification_chain(n_far=5 + i % 4, base_deadline=10.0 + i)
        else:
            inst = generate(
                seed=rng.randrange(10**9),
                n_points=rng.randint(2, 9),
                n_requests=rng.randint(1, 9),
                mode="deadline",
            )
        trace = run_deadline(inst)
        opt = opt_deadline(inst)
        report = charge_report(inst, trace, opt)
        assert report.all_pass, (i, report.failures())
        for c in report.checks:
            kinds_seen[c.kind] = kinds_seen.get(c.kind, 0) + 1
        checks += len(report.checks)
    for i in range(100):
        if i % 20 == 19:
            inst = delay_certification_chain(far_slope=0.4 + 0.05 * (i % 5))
        else:
            inst = generate(
                seed=rng.randrange(10**9),
                n_points=rng.randint(2, 7),
                n_requests=rng.randint(1, 5),
                mode="delay",
            )
        trace = run_delay(inst)
        opt = opt_delay(inst)
        report = charge_report(inst, trace, opt)
        assert report.all_pass, (i, report.failures())
        for c in report.checks:
            kinds_seen[c.kind] = kinds_seen.get(c.kind, 0) + 1
        checks += len(report.checks)
    for kind in (
        "far-primary-intersection",
        "certified-intersection",
        "primary-intersection-plus-pdchg",
        "certified-intersection-plus-cdchg",
        "primary-level-aggregate",
        "certified-level-aggregate",
        "primary-perforated-aggregate",
    ):
        assert kinds_seen.get(kind, 0) > 0, f"suite never exercised {kind}"
    _verdict(
        8,
        "charge inequalities",
        f"150 deadline + 100 delay verifications, {checks} checks, 0 violations",
    )


def test_criterion_9_oracle_self_consistency():
    rng = random.Random(190_006)
    for _ in range(200):
        inst = generate(
            seed=rng.randrange(10**9),
            n_points=rng.randint(2, 8),
            n_requests=rng.randint(0, 7),
            mode="deadline",
        )
        m = build_metric(inst.graph)
        dp = opt_deadline(inst).movement_cost
        brute = opt_deadline_bruteforce(m, inst)
        assert dp == pytest.approx(brute, abs=1e-9)
    for _ in range(100):
        inst = generate(
            seed=rng.randrange(10**9),
            n_points=rng.randint(2, 6),
            n_requests=rng.randint(0, 5),
            mode="delay",
        )
        m = build_metric(inst.graph)
        dp = opt_delay(inst).total_cost
        brute = opt_delay_exhaustive(m, inst) if inst.requests else 0.0
        assert dp == pytest.approx(brute, abs=1e-9)
    _verdict(9, "oracle self-consistency", "200 deadline + 100 delay DPs match brute force")


def test_criterion_10_report_ratio(tmp_path):
    from metricserve.cli import main

    out_csv = tmp_path / "corpus.csv"
    code = main(["report", "--glob", "corpus/*.json", "--csv", str(out_csv)])
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 30
    ratios = [float(r["ratio"]) for r in rows if r["ratio"]]
    assert len(ratios) == len(rows)  # the shipped corpus sits within oracle caps
    assert max(ratios) <= 64.0
    total = time.time() - _SUITE_START
    assert total < 600.0
    _verdict(
        10,
        "empirical ratio",
        f"{len(rows)} corpus instances, max ALG/OPT {max(ratios):.3f} <= 64, "
        f"acceptance wall time {total:.0f}s < 600s",
    )
