"""Executable counterparts of the charging analysis.

Traces from the engines are classified into primary and certified
services by replaying level assignments.  Each qualifying service then
contributes a cylinder: a metric shape (a ball around the service's
start, or its perforated variant) paired with a time interval.  The
optimum's edges traversed during the interval are measured inside the
shape, and the structural facts the competitive argument rests on are
evaluated numerically, each reported with both sides and a verdict:

- certified services have exactly one certifier, with the expected
  level gap (4 for deadlines, 4 or 5 with delay);
- per-level cylinder families are pairwise disjoint, and perforated
  families split into ``ceil(log2 rho) + 1`` pairwise-disjoint classes;
- request windows sit inside their certified cylinders' intervals;
- every cylinder intersects the optimum (plus, with delay, the unserved
  residual/penalty charges) by at least its level's share;
- summed over a disjoint family, intersections never exceed the
  optimum's movement.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field, replace

from . import config
from .engine import EngineTrace
from .instance import Instance, write_doc
from .levels import ceil_log2, min_level
from .metric import (
    Ball,
    MetricSpace,
    PerforatedBall,
    Shape,
    shape_edge_measure,
    shapes_edge_disjoint,
)
from .offline_oracle import OptTrace, opt_edges_during

__all__ = [
    "Classification",
    "Cylinder",
    "CheckRecord",
    "PerforatedPartition",
    "ChargeReport",
    "classify",
    "build_primary_cylinders",
    "build_certified_cylinders",
    "perforate_and_partition",
    "charge_report",
    "default_rho_primary",
    "default_rho_certified",
]


def default_rho_primary(m: MetricSpace, mode: str) -> float:
    return (2.0**6 if mode == "deadline" else 2.0**9) * m.n**2


def default_rho_certified(m: MetricSpace) -> float:
    return 24.0 * m.n**2


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    primary_ids: frozenset[int]
    certified_ids: frozenset[int]
    certifier_lists: dict[int, tuple[int, ...]]  # certified sid -> certifiers
    witness_of: dict[int, int]  # certifier sid -> witness request id

    def certifier_of(self, sid: int) -> int:
        return self.certifier_lists[sid][0]


def classify(trace: EngineTrace) -> Classification:
    """Replay level assignments to recover witness and certifier structure.

    A request witnesses the service that last raised its level.  A
    non-primary deadline service certifies the service its trigger
    witnesses; a non-primary delay service certifies via its lowest-id
    trigger whose level is within 4 of the service level.  A trigger
    whose level was never assigned (a collocated request served off its
    initial level) certifies nothing.
    """
    assigner: dict[int, int] = {}
    certifier_lists: dict[int, list[int]] = {}
    witness_of: dict[int, int] = {}
    primary_ids = set()
    levels: dict[int, int] = {}
    for s in trace.services:
        if s.primary:
            primary_ids.add(s.service_id)
        else:
            witness = None
            if trace.mode == "deadline":
                witness = s.trigger_id
            else:
                for qid in sorted(s.trigger_ids):
                    lvl = levels.get(qid)
                    if lvl is not None and lvl >= s.level - 4:
                        witness = qid
                        break
            if witness is not None and witness in assigner:
                certified = assigner[witness]
                certifier_lists.setdefault(certified, []).append(s.service_id)
                witness_of[s.service_id] = witness
        for qid in s.eligible_ids:
            if qid not in s.served_ids:
                assigner[qid] = s.service_id
                levels[qid] = s.level + 1
    return Classification(
        primary_ids=frozenset(primary_ids),
        certified_ids=frozenset(certifier_lists),
        certifier_lists={k: tuple(v) for k, v in certifier_lists.items()},
        witness_of=witness_of,
    )


# ---------------------------------------------------------------------------
# cylinders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cylinder:
    shape: Shape
    t_start: float
    t_end: float
    service_id: int
    kind: str  # "primary" | "certified"
    level: int

    def radius_class(self) -> int:
        return ceil_log2(self.shape.radius)


def build_primary_cylinders(
    inst: Instance, trace: EngineTrace, opt: OptTrace | None = None
) -> list[Cylinder]:
    """One cylinder per qualifying primary service.

    Without an optimum trace every primary service qualifies.  With one,
    the deadline mode keeps the far services (optimum's server at least
    ``2**(level-6)`` from the trigger at service time) and the delay mode
    keeps stationary services plus relocations that land at least
    ``2**(level-7)`` from the optimum's server.  Delay services at the two
    levels above the bottom-level floor are never charged: their triggers
    may sit on the server itself, where the concentrated-residual bound
    that the charging argument rests on is not available.
    """
    m = inst.metric
    floor = min_level(m)
    by_id = {q.id: q for q in inst.requests}
    out = []
    for s in trace.services:
        if not s.primary:
            continue
        if trace.mode == "delay" and opt is not None and s.level < floor + 5:
            continue
        if trace.mode == "deadline":
            trigger = by_id[s.trigger_id]
            if opt is not None:
                a_star = opt.position_at(s.time)
                if m.distance(a_star, trigger.point) < 2.0 ** (s.level - 6) - config.EPS:
                    continue
            t0, t1 = trigger.release, trigger.deadline
        else:
            if opt is not None and s.relocation_target is not None:
                a_star = opt.position_at(s.time)
                if (
                    m.distance(a_star, s.relocation_target)
                    < 2.0 ** (s.level - 7) - config.EPS
                ):
                    continue
            t0 = min(by_id[qid].release for qid in s.trigger_ids)
            t1 = s.time
        out.append(
            Cylinder(
                shape=Ball(s.start_position, 2.0 ** (s.level - 2)),
                t_start=t0,
                t_end=t1,
                service_id=s.service_id,
                kind="primary",
                level=s.level,
            )
        )
    return out


def build_certified_cylinders(
    inst: Instance, trace: EngineTrace, classification: Classification | None = None
) -> list[Cylinder]:
    """Certified cylinders: triple-radius balls over [ptime, forwarding time].

    ``ptime`` is the latest forwarding time among same-level certified
    services that ended no later than this service's start and sit within
    ``6 * 2**level``; unbounded below when none exists.
    """
    m = inst.metric
    if classification is None:
        classification = classify(trace)
    certified = [s for s in trace.services if s.service_id in classification.certified_ids]
    out = []
    for s in certified:
        assert math.isfinite(s.forwarding_time), "certified services have witnesses"
        ptime = -math.inf
        for other in certified:
            if other.service_id == s.service_id or other.level != s.level:
                continue
            if other.forwarding_time > s.time + config.EPS:
                continue
            if (
                m.distance(other.start_position, s.start_position)
                > 6.0 * 2.0**s.level + config.EPS
            ):
                continue
            ptime = max(ptime, other.forwarding_time)
        out.append(
            Cylinder(
                shape=Ball(s.start_position, 3.0 * 2.0**s.level),
                t_start=ptime,
                t_end=s.forwarding_time,
                service_id=s.service_id,
                kind="certified",
                level=s.level,
            )
        )
    return out


def cylinders_disjoint(m: MetricSpace, a: Cylinder, b: Cylinder) -> bool:
    """Disjoint in time, or claiming disjoint edge parts in space."""
    eps = config.EPS
    if a.t_end <= b.t_start + eps or b.t_end <= a.t_start + eps:
        return True
    return shapes_edge_disjoint(m, a.shape, b.shape)


@dataclass(frozen=True)
class PerforatedPartition:
    rho: float
    classes: tuple[tuple[Cylinder, ...], ...]
    violations: tuple[tuple[int, int], ...]  # service-id pairs not disjoint

    @property
    def disjoint(self) -> bool:
        return not self.violations


def perforate_and_partition(
    m: MetricSpace, cylinders: list[Cylinder], rho: float
) -> PerforatedPartition:
    """Perforate each cylinder's ball and split by radius class mod
    ``ceil(log2 rho) + 1``; verifies pairwise disjointness inside every
    class.  Input families must already be disjoint per level."""
    if rho <= 2:
        raise ValueError("rho must exceed 2 for the partition bound")
    width = ceil_log2(rho) + 1
    classes: list[list[Cylinder]] = [[] for _ in range(width)]
    for cyl in cylinders:
        if cyl.shape.radius <= 0:
            continue  # degenerate ball claims nothing; every class stays valid
        perf = replace(cyl, shape=PerforatedBall(cyl.shape.center, cyl.shape.radius, rho))
        classes[perf.radius_class() % width].append(perf)
    return PerforatedPartition(
        rho=rho,
        classes=tuple(tuple(g) for g in classes),
        violations=tuple(
            (a.service_id, b.service_id) for a, b in _overlapping_pairs(m, classes)
        ),
    )


def _by_level(cylinders: list[Cylinder]) -> list[list[Cylinder]]:
    """The cylinders grouped by level, levels ascending."""
    by_level: dict[int, list[Cylinder]] = {}
    for cyl in cylinders:
        by_level.setdefault(cyl.level, []).append(cyl)
    return [group for _, group in sorted(by_level.items())]


def _overlapping_pairs(m: MetricSpace, groups) -> list[tuple[Cylinder, Cylinder]]:
    """Every pair inside one group that is not disjoint, in scan order."""
    return [
        (a, b)
        for group in groups
        for i, a in enumerate(group)
        for b in group[i + 1 :]
        if not cylinders_disjoint(m, a, b)
    ]


# ---------------------------------------------------------------------------
# charge report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    kind: str
    subject: str
    lhs: float
    rhs: float
    passed: bool

    def to_doc(self) -> dict:
        return asdict(self)


@dataclass
class ChargeReport:
    mode: str
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckRecord]:
        return [c for c in self.checks if not c.passed]

    def add(self, kind: str, subject: str, lhs: float, rhs: float, ge: bool) -> None:
        """Record lhs >= rhs (ge) or lhs <= rhs (not ge), with tolerance."""
        tol = 1e-7
        passed = lhs >= rhs - tol if ge else lhs <= rhs + tol
        self.checks.append(CheckRecord(kind, subject, lhs, rhs, passed))

    def to_json(self) -> str:
        doc = {
            "mode": self.mode,
            "all_pass": self.all_pass,
            "checks": [c.to_doc() for c in self.checks],
        }
        return write_doc(doc)


def _pdchg(s, opt: OptTrace) -> float:
    """Residual of triggers the optimum had not served by the service time."""
    return math.fsum(
        res
        for qid, res in s.trigger_residuals.items()
        if opt.service_time[qid] >= s.time - config.EPS
    )


def _cdchg(by_id: dict, s, opt: OptTrace) -> float:
    """Forwarded-delay penalties of eligible requests the optimum had not
    served by the forwarding time."""
    total = 0.0
    for qid in s.eligible_ids:
        if opt.service_time[qid] < s.forwarding_time - config.EPS:
            continue
        q = by_id[qid]
        base = max(q.delay.value(s.time), s.eligible_ctr_before[qid])
        total += max(0.0, q.delay.value(s.forwarding_time) - base)
    return total


def charge_report(
    inst: Instance, trace: EngineTrace, opt: OptTrace | None = None
) -> ChargeReport:
    """Evaluate every structural inequality a trace is supposed to satisfy.

    Without an optimum trace only the classification and disjointness
    facts are checked; with one, the per-cylinder intersection bounds and
    the aggregated disjoint-family charges are evaluated as well.
    """
    m = inst.metric
    mode = trace.mode
    report = ChargeReport(mode=mode)
    classification = classify(trace)
    by_id = {q.id: q for q in inst.requests}
    rho = {"primary": default_rho_primary(m, mode), "certified": default_rho_certified(m)}

    # certified-once and level gaps
    for sid in sorted(classification.certified_ids):
        certifiers = classification.certifier_lists[sid]
        report.add("certified-once", f"service {sid}", float(len(certifiers)), 1.0, ge=False)
        report.add("certified-once", f"service {sid}", float(len(certifiers)), 1.0, ge=True)
        gap = float(trace.services[certifiers[0]].level - trace.services[sid].level)
        report.add("certifier-level-gap", f"service {sid}", gap, 4.0, ge=True)
        max_gap = 4.0 if mode == "deadline" else 5.0
        report.add("certifier-level-gap", f"service {sid}", gap, max_gap, ge=False)

    all_primary = build_primary_cylinders(inst, trace, opt=None)
    certified_cyls = build_certified_cylinders(inst, trace, classification)
    families = {"primary": all_primary, "certified": certified_cyls}
    for label, cylinders in families.items():
        bad = len(_overlapping_pairs(m, _by_level(cylinders)))
        report.add(f"{label}-disjoint-per-level", label, float(bad), 0.0, ge=False)
    partitions = {}
    for label, cylinders in families.items():
        partition = partitions[label] = perforate_and_partition(m, cylinders, rho[label])
        subject = f"{label} rho={rho[label]:g}"
        classes, width = float(len(partition.classes)), float(ceil_log2(rho[label]) + 1)
        report.add(f"{label}-perforated-classes", subject, classes, width, ge=False)
        bad = float(len(partition.violations))
        report.add(f"{label}-perforated-disjoint", subject, bad, 0.0, ge=False)

    # request windows sit inside certified intervals
    for cyl in certified_cyls:
        s = trace.services[cyl.service_id]
        if mode == "deadline":
            for qid in s.served_ids:
                q = by_id[qid]
                ok = (
                    q.release >= cyl.t_start - config.EPS
                    and q.deadline <= cyl.t_end + config.EPS
                )
                report.add(
                    "window-in-certified-interval",
                    f"service {s.service_id} request {qid}",
                    1.0 if ok else 0.0,
                    1.0,
                    ge=True,
                )
        else:
            for qid in s.eligible_ids:
                ok = by_id[qid].release > cyl.t_start - config.EPS
                report.add(
                    "release-after-ptime",
                    f"service {s.service_id} request {qid}",
                    1.0 if ok else 0.0,
                    1.0,
                    ge=True,
                )

    if opt is None:
        return report

    @functools.cache  # cylinders share intervals and shapes across the checks below
    def measure(t_start: float, t_end: float, shape: Shape) -> float:
        """Length of the optimum's edges during [t_start, t_end] inside ``shape``."""
        return shape_edge_measure(m, opt_edges_during(opt, t_start, t_end), shape)

    qualified = build_primary_cylinders(inst, trace, opt=opt)
    # per-cylinder intersection bounds
    for cyl in qualified + certified_cyls:
        s = trace.services[cyl.service_id]
        ccap = measure(cyl.t_start, cyl.t_end, cyl.shape)
        if cyl.kind == "primary" and mode == "deadline":
            kind, lhs, rhs = "far-primary-intersection", ccap, 2.0 ** (s.level - 6)
        elif cyl.kind == "primary":
            kind, lhs = "primary-intersection-plus-pdchg", ccap + _pdchg(s, opt)
            rhs = 2.0 ** (s.level - 8)
        elif mode == "deadline":
            kind, lhs, rhs = "certified-intersection", ccap, 2.0 ** (s.level - 1)
        else:
            kind, lhs = "certified-intersection-plus-cdchg", 2.0 * ccap + _cdchg(by_id, s, opt)
            rhs = 2.0**s.level
        report.add(kind, f"service {s.service_id}", lhs, rhs, ge=True)

    # perforation never loses more than the bound, per cylinder
    for cyl in all_primary + certified_cyls:
        r = rho[cyl.kind]
        perf = PerforatedBall(cyl.shape.center, cyl.shape.radius, r)
        lost = measure(cyl.t_start, cyl.t_end, cyl.shape) - measure(cyl.t_start, cyl.t_end, perf)
        bound = 2.0 * cyl.shape.radius * m.n**2 / r
        report.add("perforation-difference", f"service {cyl.service_id}", lost, bound, ge=False)

    # aggregated charges over disjoint families
    for label, groups, delay_charges in (
        ("primary-level", _by_level(qualified), True),
        ("certified-level", _by_level(certified_cyls), True),
        ("primary-perforated", partitions["primary"].classes, False),
        ("certified-perforated", partitions["certified"].classes, False),
    ):
        for i, group in enumerate(groups):
            if not group:
                continue
            total = 0.0
            bound = opt.movement_cost
            for cyl in group:
                total += measure(cyl.t_start, cyl.t_end, cyl.shape)
            if delay_charges and mode == "delay":
                for cyl in group:
                    s = trace.services[cyl.service_id]
                    total += _pdchg(s, opt) if cyl.kind == "primary" else _cdchg(by_id, s, opt)
                bound = opt.total_cost
            report.add(f"{label}-aggregate", f"class {i}", total, bound, ge=False)
    return report
