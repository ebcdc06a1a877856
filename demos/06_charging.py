"""The charging analysis, end to end, on a constructed certification chain.

A star instance forces the first service to trip its tree budget, upgrade
a leftover request, and get certified by that request's later deadline.
The analysis classifies the services, builds primary and certified
cylinders, perforates them into disjoint classes, and checks every
intersection inequality against the exact optimum's traced movements.
"""

from metricserve.analysis import (
    build_certified_cylinders,
    build_primary_cylinders,
    charge_report,
    classify,
    default_rho_certified,
    perforate_and_partition,
)
from metricserve.deadline_engine import run_deadline
from metricserve.instance import certification_chain
from metricserve.offline_oracle import opt_deadline

inst = certification_chain(n_far=6)
m = inst.metric
trace = run_deadline(inst)
opt = opt_deadline(inst)

cls = classify(trace)
print(f"services: {len(trace.services)}, primary {sorted(cls.primary_ids)}, "
      f"certified {sorted(cls.certified_ids)}")
for sid in sorted(cls.certified_ids):
    cert = cls.certifier_of(sid)
    print(f"  service {sid} (level {trace.services[sid].level}) certified by "
          f"service {cert} (level {trace.services[cert].level}) "
          f"via witness request {cls.witness_of[cert]}")

primary = build_primary_cylinders(inst, trace)
certified = build_certified_cylinders(inst, trace, cls)
print("\ncylinders (shape radius, time interval):")
for cyl in primary + certified:
    print(f"  {cyl.kind:9s} service {cyl.service_id}: radius {cyl.shape.radius:6.1f}, "
          f"[{cyl.t_start:.1f}, {cyl.t_end:.1f}]")

rho = default_rho_certified(m)
partition = perforate_and_partition(m, certified, rho)
print(f"\nperforation rho={rho:g} -> {len(partition.classes)} classes, "
      f"disjoint: {partition.disjoint}")

report = charge_report(inst, trace, opt)
print(f"\ncharge report: {len(report.checks)} checks, all pass: {report.all_pass}")
for c in report.checks:
    if "intersection" in c.kind:
        print(f"  {c.kind} [{c.subject}]: {c.lhs:.3f} vs required {c.rhs:.3f}")
