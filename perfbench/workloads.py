"""The benchmark's workloads: seeded inputs, one instance run, its output check.

Every workload is a closed loop with one client: a pass replays the
workload's instances one after another in this process.  Arrivals are in
simulated time, so no wall-clock rate applies.  All instance seeds derive
from the run's ``--seed``.

The layers are reached through module attributes looked up at call time
(``deadline_engine.run_deadline`` and so on), so the tracer's patches see
every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from metricserve import cli, config, deadline_engine, delay_engine, instance

@dataclass(frozen=True)
class Gen:
    """``count`` seeded ``instance.generate`` inputs of one shape."""

    mode: str
    n_points: int
    n_requests: int
    count: int
    run: str  # "engine", "request-regime" or "verify"


@dataclass(frozen=True)
class Star:
    """``instance.investment_star(n_leaves)``: forces budget crossings."""

    n_leaves: int


@dataclass(frozen=True)
class Corpus:
    """Every shipped ``corpus/*.json``, run through ``cli verify``."""


# Full-size inputs.  Sizes follow the layer each workload is meant to load;
# counts are set so that one pass fits several times into a run.
FULL = {
    "deadline-sparse": [Gen("deadline", 200, 300, 16, "engine")],
    "delay-sparse": [Gen("delay", 30, 40, 28, "engine"), Star(120)],
    "request-regime": [
        Gen("deadline", 40, 60, 20, "request-regime"),
        Gen("delay", 20, 24, 40, "request-regime"),
    ],
    "verify-oracle": [
        Gen("deadline", 10, 12, 20, "verify"),
        Gen("delay", 10, 8, 20, "verify"),
        Corpus(),
    ],
}

WORKLOADS = tuple(FULL)

# Tiny inputs with the same structure, for the self-test.
TINY = {
    "deadline-sparse": [Gen("deadline", 12, 20, 2, "engine")],
    "delay-sparse": [Gen("delay", 8, 10, 2, "engine"), Star(14)],
    "request-regime": [
        Gen("deadline", 8, 10, 1, "request-regime"),
        Gen("delay", 6, 6, 1, "request-regime"),
    ],
    "verify-oracle": [
        Gen("deadline", 6, 5, 2, "verify"),
        Gen("delay", 6, 4, 2, "verify"),
        Corpus(),
    ],
}


@dataclass(frozen=True)
class Case:
    """One instance file and how a pass runs it."""

    case_id: str
    path: Path
    run: str


def instance_seeds(workload: str, seed: int, part: int, count: int) -> list[int]:
    """Instance seeds of input set ``part``; same seed, same inputs."""
    rng = random.Random(f"perfbench/{workload}/{seed}/{part}")
    return [rng.randrange(2**31) for _ in range(count)]


def _interleave(groups: list[list]) -> list:
    """Round-robin over the input groups, so that kinds alternate in a pass."""
    out = []
    for i in range(max((len(g) for g in groups), default=0)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


def setup(
    workload: str, seed: int, part: int, sizes: dict, corpus_dir: Path, out_dir: Path
) -> list[Case]:
    """Generate input set ``part`` and write one instance file per instance."""
    specs = sizes[workload]
    total = sum(s.count for s in specs if isinstance(s, Gen))
    seeds = iter(instance_seeds(workload, seed, part, total))
    out_dir.mkdir(parents=True)
    groups: list[list[Case]] = []
    for k, spec in enumerate(specs):
        cases = []
        if isinstance(spec, Gen):
            for i in range(spec.count):
                s = next(seeds)
                inst = instance.generate(
                    seed=s, n_points=spec.n_points, n_requests=spec.n_requests, mode=spec.mode
                )
                cases.append((f"{spec.mode}-n{spec.n_points}-m{spec.n_requests}-s{s}", inst, spec.run))
        elif isinstance(spec, Star):
            inst = instance.investment_star(spec.n_leaves)
            cases.append((f"investment_star-{spec.n_leaves}", inst, "engine"))
        else:
            for p in sorted(corpus_dir.glob("*.json")):
                cases.append((f"corpus-{p.stem}", p.read_text(), "verify"))
        group = []
        for case_id, inst, run in cases:
            text = inst if isinstance(inst, str) else instance.serialize_instance(inst)
            path = out_dir / f"{k:02d}-{case_id}.json"
            path.write_text(text)
            group.append(Case(f"{part}/{case_id}", path, run))
        groups.append(group)
    return _interleave(groups)


@dataclass
class Outcome:
    """What one run of one case produced."""

    ok: bool
    digest: str
    alg_cost: float = 0.0
    opt_cost: float | None = None
    error: str = ""


def execute(case: Case):
    """The timed part of a case: parse and run, or ``cli verify``."""
    if case.run == "verify":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--instance", str(case.path)])
        return code, buf.getvalue()
    inst = instance.parse_instance(case.path.read_text())
    rr = case.run == "request-regime"
    if inst.mode == "deadline":
        return inst, deadline_engine.run_deadline(inst, request_regime=rr)
    return inst, delay_engine.run_delay(inst, request_regime=rr)


def check(case: Case, result) -> Outcome:
    """The untimed part: is the output correct, and what is its digest."""
    if case.run == "verify":
        code, out = result
        doc = json.loads(out)
        ok = code == 0 and doc["all_pass"] is True
        return Outcome(
            ok=ok,
            digest=hashlib.sha256(out.encode()).hexdigest(),
            alg_cost=doc["alg_cost"],
            opt_cost=doc["opt_cost"],
            error="" if ok else f"verify exit {code}, all_pass {doc['all_pass']}",
        )
    inst, trace = result
    digest = hashlib.sha256(trace.to_json().encode()).hexdigest()
    errors = []
    if inst.mode == "deadline":
        for q in inst.requests:
            t = trace.service_time.get(q.id)
            if t is None:
                errors.append(f"request {q.id} never served")
            elif not q.release <= t <= q.deadline + config.EPS_TIME:
                errors.append(f"request {q.id} served at {t} outside [{q.release}, {q.deadline}]")
    else:
        if trace.pending_ids or trace.horizon_exhausted:
            errors.append(f"pending {list(trace.pending_ids)[:5]}, exhausted {trace.horizon_exhausted}")
        if len(trace.service_time) != len(inst.requests):
            errors.append(f"{len(inst.requests) - len(trace.service_time)} requests never served")
    return Outcome(not errors, digest, trace.total_cost, None, "; ".join(errors[:3]))
