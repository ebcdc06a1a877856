"""Golden traces: the byte-exact behaviour gate for refactors.

``tests/golden/`` holds, for every ``corpus/*.json``, the ``run --trace``
JSON in both regimes and the ``opt --trace`` JSON, plus runs of a few
instances at benchmark sizes: request-regime runs of seeded instances
(and of three past those sizes: two whose closures reach 155 and 47
points, one with unit edge weights), default-regime runs of seeded delay
and deadline instances, an ``investment_star`` and a tenth-weight star
whose moat growth meets near-ties (two of the deadline inputs have a
service whose Steiner growth stops before the last eligible request), and ``opt`` traces of seeded instances at the oracle
sizes of the ``verify-oracle`` workload and of two near-tie delay
families (``FAMILY``), and every trace of one deadline input whose
deadlines tie (``SEEDED_TIED``).  Those inputs are stored under
``tests/golden/instances/`` so the gate does not depend on the
generator.  ``tests/golden/charge-report/`` holds the full
``ChargeReport`` JSON of the default-regime run (``verify`` prints only
the failed checks): with the optimum for the corpus and the oracle-size
inputs, oracle-free for the engine-benchmark inputs.
``tests/test_golden.py`` compares every file byte for byte.

Regenerate only on purpose, and say why in CHANGES.md:

    PYTHONPATH=src python tests/golden_traces.py

Any argument (``--help`` included) prints this usage and exits 2
without writing.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys
import tempfile
from pathlib import Path

from metricserve import cli
from metricserve.analysis import charge_report
from metricserve.instance import (
    DeadlineRequest,
    DelayFunction,
    DelayRequest,
    Instance,
    generate,
    investment_star,
    parse_instance,
    serialize_instance,
)
from metricserve.metric import WeightedGraph

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"
INSTANCES = GOLDEN / "instances"

# (mode, n_points, n_requests, seed): the request-regime benchmark sizes
SEEDED = [
    ("deadline", 40, 60, 11),
    ("deadline", 40, 60, 12),
    ("deadline", 40, 60, 13),
    ("delay", 20, 24, 21),
    ("delay", 20, 24, 22),
    ("delay", 20, 24, 23),
]

# (mode, n_points, n_requests, seed): the delay-sparse and deadline-sparse
# benchmark sizes, run in the default regime next to one investment_star
# with STAR_LEAVES leaves
SEEDED_RUN = [
    ("delay", 30, 40, 31),
    ("delay", 30, 40, 32),
    ("delay", 30, 40, 33),
    ("deadline", 200, 300, 41),
    ("deadline", 200, 300, 42),
]
STAR_LEAVES = 120

# leaves of the tenth-weight star, run in the default regime
TENTH_STAR_LEAVES = 100

# (mode, n_points, n_requests, seed): request-regime inputs past the
# benchmark sizes, whose closures reach 155 points (deadline) and 47 (delay)
SEEDED_LARGE_CLOSURE = [
    ("deadline", 200, 300, 5),
    ("delay", 60, 80, 71),
]

# (mode, n_points, n_requests, seed): request-regime inputs with every edge
# weight 1, so the closure's distances are integers and its shortest-path
# walks choose between tied neighbors
SEEDED_UNIT = [("deadline", 60, 90, 81)]

# (mode, n_points, n_requests, seed): deadline-sparse-size inputs, run in
# the default regime, each with one service whose tree reaches its budget
# although twice the tree over all its eligible requests does not, so
# growth stops early (21 -> 15 and 35 -> 17 served)
SEEDED_EARLY_STOP = [
    ("deadline", 200, 300, 48),
    ("deadline", 200, 300, 59),
]

# (mode, n_points, n_requests, seed): the verify-oracle benchmark sizes,
# whose opt traces run the exact oracles at or near their request caps
SEEDED_OPT = [
    ("deadline", 10, 12, 51),
    ("deadline", 10, 12, 52),
    ("deadline", 10, 12, 53),
    ("delay", 10, 8, 61),
    ("delay", 10, 8, 62),
    ("delay", 10, 8, 63),
]


def tenth_weight_instance(seed: int) -> Instance:
    """A seeded delay instance (3-8 points, 2-8 requests) with edge weights
    and delay slopes in tenths and integer releases, so that many batch
    plans cost the same up to rounding and the delay oracle's 1e-15 tie
    rule decides between them."""
    rng = random.Random(seed)
    inst = generate(seed=rng.randrange(10**9), n_points=rng.randint(3, 8),
                    n_requests=rng.randint(2, 8), mode="delay")
    edges = tuple((u, v, 0.1 * rng.randrange(1, 6)) for u, v, _ in inst.graph.edges)
    requests = []
    for q in inst.requests:
        release = float(round(q.release))
        delay = DelayFunction(((release, 0.0),), 0.1 * rng.randrange(1, 4))
        requests.append(DelayRequest(q.id, q.point, release, delay))
    return Instance(WeightedGraph(inst.graph.node_count, edges), inst.server_start,
                    "delay", tuple(requests))


def tenth_weight_star(n_leaves: int) -> Instance:
    """A delay-mode star whose moat growth meets values an ulp apart.

    Every leaf weighs 0.3.  A trigger on leaf 1 reaches its level's
    threshold at time 1, when ``n_leaves`` requests are released on the
    other leaves.  Their delay reaches ``0.1 * 3``, one ulp above 0.3, at
    time 2, a probe of the forwarding search.  There every edge goes
    tight within ``1e-15`` of the time its leaf runs out of surplus, so
    ``pcst_approx``'s tie rule decides between unequal values."""
    edges = tuple((0, 1 + i, 0.3) for i in range(n_leaves + 1))
    requests = [DelayRequest(0, 1, 0.0, DelayFunction(((0.0, 0.0),), 0.5))]
    for i in range(1, n_leaves + 1):
        delay = DelayFunction(((1.0, 0.0), (2.0, 0.1 * 3)), 0.1)
        requests.append(DelayRequest(i, 1 + i, 1.0, delay))
    return Instance(WeightedGraph(n_leaves + 2, edges), 0, "delay", tuple(requests))


def close_release_instance(seed: int) -> Instance:
    """``tenth_weight_instance(seed)`` with every second request released
    1e-12 after the one before it: inside the release tolerance of the
    earlier event, where its delay is not yet defined."""
    inst = tenth_weight_instance(seed)
    requests = list(inst.requests)
    for i in range(1, len(requests), 2):
        q, release = requests[i], requests[i - 1].release + 1e-12
        delay = DelayFunction(((release, 0.0),), q.delay.final_slope)
        requests[i] = DelayRequest(q.id, q.point, release, delay)
    return Instance(inst.graph, inst.server_start, "delay", tuple(requests))


# (family, seed): delay inputs whose opt traces hinge on the oracle's
# 1e-15 tie rule: a plain first-minimum rule changes all four, and a
# candidate of infinite cost that still creates a state changes the
# close-release two
FAMILY = {"tenth-weight": tenth_weight_instance, "close-release": close_release_instance}
SEEDED_FAMILY = [
    ("tenth-weight", 582810531),
    ("tenth-weight", 862436980),
    ("close-release", 372721941),
    ("close-release", 596211508),
]


def tied_deadline_instance(seed: int) -> Instance:
    """A seeded deadline instance (6-10 points, 8-10 requests) with every
    deadline rounded up to a multiple of 5, so deadlines tie: tied
    services fire at the input deadline, in request-id order."""
    rng = random.Random(seed)
    inst = generate(seed=rng.randrange(10**9), n_points=rng.randint(6, 10),
                    n_requests=rng.randint(8, 10), mode="deadline")
    requests = tuple(
        DeadlineRequest(q.id, q.point, q.release, 5.0 * math.ceil(q.deadline / 5.0))
        for q in inst.requests
    )
    return Instance(inst.graph, inst.server_start, "deadline", requests)


# seeds of tied_deadline_instance whose run, request-regime run, opt and
# charge-report goldens are kept; seed 104 fires two services at 20.0
SEEDED_TIED = [104]

# command name -> extra CLI arguments
COMMANDS = {
    "run": ["run"],
    "run-request-regime": ["run", "--request-regime"],
    "opt": ["opt"],
}

# the charge report is rendered through the library, not a command
CHARGE_REPORT = "charge-report"

USAGE = (
    "usage: PYTHONPATH=src python tests/golden_traces.py"
    "  (no arguments; rewrites every golden file)"
)


def seeded_name(mode: str, n: int, m: int, seed: int) -> str:
    return f"{mode}-n{n}-m{m}-s{seed}"


def unit_name(mode: str, n: int, m: int, seed: int) -> str:
    return f"{mode}-unit-n{n}-m{m}-s{seed}"


def stored_instances() -> dict[str, Instance]:
    """File stem -> instance, for every input kept under ``INSTANCES``."""
    out = {
        seeded_name(mode, n, m, seed): generate(
            seed=seed, n_points=n, n_requests=m, mode=mode
        )
        for mode, n, m, seed in (
            SEEDED + SEEDED_LARGE_CLOSURE + SEEDED_RUN + SEEDED_EARLY_STOP + SEEDED_OPT
        )
    }
    for mode, n, m, seed in SEEDED_UNIT:
        out[unit_name(mode, n, m, seed)] = generate(
            seed=seed, n_points=n, n_requests=m, mode=mode, weight_range=(1.0, 1.0)
        )
    out[f"investment_star-{STAR_LEAVES}"] = investment_star(STAR_LEAVES)
    out[f"tenth_weight_star-{TENTH_STAR_LEAVES}"] = tenth_weight_star(TENTH_STAR_LEAVES)
    for family, seed in SEEDED_FAMILY:
        out[f"delay-{family}-s{seed}"] = FAMILY[family](seed)
    for seed in SEEDED_TIED:
        out[f"deadline-tied-s{seed}"] = tied_deadline_instance(seed)
    return out


def cases() -> list[tuple[str, Path]]:
    """(command, instance path) of every golden file."""
    out = [(cmd, p) for p in sorted(CORPUS.glob("*.json")) for cmd in COMMANDS]
    out += [
        ("run-request-regime", INSTANCES / f"{seeded_name(*spec)}.json")
        for spec in SEEDED + SEEDED_LARGE_CLOSURE
    ]
    out += [
        ("run-request-regime", INSTANCES / f"{unit_name(*spec)}.json") for spec in SEEDED_UNIT
    ]
    out += [
        ("run", INSTANCES / f"{seeded_name(*spec)}.json")
        for spec in SEEDED_RUN + SEEDED_EARLY_STOP
    ]
    out += [("run", INSTANCES / f"investment_star-{STAR_LEAVES}.json")]
    out += [("run", INSTANCES / f"tenth_weight_star-{TENTH_STAR_LEAVES}.json")]
    out += [("opt", INSTANCES / f"{seeded_name(*spec)}.json") for spec in SEEDED_OPT]
    out += [("opt", INSTANCES / f"delay-{family}-s{seed}.json") for family, seed in SEEDED_FAMILY]
    out += [(CHARGE_REPORT, p) for p in sorted(CORPUS.glob("*.json"))]
    out += [
        (CHARGE_REPORT, INSTANCES / f"{seeded_name(*spec)}.json")
        for spec in SEEDED_OPT + SEEDED_RUN
    ]
    out += [(CHARGE_REPORT, INSTANCES / f"investment_star-{STAR_LEAVES}.json")]
    out += [
        (command, INSTANCES / f"deadline-tied-s{seed}.json")
        for seed in SEEDED_TIED
        for command in [*COMMANDS, CHARGE_REPORT]
    ]
    return out


def oracle_free(instance: Path) -> bool:
    """Whether the charge report of ``instance`` is made without the
    optimum: the engine-benchmark inputs are beyond the oracle caps."""
    return instance.parent == INSTANCES and instance.stem in {
        *(seeded_name(*spec) for spec in SEEDED_RUN),
        f"investment_star-{STAR_LEAVES}",
    }


def golden_path(command: str, instance: Path) -> Path:
    return GOLDEN / command / instance.name


def render(command: str, instance: Path) -> str:
    """The trace JSON the CLI writes for ``command`` on ``instance``, or
    the charge report JSON of its default-regime run."""
    if command == CHARGE_REPORT:
        inst = parse_instance(instance.read_text())
        trace = cli._run_trace(inst, request_regime=False, horizon=None)
        opt = None if oracle_free(instance) else cli._opt_trace(inst)
        return charge_report(inst, trace, opt).to_json()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "trace.json"
        argv = [*COMMANDS[command], "--instance", str(instance), "--trace", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
        return out.read_text()


def main(argv: list[str]) -> int:
    if argv:
        print(USAGE, file=sys.stderr)
        return 2
    INSTANCES.mkdir(parents=True, exist_ok=True)
    for stem, inst in stored_instances().items():
        (INSTANCES / f"{stem}.json").write_text(serialize_instance(inst))
    for command, instance in cases():
        path = golden_path(command, instance)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render(command, instance))
    print(f"wrote {len(cases())} golden files under {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
