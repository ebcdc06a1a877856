"""Golden traces: the byte-exact behaviour gate for refactors.

``tests/golden/`` holds, for every ``corpus/*.json``, the ``run --trace``
JSON in both regimes and the ``opt --trace`` JSON, plus runs of a few
instances at benchmark sizes: request-regime runs of seeded instances,
default-regime runs of seeded delay and deadline instances and an
``investment_star``, and ``opt`` traces of seeded instances at the
oracle sizes of the ``verify-oracle`` workload.  Those inputs are
stored under ``tests/golden/instances/`` so the gate does not depend on
the generator.  ``tests/test_golden.py`` compares every file byte for
byte.

Regenerate only on purpose, and say why in CHANGES.md:

    PYTHONPATH=src python tests/golden_traces.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from metricserve import cli
from metricserve.instance import Instance, generate, investment_star, serialize_instance

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

# command name -> extra CLI arguments
COMMANDS = {
    "run": ["run"],
    "run-request-regime": ["run", "--request-regime"],
    "opt": ["opt"],
}


def seeded_name(mode: str, n: int, m: int, seed: int) -> str:
    return f"{mode}-n{n}-m{m}-s{seed}"


def stored_instances() -> dict[str, Instance]:
    """File stem -> instance, for every input kept under ``INSTANCES``."""
    out = {
        seeded_name(mode, n, m, seed): generate(
            seed=seed, n_points=n, n_requests=m, mode=mode
        )
        for mode, n, m, seed in SEEDED + SEEDED_RUN + SEEDED_OPT
    }
    out[f"investment_star-{STAR_LEAVES}"] = investment_star(STAR_LEAVES)
    return out


def cases() -> list[tuple[str, Path]]:
    """(command, instance path) of every golden file."""
    out = [(cmd, p) for p in sorted(CORPUS.glob("*.json")) for cmd in COMMANDS]
    out += [
        ("run-request-regime", INSTANCES / f"{seeded_name(*spec)}.json") for spec in SEEDED
    ]
    out += [("run", INSTANCES / f"{seeded_name(*spec)}.json") for spec in SEEDED_RUN]
    out += [("run", INSTANCES / f"investment_star-{STAR_LEAVES}.json")]
    out += [("opt", INSTANCES / f"{seeded_name(*spec)}.json") for spec in SEEDED_OPT]
    return out


def golden_path(command: str, instance: Path) -> Path:
    return GOLDEN / command / instance.name


def render(command: str, instance: Path) -> str:
    """The trace JSON the CLI writes for ``command`` on ``instance``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "trace.json"
        argv = [*COMMANDS[command], "--instance", str(instance), "--trace", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
        return out.read_text()


def main() -> int:
    INSTANCES.mkdir(parents=True, exist_ok=True)
    for stem, inst in stored_instances().items():
        (INSTANCES / f"{stem}.json").write_text(serialize_instance(inst))
    for command, instance in cases():
        path = golden_path(command, instance)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render(command, instance))
    print(f"wrote {len(cases())} golden traces under {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
