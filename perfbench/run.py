#!/usr/bin/env python3
"""metricserve benchmark: one workload per process, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload deadline-sparse --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # each workload in its own process

A run sets up one of the workload's input sets afresh before every pass
and replays passes until ``--seconds`` have elapsed; ``setup_s`` and
``wall_s`` are medians over those setups and passes.  Every pass checks
every output and compares its sha256 with the set's first pass.

``--trace 0`` times untraced passes; only the online service decisions
are wrapped, for the decision latency.  ``--trace 1`` alternates
untraced and traced passes; a traced pass wraps every layer's public
functions (see ``tracer.py``) and gives the per-layer numbers plus what
the tracing cost.  The spans of the last traced pass are written to
``.perfbench-out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# single-threaded: no BLAS or OpenMP worker threads; the default tolerance
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("METRIC_SERVE_EPS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# untraced passes cycle through this many input sets drawn from --seed, so
# that every set is run at least twice in a run and checked against itself
INPUT_SETS = 3
MIN_PASSES = 2 * INPUT_SETS
MIN_TRACED_PASSES = 2
# at least ten decision samples beyond p90
MIN_DECISIONS = 100
# a run never measures longer than this, whatever the minimums above ask
HARD_LIMIT_S = 120.0

# the default workload seed, and a seed kept out of tuning for re-checking
# claimed gains (see README.md)
BASELINE_SEED = 1
HELD_OUT_SEED = 977

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "decision_p50_ms": "ms",
    "decision_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; the suffix says how it is computed
PER_LAYER_UNITS = {
    "metric.build_metric.calls": "count",
    "metric.build_metric.s": "s",
    "metric.complete_graph_on.calls": "count",
    "metric.complete_graph_on.s": "s",
    "metric.shortest_path_nodes.calls": "count",
    "metric.shortest_path_nodes.s": "s",
    "steiner.steiner_approx.calls": "count",
    "steiner.steiner_approx.s": "s",
    "steiner.steiner_approx.per_decision": "calls/decision",
    "steiner.pcst_approx.calls": "count",
    "steiner.pcst_approx.s": "s",
    "steiner.pcst_approx.per_decision": "calls/decision",
    "instance.generate.s": "s",
    "instance.parse_instance.calls": "count",
    "instance.parse_instance.s": "s",
    "instance.DelayFunction.value.calls": "count",
    "deadline_engine.run_deadline.self_s": "s",
    "deadline_engine.upon_deadline.calls": "count",
    "deadline_engine.upon_deadline.self_s": "s",
    "delay_engine.run_delay.self_s": "s",
    "delay_engine.upon_critical.calls": "count",
    "delay_engine.upon_critical.self_s": "s",
    "delay_engine.next_critical_event.calls": "count",
    "delay_engine.next_critical_event.s": "s",
    "delay_engine.max_critical_level.calls": "count",
    "delay_engine.max_critical_level.s": "s",
    "offline_oracle.opt_deadline.calls": "count",
    "offline_oracle.opt_deadline.s": "s",
    "offline_oracle.opt_delay.calls": "count",
    "offline_oracle.opt_delay.s": "s",
    "analysis.charge_report.calls": "count",
    "analysis.charge_report.s": "s",
    "analysis.charge_report.checks": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "frac",
}


def _import_program() -> None:
    """Import metricserve from this checkout's ``src/``, or stop."""
    sys.path.insert(0, str(SRC))
    try:
        import metricserve
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import metricserve from {SRC}: {exc}")
    if not Path(metricserve.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: metricserve imported from {metricserve.__file__}, not {SRC}")


class Ledger:
    """Output checks of every case run: failures, digests, costs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: dict[str, object] = {}  # case id -> its first Outcome

    def fail(self, case_id: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{case_id}: {why}")

    def record(self, case_id: str, outcome) -> None:
        first = self.first.setdefault(case_id, outcome)
        if not outcome.ok:
            self.fail(case_id, outcome.error)
        elif outcome.digest != first.digest:
            self.fail(case_id, "output differs from the first pass")


def run_pass(cases, ledger: Ledger, tracer=None) -> float:
    """Run every case once; return the time spent inside the program."""
    import workloads

    elapsed = 0.0
    for case in cases:
        ledger.attempted += 1
        if tracer is not None:
            tracer.instance = case.case_id
        start = time.perf_counter()
        try:
            result = workloads.execute(case)
        except Exception as exc:  # counted as a failure; the run goes on
            elapsed += time.perf_counter() - start
            ledger.fail(case.case_id, f"raised {exc!r}")
            continue
        elapsed += time.perf_counter() - start
        try:
            ledger.record(case.case_id, workloads.check(case, result))
        except Exception as exc:  # a malformed output fails its check
            ledger.fail(case.case_id, f"check raised {exc!r}")
    return elapsed


def _setup(workload, seed, part, sizes, work: Path):
    """Set up input set ``part`` afresh; return its cases and the seconds taken.

    A set is always written to the same paths, because ``cli verify`` prints
    the instance path and its output is compared by digest.
    """
    import workloads

    inputs = work / f"inputs{part}"
    shutil.rmtree(inputs, ignore_errors=True)
    start = time.perf_counter()
    cases = workloads.setup(workload, seed, part, sizes, ROOT / "corpus", inputs)
    return cases, time.perf_counter() - start


def _keep_going(start: float, seconds: float, *minimums_met: bool) -> bool:
    now = time.perf_counter()
    return now < start + HARD_LIMIT_S and (now < start + seconds or not all(minimums_met))


def _measure(workload, seed, seconds, sizes, work: Path):
    """Untraced passes; return (end-to-end metrics, sample counts, ledger)."""
    from tracer import DecisionTimer

    ledger = Ledger()
    timer = DecisionTimer()
    setup_times, walls = [], []
    start = time.perf_counter()
    # a setup before every pass spreads the setup samples over the run, and
    # cycling through input sets pools more distinct decisions and inputs
    while _keep_going(
        start, seconds, len(walls) >= MIN_PASSES, len(timer.samples) >= MIN_DECISIONS
    ):
        cases, setup_s = _setup(workload, seed, len(walls) % INPUT_SETS, sizes, work)
        setup_times.append(setup_s)
        with timer.installed():
            walls.append(run_pass(cases, ledger))
    decisions = [s * 1e3 for s in timer.samples]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "decision_p50_ms": statistics.median(decisions),
        "decision_p90_ms": statistics.quantiles(decisions, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_s": len(setup_times),
        "wall_s": len(walls),
        "decision_p50_ms": len(decisions),
        "decision_p90_ms": len(decisions),
        "peak_rss_mb": 1,
    }
    return metrics, samples, ledger, cases


def _layer_metrics(snapshots, generate_s, overhead):
    """Per-layer metrics from the traced passes' aggregates."""

    def med(key, name):
        return statistics.median(snap[key].get(name, 0.0) for snap in snapshots)

    calls = snapshots[0]["calls"]
    decisions = calls.get("deadline_engine.upon_deadline", 0) + calls.get(
        "delay_engine.upon_critical", 0
    )
    out = {}
    for metric in PER_LAYER_UNITS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(layer, 0)
        elif kind == "s":
            out[metric] = med("incl", layer)
        elif kind == "self_s":
            out[metric] = med("self", layer)
        elif kind == "per_decision":
            out[metric] = calls.get(layer, 0) / decisions if decisions else 0.0
        elif kind == "checks":
            out[metric] = snapshots[0]["checks"]
    out["instance.generate.s"] = statistics.median(generate_s)
    out["trace.overhead_frac"] = overhead
    return out


def _trace(workload, seed, seconds, sizes, work: Path):
    """Traced setup, untraced pass, traced pass, repeated; per-layer metrics."""
    from tracer import Tracer

    tracer = Tracer()
    ledger = Ledger()
    generate_s, walls, traced_walls, snapshots = [], [], [], []
    start = time.perf_counter()
    while _keep_going(start, seconds, len(snapshots) >= MIN_TRACED_PASSES):
        tracer.reset()
        with tracer.installed():
            cases, _ = _setup(workload, seed, 0, sizes, work)
        generate_s.append(tracer.incl["instance.generate"])
        walls.append(run_pass(cases, ledger))
        tracer.reset()
        with tracer.installed():
            traced_walls.append(run_pass(cases, ledger, tracer))
        snapshots.append(
            {
                "calls": dict(tracer.calls),
                "incl": dict(tracer.incl),
                "self": dict(tracer.self_time),
                "checks": tracer.checks,
            }
        )
    if any(snap["calls"] != snapshots[0]["calls"] for snap in snapshots):
        ledger.fail("trace", "call counts differ between traced passes")
    untraced = statistics.median(walls)
    overhead = (statistics.median(traced_walls) - untraced) / untraced
    metrics = _layer_metrics(snapshots, generate_s, overhead)
    _write_spans(workload, seed, tracer.spans)
    return metrics, snapshots, ledger, cases


def _write_spans(workload: str, seed: int, spans) -> None:
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for span_id, name, start, end, parent, inst in spans:
            fh.write(json.dumps([span_id, name, start, end, parent, inst]) + "\n")
    print(f"spans: {len(spans)} written to {path.relative_to(ROOT)}")


def _print_table(rows) -> None:
    print(f"{'metric':44} {'value':>14} {'unit':>14} {'n':>6}")
    for name, value, unit, n in rows:
        print(f"{name:44} {value:14.6g} {unit:>14} {n:>6}")


def run_one(workload, seed, seconds, trace, sizes) -> dict:
    """Run one workload in this process; print the table, return the result."""
    import numpy
    import workloads

    print(f"perfbench workload={workload} seed={seed} seconds={seconds} trace={trace}")
    print(
        f"machine: nproc={os.cpu_count()} arch={platform.machine()} "
        f"python={platform.python_version()} numpy={numpy.__version__}"
    )
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if trace:
            metrics, snapshots, ledger, cases = _trace(workload, seed, seconds, sizes, Path(tmp))
            units = PER_LAYER_UNITS
            print(f"traced passes: {len(snapshots)}; every spanned layer (calls, s, self_s):")
            snap = snapshots[0]
            for name in sorted(snap["calls"]):
                print(
                    f"  {name:40} {snap['calls'][name]:>8} "
                    f"{snap['incl'].get(name, 0.0):10.4f} {snap['self'].get(name, 0.0):10.4f}"
                )
            rows = [(k, v, units[k], len(snapshots)) for k, v in metrics.items()]
        else:
            metrics, samples, ledger, cases = _measure(workload, seed, seconds, sizes, Path(tmp))
            units = END_TO_END_UNITS
            rows = [(k, v, units[k], samples[k]) for k, v in metrics.items()]
            costs = [o.alg_cost for o in ledger.first.values()]
            rows.append(("failed_frac", ledger.failed / ledger.attempted, "frac", ledger.attempted))
            rows.append(("alg_cost", sum(costs), "cost", len(costs)))
            ratios = [
                o.alg_cost / o.opt_cost for o in ledger.first.values() if o.opt_cost
            ]
            if ratios:
                rows.append(("alg_opt_ratio_max", max(ratios), "ratio", len(ratios)))
    sets = 1 if trace else INPUT_SETS
    print(f"inputs: {len(cases)} instances per pass, {sets} input sets from --seed {seed}")
    _print_table(rows)
    for err in ledger.errors:
        print(f"FAILED {err}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None, sizes=None) -> int:
    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_one(args.workload, args.seed, args.seconds, args.trace, sizes or workloads.FULL)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
