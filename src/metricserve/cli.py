"""Operator commands: generate, run, opt, verify, report.

Every command prints a JSON summary on standard output.  Exit codes:
0 success, 1 structural-check failure (verify), 2 usage or input error
(including unreadable or malformed instance documents, disconnected
graphs, instances outside the numeric range the engines resolve,
output paths that cannot be written and a NaN ``--horizon``).
An input error prints one ``error:`` line and writes no output file.
"""

from __future__ import annotations

import argparse
import csv
import functools
import glob as globlib
import io
import json
import math
import sys
from pathlib import Path

from . import config
from .analysis import charge_report, classify
from .deadline_engine import run_deadline
from .delay_engine import run_delay
from .instance import Instance, InstanceFormatError, generate, parse_instance, serialize_instance
from .metric import DisconnectedGraphError, NumericRangeError
from .metric import build_metric  # noqa: F401  perfbench/selftest.py checks this binding
from .offline_oracle import OracleCapError, opt_deadline, opt_delay

__all__ = ["main"]


class _UsageError(Exception):
    pass


def _load_instance(path: str) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise _UsageError(f"instance file not found: {path}") from exc
    except OSError as exc:
        raise _UsageError(f"cannot read instance {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise _UsageError(f"bad instance {path}: not UTF-8 text ({exc.reason})") from exc
    try:
        return parse_instance(text)
    except InstanceFormatError as exc:
        raise _UsageError(f"bad instance {path}: {exc}") from exc


def _write(path: str, text: str, newline: str | None = None) -> None:
    try:
        with open(path, "w", newline=newline) as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=1))


def _cmd_generate(args) -> int:
    try:
        inst = generate(
            seed=args.seed,
            n_points=args.points,
            n_requests=args.requests,
            mode=args.mode,
            horizon=args.horizon,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _write(args.out, serialize_instance(inst))
    _emit(
        {
            "command": "generate",
            "out": args.out,
            "mode": args.mode,
            "points": args.points,
            "requests": args.requests,
            "seed": args.seed,
        }
    )
    return 0


def _run_trace(inst: Instance, request_regime: bool, horizon: float | None):
    if horizon is not None and math.isnan(horizon):
        raise _UsageError("--horizon must be a number, got nan")
    if inst.mode == "deadline":
        return run_deadline(inst, request_regime=request_regime)
    return run_delay(inst, request_regime=request_regime, horizon=horizon)


def _opt_trace(inst: Instance):
    return opt_deadline(inst) if inst.mode == "deadline" else opt_delay(inst)


def _cmd_run(args) -> int:
    inst = _load_instance(args.instance)
    if args.mode != "auto" and args.mode != inst.mode:
        raise _UsageError(f"instance mode is {inst.mode}, got --mode {args.mode}")
    trace = _run_trace(inst, args.request_regime, args.horizon)
    if args.trace:
        _write(args.trace, trace.to_json())
    doc = {
        "command": "run",
        "instance": args.instance,
        "mode": inst.mode,
        "total_cost": trace.total_cost,
        "n_services": len(trace.services),
    }
    if inst.mode == "delay":
        doc["movement_cost"] = trace.movement_cost
        doc["delay_cost"] = trace.delay_cost
        doc["horizon_exhausted"] = trace.horizon_exhausted
    _emit(doc)
    return 0


def _cmd_opt(args) -> int:
    inst = _load_instance(args.instance)
    try:
        trace = _opt_trace(inst)
    except OracleCapError as exc:
        raise _UsageError(str(exc)) from exc
    if args.trace:
        _write(args.trace, trace.to_json())
    _emit(
        {
            "command": "opt",
            "instance": args.instance,
            "mode": inst.mode,
            "movement_cost": trace.movement_cost,
            "delay_cost": trace.delay_cost,
            "total_cost": trace.total_cost,
        }
    )
    return 0


def _cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    trace = _run_trace(inst, args.request_regime, args.horizon)
    try:
        opt = _opt_trace(inst)
    except OracleCapError as exc:
        raise _UsageError(str(exc)) from exc
    report = charge_report(inst, trace, opt)
    failures = [c.to_doc() for c in report.failures()]
    _emit(
        {
            "command": "verify",
            "instance": args.instance,
            "mode": inst.mode,
            "alg_cost": trace.total_cost,
            "opt_cost": opt.total_cost,
            "checks": len(report.checks),
            "failures": failures,
            "all_pass": report.all_pass,
        }
    )
    return 0 if report.all_pass else 1


_CSV_COLUMNS = [
    "instance",
    "mode",
    "n",
    "m",
    "alg_cost",
    "opt_cost",
    "ratio",
    "n_services",
    "n_primary",
    "n_certified",
    "max_level",
]


def _report_row(path: str) -> tuple[dict, dict[int, int]]:
    inst = _load_instance(path)
    trace = _run_trace(inst, request_regime=False, horizon=None)
    cls = classify(trace)
    histogram: dict[int, int] = {}
    for s in trace.services:
        histogram[s.level] = histogram.get(s.level, 0) + 1
    row = {
        "instance": Path(path).name,
        "mode": inst.mode,
        "n": inst.graph.node_count,
        "m": len(inst.requests),
        "alg_cost": f"{trace.total_cost:.9g}",
        "opt_cost": "",
        "ratio": "",
        "n_services": len(trace.services),
        "n_primary": len(cls.primary_ids),
        "n_certified": len(cls.certified_ids),
        "max_level": max((s.level for s in trace.services), default=""),
    }
    try:
        opt = _opt_trace(inst)
        row["opt_cost"] = f"{opt.total_cost:.9g}"
        if opt.total_cost > 0:
            row["ratio"] = f"{trace.total_cost / opt.total_cost:.9g}"
        elif trace.total_cost <= config.EPS:
            row["ratio"] = "1"
    except OracleCapError:
        pass
    return row, histogram


def _cmd_report(args) -> int:
    paths = sorted(globlib.glob(args.glob))
    if not paths:
        raise _UsageError(f"no instances match {args.glob!r}")
    rows = []
    level_histogram: dict[int, int] = {}
    for p in paths:
        row, histogram = _report_row(p)
        rows.append(row)
        for level, count in histogram.items():
            level_histogram[level] = level_histogram.get(level, 0) + count
    table = io.StringIO()
    writer = csv.DictWriter(table, fieldnames=_CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    _write(args.csv, table.getvalue(), newline="")
    ratios = [float(r["ratio"]) for r in rows if r["ratio"]]
    _emit(
        {
            "command": "report",
            "csv": args.csv,
            "instances": len(rows),
            "max_ratio": max(ratios) if ratios else None,
            "level_histogram": {str(k): v for k, v in sorted(level_histogram.items())},
        }
    )
    return 0


@functools.cache  # parse_args keeps no state between calls; build once
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricserve",
        description="online service with deadlines/delay: run, verify, report",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a seeded random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--requests", type=int, required=True)
    p.add_argument("--mode", choices=["deadline", "delay"], required=True)
    p.add_argument("--horizon", type=float, default=100.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run the online engine over an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--mode", default="auto", choices=["auto", "deadline", "delay"])
    p.add_argument("--request-regime", action="store_true")
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--trace", default=None, help="write the run trace JSON here")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("opt", help="exact offline optimum (desk-scale caps)")
    p.add_argument("--instance", required=True)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=_cmd_opt)

    p = sub.add_parser("verify", help="engine + oracle + full structural checks")
    p.add_argument("--instance", required=True)
    p.add_argument("--request-regime", action="store_true")
    p.add_argument("--horizon", type=float, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="batch costs/ratios over a glob of instances")
    p.add_argument("--glob", required=True)
    p.add_argument("--csv", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (_UsageError, DisconnectedGraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericRangeError as exc:
        print(f"error: instance lies outside the numeric range the engine resolves: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
