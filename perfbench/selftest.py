#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny inputs (about a minute).

    python3 perfbench/selftest.py

Checks that a tiny run of each workload emits every metric named in
``BENCHMARK.json`` with its unit, that no wrapper is left behind after a
traced pass, and that two traced runs count exactly the same calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_program()

import tracer  # noqa: E402
import workloads  # noqa: E402
from metricserve import cli, deadline_engine, delay_engine, offline_oracle  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload: str, trace: int, seed: int = run.BASELINE_SEED) -> dict:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        code = run.main(argv, sizes=workloads.TINY)
    assert code == 0, out.getvalue()
    return json.loads(out.getvalue().splitlines()[-1])


# bindings the engines, oracle and CLI import by name
CALLER_BINDINGS = [
    (deadline_engine, "steiner_approx"),
    (delay_engine, "pcst_approx"),
    (deadline_engine, "build_metric"),
    (delay_engine, "build_metric"),
    (offline_oracle, "build_metric"),
    (cli, "build_metric"),
    (deadline_engine, "complete_graph_on"),
    (delay_engine, "complete_graph_on"),
    (cli, "opt_deadline"),
    (cli, "opt_delay"),
    (cli, "charge_report"),
    (cli, "parse_instance"),
    (deadline_engine.DeadlineEngine, "upon_deadline"),
    (delay_engine.DelayEngine, "upon_critical"),
    (delay_engine.DelayEngine, "next_critical_event"),
    (delay_engine.DelayEngine, "max_critical_level"),
]


class BenchmarkSelfTest(unittest.TestCase):
    def test_tiny_run_emits_every_named_metric(self):
        for key, trace in (("end_to_end", 0), ("per_layer", 1)):
            named = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in (w["name"] for w in SPEC["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    result = tiny_run(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, named)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_wrappers_cover_caller_bindings_and_are_removed(self):
        originals = [owner.__dict__[attr] for owner, attr in CALLER_BINDINGS]
        with tracer.Tracer().installed():
            for owner, attr in CALLER_BINDINGS:
                wrapped = owner.__dict__[attr]
                self.assertTrue(getattr(wrapped, tracer.WRAPPED_MARK, False), f"{owner}.{attr}")
        for (owner, attr), original in zip(CALLER_BINDINGS, originals):
            self.assertIs(owner.__dict__[attr], original)
        tiny_run("verify-oracle", trace=1)
        tiny_run("request-regime", trace=1)
        self.assertEqual(tracer.leftover_wrappers(), [])

    def test_traced_call_counts_repeat(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = (tiny_run(workload, trace=1) for _ in range(2))
                counts = [
                    {k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
                    for r in (first, second)
                ]
                self.assertEqual(counts[0], counts[1])
                self.assertTrue(first["correct"] and second["correct"])


if __name__ == "__main__":
    unittest.main()
