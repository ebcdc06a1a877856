"""CLI surface: subcommands, exit codes, JSON/CSV outputs."""

import csv
import json
import sys
from dataclasses import replace

import pytest

from metricserve import metric
from metricserve.cli import main
from metricserve.instance import (
    DelayFunction,
    generate,
    investment_star,
    serialize_instance,
)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_generate_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code1, _ = _run(capsys, ["generate", "--seed", "7", "--points", "6",
                             "--requests", "5", "--mode", "deadline", "--out", str(a)])
    code2, _ = _run(capsys, ["generate", "--seed", "7", "--points", "6",
                             "--requests", "5", "--mode", "deadline", "--out", str(b)])
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("flag,value", [
    ("--points", "0"), ("--requests", "-1"), ("--horizon", "0"),
    ("--horizon", "nan"), ("--horizon", "inf"),
])
def test_generate_bad_parameter_exit_2(tmp_path, capsys, flag, value):
    """A parameter the generator cannot use is a usage error: exit 2, a
    message and no file, never a traceback or NaN times."""
    out = tmp_path / "inst.json"
    code = main(["generate", "--seed", "1", "--points", "4", "--requests", "3",
                 "--mode", "delay", "--out", str(out), flag, value])  # the last one wins
    assert code == 2
    assert capsys.readouterr().err.startswith("error: generator parameters")
    assert not out.exists()


def test_run_empty_instance(tmp_path, capsys):
    inst = tmp_path / "empty.json"
    _run(capsys, ["generate", "--seed", "1", "--points", "4", "--requests", "0",
                  "--mode", "deadline", "--out", str(inst)])
    trace = tmp_path / "trace.json"
    code, out = _run(capsys, ["run", "--instance", str(inst), "--trace", str(trace)])
    assert code == 0
    doc = json.loads(out)
    assert doc["total_cost"] == 0.0
    assert json.loads(trace.read_text())["total_cost"] == 0.0


def test_run_mode_mismatch(tmp_path, capsys):
    inst = tmp_path / "d.json"
    _run(capsys, ["generate", "--seed", "2", "--points", "4", "--requests", "2",
                  "--mode", "delay", "--out", str(inst)])
    code, _ = _run(capsys, ["run", "--instance", str(inst), "--mode", "deadline"])
    assert code == 2


def test_opt_cap_exit_code(tmp_path, capsys):
    inst = tmp_path / "big.json"
    _run(capsys, ["generate", "--seed", "3", "--points", "5", "--requests", "14",
                  "--mode", "deadline", "--out", str(inst)])
    code, _ = _run(capsys, ["opt", "--instance", str(inst)])
    assert code == 2


def test_verify_lone_request(tmp_path, capsys):
    inst = tmp_path / "one.json"
    inst.write_text(json.dumps({
        "graph": {"nodes": 3, "edges": [[0, 1, 1.0], [1, 2, 2.0]]},
        "server_start": 0,
        "mode": "deadline",
        "requests": [{"id": 0, "point": 2, "release": 0.0, "deadline": 10.0}],
    }))
    code, out = _run(capsys, ["verify", "--instance", str(inst)])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert doc["alg_cost"] == pytest.approx(9.0)
    assert doc["opt_cost"] == pytest.approx(3.0)


def test_verify_delay_instance(tmp_path, capsys):
    inst = tmp_path / "delay.json"
    _run(capsys, ["generate", "--seed", "11", "--points", "5", "--requests", "4",
                  "--mode", "delay", "--out", str(inst)])
    code, out = _run(capsys, ["verify", "--instance", str(inst)])
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_report_batch(tmp_path, capsys):
    for seed in range(4):
        mode = "deadline" if seed % 2 == 0 else "delay"
        _run(capsys, ["generate", "--seed", str(seed), "--points", "5",
                      "--requests", "4", "--mode", mode,
                      "--out", str(tmp_path / f"inst{seed}.json")])
    out_csv = tmp_path / "report.csv"
    code, out = _run(capsys, ["report", "--glob", str(tmp_path / "inst*.json"),
                              "--csv", str(out_csv)])
    assert code == 0
    doc = json.loads(out)
    assert doc["instances"] == 4
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert list(rows[0]) == ["instance", "mode", "n", "m", "alg_cost", "opt_cost",
                             "ratio", "n_services", "n_primary", "n_certified",
                             "max_level"]
    for row in rows:
        assert float(row["ratio"]) >= 1.0 - 1e-9


def test_unknown_flag_exit_2(capsys):
    code, _ = _run(capsys, ["run", "--instance", "x.json", "--bogus"])
    assert code == 2


def test_parser_reuse_keeps_exit_codes(tmp_path, capsys):
    """The parser is built once per process: a failed parse must not leak
    into the next call."""
    inst = tmp_path / "d.json"
    _run(capsys, ["generate", "--seed", "5", "--points", "5", "--requests", "3",
                  "--mode", "deadline", "--out", str(inst)])
    code, _ = _run(capsys, ["verify", "--instance", str(inst), "--bogus"])
    assert code == 2
    code, out = _run(capsys, ["verify", "--instance", str(inst)])
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_missing_file_exit_2(capsys):
    code, _ = _run(capsys, ["run", "--instance", "/nonexistent/path.json"])
    assert code == 2


def test_report_glob_empty_exit_2(tmp_path, capsys):
    code, _ = _run(capsys, ["report", "--glob", str(tmp_path / "*.json"),
                            "--csv", str(tmp_path / "r.csv")])
    assert code == 2


@pytest.mark.parametrize("command", ["run", "opt", "verify"])
def test_disconnected_graph_exit_2(tmp_path, capsys, command):
    inst = tmp_path / "split.json"
    inst.write_text(json.dumps({
        "graph": {"nodes": 3, "edges": [[0, 1, 1.0]]},
        "server_start": 0,
        "mode": "deadline",
        "requests": [{"id": 0, "point": 2, "release": 0.0, "deadline": 1.0}],
    }))
    assert main([command, "--instance", str(inst)]) == 2
    assert "disconnected" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "opt", "verify", "report"])
def test_overflowing_distance_exit_2(tmp_path, capsys, command):
    """A connected path whose end-to-end distance passes the float range is
    out of range, not disconnected, and no numpy warning reaches stderr."""
    inst = tmp_path / "far.json"
    inst.write_text(json.dumps({
        "graph": {"nodes": 3, "edges": [[0, 1, 1e308], [1, 2, 1e308]]},
        "server_start": 0,
        "mode": "deadline",
        "requests": [{"id": 0, "point": 2, "release": 0.0, "deadline": 1.0}],
    }))
    _input_error(capsys, _instance_argv(command, inst, tmp_path), "overflows the float range")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "field,value", [("release", float("nan")), ("point", 1.5), ("point", True)]
)
def test_malformed_request_exit_2(tmp_path, capsys, field, value):
    request = {"id": 0, "point": 1, "release": 0.0, "deadline": 1.0, field: value}
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps({
        "graph": {"nodes": 2, "edges": [[0, 1, 1.0]]},
        "server_start": 0,
        "mode": "deadline",
        "requests": [request],
    }))
    assert main(["run", "--instance", str(inst)]) == 2
    assert "bad instance" in capsys.readouterr().err


NEGATIVE_TIMES = {
    "graph": {"nodes": 3, "edges": [[0, 1, 2.0], [1, 2, 3.0]]},
    "server_start": 0,
    "mode": "deadline",
    "requests": [
        {"id": 0, "point": 0, "release": -5.0, "deadline": -4.0},
        {"id": 1, "point": 2, "release": -10.0, "deadline": -1.0},
    ],
}


@pytest.fixture
def negative_times(tmp_path):
    """Every release and deadline below zero; the optimum costs 5.0."""
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(NEGATIVE_TIMES))
    return path


def test_opt_with_negative_times(capsys, negative_times):
    code, out = _run(capsys, ["opt", "--instance", str(negative_times)])
    assert code == 0
    assert json.loads(out)["total_cost"] == 5.0


def test_verify_with_negative_times(capsys, negative_times):
    code, out = _run(capsys, ["verify", "--instance", str(negative_times)])
    assert code == 0
    doc = json.loads(out)
    assert doc["opt_cost"] == 5.0
    assert doc["all_pass"] is True


def test_report_with_negative_times(tmp_path, capsys, negative_times):
    out_csv = tmp_path / "r.csv"
    code, _ = _run(capsys, ["report", "--glob", str(negative_times), "--csv", str(out_csv)])
    assert code == 0
    with open(out_csv) as fh:
        assert float(next(csv.DictReader(fh))["opt_cost"]) == 5.0


@pytest.fixture
def metric_builds(monkeypatch):
    """Every ``build_metric`` call's graph, counted through every binding
    of the function in the package, so no caller is missed."""
    graphs = []
    original = metric.build_metric

    def counted(g):
        graphs.append(g)
        return original(g)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "metricserve":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return graphs


def _generated(tmp_path, capsys) -> list:
    paths = []
    for seed, mode in enumerate(["deadline", "delay", "deadline", "delay"]):
        path = tmp_path / f"inst{seed}.json"
        _run(capsys, ["generate", "--seed", str(seed), "--points", "6", "--requests", "5",
                      "--mode", mode, "--out", str(path)])
        paths.append(path)
    return paths


def test_verify_builds_one_metric_per_instance(tmp_path, capsys, metric_builds):
    for path in _generated(tmp_path, capsys):
        before = len(metric_builds)
        code, _ = _run(capsys, ["verify", "--instance", str(path)])
        assert code == 0
        assert len(metric_builds) - before == 1


def test_report_builds_one_metric_per_row(tmp_path, capsys, metric_builds):
    paths = _generated(tmp_path, capsys)
    code, out = _run(capsys, ["report", "--glob", str(tmp_path / "inst*.json"),
                              "--csv", str(tmp_path / "r.csv")])
    assert code == 0
    assert json.loads(out)["instances"] == len(paths)
    assert len(metric_builds) == len(paths)


@pytest.fixture
def small_instance(tmp_path, capsys):
    path = tmp_path / "small.json"
    _run(capsys, ["generate", "--seed", "4", "--points", "5", "--requests", "4",
                  "--mode", "delay", "--out", str(path)])
    return path


def _input_error(capsys, argv, message):
    """The command exits 2 with one ``error:`` line naming the fault and
    prints no summary."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def _instance_argv(command, path, tmp_path):
    if command == "report":
        return ["report", "--glob", str(path), "--csv", str(tmp_path / "r.csv")]
    return [command, "--instance", str(path)]


@pytest.mark.parametrize("command", ["run", "opt", "verify", "report"])
def test_directory_instance_exit_2(tmp_path, capsys, command):
    folder = tmp_path / "folder.json"
    folder.mkdir()
    _input_error(capsys, _instance_argv(command, folder, tmp_path), "cannot read instance")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("command", ["run", "opt", "verify", "report"])
def test_non_utf8_instance_exit_2(tmp_path, capsys, command):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(NEGATIVE_TIMES).encode() + b" \xe9\xff")
    _input_error(capsys, _instance_argv(command, path, tmp_path), "not UTF-8")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("command", ["generate", "run", "opt", "report"])
def test_unwritable_output_exit_2(tmp_path, capsys, small_instance, command):
    target = tmp_path / "missing" / "out"
    argv = {
        "generate": ["generate", "--seed", "1", "--points", "4", "--requests", "3",
                     "--mode", "delay", "--out", str(target)],
        "run": ["run", "--instance", str(small_instance), "--trace", str(target)],
        "opt": ["opt", "--instance", str(small_instance), "--trace", str(target)],
        "report": ["report", "--glob", str(small_instance), "--csv", str(target)],
    }[command]
    _input_error(capsys, argv, f"cannot write {target}")
    assert not target.parent.exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_nan_horizon_exit_2(capsys, small_instance, command):
    """A NaN horizon stops a delay run before any service; it must not
    pass as an empty run or a verified one."""
    _input_error(capsys, [command, "--instance", str(small_instance), "--horizon", "nan"],
                 "--horizon")


def _huge_slopes():
    inst = generate(seed=3, n_points=5, n_requests=4, mode="delay")
    return replace(inst, requests=tuple(
        replace(q, delay=replace(q.delay, final_slope=1e308)) for q in inst.requests
    ))


def _alternating_releases():
    """Releases and first breakpoints at -1e300, +1e300, -1e300, ..."""
    inst = generate(seed=3, n_points=5, n_requests=4, mode="delay")
    requests = []
    for i, q in enumerate(inst.requests):
        r = 1e300 if i % 2 else -1e300
        breakpoints = ((r, q.delay.breakpoints[0][1]), *q.delay.breakpoints[1:])
        requests.append(replace(q, release=r,
                                delay=DelayFunction(breakpoints, q.delay.final_slope)))
    return replace(inst, requests=tuple(requests))


def _shifted_star():
    """``investment_star(20)`` with every time shifted by +1e12."""
    inst = investment_star(20)
    return replace(inst, requests=tuple(
        replace(q, release=q.release + 1e12, delay=DelayFunction(
            tuple((t + 1e12, y) for t, y in q.delay.breakpoints), q.delay.final_slope))
        for q in inst.requests
    ))


def _huge_weights():
    """A deadline instance with every weight multiplied by 1e6: a float
    ulp of its path sums exceeds the shortest-path walk's tolerance."""
    inst = generate(seed=0, n_points=8, n_requests=8, mode="deadline")
    g = inst.graph
    return replace(inst, graph=replace(g, edges=tuple((u, v, w * 1e6) for u, v, w in g.edges)))


def _tiny_delay():
    """A delay instance with weights, delay values and final slopes scaled
    by 2**-30 and times unchanged: the residuals of a critical level all
    lie within the absolute tolerance, so no request triggers it."""
    inst = generate(seed=0, n_points=8, n_requests=8, mode="delay")
    scale = 2.0**-30
    g = replace(inst.graph, edges=tuple((u, v, w * scale) for u, v, w in inst.graph.edges))
    return replace(inst, graph=g, requests=tuple(
        replace(q, delay=DelayFunction(tuple((t, y * scale) for t, y in q.delay.breakpoints),
                                       q.delay.final_slope * scale))
        for q in inst.requests
    ))


@pytest.mark.parametrize("command", ["run", "verify", "report"])
@pytest.mark.parametrize("build", [_huge_slopes, _alternating_releases, _shifted_star,
                                   _huge_weights, _tiny_delay])
def test_out_of_range_delay_instance_exit_2(tmp_path, capsys, command, build):
    """Numbers the engines' absolute tolerances cannot resolve are an input
    error, not a traceback, in either mode: ``_huge_weights`` is a
    deadline instance."""
    path = tmp_path / "huge.json"
    path.write_text(serialize_instance(build()))
    _input_error(capsys, _instance_argv(command, path, tmp_path),
                 "outside the numeric range the engine resolves")


def test_opt_resolves_tiny_delay_instance(tmp_path, capsys):
    """The exact oracle has no critical levels, so ``opt`` still answers on
    the instance the engine refuses; scale-equivariant runs are open work."""
    path = tmp_path / "tiny.json"
    path.write_text(serialize_instance(_tiny_delay()))
    code, out = _run(capsys, ["opt", "--instance", str(path)])
    assert code == 0
    assert 0 < json.loads(out)["total_cost"] < 1e-6
