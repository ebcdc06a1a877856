"""CLI surface: subcommands, exit codes, JSON/CSV outputs."""

import csv
import json
import sys

import pytest

from metricserve import metric
from metricserve.cli import main


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
