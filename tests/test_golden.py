"""Every golden trace is reproduced byte for byte (see golden_traces.py)."""

import pytest

import golden_traces
from golden_traces import cases, golden_path, render


@pytest.mark.parametrize(
    "command,instance", cases(), ids=[f"{c}-{p.stem}" for c, p in cases()]
)
def test_trace_matches_golden(command, instance):
    assert render(command, instance) == golden_path(command, instance).read_text()


@pytest.mark.parametrize("argv", [["--help"], ["charge-report"]])
def test_regeneration_refuses_arguments(tmp_path, monkeypatch, capsys, argv):
    """An argument prints the usage and exits 2 before anything is written."""
    monkeypatch.setattr(golden_traces, "GOLDEN", tmp_path / "golden")
    monkeypatch.setattr(golden_traces, "INSTANCES", tmp_path / "golden" / "instances")
    assert golden_traces.main(argv) == 2
    assert capsys.readouterr().err.startswith("usage:")
    assert list(tmp_path.iterdir()) == []
