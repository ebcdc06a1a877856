"""Every golden trace is reproduced byte for byte (see golden_traces.py)."""

import pytest

from golden_traces import cases, golden_path, render


@pytest.mark.parametrize(
    "command,instance", cases(), ids=[f"{c}-{p.stem}" for c, p in cases()]
)
def test_trace_matches_golden(command, instance):
    assert render(command, instance) == golden_path(command, instance).read_text()
