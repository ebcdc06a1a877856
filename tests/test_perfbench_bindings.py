"""The benchmark's tracer still finds what it wraps.

``perfbench/tracer.py`` wraps each traced function where it is defined
(methods through their own class's ``__dict__``) and every module binding
of it; ``perfbench/selftest.py`` checks a list of caller bindings after a
tiny run of every workload.  These tests check the same names by import
alone, so moving a traced method onto a base class or dropping a binding
fails here in well under a second.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import selftest  # noqa: E402
import tracer  # noqa: E402


@pytest.mark.parametrize(
    "module, path", [(m, p) for _, m, p in tracer.SPANNED + tracer.COUNTED], ids=str
)
def test_traced_target_resolves(module, path):
    importlib.import_module(module)
    _, _, original = tracer._resolve(module, path)
    assert callable(original)


@pytest.mark.parametrize(
    "owner, attr", selftest.CALLER_BINDINGS, ids=lambda x: getattr(x, "__name__", x)
)
def test_caller_binding_present(owner, attr):
    assert attr in owner.__dict__
