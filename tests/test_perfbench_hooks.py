"""The benchmark's tracer hooks tubalkit functions by (module, attribute)
name; a renamed or dropped function makes a traced run warn and record no
calls.  This checks the names in the fast suite, without running a solve."""

import importlib.util
from pathlib import Path

import pytest

import tubalkit

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


@pytest.mark.parametrize("span, module, attr", load_hooks())
def test_every_tracer_hook_resolves(span, module, attr):
    target = getattr(getattr(tubalkit, module, None), attr, None)
    assert callable(target), f"{module}.{attr} ({span}) is not a tubalkit function"
