"""The benchmark's span tracing (perfbench/tracing.py) wraps the names in
its `WRAPPED_CALLS` where the caller looks them up. A renamed or dropped
name makes a traced benchmark run raise, so each one must stay a callable
attribute of its module."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def wrapped_calls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, name)
            for module_name, names in module.WRAPPED_CALLS.items()
            for name in names]


@pytest.mark.parametrize("module_name,name", wrapped_calls())
def test_wrapped_name_is_a_callable_attribute(module_name, name):
    module = importlib.import_module(module_name)
    assert hasattr(module, name)
    assert callable(getattr(module, name))
