"""Every function the layered benchmark traces must exist in orbitdeform.

perfbench/tracer.py wraps the names in its LAYERS table by attribute
lookup; a name that no longer resolves would break only the traced
benchmark sessions, so it is checked here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize(
    "layer,name", [(layer, name) for layer, names in _layers().items() for name in names]
)
def test_traced_name_resolves(layer, name):
    obj = importlib.import_module(f"orbitdeform.{layer}")
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
