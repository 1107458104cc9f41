"""Every function the benchmark's traced run wraps still exists.

``perfbench/tracing.py`` names its layers by module and attribute path and
``install()`` fails on a missing one; this catches a rename in the program
before a traced benchmark run does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


@pytest.mark.parametrize("layer", _layers(), ids=lambda layer: layer[0])
def test_traced_layer_resolves(layer):
    _prefix, module, path, _kind, _extra = layer
    obj = importlib.import_module(f"expflag.{module}")
    for part in path.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
