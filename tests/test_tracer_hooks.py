"""The benchmark tracer wraps ipso functions by name; every name it hooks must exist.

`bench/tracer.py` is loaded read-only from the checkout.  A renamed or
removed function would otherwise surface only when a traced benchmark
run installs its hooks.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("hook", tracer.HOOKS, ids=lambda hook: f"{hook.module}.{hook.path}")
def test_every_hook_resolves(hook):
    module = importlib.import_module(f"ipso.{hook.module}")
    _, _, target = tracer._resolve(module, hook.path)
    assert callable(target)
