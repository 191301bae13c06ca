"""The benchmark tracer wraps library attributes by name; each must exist.

benchmark/tracer.py is loaded from its file and only read: its HOOKS list
is resolved here the way Tracer.install resolves it, with nothing wrapped.
A library rename or deletion that would break a traced benchmark run
fails this test instead.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bott_benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module, path", [(hook[0], hook[1]) for hook in tracer.HOOKS])
def test_hook_resolves(module, path):
    owner, attr = tracer._resolve(module, path)
    assert callable(getattr(owner, attr))
