"""The benchmark's tracer wraps library functions by name (bench/tracer.py
TARGETS).  Each name must still resolve, so that a refactor that renames
or deletes a traced function fails here rather than only under
`bench/run.py --trace 1`."""

import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("target", tracer.TARGETS)
def test_traced_name_resolves(target):
    *_, fn = tracer._resolve(target)
    assert callable(fn)
