"""The benchmark's tracer wraps library functions by name (bench/tracer.py
TARGETS).  Each name must still resolve, so that a refactor that renames
or deletes a traced function fails here rather than only under
`bench/run.py --trace 1`.  The tracer's BEFORE hooks also bind some
parameters by name, so those names must stay too, and so must every name
that the benchmark reads from the package root."""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import pytest

import semtax

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


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


# the parameters each BEFORE hook binds by name
HOOKED_PARAMETERS = {
    "semcat.term_vector": ("text",),
    "semcat.disambiguate": ("ambiguous", "context", "method"),
    "classics.llda_train": ("labeled_docs", "iterations"),
}


def test_every_hook_is_listed():
    assert set(tracer.BEFORE) == set(HOOKED_PARAMETERS)


@pytest.mark.parametrize("target", sorted(HOOKED_PARAMETERS))
def test_hooked_parameters_exist(target):
    *_, fn = tracer._resolve(target)
    assert set(HOOKED_PARAMETERS[target]) <= set(inspect.signature(fn).parameters)


def _root_names():
    """Each name read as semtax.<name> or imported by `from semtax import`
    in bench/*.py and bench/tests/*.py."""
    names = set()
    for path in sorted(BENCH.glob("*.py")) + sorted(BENCH.glob("tests/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
                node.value.id == "semtax"
            ):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "semtax" and not node.level:
                names.update(alias.name for alias in node.names)
    return sorted(names)


@pytest.mark.parametrize("name", _root_names())
def test_bench_root_name_resolves(name):
    """A submodule resolves by import; any other name must be an
    attribute of the package root."""
    if importlib.util.find_spec("semtax." + name) is None:
        assert hasattr(semtax, name)
