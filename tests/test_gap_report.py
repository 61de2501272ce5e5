"""The vocabulary-gap reports are pinned byte for byte, and
run_experiment analyses each document once however many methods use it.

The pinned files hold ``run_experiment(...).to_json()`` on
``make_gap_benchmark(docs_per_side=210, seed=11)`` with seed 11, for
the six methods of ``scripts/run_semantic_gap.py`` and for the
bagging/SemCom/LLDA committee methods.
"""

import importlib.util
import os
import sys
from collections import Counter

import pytest

import semtax.semcat
from semtax.evaluate import ExperimentConfig, MethodSpec, run_experiment
from semtax.synth import make_gap_benchmark

DATA = os.path.join(os.path.dirname(__file__), "data")
SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "run_semantic_gap.py")


def _gap_methods():
    """GAP_METHODS of scripts/run_semantic_gap.py, loaded from the file."""
    spec = importlib.util.spec_from_file_location("run_semantic_gap", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.GAP_METHODS)


METHODS = {
    "six": _gap_methods(),
    "committee": [
        MethodSpec("ensemble", "ensemble", features="categories",
                   params={"aggregation": "weighted"}),
        MethodSpec("semcom", "semcom", features="categories"),
        MethodSpec("llda_concepts", "llda", features="concepts"),
    ],
}


@pytest.fixture(scope="module")
def bench():
    return make_gap_benchmark(docs_per_side=210, seed=11)


@pytest.fixture(scope="module")
def runs(bench):
    """name -> (report JSON, term_vector calls per text)."""
    original = semtax.semcat.term_vector
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "semtax" or n.startswith("semtax."))]
    out = {}
    for name, methods in METHODS.items():
        calls = Counter()

        def counting(text, *args, **kwargs):
            calls[text] += 1
            return original(text, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        mp.setattr(module, attr, counting)
            report = run_experiment(ExperimentConfig(
                taxonomy=bench.taxonomy,
                background=bench.background,
                train_docs=bench.train_docs,
                test_docs=bench.test_docs,
                methods=methods,
                label_categories=bench.label_categories,
                seed=11,
            ))
        out[name] = (report.to_json(), calls)
    return out


@pytest.mark.parametrize("name", sorted(METHODS))
def test_report_matches_pinned_bytes(runs, name):
    with open(os.path.join(DATA, "gap_report_%s.json" % name), encoding="utf-8") as fh:
        assert runs[name][0] == fh.read()


@pytest.mark.parametrize("name", sorted(METHODS))
def test_term_vector_runs_once_per_document(runs, bench, name):
    docs = bench.train_docs + bench.test_docs
    assert runs[name][1] == Counter(d.text for d in docs)
