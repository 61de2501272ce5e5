"""Tests of the benchmark itself: input generators, output checks and
the tracing wrappers.  Run with ``python3 -m pytest bench/tests``."""

import json
import os
import sys
import time
from types import SimpleNamespace

import pytest

import semtax
import semtax.classics
import semtax.cli
import semtax.semcat
import semtax.semcla
from semtax.semcat import SemCatConfig, categorize
from semtax.textpipe import PhraseIndex

import checks
import generators
import speed
import tracer as tracing
from workloads import DeepTaxonomy

SPECS = (generators.WIDE, generators.DEEP)
SIZE_KEYS = ("categories", "concepts", "documents", "labels",
             "ambiguous_label_share", "multiword_label_share")


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_generator_is_deterministic_for_a_seed(spec):
    a = generators.generate(spec, 7)
    b = generators.generate(spec, 7)
    assert (a.categories, a.concepts, a.docs, a.doc_freq) == (
        b.categories, b.concepts, b.docs, b.doc_freq)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
def test_seed_changes_structure_not_size(spec):
    a = generators.generate(spec, 1)
    b = generators.generate(spec, 2)
    assert a.docs != b.docs and a.concepts != b.concepts
    sa, sb = a.shape(), b.shape()
    assert {k: sa[k] for k in SIZE_KEYS} == {k: sb[k] for k in SIZE_KEYS}
    assert sa["categories"] == spec.n_categories
    assert sa["concepts"] == spec.n_concepts
    assert sa["documents"] == spec.docs


def test_deep_taxonomy_is_deep_and_loads(tmp_path):
    gen = generators.generate(generators.DEEP, 3)
    shape = gen.shape()
    assert shape["ancestors_max"] > 100 and shape["ancestors_mean"] > 20
    paths = generators.write_inputs(gen, str(tmp_path))
    tax = semtax.load_taxonomy(paths["taxonomy"])
    assert len(tax.category_labels) == shape["categories"]
    assert len(tax.concepts) == shape["concepts"]
    assert max(len(tax.ancestors(k)) for k in tax.category_labels) == shape["ancestors_max"]


# -- output checks -----------------------------------------------------------


def _report(precisions, unclassified=0, evaluated=210):
    results = [SimpleNamespace(name=n, overall_precision=p, unclassified=unclassified)
               for n, p in precisions.items()]
    return SimpleNamespace(results=results, evaluated_documents=evaluated)


GOOD = {"nb_terms": 1 / 3, "winnow_terms": 1 / 3, "semcat": 1.0, "semcla": 1.0}


def test_gap_report_check():
    assert checks.check_gap_report(_report(GOOD), 210) == (4, 0)
    assert checks.check_gap_report(_report(dict(GOOD, nb_terms=0.9)), 210) == (4, 1)
    assert checks.check_gap_report(_report(dict(GOOD, semcla=0.94)), 210) == (4, 1)
    assert checks.check_gap_report(_report(GOOD, unclassified=1), 210) == (4, 4)
    assert checks.check_gap_report(_report(GOOD, evaluated=209), 210) == (4, 4)


def test_alpha_check():
    grid = (0.0, 0.05, 0.1)
    assert checks.check_alpha(0.05, grid) == (1, 0)
    assert checks.check_alpha(0.33, grid) == (1, 1)


def test_categorize_lines_check():
    expected = {"d1": "k1:0.600000 k2:0.400000", "d2": "k3:1.000000"}
    good = ["d1\tnearest\tk1:0.600000 k2:0.400000\n", "d2\tnearest\tk3:1.000000\n"]
    assert checks.check_categorize_lines(good, expected) == (2, 0)
    assert checks.check_categorize_lines([good[0], "d2\tnearest\t-\n"], expected) == (2, 1)
    assert checks.check_categorize_lines(
        [good[0], "d2\tnearest\tk3:0.900000\n"], expected) == (2, 1)
    assert checks.check_categorize_lines(good[:1], expected) == (2, 1)


def test_conservation_check():
    assert checks.check_conservation({"a": 0.25, "b": 0.5}, 0.75) == (1, 0)
    assert checks.check_conservation({"a": 0.25, "b": 0.5 + 1e-6}, 0.75) == (1, 1)


def test_deep_workload_counts_a_corrupted_output(tmp_path):
    workload = DeepTaxonomy(5, str(tmp_path))
    state = workload.setup()
    [(stage, run)] = workload.stages(state)
    output = run()
    assert workload.check(stage, output) == (len(output), 0)
    doc_id, cats = output[0]
    output[0] = (doc_id, {k: 2 * w for k, w in cats.items()})
    output[1] = (output[1][0], None)
    assert workload.check(stage, output) == (len(output), 2)


# -- timing ------------------------------------------------------------------


def test_clock_rescales_by_the_loops_around_each_step(monkeypatch):
    loops = iter([0.1, 0.3, 0.2])
    monkeypatch.setattr(speed, "time_reference", lambda: next(loops))
    clock = speed.Clock()
    out, wall, seconds = clock.time(lambda: "done")
    assert out == "done"
    assert seconds == pytest.approx(wall * speed.REFERENCE_SECONDS / 0.2)
    out, wall, seconds = clock.time(lambda: None)
    assert seconds == pytest.approx(wall * speed.REFERENCE_SECONDS / 0.25)
    assert clock.speed() == pytest.approx(speed.REFERENCE_SECONDS / 0.2)


# -- tracing -----------------------------------------------------------------


def _bindings():
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "semtax" or name.startswith("semtax.")):
            out.update({(name, k): v for k, v in vars(module).items() if callable(v)})
    return out


def test_tracer_restores_originals():
    before = _bindings()
    descriptor = PhraseIndex.__dict__["from_taxonomy"]
    with tracing.Tracer():
        assert semtax.cli.categorize is not categorize
        assert semtax.semcla.categorize is semtax.cli.categorize
        assert PhraseIndex.__dict__["from_taxonomy"] is not descriptor
    assert _bindings() == before
    assert PhraseIndex.__dict__["from_taxonomy"] is descriptor
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert _bindings() == before


def test_tracer_counts_calls_and_self_time(toy_tax, toy_background):
    with tracing.Tracer() as t:
        with t.stage("one") as stats:
            semtax.categorize("jaguar alpha bravo", toy_tax, toy_background)
            semtax.categorize("jaguar alpha bravo", toy_tax, toy_background)
    m = stats.layer_metrics()
    assert m["semcat.term_vector_calls"] == 2
    assert m["semcat.term_vector_per_doc"] == 2.0
    assert m["textpipe.phrase_index_builds"] == 2
    assert m["semcat.ambiguous_terms"] == 2  # "jaguar", once per call
    assert stats.calls["semcat.categorize"] == 2
    assert all(v >= 0 for v in stats.self_s.values())
    assert t.stages == [("one", stats)]


def test_hook_time_is_in_no_self_time(monkeypatch, toy_tax, toy_background):
    def slow_hook(tracer, signature, args, kwargs):
        time.sleep(0.05)
        return args, kwargs

    monkeypatch.setitem(tracing.BEFORE, "semcat.term_vector", slow_hook)
    with tracing.Tracer() as t:
        with t.stage("one") as stats:
            semtax.categorize("jaguar alpha bravo", toy_tax, toy_background)
    assert sum(stats.self_s.values()) < 0.05


def test_term_vector_per_doc_is_the_largest_stage_figure(toy_tax, toy_background):
    with tracing.Tracer() as t:
        for text, repeats in (("alpha", 3), ("bravo", 1), ("alpha", 1)):
            with t.stage(text):
                for _ in range(repeats):
                    semtax.semcat.term_vector(text, toy_tax, toy_background, SemCatConfig())
    total = tracing.StageStats()
    for _, stats in t.stages:
        total.merge(stats)
    m = total.layer_metrics()
    assert m["semcat.term_vector_calls"] == 5
    assert m["semcat.term_vector_per_doc"] == 3.0


def test_tracer_counts_gibbs_updates_from_an_iterator():
    docs = [(["a", "b"], ["x", "y", "x"]), (["a"], ["z"]), (["b"], ["y"])]
    with tracing.Tracer() as t:
        with t.stage("llda") as stats:
            model = semtax.classics.llda_train(
                ((labels, iter(toks)) for labels, toks in docs), iterations=4, seed=1)
    assert model == semtax.classics.llda_train(docs, iterations=4, seed=1)
    assert stats.layer_metrics()["classics.gibbs_token_updates"] == 3 * 4


# -- the result line ---------------------------------------------------------


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_every_declared_metric(capsys, monkeypatch, trace, section):
    import run

    monkeypatch.setattr(run, "MIN_REPEATS", 1)
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    argv = ["--workload", "deep_taxonomy", "--seed", "2", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
