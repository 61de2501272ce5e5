"""The benchmark's three workloads.

Each workload makes its inputs from the seed, then offers ``setup()``
(what a user pays before the first document) and ``stages(state)``: the
batch job, as named callables run one after another in this process on
one thread, each as soon as the previous one returns (a closed loop with
no request rate).  ``check(stage, output)`` returns ``(attempted,
failed)`` for that output.
"""

from __future__ import annotations

import contextlib
import io
import os

import semtax
from semtax import cli, taxonomy, textpipe
from semtax.errors import DataError
from semtax.evaluate import ExperimentConfig, MethodSpec, run_experiment
from semtax.semcat import SemCatConfig
from semtax.semcla import calibrate_alpha
from semtax.synth import make_gap_benchmark

import checks
import generators

ALPHA_GRID = tuple(round(0.05 * i, 2) for i in range(11))

# the six methods of scripts/run_semantic_gap.py
GAP_METHODS = (
    MethodSpec("nb_terms", "bayes", features="terms"),
    MethodSpec("winnow_terms", "winnow", features="terms"),
    MethodSpec("nb_categories", "bayes", features="categories"),
    MethodSpec("winnow_categories", "winnow", features="categories"),
    MethodSpec("semcat", "semcat"),
    MethodSpec("semcla", "semcla"),
)
COMMITTEE_METHODS = (
    MethodSpec("ensemble", "ensemble", features="categories",
               params={"aggregation": "weighted"}),
    MethodSpec("semcom", "semcom", features="categories"),
    MethodSpec("llda_concepts", "llda", features="concepts"),
)


class Gap:
    """The vocabulary-gap benchmark: train and test sides name the same
    concepts with disjoint words.  Text pipeline, SemCla and the
    classical learners; 13 categories, 36 concepts and no homonyms, so
    almost no disambiguation."""

    name = "gap"
    docs_per_side = 210

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self):
        return make_gap_benchmark(docs_per_side=self.docs_per_side, seed=self.seed)

    def shape(self, bench) -> dict:
        tax = bench.taxonomy
        return {
            "categories": len(tax.category_labels),
            "concepts": len(tax.concepts),
            "documents": len(bench.train_docs) + len(bench.test_docs),
        }

    def _experiment(self, bench, methods):
        return run_experiment(ExperimentConfig(
            taxonomy=bench.taxonomy,
            background=bench.background,
            train_docs=bench.train_docs,
            test_docs=bench.test_docs,
            methods=list(methods),
            label_categories=bench.label_categories,
            seed=self.seed,
        ))

    def stages(self, bench):
        groups = {}
        for d in bench.train_docs:
            groups.setdefault(d.label, []).append(d.text)
        self._n_test = len(bench.test_docs)
        return [
            ("experiment", lambda: self._experiment(bench, GAP_METHODS)),
            ("committee", lambda: self._experiment(bench, COMMITTEE_METHODS)),
            ("calibrate", lambda: calibrate_alpha(
                groups, bench.taxonomy, bench.background, ALPHA_GRID)),
        ]

    def check(self, stage, output):
        if stage == "calibrate":
            return checks.check_alpha(output, ALPHA_GRID)
        return checks.check_gap_report(output, self._n_test)


class _Generated:
    """A generated taxonomy workload: files written once per run, loaded
    by ``setup`` the way a user loads them.  ``expected`` holds each
    document's reference output, computed once in ``stages`` before the
    first timed repeat."""

    spec: generators.Spec

    def __init__(self, seed: int, workdir: str):
        self.gen = generators.generate(self.spec, seed)
        self.paths = generators.write_inputs(self.gen, workdir)
        self.workdir = workdir
        self.expected = None

    def setup(self):
        # called through the modules, so that the tracer's wrappers see them
        tax = taxonomy.load_taxonomy(self.paths["taxonomy"])
        stats = textpipe.load_background(self.paths["background"])
        return tax, stats, textpipe.PhraseIndex.from_taxonomy(tax)

    def shape(self, state) -> dict:
        return self.gen.shape()


class WideTaxonomy(_Generated):
    """About 2k categories, 20k concepts and many homonyms, categorized
    through the ``semtax categorize`` command: taxonomy loading, label
    and phrase indexing and the CLI path."""

    name = "wide_taxonomy"
    spec = generators.WIDE

    def stages(self, state):
        if self.expected is None:
            # the library's ranking with a shared phrase index, formatted
            # as the CLI writes it
            tax, stats, index = state
            self.expected = {}
            for doc_id, text in self.gen.docs:
                try:
                    cats = semtax.categorize(text, tax, stats, SemCatConfig(), index)
                except DataError:
                    self.expected[doc_id] = "-"
                    continue
                ranked = sorted(cats.items(), key=lambda kw: (-kw[1], kw[0]))
                self.expected[doc_id] = " ".join("%s:%.6f" % kw for kw in ranked)
        out = os.path.join(self.workdir, "categorized.tsv")
        argv = ["categorize", "--taxonomy", self.paths["taxonomy"],
                "--corpus", self.paths["corpus"],
                "--background", self.paths["background"], "--out", out]

        def run_cli():
            with contextlib.redirect_stderr(io.StringIO()):  # the "# config" line
                code = cli.main(argv)
            with open(out, encoding="utf-8") as fh:
                return code, fh.readlines()

        return [("cli", run_cli)]

    def check(self, stage, output):
        code, lines = output
        if code != 0:
            return len(self.expected), len(self.expected)
        return checks.check_categorize_lines(lines, self.expected)


class DeepTaxonomy(_Generated):
    """600 categories mostly on long chains and a homonym-rich label pool,
    categorized by the library with one shared phrase index: mostly
    ``msca``/``sim_page`` disambiguation."""

    name = "deep_taxonomy"
    spec = generators.DEEP

    def stages(self, state):
        tax, stats, index = state
        config = SemCatConfig()
        docs = self.gen.docs
        if self.expected is None:
            # the weight of each document's terms that carry a concept label
            labels = {label for _, _, label in self.gen.concepts}
            self.expected = {}
            for doc_id, text in docs:
                terms = semtax.extract_phrases(semtax.preprocess(text, stats=stats), index)
                v = semtax.top_n_terms(semtax.tfidf_weights(terms, stats), config.top_terms)
                self.expected[doc_id] = sum(w for t, w in v.items() if t in labels)

        def run_loop():
            out = []
            for doc_id, text in docs:
                try:
                    out.append((doc_id, semtax.categorize(text, tax, stats, config, index)))
                except DataError:
                    out.append((doc_id, None))
            return out

        return [("categorize", run_loop)]

    def check(self, stage, output):
        attempted = failed = 0
        for doc_id, cats in output:
            attempted += 1
            if cats is None:
                failed += 1
                continue
            failed += checks.check_conservation(cats, self.expected[doc_id])[1]
        return attempted, failed


WORKLOADS = {w.name: w for w in (Gap, WideTaxonomy, DeepTaxonomy)}
