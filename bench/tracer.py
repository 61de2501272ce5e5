"""Per-layer tracing of ``semtax`` from outside the package.

``Tracer`` replaces each public function listed in ``TARGETS`` with a
wrapper, in every ``semtax`` module namespace that binds it (``categorize``
for example is bound in ``semtax``, ``semtax.semcat``, ``semtax.semcla``
and ``semtax.cli``).  A wrapper counts calls and times them; a call's self
time is its duration minus the durations of the wrapped calls made inside
it.  Some wrappers also count facts read from the arguments or the result;
the time that takes is left out of every self time.
Leaving the ``with`` block puts every original function back.

Spans are summed per stage and function as they close instead of being
stored one by one: ``msca`` alone runs some hundred thousand times per
job, and storing each span would make the traced run measure the tracer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

TARGETS = (
    "taxonomy.load_taxonomy",
    "taxonomy.msca",
    "taxonomy.sim_page",
    "textpipe.preprocess",
    "textpipe.extract_phrases",
    "textpipe.tfidf_weights",
    "textpipe.load_background",
    "textpipe.PhraseIndex.from_taxonomy",
    "semcat.categorize",
    "semcat.term_vector",
    "semcat.assign_concepts",
    "semcat.map_terms_to_concepts",
    "semcat.disambiguate",
    "semcat.project_to_categories",
    "semcla.semcla_train",
    "semcla.semcla_score",
    "semcla.cosine",
    "semcla.rank_separation",
    "classics.nb_train",
    "classics.winnow_train",
    "classics.llda_train",
    "classics.nb_predict",
    "classics.winnow_predict",
    "classics.llda_predict",
    "ensemble.draw_training_sample",
    "ensemble.aggregate",
    "ensemble.semcom_predict",
    "ensemble.project_category_to_label",
    "evaluate.extract_features",
    "evaluate.precision",
    "evaluate.lin_precision",
    "corpus.load_corpus",
    "cli.cmd_categorize",
)


def _calls(*names):
    return lambda s: sum(s.calls[n] for n in names)


def _self(*names):
    return lambda s: sum(s.self_s[n] for n in names)


def _count(name):
    return lambda s: s.counts[name]


# name -> (unit, value from a StageStats)
LAYER_METRICS = {
    "taxonomy.load_s": ("s", _self("taxonomy.load_taxonomy")),
    "taxonomy.msca_calls": ("count", _calls("taxonomy.msca")),
    "taxonomy.msca_s": ("s", _self("taxonomy.msca")),
    "taxonomy.sim_page_calls": ("count", _calls("taxonomy.sim_page")),
    "taxonomy.sim_page_s": ("s", _self("taxonomy.sim_page")),
    "textpipe.preprocess_calls": ("count", _calls("textpipe.preprocess")),
    "textpipe.preprocess_s": ("s", _self("textpipe.preprocess")),
    "textpipe.extract_phrases_s": ("s", _self("textpipe.extract_phrases")),
    "textpipe.tfidf_s": ("s", _self("textpipe.tfidf_weights")),
    "textpipe.phrase_index_builds": ("count", _calls("textpipe.PhraseIndex.from_taxonomy")),
    "textpipe.phrase_index_s": ("s", _self("textpipe.PhraseIndex.from_taxonomy")),
    "textpipe.load_background_s": ("s", _self("textpipe.load_background")),
    "semcat.term_vector_calls": ("count", _calls("semcat.term_vector")),
    "semcat.term_vector_per_doc": ("calls/doc", lambda s: s.term_vector_per_doc()),
    # concept lookup is part of assigning concepts
    "semcat.assign_concepts_s": (
        "s", _self("semcat.assign_concepts", "semcat.map_terms_to_concepts")),
    "semcat.disambiguate_s": ("s", _self("semcat.disambiguate")),
    "semcat.project_s": ("s", _self("semcat.project_to_categories")),
    "semcat.ambiguous_terms": ("count", _count("ambiguous_terms")),
    "semcat.unresolved_terms": ("count", _count("unresolved_terms")),
    "semcat.nearest_fallbacks": ("count", _count("nearest_fallbacks")),
    "semcla.train_s": ("s", _self("semcla.semcla_train")),
    "semcla.score_calls": ("count", _calls("semcla.semcla_score")),
    "semcla.score_s": ("s", _self("semcla.semcla_score")),
    "semcla.cosine_calls": ("count", _calls("semcla.cosine")),
    "semcla.cosine_s": ("s", _self("semcla.cosine")),
    "semcla.rank_separation_s": ("s", _self("semcla.rank_separation")),
    "classics.nb_train_s": ("s", _self("classics.nb_train")),
    "classics.winnow_train_s": ("s", _self("classics.winnow_train")),
    "classics.llda_train_s": ("s", _self("classics.llda_train")),
    "classics.predict_calls": ("count", _calls(
        "classics.nb_predict", "classics.winnow_predict", "classics.llda_predict")),
    "classics.predict_s": ("s", _self(
        "classics.nb_predict", "classics.winnow_predict", "classics.llda_predict")),
    "classics.gibbs_token_updates": ("count", _count("gibbs_token_updates")),
    "ensemble.draw_sample_s": ("s", _self("ensemble.draw_training_sample")),
    # run_experiment draws one training sample per committee member
    "ensemble.members_trained": ("count", _calls("ensemble.draw_training_sample")),
    "ensemble.aggregate_calls": ("count", _calls("ensemble.aggregate")),
    "ensemble.semcom_s": ("s", _self("ensemble.semcom_predict")),
    "ensemble.label_projection_s": ("s", _self("ensemble.project_category_to_label")),
    "evaluate.extract_features_calls": ("count", _calls("evaluate.extract_features")),
    "evaluate.extract_features_s": ("s", _self("evaluate.extract_features")),
    "evaluate.metrics_s": ("s", _self("evaluate.precision", "evaluate.lin_precision")),
    "corpus.load_s": ("s", _self("corpus.load_corpus")),
    "cli.categorize_s": ("s", _self("cli.cmd_categorize")),
}


class StageStats:
    """Calls, self seconds and counters of one traced stage, or the sum
    of several stages merged into an empty one."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.texts = set()  # distinct texts given to term_vector
        self._merged_per_doc = 0.0

    def term_vector_per_doc(self) -> float:
        """term_vector calls per distinct text, within one stage.  Over
        merged stages it is the largest stage's figure: a stage that
        analyses each of its documents once reads 1 however many stages
        reuse the same documents."""
        own = self.calls["semcat.term_vector"] / len(self.texts) if self.texts else 0.0
        return max(own, self._merged_per_doc)

    def merge(self, other: "StageStats"):
        for n, v in other.calls.items():
            self.calls[n] += v
        for n, v in other.self_s.items():
            self.self_s[n] += v
        for n, v in other.counts.items():
            self.counts[n] += v
        self._merged_per_doc = max(self._merged_per_doc, other.term_vector_per_doc())

    def layer_metrics(self) -> dict:
        return {name: fn(self) for name, (_, fn) in LAYER_METRICS.items()}


# -- argument and result hooks -----------------------------------------------


def _bind(signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _before_term_vector(tracer, signature, args, kwargs):
    tracer.stats.texts.add(_bind(signature, args, kwargs)["text"])
    return args, kwargs


def _before_disambiguate(tracer, signature, args, kwargs):
    a = _bind(signature, args, kwargs)
    if a["method"] == "nearest" and a["ambiguous"] and not a["context"].context_concepts():
        tracer.stats.counts["nearest_fallbacks"] += 1
    return args, kwargs


def _before_llda_train(tracer, signature, args, kwargs):
    a = _bind(signature, args, kwargs)
    # the documents and their tokens may be one-shot iterators
    docs = [(labels, list(toks)) for labels, toks in a["labeled_docs"]]
    a["labeled_docs"] = docs
    # Gibbs sampling visits only tokens of documents with several labels
    tokens = sum(len(toks) for labels, toks in docs if len(set(labels)) > 1)
    tracer.stats.counts["gibbs_token_updates"] += tokens * a["iterations"]
    return (), a


def _after_map_terms(tracer, result):
    unambiguous, ambiguous = result
    tracer.stats.counts["ambiguous_terms"] += len(ambiguous)
    tracer.stats.counts["unresolved_terms"] += len(unambiguous.unresolved)


BEFORE = {
    "semcat.term_vector": _before_term_vector,
    "semcat.disambiguate": _before_disambiguate,
    "classics.llda_train": _before_llda_train,
}
AFTER = {"semcat.map_terms_to_concepts": _after_map_terms}


def _resolve(target):
    """(owner object, attribute, original attribute value, callable)."""
    mod, _, rest = target.partition(".")
    module = importlib.import_module("semtax." + mod)
    if "." in rest:  # a classmethod on a class
        cls_name, attr = rest.split(".")
        cls = getattr(module, cls_name)
        descriptor = cls.__dict__[attr]
        return cls, attr, descriptor, descriptor.__func__
    fn = getattr(module, rest)
    return module, rest, fn, fn


class Tracer:
    """Context manager that installs the wrappers on entry and restores
    the originals on exit.  ``stage(name)`` collects into a fresh
    ``StageStats`` kept in ``stages``."""

    def __init__(self):
        self.stages: list[tuple[str, StageStats]] = []
        self.stats = StageStats()
        self._frames = [[0.0]]  # child seconds of each open span
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        frames = self._frames
        before = BEFORE.get(name)
        after = AFTER.get(name)
        signature = inspect.signature(fn) if before is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                # the hook runs in the caller's span; counting it as a
                # child keeps it out of the caller's self time
                h0 = perf_counter()
                args, kwargs = before(self, signature, args, kwargs)
                frames[-1][0] += perf_counter() - h0
            frame = [0.0]
            frames.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                frames.pop()
                frames[-1][0] += dt
                stats = self.stats
                stats.calls[name] += 1
                stats.self_s[name] += dt - frame[0]
            if after is not None:
                h0 = perf_counter()
                after(self, result)
                frames[-1][0] += perf_counter() - h0
            return result

        return wrapper

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "semtax" or n.startswith("semtax."))]
        try:
            for target in TARGETS:
                owner, attr, original, fn = _resolve(target)
                wrapper = self._wrap(target, fn)
                if isinstance(original, classmethod):
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, classmethod(wrapper))
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, name, original))
                            setattr(module, name, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def stage(self, name: str):
        previous = self.stats
        self.stats = StageStats()
        try:
            yield self.stats
        finally:
            self.stages.append((name, self.stats))
            self.stats = previous
