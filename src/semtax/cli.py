"""Command-line entry point.

Subcommands: build-index, categorize, train, classify, evaluate,
calibrate-alpha.  Config errors exit 1, data errors exit 2, each with a
single machine-parsable line on stderr.  A file that cannot be opened,
read or written, or that is not UTF-8, is a data error.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import os
import sys
from dataclasses import fields

from . import evaluate as ev
from .corpus import load_corpus
from .errors import ConfigError, DataError
from .classics import winnow_train
from .models import MODEL_TYPES, Pipeline, load_model, save_model
from .semcat import DISAMBIG_METHODS, FEATURE_MODES, Analyzer, SemCatConfig, ranked_categories
from .semcat import categorize  # noqa: F401  bench/tests checks that the tracer rebinds it here
from .semcla import (
    DEFAULT_ALPHA,
    DEFAULT_ALPHA_GRID,
    SEMCLA_MODES,
    SemClaConfig,
    SemClaModel,
    calibrate_alpha,
    semcla_fit,
)
from .taxonomy import load_taxonomy
from .textpipe import (
    TermTable,
    build_background,
    load_background,
    load_lemmas,
    load_stopwords,
    save_background,
)


def _require_path(path, what):
    if path is None:
        raise ConfigError("missing required %s path" % what)
    # open() takes an int for a file descriptor: 0 would read stdin
    if not isinstance(path, str) or not path:
        raise ConfigError("%s path must be a non-empty string, got %s"
                          % (what, json.dumps(path, default=str)))
    if not os.path.exists(path):
        raise ConfigError("%s path does not exist: %s" % (what, path))
    return path


def _out_stream(path):
    if path is None or path == "-":
        return sys.stdout
    return open(path, "w", encoding="utf-8")


def _semcat_config(args) -> SemCatConfig:
    """The SemCat config of the command's options; build-index has only
    --stopwords and --lemmas."""
    options = {}
    if hasattr(args, "top_terms"):
        if args.top_terms < 1:
            raise ConfigError("--top-terms must be at least 1, got %d" % args.top_terms)
        options = dict(top_terms=args.top_terms, disambig=args.disambig,
                       measure={"lin": "lin", "pirro": "pirro_seco"}[args.measure],
                       exact_match=not args.fuzzy_match)
    return SemCatConfig(
        stopwords=(load_stopwords(_require_path(args.stopwords, "stopwords"))
                   if args.stopwords else frozenset()),
        lemmas=load_lemmas(_require_path(args.lemmas, "lemmas")) if args.lemmas else {},
        **options,
    )


def _background(docs, config):
    """Document frequencies over the corpus's tokens after stopwords and
    lemmas: what build-index writes, and what a command without
    --background uses.  A document's distinct terms are the keys of its
    term counts."""
    table = TermTable.from_config(config)
    return build_background(table.counts(d.text) for d in docs)


def _load_background_or_build(args, docs, config):
    if args.background:
        return load_background(_require_path(args.background, "background"))
    return _background(docs, config)


def _echo_config(args, **used):
    """The command's settings on stderr; used overrides an argument the
    command replaced with the value it actually used."""
    resolved = {k: v for k, v in sorted((vars(args) | used).items()) if k != "func"}
    sys.stderr.write(
        "# config %s\n" % json.dumps(resolved, sort_keys=True, default=str)
    )


def cmd_build_index(args):
    docs = load_corpus(_require_path(args.corpus, "corpus"))
    save_background(_background(docs, _semcat_config(args)), args.out)
    return 0


def cmd_categorize(args):
    config = _semcat_config(args)
    tax = load_taxonomy(_require_path(args.taxonomy, "taxonomy"))
    docs = load_corpus(_require_path(args.corpus, "corpus"))
    stats = _load_background_or_build(args, docs, config)
    analyzer = Analyzer(tax, stats, config)
    out = _out_stream(args.out)
    _echo_config(args)
    for d in docs:
        cats = analyzer.bag(d.text, "categories")
        ranked = "-" if cats is None else " ".join("%s:%.6f" % kw for kw in ranked_categories(cats))
        out.write("%s\t%s\t%s\n" % (d.id, config.disambig, ranked))
    if out is not sys.stdout:
        out.close()
    return 0


def cmd_train(args):
    """Train a model on the corpus's feature bags and record in the model
    file the pipeline that built them (features, taxonomy use, config and
    background), so that classify builds its bags the same way."""
    semcat = _semcat_config(args)
    docs = load_corpus(_require_path(args.corpus, "corpus"))
    for d in docs:
        if d.label is None:
            raise DataError("document %s has no label" % d.id)
    features = "categories" if args.model == "semcla" else args.features
    tax = None
    if args.taxonomy or features != "terms":
        tax = load_taxonomy(_require_path(args.taxonomy, "taxonomy"))
    stats = _load_background_or_build(args, docs, semcat)
    analyzer = Analyzer(tax, stats, semcat)
    bags = [(d.label, analyzer.bag(d.text, features)) for d in docs]
    if args.model == "semcla":
        model = semcla_fit(bags, tax, SemClaConfig(alpha=args.alpha, mode=args.mode))
    else:
        params = {"theta": args.theta, "alpha": args.winnow_alpha, "beta": args.winnow_beta,
                  "epochs": args.epochs}
        model = ev.train_learner(args.model, [(lab, bag) for lab, bag in bags if bag is not None],
                                 params)
    save_model(model, Pipeline(features, tax is not None, semcat, stats), args.out)
    _echo_config(args, features=features)
    return 0


def cmd_classify(args):
    """Apply a model with the pipeline it records; --taxonomy must be given
    exactly when the model was trained with one.  model.linear ranks each
    bag, a SemCla bag once model.vector has extended it."""
    model, pipeline = load_model(_require_path(args.model, "model"))
    if pipeline.taxonomy is not None and pipeline.taxonomy != bool(args.taxonomy):
        raise ConfigError("the model was trained %s a taxonomy: %s --taxonomy"
                          % (("with", "give") if pipeline.taxonomy else ("without", "drop")))
    docs = load_corpus(_require_path(args.corpus, "corpus"))
    tax = None
    if args.taxonomy or pipeline.features != "terms":
        tax = load_taxonomy(_require_path(args.taxonomy, "taxonomy"))
    stats = pipeline.background
    if stats is None:
        stats = _background(docs, pipeline.semcat)
    linear = model.linear
    semcla = isinstance(model, SemClaModel)
    analyzer = Analyzer(tax, stats, pipeline.semcat)
    out = _out_stream(args.out)
    _echo_config(args)
    for d in docs:
        bag = analyzer.bag(d.text, pipeline.features)
        if semcla and bag is not None:
            bag = model.vector(bag, tax)
        ranked = "unclassified" if bag is None else " ".join(
            "%s:%.6f" % ls for ls in linear.ranking(bag))
        out.write("%s\t%s\n" % (d.id, ranked))
    if out is not sys.stdout:
        out.close()
    return 0


def cmd_evaluate(args):
    with open(_require_path(args.config, "config"), encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise ConfigError("config %s is not JSON: %s" % (args.config, exc)) from None
    if not isinstance(raw, dict):
        raise ConfigError("config %s is not a JSON object" % args.config)
    semcat_raw, methods_raw = raw.get("semcat", {}), raw.get("methods")
    if not isinstance(semcat_raw, dict) or not set(semcat_raw) <= set(ev.SEMCAT_KEYS):
        raise ConfigError("semcat must be an object with keys among %s, got %s"
                          % (", ".join(ev.SEMCAT_KEYS), json.dumps(semcat_raw)))
    seed = args.seed if args.seed is not None else raw.get("seed")
    if seed is None:
        raise ConfigError("seed is mandatory (config or --seed)")
    method_keys = {f.name for f in fields(ev.MethodSpec)}
    if not isinstance(methods_raw, list) or not methods_raw or not all(
        isinstance(m, dict) and {"name", "kind"} <= set(m) <= method_keys for m in methods_raw
    ):
        raise ConfigError("methods must be a non-empty list of objects, each with a name, "
                          "a kind and optional features and params")
    semcat = SemCatConfig(**semcat_raw)
    # every path is checked before any file loads
    tax_path, train_path, test_path = [_require_path(raw.get(key), what) for key, what in (
        ("taxonomy", "taxonomy"), ("corpus_train", "training corpus"),
        ("corpus_test", "test corpus"))]
    background = raw.get("background")
    if background is not None:
        _require_path(background, "background")
    tax = load_taxonomy(tax_path)
    train_docs = load_corpus(train_path)
    test_docs = load_corpus(test_path)
    if background is not None:
        stats = load_background(background)
    else:
        stats = _background(train_docs + test_docs, semcat)
    # run_experiment checks every value; what the file leaves out keeps
    # the dataclass default
    cfg = ev.ExperimentConfig(
        taxonomy=tax,
        background=stats,
        train_docs=train_docs,
        test_docs=test_docs,
        methods=[ev.MethodSpec(**m) for m in methods_raw],
        label_categories=raw.get("label_categories"),
        seed=seed,
        semcat=semcat,
        **{k: raw[k] for k in ("common_subset", "buckets", "alpha") if k in raw},
    )
    report = ev.run_experiment(cfg)
    out = _out_stream(args.out)
    out.write(report.to_json() + "\n")
    if out is not sys.stdout:
        out.close()
        sys.stdout.write(report.render_table() + "\n")
    return 0


def cmd_calibrate_alpha(args):
    config = _semcat_config(args)
    tax = load_taxonomy(_require_path(args.taxonomy, "taxonomy"))
    docs = load_corpus(_require_path(args.corpus, "corpus"))
    groups = {}
    for d in docs:
        if d.label is None:
            raise DataError("document %s has no label" % d.id)
        groups.setdefault(d.label, []).append(d.text)
    stats = _load_background_or_build(args, docs, config)
    try:
        grid = tuple(float(x) for x in args.grid.split(",")) if args.grid else DEFAULT_ALPHA_GRID
    except ValueError:
        raise ConfigError("--grid must be comma-separated numbers, got %r" % args.grid) from None
    alpha = calibrate_alpha(groups, tax, stats, grid, config)
    _echo_config(args)
    print("alpha=%g" % alpha)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="semtax",
        description="Taxonomy-driven semantic text categorization and classification",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--taxonomy")
        sp.add_argument("--corpus", required=True)
        sp.add_argument("--stopwords")
        sp.add_argument("--lemmas")
        sp.add_argument("--background")
        sp.add_argument("--disambig", default=SemCatConfig.disambig, choices=DISAMBIG_METHODS)
        sp.add_argument("--measure", default="lin", choices=["lin", "pirro"])
        sp.add_argument("--top-terms", dest="top_terms", type=int, default=SemCatConfig.top_terms)
        sp.add_argument("--fuzzy-match", action="store_true",
                        help="allow diacritic-folded label matching")
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("build-index", help="build background document-frequency stats")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--stopwords")
    sp.add_argument("--lemmas")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_build_index)

    sp = sub.add_parser("categorize", help="rank taxonomy categories per document")
    common(sp)
    sp.set_defaults(func=cmd_categorize)

    sp = sub.add_parser("train", help="train a classifier model")
    common(sp)
    sp.add_argument("--model", required=True, choices=list(MODEL_TYPES))
    sp.add_argument("--features", default="terms", choices=FEATURE_MODES)
    sp.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    sp.add_argument("--mode", default=SemClaConfig.mode, choices=SEMCLA_MODES)
    winnow = inspect.signature(winnow_train).parameters
    sp.add_argument("--theta", type=float, default=winnow["theta"].default)
    sp.add_argument("--winnow-alpha", type=float, default=winnow["alpha"].default)
    sp.add_argument("--winnow-beta", type=float, default=winnow["beta"].default)
    sp.add_argument("--epochs", type=int, default=winnow["epochs"].default)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("classify", help="classify documents with a trained model, "
                        "through the feature pipeline the model records")
    sp.add_argument("--model", required=True, help="model file path")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--taxonomy", help="required exactly when the model was trained with one")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("evaluate", help="run a configured experiment")
    sp.add_argument("--config", required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("calibrate-alpha", help="grid-search the extension constant")
    common(sp)
    sp.add_argument("--grid", default=None, help="comma-separated alpha values")
    sp.set_defaults(func=cmd_calibrate_alpha)

    return p


def main(argv=None) -> int:
    """Run one command and return its exit status: 0, 1 or 2.

    The cyclic garbage collector is paused while the command runs, and
    left as the caller had it on every exit path, also when an
    unexpected exception propagates.  What a command allocates, from the
    taxonomy it loads to each document's bags, holds no reference cycle
    and is freed by reference counting when the command returns, so a
    collection during the command would walk tens of thousands of young
    containers and free nothing.  The argument parser's few hundred
    cyclic objects are freed at the first collection after the command.
    As for a taxonomy load, the pause is process-wide: another thread
    gets no cyclic collection until the command returns.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write("error: config: %s\n" % exc)
        return 1
    except (DataError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write("error: data: %s\n" % exc)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
