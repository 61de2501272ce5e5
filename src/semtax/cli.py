"""Command-line entry point.

Subcommands: build-index, categorize, train, classify, evaluate,
calibrate-alpha.  Config errors exit 1, data errors exit 2, each with a
single machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import evaluate as ev
from .corpus import load_corpus
from .errors import ConfigError, DataError
from .classics import (
    LLDAModel,
    NBModel,
    WinnowModel,
    llda_predict,
    llda_train,
    nb_predict,
    nb_train,
    winnow_predict,
    winnow_train,
)
from .models import load_model, save_model
from .semcat import SemCatConfig, categorize, ranked_categories
from .semcla import (
    DEFAULT_ALPHA_GRID,
    SemClaConfig,
    SemClaModel,
    calibrate_alpha,
    semcla_classify,
    semcla_train,
)
from .taxonomy import load_taxonomy
from .textpipe import (
    PhraseIndex,
    build_background,
    load_background,
    load_lemmas,
    load_stopwords,
    preprocess,
    save_background,
    tokenize,
)


def _require_path(path, what):
    if path is None:
        raise ConfigError("missing required %s path" % what)
    if not os.path.exists(path):
        raise ConfigError("%s path does not exist: %s" % (what, path))
    return path


def _out_stream(path):
    if path is None or path == "-":
        return sys.stdout
    return open(path, "w", encoding="utf-8")


def _semcat_config(args) -> SemCatConfig:
    top_terms = getattr(args, "top_terms", 10)
    if top_terms < 1:
        raise ConfigError("--top-terms must be at least 1, got %d" % top_terms)
    stopwords = (
        load_stopwords(_require_path(args.stopwords, "stopwords"))
        if getattr(args, "stopwords", None)
        else frozenset()
    )
    lemmas = (
        load_lemmas(_require_path(args.lemmas, "lemmas"))
        if getattr(args, "lemmas", None)
        else {}
    )
    measure = {"lin": "lin", "pirro": "pirro_seco"}[getattr(args, "measure", "lin")]
    return SemCatConfig(
        top_terms=top_terms,
        disambig=getattr(args, "disambig", "nearest"),
        measure=measure,
        exact_match=not getattr(args, "fuzzy_match", False),
        stopwords=stopwords,
        lemmas=lemmas,
    )


def _load_background_or_build(args, docs):
    if getattr(args, "background", None):
        return load_background(_require_path(args.background, "background"))
    return build_background(tokenize(d.text) for d in docs)


def _echo_config(args, stream=None):
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    (stream or sys.stderr).write(
        "# config %s\n" % json.dumps(resolved, sort_keys=True, default=str)
    )


def cmd_build_index(args):
    docs = load_corpus(_require_path(args.corpus, "corpus"))
    stopwords = (
        load_stopwords(_require_path(args.stopwords, "stopwords"))
        if args.stopwords
        else frozenset()
    )
    lemmas = load_lemmas(_require_path(args.lemmas, "lemmas")) if args.lemmas else {}
    stats = build_background(
        preprocess(d.text, stopwords, lemmas) for d in docs
    )
    save_background(stats, args.out)
    return 0


def cmd_categorize(args):
    config = _semcat_config(args)
    tax = load_taxonomy(_require_path(args.taxonomy, "taxonomy"))
    docs = load_corpus(_require_path(args.corpus, "corpus"))
    stats = _load_background_or_build(args, docs)
    index = PhraseIndex.from_taxonomy(tax)
    out = _out_stream(args.out)
    _echo_config(args)
    for d in docs:
        try:
            cats = categorize(d.text, tax, stats, config, index)
        except DataError:
            out.write("%s\t%s\t-\n" % (d.id, config.disambig))
            continue
        ranked = " ".join(
            "%s:%.6f" % (k, w) for k, w in ranked_categories(cats)
        )
        out.write("%s\t%s\t%s\n" % (d.id, config.disambig, ranked))
    if out is not sys.stdout:
        out.close()
    return 0


def _feature_bags(args, docs, config):
    """(document, feature bag) for each document, the bag None when the
    document has no features.  train and classify both build their bags
    here, so a model is applied with the preprocessing it was trained
    with.  Without --taxonomy, `--features terms` is the tf-idf term
    vector with no phrase matching."""
    tax = None
    if args.taxonomy or args.features != "terms":
        tax = load_taxonomy(_require_path(args.taxonomy, "taxonomy"))
    stats = _load_background_or_build(args, docs)
    index = PhraseIndex.from_taxonomy(tax) if tax is not None else PhraseIndex(())
    out = []
    for d in docs:
        try:
            bag = ev.extract_features(d.text, args.features, tax, stats, config, index)
        except DataError:
            bag = None
        out.append((d, bag))
    return out


def cmd_train(args):
    semcat = _semcat_config(args)
    docs = load_corpus(_require_path(args.corpus, "corpus"))
    for d in docs:
        if d.label is None:
            raise DataError("document %s has no label" % d.id)
    if args.model == "semcla":
        tax = load_taxonomy(_require_path(args.taxonomy, "taxonomy"))
        stats = _load_background_or_build(args, docs)
        config = SemClaConfig(alpha=args.alpha, mode=args.mode, semcat=semcat)
        model = semcla_train(((d.label, d.text) for d in docs), tax, stats, config)
    else:
        bags = [(d.label, bag) for d, bag in _feature_bags(args, docs, semcat) if bag is not None]
        if args.model == "bayes":
            model = nb_train(bags)
        elif args.model == "winnow":
            model = winnow_train(
                bags, theta=args.theta, alpha=args.winnow_alpha,
                beta=args.winnow_beta, epochs=args.epochs,
            )
        else:
            if args.seed is None:
                raise ConfigError("--seed is mandatory for llda")
            labeled = [([lab], ev.bag_to_tokens(bag)) for lab, bag in bags]
            model = llda_train(labeled, iterations=args.iterations, seed=args.seed)
    save_model(model, args.out)
    _echo_config(args)
    return 0


def _write_ranking(out, doc_id, ranking):
    if ranking is None:
        out.write("%s\tunclassified\n" % doc_id)
    else:
        out.write(
            "%s\t%s\n" % (doc_id, " ".join("%s:%.6f" % (l, s) for l, s in ranking))
        )


def cmd_classify(args):
    config = _semcat_config(args)
    model = load_model(_require_path(args.model, "model"))
    docs = load_corpus(_require_path(args.corpus, "corpus"))
    out = _out_stream(args.out)
    _echo_config(args)
    if isinstance(model, SemClaModel):
        tax = load_taxonomy(_require_path(args.taxonomy, "taxonomy"))
        stats = _load_background_or_build(args, docs)
        index = PhraseIndex.from_taxonomy(tax)
        for d in docs:
            try:
                ranking = semcla_classify(d.text, model, tax, stats, config, index)
            except DataError:
                ranking = None
            _write_ranking(out, d.id, ranking)
    else:
        predict = {
            NBModel: nb_predict,
            WinnowModel: winnow_predict,
            LLDAModel: llda_predict,
        }[type(model)]
        for d, bag in _feature_bags(args, docs, config):
            _write_ranking(out, d.id, None if bag is None else predict(model, bag))
    if out is not sys.stdout:
        out.close()
    return 0


def cmd_evaluate(args):
    with open(_require_path(args.config, "config"), encoding="utf-8") as fh:
        raw = json.load(fh)
    tax = load_taxonomy(_require_path(raw.get("taxonomy"), "taxonomy"))
    train_docs = load_corpus(_require_path(raw.get("corpus_train"), "training corpus"))
    test_docs = load_corpus(_require_path(raw.get("corpus_test"), "test corpus"))
    if raw.get("background"):
        stats = load_background(_require_path(raw["background"], "background"))
    else:
        stats = build_background(tokenize(d.text) for d in train_docs + test_docs)
    sc_raw = raw.get("semcat", {})
    semcat = SemCatConfig(
        top_terms=sc_raw.get("top_terms", 10),
        disambig=sc_raw.get("disambig", "nearest"),
        measure=sc_raw.get("measure", "lin"),
        exact_match=sc_raw.get("exact_match", True),
        min_df=sc_raw.get("min_df", 2),
        max_df_ratio=sc_raw.get("max_df_ratio", 0.5),
    )
    methods = [
        ev.MethodSpec(
            name=m["name"], kind=m["kind"],
            features=m.get("features", "terms"), params=m.get("params", {}),
        )
        for m in raw.get("methods", [])
    ]
    if not methods:
        raise ConfigError("config declares no methods")
    seed = args.seed if args.seed is not None else raw.get("seed")
    if seed is None:
        raise ConfigError("seed is mandatory (config or --seed)")
    cfg = ev.ExperimentConfig(
        taxonomy=tax,
        background=stats,
        train_docs=train_docs,
        test_docs=test_docs,
        methods=methods,
        label_categories=raw.get("label_categories", {}),
        seed=seed,
        common_subset=raw.get("common_subset", True),
        buckets=raw.get("buckets", True),
        semcat=semcat,
        alpha=raw.get("alpha", 0.33),
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
    stats = _load_background_or_build(args, docs)
    grid = (
        tuple(float(x) for x in args.grid.split(","))
        if args.grid
        else DEFAULT_ALPHA_GRID
    )
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

    def common(sp, taxonomy=True):
        if taxonomy:
            sp.add_argument("--taxonomy")
        sp.add_argument("--corpus", required=True)
        sp.add_argument("--stopwords")
        sp.add_argument("--lemmas")
        sp.add_argument("--background")
        sp.add_argument("--disambig", default="nearest",
                        choices=["nearest", "rank_half", "rank_inv", "uniform"])
        sp.add_argument("--measure", default="lin", choices=["lin", "pirro"])
        sp.add_argument("--top-terms", dest="top_terms", type=int, default=10)
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
    sp.add_argument("--model", required=True,
                    choices=["bayes", "winnow", "llda", "semcla"])
    sp.add_argument("--features", default="terms",
                    choices=["terms", "categories", "concepts"])
    sp.add_argument("--alpha", type=float, default=0.33)
    sp.add_argument("--mode", default="average", choices=["average", "centroid"])
    sp.add_argument("--theta", type=float, default=1.0)
    sp.add_argument("--winnow-alpha", type=float, default=1.1)
    sp.add_argument("--winnow-beta", type=float, default=0.9)
    sp.add_argument("--epochs", type=int, default=50)
    sp.add_argument("--iterations", type=int, default=200)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("classify", help="classify documents with a trained model")
    common(sp)
    sp.add_argument("--model", required=True, help="model file path")
    sp.add_argument("--features", default="terms",
                    choices=["terms", "categories", "concepts"])
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write("error: config: %s\n" % exc)
        return 1
    except DataError as exc:
        sys.stderr.write("error: data: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
