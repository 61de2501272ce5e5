import contextlib
import gc
import io
import json
import math
import os
import pathlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import semtax.classics
import semtax.cli
import semtax.evaluate
from semtax.classics import LinearScorer
from semtax.cli import main
from semtax.corpus import Document, parse_corpus
from semtax.errors import ConfigError, DataError
from semtax.semcat import SemCatConfig
from semtax.semcla import SemClaModel
from semtax.textpipe import PhraseIndex
from conftest import TOY_TAXONOMY, chain_label, chain_taxonomy, write_command_inputs
from oracles import brute_preprocess, brute_tokenize

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "tax.tsv").write_text(TOY_TAXONOMY, encoding="utf-8")
    corpus = [
        {"id": "d1", "text": "alpha bravo charlie", "label": "x"},
        {"id": "d2", "text": "echo foxtrot golf", "label": "z"},
        {"id": "d3", "text": "alpha charlie delta", "label": "x"},
        {"id": "d4", "text": "echo golf foxtrot echo", "label": "z"},
    ]
    with open(tmp_path / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for rec in corpus:
            fh.write(json.dumps(rec) + "\n")
    return tmp_path


def test_build_index(workdir, capsys):
    out = workdir / "stats.tsv"
    rc = main([
        "build-index", "--corpus", str(workdir / "corpus.jsonl"), "--out", str(out)
    ])
    assert rc == 0
    body = out.read_text()
    assert body.startswith("#docs=4\n")
    assert "alpha\t2" in body


def test_categorize_writes_rankings(workdir, capsys):
    rc = main([
        "categorize",
        "--taxonomy", str(workdir / "tax.tsv"),
        "--corpus", str(workdir / "corpus.jsonl"),
        "--method" if False else "--disambig", "nearest",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("d1\tnearest\t")
    assert "A" in lines[0]


def test_missing_taxonomy_exits_1(workdir, capsys):
    rc = main([
        "categorize",
        "--taxonomy", str(workdir / "nope.tsv"),
        "--corpus", str(workdir / "corpus.jsonl"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: config:" in err
    assert "nope.tsv" in err


def test_bad_corpus_exits_2(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json}\n")
    rc = main([
        "categorize",
        "--taxonomy", str(workdir / "tax.tsv"),
        "--corpus", str(bad),
    ])
    assert rc == 2
    assert "error: data:" in capsys.readouterr().err


def test_categorize_deep_chain(tmp_path, capsys):
    depth = 5000
    (tmp_path / "chain.tsv").write_text(chain_taxonomy(depth), encoding="utf-8")
    # every term in two of the four documents, inside the default df cutoffs
    pairs = [(4999, 4000), (4999, 2500), (4000, 10), (2500, 10)]
    with open(tmp_path / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for i, (a, b) in enumerate(pairs):
            text = "%s %s" % (chain_label(a), chain_label(b))
            fh.write(json.dumps({"id": "d%d" % i, "text": text}) + "\n")
    rc = main([
        "categorize",
        "--taxonomy", str(tmp_path / "chain.tsv"),
        "--corpus", str(tmp_path / "corpus.jsonl"),
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == "d0\tnearest\tc4000:0.500000 c4999:0.500000"
    assert not any(line.endswith("\t-") for line in lines)


def test_cyclic_taxonomy_exits_2(workdir, capsys):
    (workdir / "cyclic.tsv").write_text(
        "C\tR\tRoot\t\nC\tA\tA\tR,A1\nC\tA1\tA1\tA\nP\tc1\tA\tx\n", encoding="utf-8"
    )
    rc = main([
        "categorize",
        "--taxonomy", str(workdir / "cyclic.tsv"),
        "--corpus", str(workdir / "corpus.jsonl"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data: cycle detected through category A")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["categorize"],
    ["train", "--model", "bayes"],
])
def test_top_terms_below_one_exits_1(workdir, capsys, command):
    rc = main(command + [
        "--taxonomy", str(workdir / "tax.tsv"),
        "--corpus", str(workdir / "corpus.jsonl"),
        "--top-terms", "0",
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: config: --top-terms must be at least 1, got 0\n"


def test_train_and_classify_roundtrip(workdir, capsys):
    model = workdir / "nb.json"
    rc = main([
        "train", "--model", "bayes",
        "--corpus", str(workdir / "corpus.jsonl"),
        "--out", str(model),
    ])
    assert rc == 0
    rc = main([
        "classify", "--model", str(model),
        "--corpus", str(workdir / "corpus.jsonl"),
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].split("\t")[0] == "d1"
    top = lines[0].split("\t")[1].split(" ")[0]
    assert top.startswith("x:")


@pytest.mark.parametrize("taxonomy, features", [
    (False, "terms"), (True, "terms"), (True, "categories"),
])
def test_classify_scores_the_bags_train_fitted(workdir, monkeypatch, capsys, taxonomy, features):
    flags = ["--taxonomy", str(workdir / "tax.tsv")] if taxonomy else []
    fitted, scored = [], []
    real_train, real_ranking = semtax.evaluate.nb_train, LinearScorer.ranking

    def train(bags):
        fitted.extend(bag for _, bag in bags)
        return real_train(bags)

    def ranking(scorer, bag):
        scored.append(bag)
        return real_ranking(scorer, bag)

    monkeypatch.setattr(semtax.evaluate, "nb_train", train)
    monkeypatch.setattr(LinearScorer, "ranking", ranking)
    model = workdir / "nb.json"
    corpus = ["--corpus", str(workdir / "corpus.jsonl")]
    fit = ["train", "--model", "bayes", "--features", features, "--out", str(model)]
    assert main(fit + corpus + flags) == 0
    assert main(["classify", "--model", str(model)] + corpus + flags) == 0
    assert len(fitted) == 4
    assert scored == fitted


def _record(monkeypatch, name, calls, bags, module=semtax.cli):
    """Wrap module.<name>, a function of a module or of a class, to log
    into calls the bags that bags(*args) picks from each call's
    arguments."""
    real = getattr(module, name)

    def wrapper(*args):
        calls.extend(bags(*args))
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("kind", ["bayes", "semcla"])
def test_classify_applies_the_pipeline_train_recorded(workdir, monkeypatch, capsys, kind):
    (workdir / "stop.txt").write_text("charlie\n", encoding="utf-8")
    (workdir / "lemmas.tsv").write_text("delta\tbravo\n", encoding="utf-8")
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf"]
    (workdir / "bg.tsv").write_text(
        "#docs=10\n" + "".join("%s\t2\n" % w for w in words), encoding="utf-8"
    )
    fitted, scored = [], []
    if kind == "bayes":
        _record(monkeypatch, "nb_train", fitted, lambda bags: [b for _, b in bags],
                semtax.evaluate)
        _record(monkeypatch, "ranking", scored, lambda scorer, bag: [bag], LinearScorer)
    else:
        # classify scores a SemCla bag as the model's vector of it
        _record(monkeypatch, "semcla_fit", fitted, lambda pairs, tax, config: [b for _, b in pairs])
        _record(monkeypatch, "vector", scored, lambda model, bag, tax: [bag], SemClaModel)
    model = workdir / "model.json"
    data = ["--corpus", str(workdir / "corpus.jsonl"), "--taxonomy", str(workdir / "tax.tsv")]
    assert main([
        "train", "--model", kind, "--out", str(model),
        "--stopwords", str(workdir / "stop.txt"), "--lemmas", str(workdir / "lemmas.tsv"),
        "--background", str(workdir / "bg.tsv"), "--top-terms", "2",
        "--disambig", "uniform", "--fuzzy-match",
    ] + data) == 0
    pipeline = json.loads(model.read_text())["pipeline"]
    assert pipeline["semcat"]["stopwords"] == ["charlie"]
    assert pipeline["background"]["doc_count"] == 10
    assert main(["classify", "--model", str(model)] + data) == 0
    assert len(fitted) == 4
    assert scored == fitted
    if kind == "bayes":
        assert all(len(bag) <= 2 and "charlie" not in bag and "delta" not in bag for bag in fitted)


def test_classify_uses_the_training_background(workdir, monkeypatch, capsys):
    # alone, these two documents would drop alpha (in every one of them)
    # and echo and golf (in fewer than two): training's background keeps all three
    with open(workdir / "other.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "o1", "text": "alpha echo"}) + "\n")
        fh.write(json.dumps({"id": "o2", "text": "alpha golf"}) + "\n")
    model = workdir / "nb.json"
    assert main(["train", "--model", "bayes", "--out", str(model),
                 "--corpus", str(workdir / "corpus.jsonl")]) == 0
    capsys.readouterr()
    scored = []
    _record(monkeypatch, "ranking", scored, lambda scorer, bag: [bag], LinearScorer)
    assert main(["classify", "--model", str(model),
                 "--corpus", str(workdir / "other.jsonl")]) == 0
    assert "unclassified" not in capsys.readouterr().out
    assert scored == [{"alpha": 0.5, "echo": 0.5}, {"alpha": 0.5, "golf": 0.5}]


@pytest.mark.parametrize("train_with, classify_with", [(False, True), (True, False)])
def test_classify_taxonomy_mismatch_exits_1(workdir, capsys, train_with, classify_with):
    model = workdir / "nb.json"
    tax = ["--taxonomy", str(workdir / "tax.tsv")]
    corpus = ["--corpus", str(workdir / "corpus.jsonl")]
    train = ["train", "--model", "bayes", "--out", str(model)] + corpus
    assert main(train + (tax if train_with else [])) == 0
    capsys.readouterr()
    rc = main(["classify", "--model", str(model)] + corpus + (tax if classify_with else []))
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: config: the model was trained with")


def test_default_categorize_never_folds_labels(workdir, monkeypatch, capsys):
    loaded = []
    real = semtax.cli.load_taxonomy

    def load(path):
        loaded.append(real(path))
        return loaded[-1]

    monkeypatch.setattr(semtax.cli, "load_taxonomy", load)
    rc = main(["categorize", "--taxonomy", str(workdir / "tax.tsv"),
               "--corpus", str(workdir / "corpus.jsonl")])
    assert rc == 0
    assert len(loaded) == 1
    assert "folded_label_index" not in vars(loaded[0])


def test_categorize_builds_one_phrase_index(workdir, monkeypatch, capsys):
    builds = []
    build = PhraseIndex.from_taxonomy.__func__

    def counting(cls, tax):
        builds.append(tax)
        return build(cls, tax)

    monkeypatch.setattr(PhraseIndex, "from_taxonomy", classmethod(counting))
    rc = main([
        "categorize",
        "--taxonomy", str(workdir / "tax.tsv"),
        "--corpus", str(workdir / "corpus.jsonl"),
    ])
    assert rc == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 4
    assert len(builds) == 1


def test_train_semcla_and_classify(workdir, capsys):
    model = workdir / "semcla.json"
    rc = main([
        "train", "--model", "semcla",
        "--taxonomy", str(workdir / "tax.tsv"),
        "--corpus", str(workdir / "corpus.jsonl"),
        "--out", str(model),
    ])
    assert rc == 0
    header = json.loads(model.read_text())
    assert header["type"] == "semcla"
    assert header["alpha"] == 0.33
    # one vector per class, no per-document vectors
    assert all(isinstance(c, dict) for c in header["classes"].values())
    assert "mode" not in header
    rc = main([
        "classify", "--model", str(model),
        "--taxonomy", str(workdir / "tax.tsv"),
        "--corpus", str(workdir / "corpus.jsonl"),
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t")[1].split(" ")[0].startswith("x:")


def test_train_semcla_echoes_the_features_it_used(workdir, capsys):
    model = workdir / "semcla.json"
    rc = main([
        "train", "--model", "semcla", "--features", "terms",
        "--taxonomy", str(workdir / "tax.tsv"),
        "--corpus", str(workdir / "corpus.jsonl"),
        "--out", str(model),
    ])
    assert rc == 0
    err = capsys.readouterr().err.splitlines()
    (echo,) = [line for line in err if line.startswith("# config ")]
    used = json.loads(echo[len("# config "):])["features"]
    assert used == json.loads(model.read_text())["pipeline"]["features"] == "categories"


# Model files in the older format, which keeps every extended training
# vector per class and the mode: written by `semtax train --model semcla
# --mode <mode>` on the workdir fixture's taxonomy and corpus by the
# version that scored against every training vector.  The expected lines
# are what that version's `classify` printed with them.
MIXED_CORPUS = [
    ("m1", "alpha echo golf"),
    ("m2", "delta bravo foxtrot golf"),
    ("m3", "jaguar charlie delta"),
    ("m4", "alpha foxtrot jaguar echo"),
    ("m5", "bravo charlie echo"),
    ("m6", "zzz"),
]
OLD_FORMAT_LINES = {
    "average": [
        "m1\tz:0.714887 x:0.444944",
        "m2\tz:0.677434 x:0.492306",
        "m3\tx:0.899338 z:0.016252",
        "m4\tz:0.880542 x:0.263278",
        "m5\tx:0.920092 z:0.368985",
        "m6\tunclassified",
    ],
    "centroid": [
        "m1\tz:0.715668 x:0.444944",
        "m2\tz:0.678262 x:0.492306",
        "m3\tx:0.899338 z:0.016233",
        "m4\tz:0.882222 x:0.263278",
        "m5\tx:0.920092 z:0.369688",
        "m6\tunclassified",
    ],
}


@pytest.mark.parametrize("mode", ["average", "centroid"])
def test_classify_with_old_format_semcla_model(workdir, capsys, mode):
    with open(workdir / "mixed.jsonl", "w", encoding="utf-8") as fh:
        for doc_id, text in MIXED_CORPUS:
            fh.write(json.dumps({"id": doc_id, "text": text}) + "\n")
    rc = main([
        "classify", "--model", str(DATA / ("semcla_old_format_%s.json" % mode)),
        "--taxonomy", str(workdir / "tax.tsv"),
        "--corpus", str(workdir / "mixed.jsonl"),
    ])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == OLD_FORMAT_LINES[mode]


# Bayes, Winnow and Labeled LDA model files written by `semtax train
# --model <kind>` (LLDA with --seed 3) on the workdir fixture's corpus, by
# the version whose files still carried NB's smoothing floors and LLDA's
# a_doc, iterations and seed.  The expected lines are what that version's
# `classify` printed with them on MIXED_CORPUS.
CLASSICAL_OLD_FORMAT_LINES = {
    "bayes": [
        "m1\tz:-2.283835 x:-2.408008",
        "m2\tz:-2.179525 x:-2.639057",
        "m3\tx:-1.110735 z:-1.341784",
        "m4\tz:-1.647560 x:-1.722064",
        "m5\tx:-2.292484 z:-2.335989",
        "m6\tx:-0.693147 z:-0.693147",
    ],
    "winnow": [
        "m1\tz:-0.075967 x:-0.287983",
        "m2\tz:0.136050 x:-0.500000",
        "m3\tx:-0.621317 z:-0.833333",
        "m4\tz:-0.445580 x:-0.572790",
        "m5\tx:-0.181975 z:-0.181975",
        "m6\tx:-1.000000 z:-1.000000",
    ],
    "llda": [
        "m1\tz:-4.002087 x:-6.833591",
        "m2\tz:-1.232941 x:-9.903738",
        "m3\tx:-0.231099 z:-3.299575",
        "m4\tz:-2.401252 x:-4.100154",
        "m5\tx:-5.298517 z:-5.386661",
        "m6\tx:0.000000 z:0.000000",
    ],
}


@pytest.mark.parametrize("kind", sorted(CLASSICAL_OLD_FORMAT_LINES))
def test_classify_with_old_format_classical_model(workdir, capsys, kind):
    with open(workdir / "mixed.jsonl", "w", encoding="utf-8") as fh:
        for doc_id, text in MIXED_CORPUS:
            fh.write(json.dumps({"id": doc_id, "text": text}) + "\n")
    rc = main(["classify", "--model", str(DATA / ("%s_old_format.json" % kind)),
               "--corpus", str(workdir / "mixed.jsonl")])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == CLASSICAL_OLD_FORMAT_LINES[kind]


def _semcla_with_background(background) -> str:
    """A SemCla model file whose pipeline records background."""
    semcat = {"top_terms": 10, "disambig": "nearest", "measure": "lin", "exact_match": True,
              "min_df": 2, "max_df_ratio": 0.5, "stopwords": [], "lemmas": {}}
    return json.dumps({"type": "semcla", "alpha": 0.33, "classes": {"x": {"A": 1.0}},
                       "pipeline": {"features": "categories", "taxonomy": True,
                                    "background": background, "semcat": semcat}})


@pytest.mark.parametrize("body, message", [
    ("not json", "is not JSON"),
    ('{"type": "semcla"}', "lacks field 'classes'"),
    pytest.param(
        '{"type": "semcla", "alpha": 0.33, "classes": {"x": 5}}',
        "has field 'classes.x' of type int, not dict", id="semcla-class-int",
    ),
    pytest.param(
        '{"type": "bayes", "priors": {"x": 1.0}, "likelihoods": {"x": {}},'
        ' "floors": {"x": 0.5}, "vocabulary": 3}',
        "has field 'vocabulary' of type int, not frozenset", id="bayes-vocabulary-int",
    ),
    pytest.param(
        '{"type": "bayes", "priors": {"x": 1.0}, "likelihoods": {"x": {}}, "vocabulary": ["alpha"]}',
        "has field 'likelihoods.x' without a positive probability for 'alpha'",
        id="bayes-likelihoods-lack-word",
    ),
    pytest.param(
        '{"type": "bayes", "priors": {"x": 0.5, "y": 0.5}, "likelihoods": {"x": {"alpha": 1.0}},'
        ' "vocabulary": ["alpha"]}',
        "has field 'likelihoods.y' without a positive probability for 'alpha'",
        id="bayes-likelihoods-lack-label",
    ),
    pytest.param(
        '{"type": "bayes", "priors": {"x": 0.0}, "likelihoods": {"x": {"alpha": 1.0}},'
        ' "vocabulary": ["alpha"]}',
        "has field 'priors.x' = 0.0, not a positive probability", id="bayes-prior-zero",
    ),
    pytest.param(
        '{"type": "llda", "topics": ["x"], "phi": {"x": {"alpha": 0.0}}, "a_word": 0.01,'
        ' "vocabulary": ["alpha"]}',
        "has field 'phi.x' without a positive probability for 'alpha'", id="llda-phi-zero",
    ),
    pytest.param(
        '{"type": "semcla", "alpha": 0.33, "classes": {"x": {"A": 1.0}},'
        ' "pipeline": {"features": "categories", "taxonomy": "yes"}}',
        "has field 'pipeline.taxonomy' of type str, not bool", id="pipeline-taxonomy-str",
    ),
    pytest.param(
        '{"type": "semcla", "alpha": 0.33, "classes": {"x": {"A": 1.0}},'
        ' "pipeline": {"features": "categories", "taxonomy": true, "background": null,'
        ' "semcat": {"top_terms": 10}}}',
        "lacks field 'pipeline.semcat.disambig'", id="pipeline-semcat-partial",
    ),
    pytest.param(
        '{"type": "semcla", "alpha": 0.33, "classes": {"x": {"A": 1.0}},'
        ' "pipeline": {"features": "categories", "taxonomy": true, "background": null,'
        ' "semcat": {"top_terms": 10, "disambig": "bogus", "measure": "lin",'
        ' "exact_match": true, "min_df": 2, "max_df_ratio": 0.5, "stopwords": [],'
        ' "lemmas": {}}}}',
        "has field 'pipeline.semcat.disambig' = 'bogus'", id="pipeline-semcat-disambig-unknown",
    ),
    pytest.param(
        '{"type": "semcla", "alpha": 0.33, "classes": {"x": {"A": 1.0}},'
        ' "pipeline": {"features": "categories", "taxonomy": true, "background": null,'
        ' "semcat": {"top_terms": 10, "disambig": "nearest", "measure": "lin",'
        ' "exact_match": true, "min_df": 2, "max_df_ratio": NaN, "stopwords": [],'
        ' "lemmas": {}}}}',
        "has field 'pipeline.semcat.max_df_ratio' = nan, not finite",
        id="pipeline-semcat-max-df-ratio-nan",
    ),
    pytest.param(
        '{"type": "bayes", "priors": {"x": Infinity}, "likelihoods": {"x": {"alpha": 1.0}},'
        ' "vocabulary": ["alpha"]}',
        "has field 'priors.x' = inf, not a positive probability", id="bayes-prior-inf",
    ),
    pytest.param(
        '{"type": "bayes", "priors": {"x": 1.0}, "likelihoods": {"x": {"alpha": Infinity}},'
        ' "vocabulary": ["alpha"]}',
        "has field 'likelihoods.x' without a positive probability for 'alpha'",
        id="bayes-likelihood-inf",
    ),
    pytest.param(
        '{"type": "llda", "topics": ["x"], "phi": {"x": {"alpha": Infinity}}, "a_word": 0.01,'
        ' "vocabulary": ["alpha"]}',
        "has field 'phi.x' without a positive probability for 'alpha'", id="llda-phi-inf",
    ),
    pytest.param(
        '{"type": "winnow", "theta": NaN, "alpha": 1.1, "beta": 0.9,'
        ' "weights": {"x": {"alpha": [1.0, 0.5]}}, "features": ["alpha"]}',
        "has field 'theta' = nan, not a finite number", id="winnow-theta-nan",
    ),
    pytest.param(
        '{"type": "winnow", "theta": 1.0, "alpha": 1.1, "beta": 0.9,'
        ' "weights": {"x": {"alpha": [Infinity, 0.5]}}, "features": ["alpha"]}',
        "has field 'weights.x.alpha' = [inf, 0.5], not finite", id="winnow-weight-inf",
    ),
    *(pytest.param(_semcla_with_background(background), message, id="pipeline-background-" + name)
      for name, background, message in [
          ("doc-count-zero", {"doc_count": 0, "doc_freq": {"alpha": 1}},
           "has field 'pipeline.background.doc_count': counts must be at least 1, got 0"),
          ("df-zero", {"doc_count": 4, "doc_freq": {"alpha": 2, "golf": 0}},
           "has field 'pipeline.background.doc_freq.golf': counts must be at least 1, "
           'got {"golf": 0}'),
          ("df-above-doc-count", {"doc_count": 4, "doc_freq": {"alpha": 5, "golf": 9}},
           "has field 'pipeline.background.doc_freq.golf': df is larger than #docs=4, "
           'got {"golf": 9}'),
          ("blank-term", {"doc_count": 4, "doc_freq": {"alpha": 2, " ": 1}},
           "has field 'pipeline.background.doc_freq. ': blank term in {\" \": 1}"),
      ]),
    *(pytest.param('{"type": "semcla", "alpha": %s, "classes": {"x": {"A": 1.0}}}' % alpha,
                   "has field 'alpha' = %s, not a finite number of at least 0" % shown,
                   id="semcla-alpha-" + shown)
      for alpha, shown in [("NaN", "nan"), ("-Infinity", "-inf"), ("-0.5", "-0.5")]),
])
def test_bad_model_file_exits_2(workdir, capsys, body, message):
    (workdir / "model.json").write_text(body, encoding="utf-8")
    rc = main([
        "classify", "--model", str(workdir / "model.json"),
        "--taxonomy", str(workdir / "tax.tsv"),
        "--corpus", str(workdir / "corpus.jsonl"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data: model file ")
    assert message in err


BACKGROUND_WORDS = ["The", "the", "THE", "Cat", "CATS", "cats", "sat", "Große", "grosse",
                    "İstanbul", "ΟΔΟΣ", "οδος", "naïve"]
BACKGROUND_VOCAB = sorted({t for w in BACKGROUND_WORDS for t in brute_tokenize(w)})


@settings(derandomize=True, max_examples=200)
@given(
    texts=st.lists(st.lists(st.sampled_from(BACKGROUND_WORDS + [" ", ", ", "42", "\u0307"]),
                            max_size=20).map("".join), max_size=6),
    stopwords=st.frozensets(st.sampled_from(BACKGROUND_VOCAB), max_size=3),
    lemmas=st.dictionaries(st.sampled_from(BACKGROUND_VOCAB), st.sampled_from(BACKGROUND_VOCAB),
                           max_size=4),
)
def test_background_counts_each_document_s_distinct_terms(texts, stopwords, lemmas):
    """The df table of build-index and of a command without --background
    counts each document's distinct terms after stopwords and lemmas."""
    docs = [Document("d%d" % i, text) for i, text in enumerate(texts)]
    stats = semtax.cli._background(docs, SemCatConfig(stopwords=stopwords, lemmas=lemmas))
    assert stats.doc_count == max(len(texts), 1)
    assert stats.doc_freq == Counter(
        t for text in texts for t in set(brute_preprocess(text, stopwords, lemmas)))


def test_categorize_without_background_counts_df_as_build_index_does(tmp_path, capsys):
    (tmp_path / "tax.tsv").write_text(
        "C\tR\tRoot\t\nC\tL\tLand\tR\nC\tW\tWater\tR\nP\tc1\tL\tcar\nP\tc2\tW\tboat\n",
        encoding="utf-8",
    )
    (tmp_path / "lemmas.tsv").write_text("cars\tcar\nboats\tboat\n", encoding="utf-8")
    texts = ["cars road", "boats sea", "cars sea", "boats road", "car x", "boat y"]
    with open(tmp_path / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for i, text in enumerate(texts):
            fh.write(json.dumps({"id": "d%d" % i, "text": text}) + "\n")
    data = ["--corpus", str(tmp_path / "corpus.jsonl"), "--lemmas", str(tmp_path / "lemmas.tsv")]
    assert main(["build-index", "--out", str(tmp_path / "bg.tsv")] + data) == 0
    categorize = ["categorize", "--taxonomy", str(tmp_path / "tax.tsv")] + data
    assert main(categorize + ["--background", str(tmp_path / "bg.tsv")]) == 0
    with_index = capsys.readouterr().out.splitlines()
    assert len(with_index) == 6
    assert not any(line.endswith("\t-") for line in with_index)
    assert main(categorize) == 0
    assert capsys.readouterr().out.splitlines() == with_index


@pytest.mark.parametrize("flag, name, body, where", [
    ("--background", "bg.tsv", "#docs=4\nalpha\n", "bg.tsv line 2"),
    ("--background", "bg.tsv", "#docs=4\nalpha\tmany\n", "bg.tsv line 2"),
    ("--background", "bg.tsv", "#docs=0\nalpha\t1\n", "bg.tsv line 1"),
    ("--background", "bg.tsv", "#docs=4\nalpha\t0\n", "bg.tsv line 2"),
    ("--lemmas", "lemmas.tsv", "cars\tcar\n\nboats\n", "lemmas.tsv line 3"),
    ("--lemmas", "lemmas.tsv", "cars\tcar\ntrees\t\n", "lemmas.tsv line 2"),
    ("--background", "bg.tsv", "alpha\t1\nfern\t5\n#docs=2\n", "bg.tsv line 2"),
    ("--background", "bg.tsv", "#docs=5\nfern\t1\nfern\t3\n", "bg.tsv line 3: term 'fern' repeats line 2"),
    ("--background", "bg.tsv", "#docs=5\nfern\t1\n#docs=4\n",
     "bg.tsv line 3: #docs= header repeats line 1"),
    ("--background", "bg.tsv", "#docs=5\n\t3\nfern\t2\n", "bg.tsv line 2: blank term"),
    ("--lemmas", "lemmas.tsv", "cats\tcat\ncats\tkitten\n",
     "lemmas.tsv line 2: surface 'cats' repeats line 1"),
    ("--corpus", "bad.jsonl", '{"id": "d1", "text": "alpha"}\n5\n', "bad.jsonl line 2"),
    ("--corpus", "bad.jsonl", '{"id": "d1", "text": 5}\n', "bad.jsonl line 1"),
    ("--corpus", "bad.jsonl", '{"id": "d1", "text": "alpha"}\n{"id": null, "text": "beta"}\n',
     "bad.jsonl line 2: id must be a string or an integer"),
    ("--taxonomy", "bad.tsv", TOY_TAXONOMY + "P\tc1\tA1\tagain\n",
     "bad.tsv line 14: duplicate concept id c1"),
    ("--taxonomy", "bad.tsv", TOY_TAXONOMY + "P\tc8\tA1\t | \n",
     "bad.tsv line 14: concept c8 has no labels"),
    ("--taxonomy", "bad.tsv", "#\n\nC\tR\tRoot\n", "bad.tsv line 3: C record needs 4 fields"),
    ("--taxonomy", "bad.tsv", TOY_TAXONOMY + "X\tc8\tA1\tx\n",
     "bad.tsv line 14: unknown record kind 'X'"),
], ids=["background-no-tab", "background-df-not-int", "background-no-docs",
        "background-df-zero", "lemmas-no-tab", "lemmas-blank-lemma", "background-df-above-docs",
        "background-repeated-term", "background-repeated-header", "background-blank-term",
        "lemmas-repeated-surface",
        "corpus-not-object", "corpus-text-not-string", "corpus-id-null",
        "taxonomy-duplicate-id", "taxonomy-empty-labels", "taxonomy-field-count",
        "taxonomy-unknown-kind"])
def test_bad_input_file_exits_2(workdir, capsys, flag, name, body, where):
    (workdir / name).write_text(body, encoding="utf-8")
    paths = {"--taxonomy": workdir / "tax.tsv", "--corpus": workdir / "corpus.jsonl"}
    paths[flag] = workdir / name
    rc = main(["categorize"] + [str(x) for pair in paths.items() for x in pair])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data: ")
    assert where in err


@pytest.mark.parametrize("field, value, message", [
    ("categories", 5, "categories must be a list of strings"),
    ("categories", "abc", "categories must be a list of strings"),
    ("categories", ["A", 1], "categories must be a list of strings"),
    ("categories", None, "categories must be a list of strings"),
    ("label", ["x"], "label must be a string"),
    ("label", 5, "label must be a string"),
], ids=["categories-int", "categories-string", "categories-non-string-member", "categories-null",
        "label-list", "label-int"])
@pytest.mark.parametrize("command", [
    ["categorize", "--taxonomy", "{w}/tax.tsv"],
    ["train", "--model", "bayes", "--out", "{w}/nb.json"],
], ids=["categorize", "train-bayes"])
def test_corpus_record_fields_are_checked(workdir, capsys, command, field, value, message):
    bad = workdir / "bad.jsonl"
    bad.write_text('{"id": "d0", "text": "alpha", "label": "x", "categories": ["A"]}\n'
                   + json.dumps({"id": "d1", "text": "alpha", field: value}) + "\n",
                   encoding="utf-8")
    argv = [a.format(w=workdir) for a in command] + ["--corpus", str(bad)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: data: %s line 2: %s\n" % (bad, message)
    assert not (workdir / "nb.json").exists()


@pytest.mark.parametrize("doc_id", [None, True, False, [1], {"a": 1}, 1.5],
                         ids=["null", "true", "false", "list", "object", "float"])
def test_corpus_id_must_be_a_string_or_an_integer(doc_id):
    lines = ['{"id": "d1", "text": "alpha"}', json.dumps({"id": doc_id, "text": "beta"})]
    with pytest.raises(DataError) as exc:
        parse_corpus(lines, "c.jsonl")
    assert str(exc.value) == "c.jsonl line 2: id must be a string or an integer"


def test_corpus_integer_id_becomes_its_decimal_string():
    lines = ['{"id": 7, "text": "alpha"}', '{"id": "7x", "text": "beta"}']
    assert [d.id for d in parse_corpus(lines, "c.jsonl")] == ["7", "7x"]


def test_corpus_categories_are_kept_in_order():
    lines = ['{"id": "d1", "text": "alpha", "categories": ["B", "A"]}',
             '{"id": "d2", "text": "alpha", "categories": []}', '{"id": "d3", "text": "alpha"}']
    assert [d.categories for d in parse_corpus(lines, "c.jsonl")] == [("B", "A"), (), ()]


@pytest.mark.parametrize("argv, message", [
    (["categorize", "--taxonomy", "{w}/latin1.tsv", "--corpus", "{w}/corpus.jsonl"],
     "can't decode byte 0xe9"),
    (["categorize", "--taxonomy", "{w}/tax.tsv", "--corpus", "{w}/latin1.jsonl"],
     "can't decode byte 0xe9"),
    (["categorize", "--taxonomy", "{w}/tax.tsv", "--corpus", "{w}/corpus.jsonl",
      "--stopwords", "{w}"], "Is a directory"),
    (["categorize", "--taxonomy", "{w}/tax.tsv", "--corpus", "{w}/corpus.jsonl",
      "--out", "{w}/missing/out.tsv"], "No such file or directory"),
    (["build-index", "--corpus", "{w}/corpus.jsonl", "--out", "{w}/missing/bg.tsv"],
     "No such file or directory"),
    (["train", "--model", "bayes", "--corpus", "{w}/corpus.jsonl",
      "--out", "{w}/missing/nb.json"], "No such file or directory"),
], ids=["taxonomy-not-utf8", "corpus-not-utf8", "stopwords-directory",
        "categorize-out-missing-dir", "build-index-out-missing-dir", "train-out-missing-dir"])
def test_unreadable_or_unwritable_file_exits_2(workdir, capsys, argv, message):
    (workdir / "latin1.tsv").write_bytes((TOY_TAXONOMY + "P\tc8\tA1\tcafé\n").encode("latin-1"))
    (workdir / "latin1.jsonl").write_bytes('{"id": "d1", "text": "café"}\n'.encode("latin-1"))
    rc = main([arg.format(w=workdir) for arg in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data: ")
    assert message in err


def fuzzed_inputs(w):
    """Each input file in directory w: its valid content and the command
    that reads it."""
    config = {"taxonomy": "%s/tax.tsv" % w, "corpus_train": "%s/corpus.jsonl" % w,
              "corpus_test": "%s/corpus.jsonl" % w, "label_categories": {"x": "A"},
              "methods": [{"name": "nb", "kind": "bayes"}], "seed": 1}
    return {
        "tax.tsv": (TOY_TAXONOMY, "categorize"),
        "corpus.jsonl": ('{"id": "d1", "text": "alpha bravo", "label": "x"}\n'
                         '{"id": "d2", "text": "echo golf", "label": "z"}\n', "categorize"),
        "stopwords.txt": ("the\nof\n", "categorize"),
        "lemmas.tsv": ("cars\tcar\n", "categorize"),
        "bg.tsv": ("#docs=4\nalpha\t2\necho\t2\n", "categorize"),
        "model.json": ((DATA / "bayes_old_format.json").read_text(encoding="utf-8"), "classify"),
        "exp.json": (json.dumps(config), "evaluate"),
    }


COMMANDS = {
    "categorize": ("categorize --taxonomy {w}/tax.tsv --corpus {w}/corpus.jsonl --stopwords "
                   "{w}/stopwords.txt --lemmas {w}/lemmas.tsv --background {w}/bg.tsv "
                   "--out {w}/out.tsv").split(),
    "classify": "classify --model {w}/model.json --corpus {w}/corpus.jsonl --out {w}/out.tsv".split(),
    "evaluate": "evaluate --config {w}/exp.json --out {w}/out.json".split(),
}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(fuzzed_inputs("."))), st.data())
def test_random_bytes_in_an_input_file_end_in_a_clean_exit(tmp_path_factory, name, data):
    """A prefix of a valid input file followed by random bytes: the
    command that reads it exits 0, 1 or 2 and prints no traceback."""
    # one directory for every example, so that the valid texts keep their length
    workdir = tmp_path_factory.getbasetemp() / "fuzz"
    workdir.mkdir(exist_ok=True)
    inputs = fuzzed_inputs(workdir)
    for other, (text, _) in inputs.items():
        (workdir / other).write_text(text, encoding="utf-8")
    text, command = inputs[name]
    valid = text.encode("utf-8")
    cut = data.draw(st.integers(0, len(valid)))
    (workdir / name).write_bytes(valid[:cut] + data.draw(st.binary(max_size=24)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main([arg.format(w=workdir) for arg in COMMANDS[command]])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_calibrate_alpha_bad_grid_exits_1(workdir, capsys):
    rc = main([
        "calibrate-alpha",
        "--taxonomy", str(workdir / "tax.tsv"),
        "--corpus", str(workdir / "corpus.jsonl"),
        "--grid", "a,b",
    ])
    assert rc == 1
    assert capsys.readouterr().err == "error: config: --grid must be comma-separated numbers, got 'a,b'\n"


def test_evaluate_deterministic(workdir, capsys):
    cfg = {
        "taxonomy": str(workdir / "tax.tsv"),
        "corpus_train": str(workdir / "corpus.jsonl"),
        "corpus_test": str(workdir / "corpus.jsonl"),
        "label_categories": {"x": "A", "z": "B"},
        "buckets": False,
        "methods": [{"name": "nb", "kind": "bayes"}],
    }
    cfg_path = workdir / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = workdir / "r1.json"
    out2 = workdir / "r2.json"
    assert main(["evaluate", "--config", str(cfg_path), "--seed", "7", "--out", str(out1)]) == 0
    assert main(["evaluate", "--config", str(cfg_path), "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["config"]["seed"] == 7


def test_evaluate_requires_seed(workdir, capsys):
    cfg = {
        "taxonomy": str(workdir / "tax.tsv"),
        "corpus_train": str(workdir / "corpus.jsonl"),
        "corpus_test": str(workdir / "corpus.jsonl"),
        "label_categories": {"x": "A", "z": "B"},
        "methods": [{"name": "nb", "kind": "bayes"}],
    }
    cfg_path = workdir / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["evaluate", "--config", str(cfg_path)]) == 1


def test_evaluate_id_naming_two_documents_exits_2(workdir, capsys):
    # the test corpus reuses the training id d1 for another label's text
    with open(workdir / "test.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "d1", "text": "echo foxtrot golf", "label": "z"}) + "\n")
    cfg = {
        "taxonomy": str(workdir / "tax.tsv"),
        "corpus_train": str(workdir / "corpus.jsonl"),
        "corpus_test": str(workdir / "test.jsonl"),
        "label_categories": {"x": "A", "z": "B"},
        "methods": [{"name": "semcat", "kind": "semcat"}],
        "seed": 7,
    }
    (workdir / "exp.json").write_text(json.dumps(cfg))
    assert main(["evaluate", "--config", str(workdir / "exp.json")]) == 2
    assert 'document id "d1"' in capsys.readouterr().err


def test_calibrate_alpha_prints_grid_member(workdir, capsys):
    rc = main([
        "calibrate-alpha",
        "--taxonomy", str(workdir / "tax.tsv"),
        "--corpus", str(workdir / "corpus.jsonl"),
        "--grid", "0.0,0.1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.strip().startswith("alpha=")
    assert float(out.strip().split("=")[1]) in (0.0, 0.1)


def test_evaluate_out_prints_the_table_of_the_report(tmp_path, monkeypatch, capsys):
    """With --out, stdout holds a header line and then one row per method,
    in config order, whose values are the report's, floats to 3 decimals."""
    write_command_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "report.json"
    assert main(["evaluate", "--config", "exp.json", "--out", str(out)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["method", "precision", "lin_precision", "unclassified"]
    report = json.loads(out.read_text())
    methods = json.loads((tmp_path / "exp.json").read_text())["methods"]
    assert [r["name"] for r in report["results"]] == [m["name"] for m in methods]
    assert [row.split() for row in rows] == [
        [r["name"], "%.3f" % r["overall_precision"], "%.3f" % r["overall_lin_precision"],
         str(r["unclassified"])] for r in report["results"]]


def test_evaluate_llda_a_word_that_makes_a_phi_zero_exits_2(tmp_path, monkeypatch, capsys):
    write_command_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    config = json.loads((tmp_path / "exp.json").read_text())
    config["methods"] = [{"name": "llda", "kind": "llda", "params": {"a_word": 1e308}}]
    (tmp_path / "exp.json").write_text(json.dumps(config))
    assert main(["evaluate", "--config", "exp.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: data: llda a_word 1e+308 makes phi(")
    assert captured.err.endswith(") = 0.0, not a positive finite number\n")


def test_evaluate_echoes_config_as_given(workdir, capsys):
    cfg = {
        "taxonomy": str(workdir / "tax.tsv"),
        "corpus_train": str(workdir / "corpus.jsonl"),
        "corpus_test": str(workdir / "corpus.jsonl"),
        "label_categories": {"x": "A", "z": "B"},
        "buckets": False,
        "alpha": 1,
        "seed": 3,
        "methods": [{"name": "wn", "kind": "winnow", "params": {"theta": 1, "epochs": 5}}],
    }
    (workdir / "exp.json").write_text(json.dumps(cfg))
    out = workdir / "report.json"
    assert main(["evaluate", "--config", str(workdir / "exp.json"), "--out", str(out)]) == 0
    echo = json.loads(out.read_text())["config"]
    assert (echo["alpha"], echo["seed"], echo["buckets"]) == (1, 3, False)
    assert echo["methods"][0]["params"] == {"theta": 1, "epochs": 5}
    # an int, not the float 1.0 that decoding would have made of it
    assert type(echo["alpha"]) is int and type(echo["methods"][0]["params"]["theta"]) is int


def test_train_llda_without_seed(workdir, capsys):
    rc = main(["train", "--model", "llda", "--corpus", str(workdir / "corpus.jsonl"),
               "--out", str(workdir / "llda.json")])
    assert rc == 0
    payload = json.loads((workdir / "llda.json").read_text())
    assert payload["type"] == "llda"
    assert not {"a_doc", "iterations", "seed"} & set(payload)


@pytest.mark.parametrize("hyperparameter", [["--theta", "nan"], ["--winnow-alpha", "inf"]])
def test_train_winnow_non_finite_hyperparameter_exits_1(workdir, capsys, hyperparameter):
    out = workdir / "winnow.json"
    rc = main(["train", "--model", "winnow", "--corpus", str(workdir / "corpus.jsonl"),
               "--out", str(out), *hyperparameter])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: winnow needs")
    assert "Traceback" not in err
    assert not out.exists()


def test_train_winnow_weight_past_the_float_range_exits_2(tmp_path, capsys):
    # the bags of two labels share features, so some label is promoted and
    # demoted by alpha in turn
    write_command_inputs(tmp_path)
    out = tmp_path / "winnow.json"
    rc = main(["train", "--model", "winnow", "--corpus", str(tmp_path / "corpus.jsonl"),
               "--out", str(out), "--winnow-alpha", "1e308"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: data: winnow alpha 1e+308 drove a weight of label " in err
    assert "past the float range" in err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["nan", "inf", "-1"])
def test_train_semcla_bad_alpha_exits_1(workdir, capsys, alpha):
    out = workdir / "semcla.json"
    rc = main(["train", "--model", "semcla", "--taxonomy", str(workdir / "tax.tsv"),
               "--corpus", str(workdir / "corpus.jsonl"), "--out", str(out), "--alpha=" + alpha])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: config: alpha = %r, not a finite number of at least 0\n" % float(alpha)
    assert not out.exists()


@pytest.mark.parametrize("grid", ["nan,0.1", "0.1,inf", "0.2,-0.1"])
def test_calibrate_alpha_bad_grid_alpha_exits_1(workdir, capsys, grid):
    rc = main(["calibrate-alpha", "--taxonomy", str(workdir / "tax.tsv"),
               "--corpus", str(workdir / "corpus.jsonl"), "--grid=" + grid])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: config: grid alpha = ")
    assert captured.err.endswith(", not a finite number of at least 0\n")


def test_calibrate_alpha_uncategorizable_document_exits_2(workdir, capsys):
    with open(workdir / "corpus.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "d5", "text": "zulu yankee", "label": "z"}) + "\n")
    rc = main(["calibrate-alpha", "--taxonomy", str(workdir / "tax.tsv"),
               "--corpus", str(workdir / "corpus.jsonl")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: data: document 3 of group z has no categories\n"


def test_config_echo_on_stderr(workdir, capsys):
    rc = main([
        "categorize",
        "--taxonomy", str(workdir / "tax.tsv"),
        "--corpus", str(workdir / "corpus.jsonl"),
    ])
    assert rc == 0
    assert capsys.readouterr().err.startswith("# config {")


def committee(cfg, kind="ensemble", **params):
    """cfg with a bayes method and then a committee of two bayes members
    with the given params, which must be rejected before any training."""
    members = {"members": [["bayes", 2]], **params}
    return dict(cfg, methods=[{"name": "nb", "kind": "bayes"},
                              {"name": kind, "kind": kind, "params": members}])


def learner(cfg, kind, **params):
    """cfg with one method m of kind with the given params."""
    return dict(cfg, methods=[{"name": "m", "kind": kind, "params": params}])


@pytest.mark.parametrize("edit, message", [
    (lambda cfg: "not json", "is not JSON"),
    (lambda cfg: [cfg], "is not a JSON object"),
    (lambda cfg: dict(cfg, methods=[{"name": "nb"}]), "each with a name, a kind"),
    (lambda cfg: dict(cfg, semcat={"top_term": 5}), '{"top_term": 5}'),
    (lambda cfg: dict(cfg, semcat={"top_terms": "x"}), "'semcat.top_terms' of type str, not int"),
    (lambda cfg: {k: v for k, v in cfg.items() if k != "label_categories"}, "label_categories"),
    (lambda cfg: dict(cfg, label_categories={}), "label_categories"),
    (lambda cfg: dict(cfg, label_categories={"x": ["A"], "z": "B"}),
     'label_categories: label "x" must map to a category id string, got ["A"]'),
    (lambda cfg: dict(cfg, label_categories={"x": "A", "z": 5}),
     'label_categories: label "z" must map to a category id string, got 5'),
    (lambda cfg: dict(cfg, semcat={"top_terms": 0}), "'semcat.top_terms' = 0, not at least 1"),
    (lambda cfg: dict(cfg, semcat={"disambig": "bogus"}), "'semcat.disambig' = 'bogus'"),
    (lambda cfg: dict(cfg, semcat={"measure": "bogus"}), "'semcat.measure' = 'bogus'"),
    (lambda cfg: committee(cfg, members=5), "members must be a non-empty list"),
    (lambda cfg: committee(cfg, members=[["bayes", 0]]), "members must be a non-empty list"),
    (lambda cfg: committee(cfg, aggregation="bogus"), 'aggregation must be one of'),
    (lambda cfg: committee(cfg, level="7"), 'level must be 1, 2 or "inf", got "7"'),
    (lambda cfg: committee(cfg, kind="semcom", semcat_weights=[]),
     "semcat_weights must be a non-empty list of numbers"),
    (lambda cfg: dict(cfg, seed="abc"), "'seed' of type str, not int"),
    (lambda cfg: dict(cfg, seed=1.5), "'seed' of type float, not int"),
    (lambda cfg: dict(cfg, alpha="x"), "'alpha' of type str, not float"),
    (lambda cfg: dict(cfg, common_subset="no"), "'common_subset' of type str, not bool"),
    (lambda cfg: dict(cfg, buckets=0), "'buckets' of type int, not bool"),
    (lambda cfg: learner(cfg, "winnow", theta="q"),
     "method m has field 'params.theta' of type str, not float"),
    (lambda cfg: learner(cfg, "winnow", epochs=2.5), "'params.epochs' of type float, not int"),
    (lambda cfg: learner(cfg, "winnow", alpha=True), "'params.alpha' of type bool, not float"),
    (lambda cfg: learner(cfg, "llda", a_word=None), "'params.a_word' of type NoneType, not float"),
    (lambda cfg: learner(cfg, "llda", a_word=0), "llda needs a_word > 0, iterations >= 0"),
    (lambda cfg: learner(cfg, "llda", a_word=-1.0), "llda needs a_word > 0, iterations >= 0"),
    (lambda cfg: committee(cfg, beta="0.9"), "'params.beta' of type str, not float"),
    (lambda cfg: committee(cfg, kind="semcom", semcat_weights=[math.nan]),
     "semcat_weights must be a non-empty list of numbers, all finite, got [NaN]"),
    (lambda cfg: committee(cfg, kind="semcom", semcat_weights=[math.inf, -math.inf]),
     "semcat_weights must be a non-empty list of numbers, all finite, got [Infinity, -Infinity]"),
    (lambda cfg: learner(cfg, "winnow", theta=math.nan),
     "method m: params.theta must be finite, got NaN"),
    (lambda cfg: committee(cfg, a_word=math.inf),
     "method ensemble: params.a_word must be finite, got Infinity"),
    (lambda cfg: dict(cfg, alpha=math.nan), "alpha = nan, not a finite number of at least 0"),
    (lambda cfg: dict(cfg, alpha=math.inf), "alpha = inf, not a finite number of at least 0"),
    (lambda cfg: dict(cfg, alpha=-1), "alpha = -1, not a finite number of at least 0"),
    (lambda cfg: learner(cfg, "semcla", alpha=-0.5),
     "method m: params.alpha = -0.5, not a finite number of at least 0"),
    (lambda cfg: learner(cfg, "semcla", alpha=math.nan),
     "method m: params.alpha must be finite, got NaN"),
    (lambda cfg: learner(cfg, "semcla", mode="median"),
     'method m: params.mode must be one of average, centroid, got "median"'),
    (lambda cfg: learner(cfg, "winnow", epoch=5),
     "method m: unknown param epoch; kind winnow takes theta, alpha, beta, epochs"),
    (lambda cfg: learner(cfg, "bayes", theta=1.0),
     "method m: unknown param theta; kind bayes takes none"),
    (lambda cfg: learner(cfg, "llda", theta=1.0),
     "method m: unknown param theta; kind llda takes a_word"),
    (lambda cfg: learner(cfg, "semcat", alpha=0.2),
     "method m: unknown param alpha; kind semcat takes none"),
    (lambda cfg: learner(cfg, "semcla", theta=1.0),
     "method m: unknown param theta; kind semcla takes alpha, mode"),
    (lambda cfg: committee(cfg, kind="semcom", rank_depth=3),
     "method semcom: unknown param rank_depth; kind semcom takes members, level, sample_size, "
     "semcat_weights, theta, alpha, beta, epochs, a_word"),
    (lambda cfg: committee(cfg, semcat_weights=[1.0]),
     "method ensemble: unknown param semcat_weights; kind ensemble takes members, level, "
     "sample_size, aggregation, theta, alpha, beta, epochs, a_word"),
    (lambda cfg: committee(cfg, kind="semcom", aggregation="rank"),
     "method semcom: unknown param aggregation; kind semcom takes members, level, "
     "sample_size, semcat_weights, theta, alpha, beta, epochs, a_word"),
    (lambda cfg: dict(cfg, methods=[{"name": ["nb"], "kind": "bayes"}]),
     'method names must be strings, got ["nb"]'),
    (lambda cfg: dict(cfg, methods=[{"name": {"n": 1}, "kind": "bayes"}]),
     'method names must be strings, got {"n": 1}'),
    (lambda cfg: dict(cfg, methods=[{"name": "nb", "kind": ["bayes"]}]),
     'method nb: unknown kind ["bayes"]'),
    (lambda cfg: dict(cfg, methods=[{"name": "nb", "kind": {"bayes": 1}}]),
     'method nb: unknown kind {"bayes": 1}'),
    (lambda cfg: dict(cfg, methods=[{"name": "m", "kind": "bayes"},
                                    {"name": "m", "kind": "semcat"}]),
     "method m: two methods have this name"),
    (lambda cfg: dict(cfg, semcat={"max_df_ratio": math.nan}),
     "'semcat.max_df_ratio' = nan, not finite"),
    (lambda cfg: dict(cfg, semcat={"max_df_ratio": math.inf}),
     "'semcat.max_df_ratio' = inf, not finite"),
], ids=["not-json", "not-object", "method-without-kind", "unknown-semcat-key",
        "semcat-value-type",
        "no-label-categories", "empty-label-categories", "label-category-list",
        "label-category-int",
        "semcat-top-terms-zero", "semcat-disambig-unknown", "semcat-measure-unknown",
        "committee-members-int", "committee-member-count-zero",
        "committee-aggregation-unknown", "committee-level-unknown",
        "committee-semcat-weights-empty",
        "seed-str", "seed-float", "alpha-str", "common-subset-str", "buckets-int",
        "winnow-theta-str", "winnow-epochs-float",
        "winnow-alpha-bool", "llda-a-word-null", "llda-a-word-zero", "llda-a-word-negative",
        "committee-beta-str", "semcom-weight-nan", "semcom-weights-inf",
        "winnow-theta-nan", "committee-a-word-inf",
        "alpha-nan", "alpha-inf", "alpha-negative", "semcla-alpha-negative", "semcla-alpha-nan",
        "semcla-mode-unknown", "winnow-param-unknown", "bayes-param-unknown",
        "llda-param-unknown", "semcat-param-unknown", "semcla-param-unknown",
        "committee-param-unknown", "ensemble-semcat-weights", "semcom-aggregation",
        "method-name-list", "method-name-object", "method-kind-list", "method-kind-object",
        "method-name-repeated", "semcat-max-df-ratio-nan", "semcat-max-df-ratio-inf"])
def test_evaluate_bad_config_exits_1(workdir, capsys, edit, message):
    cfg = {
        "taxonomy": str(workdir / "tax.tsv"),
        "corpus_train": str(workdir / "corpus.jsonl"),
        "corpus_test": str(workdir / "corpus.jsonl"),
        "label_categories": {"x": "A", "z": "B"},
        "methods": [{"name": "nb", "kind": "bayes"}],
        "seed": 7,
    }
    body = edit(cfg)
    (workdir / "exp.json").write_text(body if isinstance(body, str) else json.dumps(body))
    assert main(["evaluate", "--config", str(workdir / "exp.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: ")
    assert message in err
    assert "Traceback" not in err


@contextlib.contextmanager
def standard_fds_kept():
    """Fails unless fds 0-2 still name the files they named before the
    block; any that it closed or replaced are restored first, so that the
    run goes on."""
    saved = [os.dup(fd) for fd in (0, 1, 2)]
    before = [os.fstat(fd) for fd in (0, 1, 2)]
    yield
    lost = []
    for fd, copy, st in zip((0, 1, 2), saved, before):
        try:
            now = os.fstat(fd)
            kept = (now.st_dev, now.st_ino) == (st.st_dev, st.st_ino)
        except OSError:
            kept = False
        if not kept:
            lost.append(fd)
            os.dup2(copy, fd)
        os.close(copy)
    assert lost == []


@pytest.mark.parametrize("key, value, what", [
    ("taxonomy", 1, "taxonomy"),
    ("corpus_train", ["corpus.jsonl"], "training corpus"),
    ("corpus_test", 0, "test corpus"),
    ("corpus_test", 1, "test corpus"),
    ("corpus_test", True, "test corpus"),
    ("corpus_test", 1.5, "test corpus"),
    ("corpus_test", "", "test corpus"),
    ("background", 0, "background"),
    ("background", "", "background"),
    ("background", {}, "background"),
], ids=["taxonomy-stdout-fd", "corpus-train-list", "corpus-test-stdin-fd",
        "corpus-test-stdout-fd", "corpus-test-true", "corpus-test-float", "corpus-test-empty",
        "background-zero", "background-empty", "background-object"])
def test_evaluate_config_path_must_be_a_string(workdir, capsys, key, value, what):
    """open() takes an int for a file descriptor, so a path value that is
    not a non-empty string is a config error before any file opens."""
    cfg = {
        "taxonomy": str(workdir / "tax.tsv"),
        "corpus_train": str(workdir / "corpus.jsonl"),
        "corpus_test": str(workdir / "corpus.jsonl"),
        "label_categories": {"x": "A", "z": "B"},
        "methods": [{"name": "nb", "kind": "bayes"}],
        "seed": 7,
        key: value,
    }
    (workdir / "exp.json").write_text(json.dumps(cfg))
    with standard_fds_kept():
        rc = main(["evaluate", "--config", str(workdir / "exp.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: config: %s path must be a non-empty string, got %s\n" % (
        what, json.dumps(value))


def one_method_config(workdir, method):
    """An experiment config over the workdir's files with one method."""
    return {
        "taxonomy": str(workdir / "tax.tsv"),
        "corpus_train": str(workdir / "corpus.jsonl"),
        "corpus_test": str(workdir / "corpus.jsonl"),
        "label_categories": {"x": "A", "z": "B"},
        "methods": [method],
        "seed": 7,
    }


def test_evaluate_checks_every_path_before_loading_any(workdir, capsys):
    """A bad test corpus path is reported before the taxonomy loads, so
    a malformed taxonomy file does not hide it."""
    (workdir / "bad.tsv").write_text("X\tbroken\n", encoding="utf-8")
    cfg = dict(one_method_config(workdir, {"name": "nb", "kind": "bayes"}),
               taxonomy=str(workdir / "bad.tsv"), corpus_test=1.5)
    (workdir / "exp.json").write_text(json.dumps(cfg))
    assert main(["evaluate", "--config", str(workdir / "exp.json")]) == 1
    assert capsys.readouterr().err == (
        "error: config: test corpus path must be a non-empty string, got 1.5\n")


# one above each bound: evaluate.MAX_MEMBERS and classics.MAX_EPOCHS are 1000
@pytest.mark.parametrize("members", [[["bayes", 1001]], [["bayes", 500], ["winnow", 501]]],
                         ids=["one-kind", "two-kinds"])
def test_evaluate_committee_above_the_member_bound_exits_1(workdir, capsys, members):
    method = {"name": "e", "kind": "ensemble", "params": {"members": members}}
    (workdir / "exp.json").write_text(json.dumps(one_method_config(workdir, method)))
    assert main(["evaluate", "--config", str(workdir / "exp.json")]) == 1
    assert capsys.readouterr().err == (
        "error: config: method e: a committee has at most 1000 members, got %s\n"
        % json.dumps(members))


def test_evaluate_winnow_epochs_above_the_bound_exits_1(workdir, capsys):
    method = {"name": "wn", "kind": "winnow", "params": {"epochs": 1001}}
    (workdir / "exp.json").write_text(json.dumps(one_method_config(workdir, method)))
    assert main(["evaluate", "--config", str(workdir / "exp.json")]) == 1
    assert "epochs in 1..1000" in capsys.readouterr().err


def test_train_winnow_epochs_above_the_bound_exits_1(workdir, capsys):
    out = workdir / "winnow.json"
    rc = main(["train", "--model", "winnow", "--corpus", str(workdir / "corpus.jsonl"),
               "--out", str(out), "--epochs", "1001"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: config: winnow needs")
    assert not out.exists()


def test_member_and_epoch_bounds_are_inclusive():
    assert (semtax.evaluate.MAX_MEMBERS, semtax.classics.MAX_EPOCHS) == (1000, 1000)
    spec = semtax.evaluate.MethodSpec("e", "ensemble", params={"members": [["bayes", 1000]]})
    assert semtax.evaluate.committee_key(spec)[0] == (("bayes", 1000),)
    semtax.classics.winnow_train([("a", {"f": 1.0}), ("b", {"g": 1.0})], epochs=1000)


# values of every JSON type, none of them a large count
STRUCTURAL_POOL = (None, True, False, 0, 1, -1, 2, 1.5, -0.5, math.nan, math.inf, "", "x", "A",
                   "winnow", [], ["x"], [1, 2], [["bayes", 2]], {}, {"x": 1}, {"x": "A"})


def json_paths(value, path=()):
    """The path of value and of each value nested in it."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from json_paths(inner, path + (key,))


def replaced(value, path, new):
    """value with the value at path replaced by new."""
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


@pytest.fixture(scope="module")
def structural_inputs(tmp_path_factory):
    """A directory with the toy taxonomy, a corpus, a model file of each
    kind and an experiment config; returns the directory, the corpus
    records, the models (kind -> payload) and the config."""
    w = tmp_path_factory.mktemp("structural")
    (w / "tax.tsv").write_text(TOY_TAXONOMY, encoding="utf-8")
    records = [{"id": "d1", "text": "alpha bravo charlie", "label": "x", "categories": ["A"]},
               {"id": "d2", "text": "echo foxtrot golf jaguar", "label": "z", "categories": ["B"]},
               {"id": 3, "text": "alpha charlie delta", "label": "x", "categories": ["A1"]},
               {"id": "d4", "text": "echo golf foxtrot echo", "label": "z", "categories": []}]
    (w / "corpus.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    models = {}
    with contextlib.redirect_stderr(io.StringIO()):
        for kind in ("bayes", "winnow", "llda", "semcla"):
            taxonomy = ["--taxonomy", str(w / "tax.tsv")] if kind == "semcla" else []
            assert main(["train", "--model", kind, "--corpus", str(w / "corpus.jsonl"),
                         "--out", str(w / "model.json"), "--epochs", "2", *taxonomy]) == 0
            models[kind] = json.loads((w / "model.json").read_text())
    config = {
        "taxonomy": str(w / "tax.tsv"), "corpus_train": str(w / "corpus.jsonl"),
        "corpus_test": str(w / "corpus.jsonl"), "label_categories": {"x": "A", "z": "B"},
        "seed": 1, "alpha": 0.3, "common_subset": True, "buckets": False,
        "semcat": {"top_terms": 5, "disambig": "rank_half", "min_df": 1},
        "methods": [
            {"name": "sc", "kind": "semcat", "features": "categories"},
            {"name": "wn", "kind": "winnow", "params": {"theta": 1.0, "epochs": 2}},
            {"name": "com", "kind": "semcom", "params": {
                "members": [["bayes", 2], ["winnow", 1]], "level": 2, "sample_size": 2,
                "semcat_weights": [3.0, 1.0], "epochs": 2}},
        ],
    }
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        (w / "exp.json").write_text(json.dumps(config))
        assert main(["evaluate", "--config", str(w / "exp.json"), "--out", str(w / "out")]) == 0
    return w, records, models, config


def mutate(data, value):
    """value with one to three of its values, drawn with the paths to
    them, replaced by values of STRUCTURAL_POOL."""
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(json_paths(value))))
        value = replaced(value, path, data.draw(st.sampled_from(STRUCTURAL_POOL)))
    return value


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(["config", "bayes", "winnow", "llda", "semcla", "corpus"]), st.data())
def test_structurally_mutated_json_ends_in_a_clean_exit(structural_inputs, target, data):
    """An experiment config, a model file of each kind or a corpus record
    whose values are replaced by values of other types: the command that
    reads it exits 0, 1 or 2, prints no traceback and keeps fds 0-2
    open."""
    w, records, models, config = structural_inputs
    fuzz = w / "fuzz"
    fuzz.mkdir(exist_ok=True)
    if target == "config":
        (fuzz / "exp.json").write_text(json.dumps(mutate(data, config)))
        argv = ["evaluate", "--config", str(fuzz / "exp.json"), "--out", str(fuzz / "out.json")]
    elif target == "corpus":
        i = data.draw(st.integers(0, len(records) - 1))
        mutated = records[:i] + [mutate(data, records[i])] + records[i + 1:]
        (fuzz / "corpus.jsonl").write_text("".join(json.dumps(r) + "\n" for r in mutated))
        command = data.draw(st.sampled_from([["categorize", "--taxonomy", str(w / "tax.tsv")],
                                             ["train", "--model", "bayes"]]))
        argv = command + ["--corpus", str(fuzz / "corpus.jsonl"), "--out", str(fuzz / "out")]
    else:
        (fuzz / "model.json").write_text(json.dumps(mutate(data, models[target])))
        taxonomy = ["--taxonomy", str(w / "tax.tsv")] if data.draw(st.booleans()) else []
        argv = ["classify", "--model", str(fuzz / "model.json"),
                "--corpus", str(w / "corpus.jsonl"), "--out", str(fuzz / "out"), *taxonomy]
    err = io.StringIO()
    with standard_fds_kept(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@pytest.mark.usefixtures("collector_state_restored")
class TestCollectorPause:
    """main pauses the cyclic collector while the command runs and leaves
    it as it found it."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("raised, code", [
        (None, 0), (ConfigError("bad"), 1), (DataError("bad"), 2), (OSError("bad"), 2),
        (RuntimeError("bad"), None),
    ], ids=["exit-0", "config-error", "data-error", "os-error", "unexpected"])
    def test_state_kept(self, monkeypatch, capsys, enabled, raised, code):
        seen = []

        def command(args):
            seen.append(gc.isenabled())
            if raised is not None:
                raise raised
            return 0

        monkeypatch.setattr(semtax.cli, "cmd_build_index", command)
        (gc.enable if enabled else gc.disable)()
        argv = ["build-index", "--corpus", "c.jsonl", "--out", "bg.tsv"]
        if code is None:
            with pytest.raises(RuntimeError):
                main(argv)
        else:
            assert main(argv) == code
        assert seen == [False]
        assert gc.isenabled() is enabled

    def test_no_collection_while_categorize_runs(self, tmp_path, monkeypatch, capsys):
        """Pins the gain: with a threshold so low that almost any young
        allocation starts a collection, none starts inside the command."""
        write_command_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["build-index", "--corpus", "corpus.jsonl", "--out", "bg.tsv"]) == 0
        running, starts = [], []
        categorize = semtax.cli.cmd_categorize

        def command(args):
            running.append(True)
            try:
                return categorize(args)
            finally:
                running.pop()

        def hook(phase, info):
            if phase == "start" and running:
                starts.append(info["generation"])

        monkeypatch.setattr(semtax.cli, "cmd_categorize", command)
        threshold = gc.get_threshold()
        gc.enable()
        gc.set_threshold(10)
        gc.callbacks.append(hook)
        try:
            assert main(["categorize", "--taxonomy", "tax.tsv", "--corpus", "corpus.jsonl",
                         "--background", "bg.tsv", "--out", "cat.tsv"]) == 0
        finally:
            gc.callbacks.remove(hook)
            gc.set_threshold(*threshold)
        assert starts == []

    def test_no_command_leaves_a_cycle_per_document(self, tmp_path, monkeypatch, capsys):
        """Pins the premise: what a command leaves to the collector does not
        grow with the corpus, so the pause lets nothing build up."""
        argvs = [
            "build-index --corpus corpus.jsonl --out bg.tsv",
            "categorize --taxonomy tax.tsv --corpus corpus.jsonl --out cat.tsv",
            "train --model semcla --taxonomy tax.tsv --corpus corpus.jsonl --out semcla.json",
            "classify --model semcla.json --taxonomy tax.tsv --corpus corpus.jsonl --out sc.tsv",
            "evaluate --config exp.json --out report.json",
        ]
        cyclic = {}
        gc.disable()
        for docs in (8, 8, 80):  # the first run of a command may import modules
            w = tmp_path / str(docs)
            w.mkdir(exist_ok=True)
            write_command_inputs(w, docs)
            monkeypatch.chdir(w)
            counts = []
            for argv in argvs:
                gc.collect()
                assert main(argv.split()) == 0
                counts.append(gc.collect())
            cyclic[docs] = counts
        assert cyclic[80] == cyclic[8]
