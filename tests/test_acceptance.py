"""Acceptance suite: one test per criterion, each printing a PASS line
once its assertions hold.  Run with `pytest tests/test_acceptance.py -s`
to see the lines."""

import math
import random
from collections import Counter

import pytest

from semtax.classics import llda_train, nb_predict, nb_train, winnow_predict, winnow_train
from semtax.corpus import Document
from semtax.ensemble import Vote, aggregate, class_pools
from semtax.errors import EmptyVectorError, TrainingError
from semtax.evaluate import (
    ExperimentConfig,
    MethodSpec,
    lin_precision,
    paired_t_test,
    precision,
    run_experiment,
)
from semtax.semcat import SemCatConfig, assign_concepts, project_to_categories
from semtax.semcla import DEFAULT_ALPHA_GRID, calibrate_alpha, cosine, extend_vector
from semtax.synth import (
    make_calibration_groups,
    make_gap_benchmark,
    random_taxonomy,
    random_term_vector,
)
from semtax.taxonomy import (
    concept_count,
    information_content,
    msca,
    sim_lin,
    sim_pirro_seco,
)

from oracles import brute_msca, links


def _ok(n, msg):
    print("ACCEPTANCE %d PASS: %s" % (n, msg))


def test_criterion_1_taxonomy_properties():
    for seed in range(100):
        rng = random.Random(seed)
        tax = random_taxonomy(rng, max_categories=50, max_concepts=100)
        assert information_content(tax, tax.root) == 0.0
        n = tax.total_concepts
        for k in tax.category_labels:
            ic = information_content(tax, k)
            assert 0.0 <= ic <= 1.0
            s = concept_count(tax, k)
            base2 = 1 - math.log2(1 + s) / math.log2(1 + n)
            assert abs(ic - base2) <= 1e-12
            for p in tax.parents[k]:
                assert information_content(tax, p) <= ic + 1e-12
        parents, concept_cats = links(tax)
        cats = sorted(tax.category_labels)
        for _ in range(10):
            k1, k2 = rng.choice(cats), rng.choice(cats)
            assert msca(tax, k1, k2) == brute_msca(parents, concept_cats, k1, k2)
            for fn in (sim_lin, sim_pirro_seco):
                s12, s21 = fn(tax, k1, k2), fn(tax, k2, k1)
                assert s12 == pytest.approx(s21, abs=1e-12)
                assert -1e-12 <= s12 <= 1.0 + 1e-12
    _ok(1, "IC/msca/similarity properties on 100 random DAGs")


def test_criterion_2_toy_exactness(toy_tax):
    # IC on the toy fixture: s_B=3, N=7 -> 1 - log4/log8 = 1/3 exactly
    assert abs(information_content(toy_tax, "B") - (1 - math.log(4) / math.log(8))) <= 1e-9
    assert abs(information_content(toy_tax, "B") - 1 / 3) <= 1e-9

    ic = lambda s: 1 - math.log(1 + s) / math.log(8)
    expected_lin = 2 * ic(4) / (ic(2) + ic(1))
    assert abs(sim_lin(toy_tax, "A1", "A2") - expected_lin) <= 1e-9

    nb = nb_train([("c", {"x": 2, "y": 1})])
    assert abs(nb.likelihoods["c"]["x"] - 0.6) <= 1e-9

    winnow = winnow_train([("c", {"f1": 1.0})], theta=1.0, alpha=1.1, beta=0.9, epochs=1)
    wp, wn = winnow.weights["c"]["f1"]
    assert abs(wp - 1.1) <= 1e-9 and abs(wn - 0.45) <= 1e-9

    assert abs(cosine({"A": 1.0}, {"A": 1.0, "B": 1.0}) - 1 / math.sqrt(2)) <= 1e-9

    votes = [
        Vote("A", 1.0, 1), Vote("B", 1.0, 1),
        Vote("B", 7.0, 1), Vote("C", 5.0, 2), Vote("A", 3.0, 3),
    ]
    assert aggregate(votes, "weighted") == "B"

    t, _ = paired_t_test([1.0, 0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0, 0.0])
    diffs = (1, -1, 1, -1, 1)
    sd = math.sqrt(sum((d - 0.2) ** 2 for d in diffs) / 4)
    assert abs(t - 0.2 / (sd / math.sqrt(5))) <= 1e-9
    _ok(2, "all derived toy-fixture values reproduced within 1e-9")


def test_criterion_3_conservation():
    checked = 0
    for seed in range(70):
        rng = random.Random(1000 + seed)
        tax = random_taxonomy(rng, max_categories=25, max_concepts=50)
        for _ in range(4):
            v = random_term_vector(rng, tax)
            for method in ("nearest", "rank_half", "rank_inv", "uniform"):
                try:
                    a = assign_concepts(v, tax, SemCatConfig(disambig=method))
                except EmptyVectorError:
                    continue
                cats = project_to_categories(a, tax)
                assert abs(sum(cats.values()) - a.total_weight()) <= 1e-9
                checked += 1
            alpha = rng.random()
            cats = sorted(tax.category_labels)
            base = {k: rng.random() for k in rng.sample(cats, min(3, len(cats)))}
            ext = extend_vector(base, tax, alpha)
            root_mass = sum(w for k, w in base.items() if not tax.parents[k])
            expected_added = alpha * (sum(base.values()) - root_mass)
            assert abs(sum(ext.values()) - sum(base.values()) - expected_added) <= 1e-9
    assert checked >= 1000
    _ok(3, "weight conservation over %d random document/method checks" % checked)


def test_criterion_4_classifier_sanity():
    # Winnow: linearly separable 200-point set, margin >= 0.1 by construction
    rng = random.Random(7)
    docs = []
    for i in range(200):
        label = "pos" if i % 2 == 0 else "neg"
        own = "p" if label == "pos" else "n"
        feats = {"%s%d" % (own, j): 0.5 + 0.5 * rng.random() for j in rng.sample(range(5), 3)}
        docs.append((label, feats))
    model = winnow_train(docs, theta=1.0, alpha=1.1, beta=0.9, epochs=50)
    assert all(winnow_predict(model, x)[0][0] == lab for lab, x in docs)

    # NB equals brute-force posterior on small fixtures
    fixtures = [
        [("a", {"x": 1}), ("b", {"y": 1})],
        [("a", {"x": 2, "y": 1}), ("a", {"x": 1}), ("b", {"y": 3}), ("c", {"z": 1, "x": 1})],
        [("a", {"x": 1, "y": 1, "z": 1}), ("b", {"x": 2}), ("b", {"z": 2}), ("c", {"y": 4}), ("c", {"x": 1, "z": 1})],
    ]
    for docs_f in fixtures:
        nb = nb_train(docs_f)
        vocab = {w for _, d in docs_f for w in d}
        classes = sorted({lab for lab, _ in docs_f})
        for bag in ({}, {"x": 1}, {"x": 1, "y": 2}, {"z": 3}):
            expected = {}
            for cls in classes:
                cls_docs = [d for lab, d in docs_f if lab == cls]
                total = sum(sum(d.values()) for d in cls_docs)
                score = math.log(len(cls_docs) / len(docs_f))
                for w, nw in bag.items():
                    if w in vocab:
                        cnt = sum(d.get(w, 0) for d in cls_docs)
                        score += nw * math.log((1 + cnt) / (len(vocab) + total))
                expected[cls] = score
            got = nb_predict(nb, bag)
            want = sorted(expected.items(), key=lambda t: (-t[1], t[0]))
            assert [l for l, _ in got] == [l for l, _ in want]
            for (_, gs), (_, es) in zip(got, want):
                assert abs(gs - es) <= 1e-9

    # LLDA single-label == smoothed relative frequency, exactly
    docs_l = [(["a"], ["x", "x", "y"]), (["a"], ["z"]), (["b"], ["y", "y"])]
    llda = llda_train(docs_l, a_word=0.01)
    vocab = ["x", "y", "z"]
    for lab, toks in ((("a"), ["x", "x", "y", "z"]), (("b"), ["y", "y"])):
        counts = Counter(toks)
        total = sum(counts.values())
        for w in vocab:
            expected = (counts[w] + 0.01) / (total + 3 * 0.01)
            assert llda.phi[lab][w] == pytest.approx(expected, abs=1e-12)
    _ok(4, "winnow convergence, NB posterior oracle, LLDA closed form")


def test_criterion_5_ensemble_determinism():
    labels = list("abcd")
    for seed in range(1000):
        rng = random.Random(seed)
        votes = [Vote(rng.choice(labels)) for _ in range(rng.randint(1, 10))]
        tally = Counter(v.label for v in votes)
        best = max(tally.values())
        winners = sorted(l for l, c in tally.items() if c == best)
        got = aggregate(votes, "single_vote", seed=seed)
        expected = winners[0] if len(winners) == 1 else random.Random(seed).choice(winners)
        assert got == expected

    bench = make_gap_benchmark(docs_per_side=60, seed=5)
    cfg_kwargs = dict(
        taxonomy=bench.taxonomy,
        background=bench.background,
        train_docs=bench.train_docs,
        test_docs=bench.test_docs,
        methods=[MethodSpec("nb", "bayes"), MethodSpec("semcla", "semcla")],
        label_categories=bench.label_categories,
        seed=17,
    )
    r1 = run_experiment(ExperimentConfig(**cfg_kwargs))
    r2 = run_experiment(ExperimentConfig(**cfg_kwargs))
    assert r1.to_json().encode() == r2.to_json().encode()

    for seed in range(50):
        rng = random.Random(seed)
        tax = random_taxonomy(rng, max_categories=15, max_concepts=20)
        cats = sorted(tax.category_labels)
        docs = [
            Document("d%d" % i, "", categories=(rng.choice(cats),)) for i in range(25)
        ]
        class_cat = rng.choice(cats)
        pools = {}
        for level in ("1", "2", "inf"):
            try:
                pools[level] = set(
                    class_pools(tax, {"x": class_cat}, docs, level)["x"]
                )
            except TrainingError:
                pools[level] = set()
        assert pools["1"] <= pools["2"] <= pools["inf"]
    _ok(5, "vote tally oracle, byte-identical reports, eligibility monotone")


def test_criterion_6_semantic_gap():
    bench = make_gap_benchmark(docs_per_side=210, seed=11)
    methods = [
        MethodSpec("nb_terms", "bayes", features="terms"),
        MethodSpec("winnow_terms", "winnow", features="terms"),
        MethodSpec("nb_categories", "bayes", features="categories"),
        MethodSpec("winnow_categories", "winnow", features="categories"),
        MethodSpec("semcla", "semcla"),
    ]
    cfg = ExperimentConfig(
        taxonomy=bench.taxonomy,
        background=bench.background,
        train_docs=bench.train_docs,
        test_docs=bench.test_docs,
        methods=methods,
        label_categories=bench.label_categories,
        seed=23,
    )
    report = run_experiment(cfg)
    p = {r.name: r.overall_precision for r in report.results}
    chance = 1 / 3
    assert abs(p["nb_terms"] - chance) <= 0.15
    assert abs(p["winnow_terms"] - chance) <= 0.15
    assert p["semcla"] >= 0.9
    assert p["nb_categories"] > p["nb_terms"]
    assert p["winnow_categories"] > p["winnow_terms"]
    _ok(
        6,
        "semantic gap: terms~chance (%.2f/%.2f), semcla %.2f, categories > terms"
        % (p["nb_terms"], p["winnow_terms"], p["semcla"]),
    )


def test_criterion_7_metric_identities(toy_tax):
    import io

    from semtax.taxonomy import parse_taxonomy

    label_map = {"x": "A1", "y": "A2", "z": "B1"}
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 20)
        preds = [rng.choice("xyz") for _ in range(n)]
        truths = [rng.choice("xyz") for _ in range(n)]
        assert lin_precision(preds, truths, toy_tax, label_map) >= precision(preds, truths) - 1e-12

    text = (
        "C\tR\tRoot\t\nC\tK1\tk1\tR\nC\tK2\tk2\tR\nC\tK3\tk3\tR\n"
        "P\tp1\tK1\ta\nP\tp2\tK2\tb\nP\tp3\tK3\tc\n"
    )
    flat = parse_taxonomy(io.StringIO(text))
    flat_map = {"x": "K1", "y": "K2", "z": "K3"}
    for _ in range(50):
        n = rng.randint(1, 20)
        preds = [rng.choice("xyz") for _ in range(n)]
        truths = [rng.choice("xyz") for _ in range(n)]
        assert lin_precision(preds, truths, flat, flat_map) == pytest.approx(
            precision(preds, truths), abs=1e-12
        )
    _ok(7, "lin_precision >= precision; equality on the flat taxonomy")


def test_criterion_8_calibration():
    tax, stats, groups = make_calibration_groups()
    a1 = calibrate_alpha(groups, tax, stats)
    a2 = calibrate_alpha(groups, tax, stats)
    assert a1 == a2
    assert a1 in DEFAULT_ALPHA_GRID
    assert a1 > 0.0
    _ok(8, "calibrated alpha %.2f is a positive grid member, deterministic" % a1)
