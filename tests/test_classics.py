import itertools
import math
import random
import re
from collections import Counter

import pytest

from hypothesis import example, given, settings, strategies as st

from semtax.errors import ConfigError, TrainingError
from semtax.classics import (
    LinearScorer,
    llda_predict,
    llda_train,
    nb_predict,
    nb_train,
    winnow_predict,
    winnow_train,
)
from oracles import (
    brute_llda_phi,
    brute_llda_predict,
    brute_nb_predict,
    brute_nb_train,
    brute_winnow_predict,
    brute_winnow_train,
)


class TestNaiveBayes:
    def test_likelihood_hand_value(self):
        model = nb_train([("c", {"x": 2, "y": 1})])
        # vocab {x, y} (k=2): P(x|c) = (1+2)/(2+3) = 0.6
        assert model.likelihoods["c"]["x"] == pytest.approx(0.6, abs=1e-9)
        assert model.likelihoods["c"]["y"] == pytest.approx(0.4, abs=1e-9)

    def test_smoothing_floor(self):
        model = nb_train([("c", {"x": 3}), ("d", {"y": 2})])
        # y absent from c: 1/(k + total_c) > 0
        assert model.likelihoods["c"]["y"] == pytest.approx(1 / (2 + 3))
        assert model.likelihoods["c"]["y"] > 0

    def test_priors(self):
        docs = [("c", {"x": 1})] + [("d", {"y": 1})] * 3
        model = nb_train(docs)
        assert model.priors == {"c": 0.25, "d": 0.75}

    def test_likelihoods_normalize(self):
        model = nb_train([("c", {"x": 2, "y": 5}), ("d", {"z": 1})])
        for c in model.priors:
            assert sum(model.likelihoods[c].values()) == pytest.approx(1.0, abs=1e-9)
        assert sum(model.priors.values()) == pytest.approx(1.0)

    def test_empty_training_set(self):
        with pytest.raises(TrainingError):
            nb_train([])

    def test_all_bags_empty(self):
        with pytest.raises(TrainingError, match="every training bag is empty"):
            nb_train([("a", {}), ("b", {})])

    def test_empty_doc_ranks_by_priors(self):
        model = nb_train([("c", {"x": 1})] + [("d", {"y": 1})] * 3)
        ranking = nb_predict(model, {})
        assert ranking[0][0] == "d"
        assert ranking[0][1] == pytest.approx(math.log(0.75))

    def test_matching_class_wins(self):
        model = nb_train([("c", {"x": 2, "y": 1}), ("d", {"y": 3})])
        assert nb_predict(model, {"x": 2})[0][0] == "c"

    def test_count_exponent(self):
        model = nb_train([("c", {"x": 2, "y": 1})])
        score = nb_predict(model, {"x": 2})[0][1]
        assert score == pytest.approx(math.log(1.0) + 2 * math.log(0.6))

    def test_brute_force_posterior_oracle(self):
        # oracle: unnormalized posterior computed from explicitly
        # enumerated counts
        docs = [
            ("a", {"x": 1, "y": 2}),
            ("a", {"x": 3}),
            ("b", {"y": 1, "z": 1}),
            ("b", {"z": 4}),
            ("c", {"x": 1, "z": 1}),
        ]
        model = nb_train(docs)
        vocab = {"x", "y", "z"}
        test_bags = [{"x": 2}, {"y": 1, "z": 2}, {"x": 1, "y": 1, "z": 1}, {}]
        for bag in test_bags:
            expected = {}
            for cls in ("a", "b", "c"):
                cls_docs = [d for lab, d in docs if lab == cls]
                total = sum(sum(d.values()) for d in cls_docs)
                score = math.log(len(cls_docs) / len(docs))
                for w, n in bag.items():
                    cnt = sum(d.get(w, 0) for d in cls_docs)
                    score += n * math.log((1 + cnt) / (len(vocab) + total))
                expected[cls] = score
            ranked = sorted(expected.items(), key=lambda t: (-t[1], t[0]))
            got = nb_predict(model, bag)
            assert [l for l, _ in got] == [l for l, _ in ranked]
            for (gl, gs), (el, es) in zip(got, ranked):
                assert gs == pytest.approx(es, abs=1e-9)


class TestWinnow:
    def test_correct_prediction_keeps_weights(self):
        # single positive doc with margin above theta: never misclassified
        model = winnow_train([("c", {"f": 1.0})], theta=0.4, epochs=5)
        assert model.weights["c"]["f"] == (1.0, 0.5)

    def test_promotion_trace(self):
        # theta=1, margin 1.0-0.5 = 0.5 <= theta -> false negative, promote
        model = winnow_train(
            [("c", {"f1": 1.0, "f2": 0.0})],
            theta=1.0, alpha=1.1, beta=0.9, epochs=1,
        )
        wp, wn = model.weights["c"]["f1"]
        assert wp == pytest.approx(1.1, abs=1e-9)
        assert wn == pytest.approx(0.45, abs=1e-9)
        # inactive feature untouched
        assert model.weights["c"]["f2"] == (1.0, 0.5)

    def test_demotion_trace(self):
        # negative doc for label d predicted positive at init is demoted
        model = winnow_train(
            [("c", {"f1": 1.0}), ("d", {"f2": 1.0})],
            theta=0.4, alpha=1.1, beta=0.9, epochs=1,
        )
        wp, wn = model.weights["d"]["f1"]
        assert wp == pytest.approx(0.9, abs=1e-9)
        assert wn == pytest.approx(0.55, abs=1e-9)

    def test_margin_value_after_promotion(self):
        model = winnow_train(
            [("c", {"f1": 1.0})], theta=1.0, alpha=1.1, beta=0.9, epochs=1
        )
        ranking = winnow_predict(model, {"f1": 1.0})
        assert ranking == [("c", pytest.approx(1.1 - 0.45 - 1.0, abs=1e-9))]

    def test_all_zero_vector(self):
        model = winnow_train([("a", {"f": 1.0}), ("b", {"g": 1.0})], theta=1.0)
        ranking = winnow_predict(model, {})
        assert [l for l, _ in ranking] == ["a", "b"]
        assert all(s == -1.0 for _, s in ranking)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ConfigError):
            winnow_train([("a", {"f": 1.0})], alpha=0.9)
        with pytest.raises(ConfigError):
            winnow_train([("a", {"f": 1.0})], beta=1.5)

    def test_weight_past_the_float_range_is_training_error(self):
        # contradictory bags: label a is promoted by alpha, then demoted by
        # alpha, so its w- reaches 0.45 * 1e200 ** 2 in the second epoch
        bags = [("a", {"f": 1.0}), ("b", {"f": 1.0})]
        assert winnow_train(bags, alpha=1e200, epochs=1).weights["a"]["f"] == (
            pytest.approx(9e199), pytest.approx(4.5e199))
        with pytest.raises(TrainingError,
                           match=r"winnow alpha 1e\+200 drove a weight of label a past"):
            winnow_train(bags, alpha=1e200, epochs=2)

    def test_weights_stay_positive(self):
        rng = random.Random(3)
        docs = [
            (rng.choice("ab"), {f: rng.random() for f in rng.sample("fghij", 3)})
            for _ in range(40)
        ]
        model = winnow_train(docs, epochs=20)
        for w in model.weights.values():
            for wp, wn in w.values():
                assert wp > 0 and wn > 0

    def test_converges_on_separable_data(self):
        rng = random.Random(7)
        docs = []
        for i in range(200):
            label = "pos" if i % 2 == 0 else "neg"
            feats = {}
            own = "p" if label == "pos" else "n"
            for j in rng.sample(range(5), 3):
                feats["%s%d" % (own, j)] = 0.5 + 0.5 * rng.random()
            docs.append((label, feats))
        model = winnow_train(docs, theta=1.0, alpha=1.1, beta=0.9, epochs=50)
        correct = sum(
            winnow_predict(model, x)[0][0] == lab for lab, x in docs
        )
        assert correct == len(docs)


class TestLabeledLda:
    def closed_form_phi(self, docs, a_word):
        """Smoothed per-class relative frequency for single-label corpora."""
        vocab = sorted({w for _, toks in docs for w in toks})
        labels = sorted({lab for labs, _ in docs for lab in labs})
        phi = {}
        for lab in labels:
            counts = {w: 0 for w in vocab}
            for labs, toks in docs:
                if labs == [lab]:
                    for w in toks:
                        counts[w] += 1
            total = sum(counts.values())
            phi[lab] = {
                w: (counts[w] + a_word) / (total + len(vocab) * a_word)
                for w in vocab
            }
        return phi

    def test_single_label_matches_closed_form(self):
        docs = [
            (["a"], ["x", "x", "y"]),
            (["a"], ["y"]),
            (["b"], ["z", "z"]),
        ]
        model = llda_train(docs, a_word=0.01)
        expected = self.closed_form_phi(docs, 0.01)
        for lab in expected:
            for w in expected[lab]:
                assert model.phi[lab][w] == pytest.approx(expected[lab][w], abs=1e-12)

    def test_phi_rows_normalize(self):
        docs = [(["a", "b"], ["x", "y", "z"]), (["a"], ["x"]), (["b"], ["y"])]
        model = llda_train(docs, iterations=30, seed=1)
        for lab in model.topics:
            assert sum(model.phi[lab].values()) == pytest.approx(1.0, abs=1e-9)

    def test_seed_determinism(self):
        docs = [(["a", "b"], ["x", "y", "z", "x"]), (["a"], ["x"]), (["b"], ["y"])]
        m1 = llda_train(docs, iterations=40, seed=9)
        m2 = llda_train(docs, iterations=40, seed=9)
        assert m1.phi == m2.phi

    def test_assignments_restricted_to_doc_labels(self):
        docs = [(["a", "b"], ["x"] * 20), (["c"], ["y"] * 5)]
        model = llda_train(docs, iterations=100, seed=2)
        # all mass for x sits in topics a/b, never c
        n_c_x = model.phi["c"]["x"]
        floor = model.a_word / (5 + 2 * model.a_word)  # vocab {x, y}
        assert n_c_x == pytest.approx(floor)

    def test_empty_label_set_is_error(self):
        with pytest.raises(TrainingError):
            llda_train([([], ["x"])])

    @pytest.mark.parametrize("params", [{"a_word": 0}, {"a_word": -1.0}, {"iterations": -1}])
    def test_out_of_range_params_are_config_errors(self, params):
        docs = [(["x"], ["a", "b"]), (["y"], ["c"])]
        with pytest.raises(ConfigError, match="llda needs a_word > 0, iterations >= 0"):
            llda_train(docs, **params)

    @pytest.mark.parametrize("docs, a_word, zero", [
        # a_word * V overflows, so every phi is 0
        ([(["a"], ["x"]), (["b"], ["y"])], 1e308, "phi(x|a) = 0.0"),
        # a_word over 10 tokens of x underflows
        ([(["a"], ["x"] * 10), (["b"], ["y"])], 5e-324, "phi(y|a) = 0.0"),
    ], ids=["overflow", "underflow"])
    def test_a_word_that_makes_a_phi_zero_is_training_error(self, docs, a_word, zero):
        with pytest.raises(TrainingError, match=re.escape(
                "llda a_word %r makes %s, not a positive finite number" % (a_word, zero))):
            llda_train(docs, a_word=a_word)

    def test_predict_prefers_own_vocabulary(self):
        docs = [(["a"], ["x", "x"]), (["b"], ["y", "y"])]
        model = llda_train(docs)
        assert llda_predict(model, {"x": 3})[0][0] == "a"
        assert llda_predict(model, {"y": 3})[0][0] == "b"

    def test_empty_doc_label_order(self):
        docs = [(["b"], ["y"]), (["a"], ["x"])]
        model = llda_train(docs)
        ranking = llda_predict(model, {})
        assert ranking == [("a", 0.0), ("b", 0.0)]

    def test_uniform_phi_all_equal(self):
        docs = [(["a"], ["x"]), (["b"], ["x"])]
        model = llda_train(docs)
        scores = [s for _, s in llda_predict(model, {"x": 2})]
        assert scores[0] == pytest.approx(scores[1])


@pytest.mark.parametrize("train, params", [
    (winnow_train, {"theta": math.nan}),
    (winnow_train, {"theta": -math.inf}),
    (winnow_train, {"alpha": math.inf}),
    (winnow_train, {"alpha": math.nan}),
    (winnow_train, {"beta": math.nan}),
    (llda_train, {"a_word": math.inf}),
    (llda_train, {"a_word": math.nan}),
])
def test_non_finite_hyperparameters_are_config_errors(train, params):
    docs = ([("a", {"f": 1.0}), ("b", {"g": 1.0})] if train is winnow_train
            else [(["a"], ["f"]), (["b"], ["g"])])
    with pytest.raises(ConfigError):
        train(docs, **params)


FEATURES = "fghij"
weights = st.sampled_from([0, 0.0, 0.5, 1, 2.5, 3])
train_bags = st.lists(
    st.tuples(st.sampled_from("abcd"),
              st.dictionaries(st.sampled_from(FEATURES), weights, min_size=1)),
    min_size=1, max_size=8,
)
# "X" and "Y" are outside every model's features; the empty bag and zero
# weights are drawn too
test_bags = st.lists(st.dictionaries(st.sampled_from(FEATURES + "XY"), weights), max_size=4)


def train_all(kind, labeled):
    if kind == "bayes":
        return nb_train(labeled), brute_nb_predict
    if kind == "winnow":
        return winnow_train(labeled, epochs=3), brute_winnow_predict
    docs = [([lab], [f for f, v in sorted(bag.items()) for _ in range(int(v))])
            for lab, bag in labeled]
    return llda_train(docs), brute_llda_predict


def assert_same_ranking(got, want):
    assert [lab for lab, _ in got] == [lab for lab, _ in want]
    for (_, g), (_, w) in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12, abs=1e-12)


class TestLinearScorerMatchesOracle:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.sampled_from(["bayes", "winnow", "llda"]), train_bags, test_bags)
    def test_single_model(self, kind, labeled, bags):
        model, oracle = train_all(kind, labeled)
        predict = {"bayes": nb_predict, "winnow": winnow_predict, "llda": llda_predict}[kind]
        for bag in bags + [{}]:
            assert_same_ranking(predict(model, bag), oracle(model, bag))
        for (ranking,), bag in zip(model.linear.rankings(bags), bags):
            assert_same_ranking(ranking, oracle(model, bag))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["bayes", "winnow", "llda"]), train_bags),
                    min_size=1, max_size=5),
           test_bags, st.integers(1, 4))
    def test_stacked_committee(self, specs, bags, depth):
        # members trained on different samples have different label and
        # feature sets
        members = [train_all(kind, labeled) for kind, labeled in specs]
        stacked = LinearScorer.stack([model.linear for model, _ in members])
        for got, bag in zip(stacked.rankings(bags, depth), bags):
            assert len(got) == len(members)
            for ranking, (model, oracle) in zip(got, members):
                assert_same_ranking(ranking, oracle(model, bag)[:depth])


def exact(x):
    """x with every float in its hex form, so that equal means bit-equal
    (0.0 and -0.0 differ)."""
    if isinstance(x, dict):
        return {k: exact(v) for k, v in x.items()}
    if isinstance(x, tuple):
        return tuple(exact(v) for v in x)
    return x.hex() if isinstance(x, float) else x


def trained(train, *args, **kwargs):
    """The model's fields, bit for bit, or the error type it raised."""
    try:
        return exact(vars(train(*args, **kwargs)))
    except (TrainingError, ZeroDivisionError) as exc:
        return type(exc)


# float weights, zeros of both signs and negative values; a feature
# repeats across bags and labels
trainer_values = st.one_of(st.sampled_from([0, 0.0, -0.0, 1, 2, -1.0, 0.5]),
                           st.floats(-4.0, 4.0, allow_nan=False))
trainer_bags = st.lists(
    st.tuples(st.sampled_from("abc"),
              st.dictionaries(st.sampled_from(FEATURES), trainer_values, max_size=5)),
    max_size=10,
)


class TestTrainersMatchOracle:
    """nb_train and winnow_train do the float operations of the
    Counter- and tuple-based reference trainers in the same order, so
    their models are bit-identical."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(trainer_bags)
    @example([("a", {"f": 1.5, "g": -1.0}), ("a", {"f": 0.25}), ("b", {"g": 1.0})])
    @example([("a", {"f": -1.0})])  # the smoothing denominator is 0
    def test_naive_bayes(self, labeled):
        assert trained(nb_train, labeled) == trained(brute_nb_train, labeled)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(trainer_bags, st.floats(-1.0, 3.0), st.floats(1.01, 2.0), st.floats(0.5, 0.99),
           st.integers(1, 8))
    # separable: stops after a mistake-free epoch, well before the 50th
    @example([("a", {"f": 1.0}), ("b", {"g": 1.0})], 1.0, 1.1, 0.9, 50)
    # contradictory: a mistake in every epoch, so all 4 run
    @example([("a", {"f": 1.0}), ("b", {"f": 1.0})], 1.0, 1.1, 0.9, 4)
    # a first margin equal to theta, (1 - 0.5) * 2, predicts negative
    @example([("a", {"f": 2.0})], 1.0, 1.1, 0.9, 1)
    def test_winnow(self, labeled, theta, alpha, beta, epochs):
        params = dict(theta=theta, alpha=alpha, beta=beta, epochs=epochs)
        assert trained(winnow_train, labeled, **params) == trained(
            brute_winnow_train, labeled, **params)


@pytest.mark.parametrize("kind", ["bayes", "winnow", "llda"])
def test_non_positive_values_add_nothing(kind):
    model, _ = train_all(kind, [("a", {"f": 2, "g": 1}), ("b", {"g": 3})])
    base = model.linear.ranking({"g": 1})
    assert model.linear.ranking({"g": 1, "f": -2.0}) == base
    assert model.linear.ranking({"g": 1, "f": 0}) == base


class TestLldaClosedForm:
    docs = st.lists(
        st.tuples(st.sampled_from("abc"), st.lists(st.sampled_from(FEATURES), max_size=6)),
        min_size=1, max_size=6)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(docs, st.floats(0.1, 50.0), st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_single_label_phi_equals_sampler(self, docs, a_doc, iterations, seed):
        # the sampler draws nothing but each document's one label
        labeled = [([lab], tokens) for lab, tokens in docs]
        model = llda_train(labeled, a_doc=a_doc, a_word=0.01, iterations=iterations, seed=seed)
        assert model.phi == brute_llda_phi(labeled, a_doc, 0.01, iterations, seed)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.sets(st.sampled_from("abc"), min_size=2),
                              st.lists(st.sampled_from(FEATURES), max_size=6)),
                    min_size=1, max_size=6),
           st.floats(0.1, 50.0), st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_multi_label_phi_equals_sampler(self, docs, a_doc, iterations, seed):
        # with no single-label document both draw the same topics
        labeled = [(sorted(labels), tokens) for labels, tokens in docs]
        model = llda_train(labeled, a_doc=a_doc, a_word=0.01, iterations=iterations, seed=seed)
        assert model.phi == brute_llda_phi(labeled, a_doc, 0.01, iterations, seed)

    def test_single_label_documents_draw_nothing(self, monkeypatch):
        draws = []

        class Counting(random.Random):
            def choice(self, seq):
                draws.append(seq)
                return super().choice(seq)

        monkeypatch.setattr(random, "Random", Counting)
        llda_train([(["a"], ["x", "y"]), (["b"], ["z"] * 5)], iterations=3, seed=1)
        assert draws == []
        llda_train([(["a", "b"], ["x", "y"]), (["b"], ["z"] * 5)], iterations=0, seed=1)
        assert draws == [["a", "b"]] * 2

    def test_mixed_corpus_splits_multi_label_tokens(self):
        docs = [(["a", "b"], ["x"] * 30), (["a"], ["y"] * 3), (["b"], ["z"] * 3)]
        model = llda_train(docs, iterations=20, seed=4)
        a = model.a_word
        # y (z) occurs 3 times, only in a's (b's) single-label document,
        # which fixes each topic's denominator and so its count of x
        x_in = {t: model.phi[t]["x"] * (3 + a) / model.phi[t][w] - a
                for t, w in (("a", "y"), ("b", "z"))}
        assert x_in["a"] + x_in["b"] == pytest.approx(30)
        assert x_in["a"] > 0 and x_in["b"] > 0

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(docs)
    def test_unit_a_word_is_naive_bayes(self, docs):
        model = llda_train([([lab], tokens) for lab, tokens in docs], a_word=1.0)
        if model.vocabulary:
            nb = nb_train([(lab, Counter(tokens)) for lab, tokens in docs])
            assert model.phi == nb.likelihoods
