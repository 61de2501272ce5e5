import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from semtax.classics import LinearScorer, nb_train, winnow_train
from semtax.corpus import Document
from semtax.ensemble import (
    AGGREGATION_MODES,
    BaggingEnsemble,
    Vote,
    aggregate,
    class_pools,
    derive_seed,
    draw_samples,
    draw_training_sample,
    project_category_to_label,
    semcom_predict,
    train_committee,
)
from semtax.errors import DataError, TrainingError
from semtax.synth import random_taxonomy
from oracles import brute_committee_predict, brute_nb_train, brute_winnow_train
from test_classics import test_bags, train_all, train_bags


def docs_with(annotations):
    return [Document(id="d%d" % i, text="", categories=(a,)) for i, a in enumerate(annotations)]


class TestDrawTrainingSample:
    def test_level_1_exact_only(self, toy_tax):
        docs = docs_with(["A", "A1"])
        got = draw_training_sample(class_pools(toy_tax, {"x": "A"}, docs, "1"), 10, seed=0)
        assert got == {"x": ["d0"]}

    def test_level_2_adds_direct_subcategories(self, toy_tax):
        docs = docs_with(["A", "A1"])
        got = draw_training_sample(class_pools(toy_tax, {"x": "A"}, docs, "2"), 10, seed=0)
        assert got == {"x": ["d0", "d1"]}

    def test_level_inf_any_descendant(self, toy_tax):
        docs = docs_with(["R", "A", "A1", "B1"])
        got = draw_training_sample(class_pools(toy_tax, {"x": "R"}, docs, "inf"), 10, seed=0)
        assert got == {"x": ["d0", "d1", "d2", "d3"]}

    def test_pool_smaller_than_sample(self, toy_tax):
        docs = docs_with(["A", "A"])
        got = draw_training_sample(class_pools(toy_tax, {"x": "A"}, docs, "1"), 50, seed=0)
        assert got == {"x": ["d0", "d1"]}

    def test_no_eligible_docs_is_error(self, toy_tax):
        docs = docs_with(["B1"])
        with pytest.raises(TrainingError):
            class_pools(toy_tax, {"x": "A"}, docs, "1")

    def test_seeded_and_deterministic(self, toy_tax):
        docs = docs_with(["A"] * 20)
        a = draw_training_sample(class_pools(toy_tax, {"x": "A"}, docs, "1"), 5, seed=3)
        b = draw_training_sample(class_pools(toy_tax, {"x": "A"}, docs, "1"), 5, seed=3)
        assert a == b and len(a["x"]) == 5

    def test_eligibility_monotone(self, toy_tax):
        rng = random.Random(0)
        cats = sorted(toy_tax.category_labels)
        docs = docs_with([rng.choice(cats) for _ in range(30)])
        pools = {}
        for level in ("1", "2", "inf"):
            pools[level] = set(
                class_pools(toy_tax, {"x": "A"}, docs, level)["x"]
            )
        assert pools["1"] <= pools["2"] <= pools["inf"]


class TestAggregate:
    def test_majority(self):
        votes = [Vote("A"), Vote("A"), Vote("B")]
        assert aggregate(votes, "single_vote") == "A"

    def test_weighted_with_semcat_injection(self):
        votes = [
            Vote("A", 1.0, 1), Vote("B", 1.0, 1),
            Vote("B", 7.0, 1), Vote("C", 5.0, 2), Vote("A", 3.0, 3),
        ]
        assert aggregate(votes, "weighted") == "B"

    def test_rank_borda(self):
        votes = [
            Vote("A", rank=1), Vote("B", rank=2), Vote("C", rank=3),
            Vote("B", rank=1), Vote("A", rank=2), Vote("C", rank=3),
        ]
        # Borda with M=3: A=3+2, B=2+3, C=1+1 -> tie A/B resolved by seed
        assert aggregate(votes, "rank", seed=0) in {"A", "B"}

    def test_tie_is_seeded_and_stable(self):
        votes = [Vote("A"), Vote("B")]
        picks = {aggregate(votes, "single_vote", seed=7) for _ in range(10)}
        assert len(picks) == 1
        assert aggregate(votes, "single_vote", seed=7) in {"A", "B"}

    def test_unknown_mode(self):
        with pytest.raises(DataError):
            aggregate([Vote("A")], "wat")

    @pytest.mark.parametrize("weights", [[math.nan], [math.inf, -math.inf], [1.0, math.nan]])
    def test_no_best_tally_is_a_data_error(self, weights):
        # NaN equals nothing, so no label attains a NaN maximum
        with pytest.raises(DataError, match="no label attains the best tally"):
            aggregate([Vote("A", w) for w in weights], "weighted")

    def test_brute_force_tally_oracle(self):
        labels = list("abcde")
        for seed in range(200):
            rng = random.Random(seed)
            votes = [Vote(rng.choice(labels)) for _ in range(rng.randint(1, 12))]
            tally = Counter(v.label for v in votes)
            best = max(tally.values())
            winners = sorted(l for l, c in tally.items() if c == best)
            got = aggregate(votes, "single_vote", seed=seed)
            if len(winners) == 1:
                assert got == winners[0]
            else:
                assert got == random.Random(seed).choice(winners)

    def test_zero_weight_vote_never_changes_winner(self):
        rng = random.Random(1)
        for _ in range(50):
            votes = [Vote(rng.choice("abc"), 1.0, 1) for _ in range(5)]
            base = aggregate(votes, "weighted", seed=4)
            assert aggregate(votes + [Vote("z", 0.0, 1)], "weighted", seed=4) == base


def bias_only(scores):
    """A linear scorer without features: it ranks the labels of scores
    (label -> score) by their score for every bag."""
    labels = sorted(scores)
    return LinearScorer(labels, [], [scores[lab] for lab in labels], [])


class TestBagging:
    def committee(self, toy_tax, docs, n_members, master_seed):
        """The class pools, and a committee of n_members drawn from them
        by draw_samples, each a "model" that always predicts the majority
        label of its sample."""
        pools = class_pools(toy_tax, {"x": "A", "y": "B"}, docs, "2")
        label = {i: lab for lab, ids in pools.items() for i in ids}

        def majority(ids):
            counts = Counter(label[i] for i in ids)
            return max(sorted(counts), key=counts.get)

        samples = draw_samples(pools, [("bayes", n_members)], 3, master_seed)
        return pools, train_committee(
            samples, lambda kind, many: [bias_only({majority(ids): 1.0}) for ids in many],
            master_seed)

    def test_single_member_degenerate(self, toy_tax):
        docs = docs_with(["A", "A1", "B", "B1"])
        pools, ens = self.committee(toy_tax, docs, 1, 0)
        sample = draw_training_sample(pools, 3, derive_seed(0, 0))
        assert ens.predict([{}]) == [max(sorted(sample), key=lambda l: len(sample[l]))]

    def test_member_count(self, toy_tax):
        docs = docs_with(["A", "A1", "B", "B1"])
        _, ens = self.committee(toy_tax, docs, 50, 0)
        assert len(ens.members) == 50

    def test_same_master_seed_reproduces(self, toy_tax):
        docs = docs_with(["A", "A1", "B", "B1"] * 3)
        _, e1 = self.committee(toy_tax, docs, 5, 42)
        _, e2 = self.committee(toy_tax, docs, 5, 42)
        assert e1.member_seeds == e2.member_seeds
        assert e1.predict([{}]) == e2.predict([{}])

    def test_rank_is_borda_over_top_three(self):
        def fixed(order):
            return bias_only({lab: float(len(order) - i) for i, lab in enumerate(order)})

        members = [fixed("ACB"), fixed("ACB"), fixed("CBA"), fixed("BCA")]
        ens = BaggingEnsemble(members=members, master_seed=0, member_seeds=[])
        # top votes A=2, B=1, C=1; Borda A=3+3+1+1, B=1+1+2+3, C=2+2+3+2
        assert ens.predict([{}], "single_vote") == ["A"]
        assert ens.predict([{}], "rank") == ["C"]

    def test_weighted_counts_top_labels_like_single_vote(self):
        # one member is far more confident on its own scale than the two
        # members it outvotes; weighted still counts one vote per member
        members = [
            bias_only({"a": 100.0, "b": 0.0}),
            bias_only({"b": 0.51, "a": 0.5}),
            bias_only({"b": 0.3, "c": 0.29, "a": 0.1}),
        ]
        ens = BaggingEnsemble(members=members, master_seed=0, member_seeds=[])
        assert ens.predict([{}], "single_vote") == ["b"]
        assert ens.predict([{}], "weighted") == ["b"]

    def test_member_permutation_invariance(self):
        # permuting equal-weight members cannot change the tally
        votes = [Vote("a"), Vote("b"), Vote("a")]
        rng = random.Random(0)
        for _ in range(10):
            shuffled = list(votes)
            rng.shuffle(shuffled)
            assert aggregate(shuffled, "single_vote", seed=1) == aggregate(
                votes, "single_vote", seed=1
            )


def exact(scorer):
    """A scorer's labels, columns and float bits."""
    return (scorer.labels, scorer.columns, [x.hex() for x in scorer.bias.tolist()],
            [[x.hex() for x in row] for row in scorer.weights_t.tolist()])


TRAIN = {"bayes": nb_train, "winnow": winnow_train}
BRUTE_TRAIN = {"bayes": brute_nb_train, "winnow": brute_winnow_train}


class TestCommitteeConstruction:
    """draw_samples draws every member's sample before train_committee
    trains each kind's distinct samples in one call, and the members
    equal members drawn and trained alone."""

    @staticmethod
    def table(docs):
        """Pools (label -> sorted ids) and the (label, bag) of each id
        that has a bag, for (label, bag or None) documents."""
        ids = ["d%02d" % i for i in range(len(docs))]
        pools = {}
        for i, (label, _) in zip(ids, docs):
            pools.setdefault(label, []).append(i)
        return pools, {i: (label, bag) for i, (label, bag) in zip(ids, docs) if bag is not None}

    @staticmethod
    def train_many(table, calls):
        def train_many(kind, many):
            calls.extend((kind, ids) for ids in many)
            return [TRAIN[kind]([table[i] for i in ids]).linear for ids in many]
        return train_many

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["bayes", "winnow"]), st.integers(1, 3)),
                    min_size=1, max_size=4),
           st.lists(st.tuples(st.sampled_from("abc"),
                              st.none() | st.dictionaries(st.sampled_from("fgh"),
                                                          st.sampled_from([0.5, 1, 2.5]),
                                                          max_size=3)),
                    min_size=1, max_size=10),
           st.integers(1, 5), st.integers(0, 2**32 - 1))
    @example([["bayes", 1], ["winnow", 1], ["bayes", 1]],
             [("a", {"f": 1}), ("a", {"g": 1}), ("b", {"h": 1}), ("b", None)], 1, 7)
    def test_members_equal_members_trained_alone(self, members, docs, size, master_seed):
        pools, table = self.table(docs)
        kinds = [kind for kind, count in members for _ in range(count)]
        seeds = [derive_seed(master_seed, i) for i in range(len(kinds))]
        drawn = [tuple(i for ids in draw_training_sample(pools, size, seed).values() for i in ids)
                 for seed in seeds]
        assert draw_samples(pools, members, size, master_seed) == list(zip(kinds, seeds, drawn))

        samples = [(kind, seed, tuple(i for i in ids if i in table))
                   for kind, seed, ids in zip(kinds, seeds, drawn)]
        failures = []
        for i, (kind, _, ids) in enumerate(samples):
            try:
                TRAIN[kind]([table[j] for j in ids])
            except DataError as exc:
                failures.append("member %d failed: %s" % (i, exc))
        calls = []
        if failures:
            with pytest.raises(TrainingError) as info:
                train_committee(samples, self.train_many(table, calls), master_seed)
            assert str(info.value) == failures[0]
            return
        ens = train_committee(samples, self.train_many(table, calls), master_seed)
        assert ens.member_seeds == seeds and ens.master_seed == master_seed
        assert len(calls) == len(set(calls)) == len({(kind, ids) for kind, _, ids in samples})
        alone = [BRUTE_TRAIN[kind]([table[j] for j in ids]).linear for kind, _, ids in samples]
        assert [exact(m) for m in ens.members] == [exact(m) for m in alone]

    def test_first_failing_member_sits_between_two_of_another_kind(self):
        # bayes trains first and fails on member 2, but member 1 fails first
        _, table = self.table([("a", {"f": 1})])
        samples = [("bayes", 1, ("d00",)), ("winnow", 2, ()), ("bayes", 3, ())]
        with pytest.raises(TrainingError, match="^member 1 failed: empty training set$"):
            train_committee(samples, self.train_many(table, []), 0)

    def test_no_members_is_a_data_error(self):
        with pytest.raises(DataError, match="at least one member"):
            train_committee([], self.train_many({}, []), 0)


class TestCommitteeMatchesOracle:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["bayes", "winnow", "llda"]), train_bags),
                    min_size=1, max_size=6),
           test_bags, st.sampled_from(AGGREGATION_MODES), st.integers(1, 4),
           st.integers(0, 2**32 - 1))
    # Borda's D is the deepest rank over all members, not each member's own
    @example([("bayes", [("a", {"f": 1}), ("b", {"g": 1})]),
              ("bayes", [("b", {"f": 1}), ("c", {"g": 1}), ("d", {"h": 1})])],
             [{"f": 1}], "rank", 3, 0)
    def test_predict(self, specs, bags, mode, rank_depth, seed):
        # members trained on different samples have different label sets
        members = [model.linear for model, _ in (train_all(kind, labeled)
                                                 for kind, labeled in specs)]
        ens = BaggingEnsemble(members=members, master_seed=seed, member_seeds=[])
        assert ens.predict(bags, mode, rank_depth) == brute_committee_predict(
            members, bags, mode, rank_depth, seed)

    def test_exact_tie_takes_the_seeded_draw(self):
        members = [bias_only({"A": 1.0}), bias_only({"B": 1.0})]
        ens = BaggingEnsemble(members=members, master_seed=0, member_seeds=[])
        # random.Random(0).choice(["A", "B"]) is "B"
        for mode in AGGREGATION_MODES:
            assert ens.predict([{}, {"f": 1.0}], mode) == ["B", "B"]
            assert brute_committee_predict(members, [{}], mode, 3, 0) == ["B"]


# kA and kA2 project to one label, kN to no label, and kX is outside the map
LABEL_MAP = {"kA": "A", "kA2": "A", "kB": "B", "kD": "D", "kN": None}


class TestSemComMatchesAggregate:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(st.sampled_from("ABC"), min_size=1, max_size=6),
           st.none() | st.lists(st.tuples(st.sampled_from(["kA", "kA2", "kB", "kD", "kN", "kX"]),
                                          st.floats(0, 1)),
                                unique_by=lambda cs: cs[0], max_size=4),
           st.lists(st.sampled_from([0.0, -0.0, -1.5, -14.0, 0.1, 0.2, 0.7, 1.2, 6.0, 14.0]),
                    min_size=1, max_size=4),
           st.integers(0, 50))
    # member votes are counted before SemCat's: 1 + 0.1 + 0.1 is not 1.2,
    # but 0.1 + 0.1 + 1 is, and ties B's 1.2
    @example(["A"], [("kA", 0.5), ("kA2", 0.4), ("kB", 0.3)], [0.1, 0.1, 1.2], 0)
    def test_tally(self, tops, semcat, weights, seed):
        votes = [Vote(top) for top in tops]
        if semcat is not None:
            votes += [Vote(LABEL_MAP[c], w, i) for i, ((c, _), w) in enumerate(zip(semcat, weights), 1)
                      if LABEL_MAP.get(c) is not None]
        decision = semcom_predict(Counter(tops), semcat, weights, LABEL_MAP, seed)
        assert decision.winner == aggregate(votes, "weighted", seed=seed)
        assert decision.semcat_used == (len(votes) > len(tops))


class TestSemCom:
    def test_hand_tally(self):
        members = {"A": 1, "B": 1}
        semcat = [("kB", 0.5), ("kC", 0.3), ("kA", 0.2)]
        label_map = {"kA": "A", "kB": "B", "kC": "C"}
        decision = semcom_predict(members, semcat, (7, 5, 3), label_map, seed=0)
        assert decision.winner == "B"
        assert decision.semcat_used

    def test_zero_weight_vector_reduces_to_member_vote(self):
        members = {"A": 2, "B": 1}
        semcat = [("kB", 0.9)]
        decision = semcom_predict(members, semcat, (0.0,), {"kB": "B"}, seed=0)
        assert decision.winner == "A"

    def test_unmapped_category_dropped(self):
        members = {"A": 1, "B": 1}
        semcat = [("unmapped", 0.9), ("kC", 0.5)]
        decision = semcom_predict(members, semcat, (7, 5), {"kC": "C"}, seed=0)
        # 7 dropped with the unmapped category, C still gets 5 and wins
        assert decision.winner == "C"

    def test_semcat_failure_flagged(self):
        members = {"A": 2}
        decision = semcom_predict(members, None, (7, 5, 3), {}, seed=0)
        assert decision.winner == "A"
        assert not decision.semcat_used


class TestCategoryProjection:
    def test_exact_match(self, toy_tax):
        assert project_category_to_label(toy_tax, "A", {"x": "A", "y": "B"}) == "x"

    def test_nearest_by_lin(self, toy_tax):
        # A1 is closer to A than to B
        assert project_category_to_label(toy_tax, "A1", {"x": "A", "y": "B"}) == "x"

    def test_tie_dropped(self, toy_tax):
        # R is equidistant (sim 0) from both class categories
        assert project_category_to_label(toy_tax, "R", {"x": "A1", "y": "B1"}) is None


class TestEligibilityMonotonicityRandom:
    def test_random_corpora(self):
        for seed in range(20):
            rng = random.Random(seed)
            tax = random_taxonomy(rng, max_categories=15, max_concepts=20)
            cats = sorted(tax.category_labels)
            docs = docs_with([rng.choice(cats) for _ in range(25)])
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
