import random

import pytest

from semtax.errors import DataError, EmptyVectorError
from semtax.semcat import (
    ConceptAssignment,
    SemCatConfig,
    assign_concepts,
    categorize,
    categorize_vector,
    disambiguate,
    map_terms_to_concepts,
    project_to_categories,
    top_n_categories,
)
from semtax.synth import random_taxonomy, random_term_vector
from semtax.taxonomy import parse_taxonomy, sim_page


class TestMapping:
    def test_ambiguous_term(self, toy_tax):
        unamb, amb = map_terms_to_concepts({"jaguar": 1.0}, toy_tax)
        assert amb == {"jaguar": ["c2", "c5"]}
        assert not unamb.entries

    def test_unique_match(self, toy_tax):
        unamb, amb = map_terms_to_concepts({"alpha": 0.4}, toy_tax)
        assert unamb.entries == [("alpha", "c1", 0.4)]
        assert not amb

    def test_unresolved(self, toy_tax):
        unamb, _ = map_terms_to_concepts({"qwxy": 1.0}, toy_tax)
        assert unamb.unresolved == ["qwxy"]

    def test_diacritic_fallback(self, toy_tax):
        unamb, _ = map_terms_to_concepts({"álphá": 0.5}, toy_tax, exact_match=False)
        assert unamb.entries == [("álphá", "c1", 0.5)]
        strict, _ = map_terms_to_concepts({"álphá": 0.5}, toy_tax, exact_match=True)
        assert strict.unresolved == ["álphá"]

    def test_labels_folding_together_give_one_candidate(self):
        tax = parse_taxonomy([
            "C\tr\troot\t", "C\ta\tA\tr", "P\tp1\ta\tcafé|cafe", "P\tp2\ta\tother",
        ])
        assert tax.folded_label_index["cafe"] == ["p1"]
        unamb, amb = map_terms_to_concepts({"cafè": 1.0}, tax, exact_match=False)
        assert unamb.entries == [("cafè", "p1", 1.0)]
        assert not amb


class TestDisambiguate:
    def context(self, toy_tax):
        # unambiguous context in the A-branch: candidates c2 (A1) beat c5 (B1)
        ctx = ConceptAssignment()
        ctx.entries = [("alpha", "c1", 0.3), ("charlie", "black hole", 0.2)]
        ctx.entries = [("alpha", "c1", 0.3), ("charlie", "c3", 0.2)]
        return ctx

    def test_nearest_winner_takes_all(self, toy_tax):
        out = disambiguate(
            {"jaguar": ["c2", "c5"]}, self.context(toy_tax), toy_tax,
            {"jaguar": 0.4}, method="nearest",
        )
        assert out.entries == [("jaguar", "c2", 0.4)]

    def test_rank_half_shares(self, toy_tax):
        out = disambiguate(
            {"jaguar": ["c2", "c5"]}, self.context(toy_tax), toy_tax,
            {"jaguar": 0.6}, method="rank_half",
        )
        shares = {c: w for _, c, w in out.entries}
        assert shares["c2"] == pytest.approx(0.4)
        assert shares["c5"] == pytest.approx(0.2)

    def test_rank_inv_shares(self, toy_tax):
        out = disambiguate(
            {"jaguar": ["c2", "c5"]}, self.context(toy_tax), toy_tax,
            {"jaguar": 0.6}, method="rank_inv",
        )
        shares = {c: w for _, c, w in out.entries}
        assert shares["c2"] == pytest.approx(0.4)
        assert shares["c5"] == pytest.approx(0.2)

    def test_uniform_split(self, toy_tax):
        out = disambiguate(
            {"jaguar": ["c2", "c5"]}, ConceptAssignment(), toy_tax,
            {"jaguar": 0.3}, method="uniform",
        )
        shares = {c: w for _, c, w in out.entries}
        assert shares == {"c2": pytest.approx(0.15), "c5": pytest.approx(0.15)}

    def test_nearest_empty_context_falls_back_to_uniform(self, toy_tax):
        out = disambiguate(
            {"jaguar": ["c2", "c5"]}, ConceptAssignment(), toy_tax,
            {"jaguar": 0.4}, method="nearest",
        )
        shares = {c: w for _, c, w in out.entries}
        assert shares == {"c2": pytest.approx(0.2), "c5": pytest.approx(0.2)}

    def test_unknown_method(self, toy_tax):
        with pytest.raises(DataError):
            disambiguate({}, ConceptAssignment(), toy_tax, {}, method="wat")

    def test_nearest_prefers_shared_branch(self, toy_tax):
        # c2 shares category A1 with context concept c1; c5 meets context
        # only at root
        ctx = ConceptAssignment()
        ctx.entries = [("alpha", "c1", 0.5)]
        assert sim_page(toy_tax, "c2", "c1") > sim_page(toy_tax, "c5", "c1")
        out = disambiguate(
            {"jaguar": ["c2", "c5"]}, ctx, toy_tax, {"jaguar": 1.0}, method="nearest"
        )
        assert out.entries == [("jaguar", "c2", 1.0)]


class TestProjection:
    def test_proportional_split(self, toy_tax):
        assignment = ConceptAssignment(entries=[("t", "cx", 0.6)])
        from semtax.taxonomy import Concept, Taxonomy

        tax = Taxonomy(
            {"R": "r", "A1": "", "A2": ""},
            {"R": frozenset(), "A1": frozenset(["R"]), "A2": frozenset(["R"])},
            {"cx": Concept("cx", frozenset(["x"]), frozenset(["A1", "A2"]))},
        )
        got = project_to_categories(assignment, tax)
        assert got == {"A1": pytest.approx(0.3), "A2": pytest.approx(0.3)}

    def test_single_category(self, toy_tax):
        got = project_to_categories(
            ConceptAssignment(entries=[("t", "c5", 0.5)]), toy_tax
        )
        assert got == {"B1": pytest.approx(0.5)}

    def test_additive(self, toy_tax):
        got = project_to_categories(
            ConceptAssignment(entries=[("t1", "c1", 0.2), ("t2", "c2", 0.3)]), toy_tax
        )
        assert got == {"A1": pytest.approx(0.5)}


class TestCategorize:
    def test_single_path(self, toy_tax, toy_background):
        got = categorize("charlie", toy_tax, toy_background)
        assert got == {"A2": pytest.approx(1.0)}

    def test_two_concepts(self, toy_tax):
        v = {"alpha": 0.7, "echo": 0.3}
        got = categorize_vector(v, toy_tax, SemCatConfig())
        assert got == {"A1": pytest.approx(0.7), "B1": pytest.approx(0.3)}
        assert top_n_categories(got, 2) == [
            ("A1", pytest.approx(0.7)),
            ("B1", pytest.approx(0.3)),
        ]

    def test_no_concept_match_is_error(self, toy_tax):
        with pytest.raises(EmptyVectorError):
            categorize_vector({"qwxy": 1.0}, toy_tax, SemCatConfig())

    def test_phrase_maps_to_concept(self, toy_tax, toy_background):
        got = categorize("black hole", toy_tax, toy_background)
        assert got == {"A2": pytest.approx(1.0)}

    def test_order_invariance(self, toy_tax):
        terms = [("alpha", 0.2), ("jaguar", 0.5), ("echo", 0.3)]
        a = categorize_vector(dict(terms), toy_tax, SemCatConfig())
        b = categorize_vector(dict(reversed(terms)), toy_tax, SemCatConfig())
        assert a == b


class TestTopNCategories:
    def test_top_one(self):
        assert top_n_categories({"A1": 0.7, "B1": 0.3}, 1) == [("A1", 0.7)]

    def test_n_exceeds_size(self):
        got = top_n_categories({"A1": 0.7, "B1": 0.3}, 10)
        assert got == [("A1", 0.7), ("B1", 0.3)]

    def test_id_tie_break(self):
        assert top_n_categories({"B": 0.5, "A": 0.5}, 1) == [("A", 0.5)]


class TestConservation:
    @pytest.mark.parametrize("method", ["nearest", "rank_half", "rank_inv", "uniform"])
    def test_random_vectors_conserve_weight(self, method):
        rng = random.Random(hash(method) & 0xFFFF)
        for _ in range(25):
            tax = random_taxonomy(rng, max_categories=15, max_concepts=30)
            v = random_term_vector(rng, tax)
            config = SemCatConfig(disambig=method)
            try:
                assignment = assign_concepts(v, tax, config)
            except EmptyVectorError:
                continue
            cats = project_to_categories(assignment, tax)
            mapped = assignment.total_weight()
            assert abs(sum(cats.values()) - mapped) <= 1e-9
