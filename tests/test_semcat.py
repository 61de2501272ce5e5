import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from semtax.errors import DataError, EmptyVectorError, UnknownConceptError
from semtax.semcat import (
    Analyzer,
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
from semtax.taxonomy import (
    Concept,
    Taxonomy,
    mean_sim_page,
    normalize_label,
    parse_taxonomy,
    sim_lin,
    sim_page,
)
from semtax.textpipe import BackgroundStats, PhraseIndex

from oracles import (
    brute_concept_candidates,
    brute_disambiguate,
    brute_map_terms_to_concepts,
    brute_sim,
    brute_sim_page,
    links,
)


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


class TestLookupKey:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(st.text(alphabet="aBz09 \r\nİßΣ", min_size=1, max_size=8),
                     st.text(min_size=1, max_size=8)))
    def test_key_is_the_normalized_term(self, term):
        # the inline lowercase-ASCII test in map_terms_to_concepts must
        # look up what normalize_label gives
        keys = []

        class Index(dict):
            def get(self, key, default=None):
                keys.append(key)
                return default

        map_terms_to_concepts({term: 1.0}, SimpleNamespace(label_index=Index()))
        assert keys == [normalize_label(term)]


class TestConceptMemoMatchesOracle:
    """A memo shared by many map_terms_to_concepts calls gives each term
    the candidates of a scan over every concept's labels, with and
    without diacritic folding."""

    # case and diacritic variants of two letters, so that labels and
    # terms collide, fold together or miss
    label = st.text(alphabet="aáAÁbé", min_size=1, max_size=3)
    term = st.text(alphabet="aáAÁbé ", min_size=1, max_size=4)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.lists(label, min_size=1, max_size=2), min_size=1, max_size=6),
           st.lists(st.dictionaries(term, st.sampled_from([0.25, 1.0]), max_size=5),
                    min_size=1, max_size=5),
           st.booleans())
    def test_shared_memo(self, concept_labels, vectors, exact_match):
        tax = parse_taxonomy(["C\tr\troot\t"] + [
            "P\tp%d\tr\t%s" % (i, "|".join(labels)) for i, labels in enumerate(concept_labels)])
        memo = {}
        for v in vectors:
            assert map_terms_to_concepts(v, tax, exact_match, memo) == \
                brute_map_terms_to_concepts(v, tax, exact_match)
            assert map_terms_to_concepts(v, tax, exact_match) == \
                brute_map_terms_to_concepts(v, tax, exact_match)
        assert memo == {t: brute_concept_candidates(tax, t, exact_match)
                        for v in vectors for t in v}


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

    @pytest.mark.parametrize("method", ["nearest", "uniform"])
    def test_unknown_measure(self, toy_tax, method):
        with pytest.raises(DataError, match="unknown similarity measure 'bogus'"):
            disambiguate({"jaguar": ["c2", "c5"]}, self.context(toy_tax), toy_tax,
                         {"jaguar": 0.4}, method=method, measure="bogus")

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

    @pytest.mark.parametrize("context", [[], [("alpha", "c1", 0.5)]], ids=["empty", "context"])
    def test_unknown_candidate(self, toy_tax, context):
        with pytest.raises(UnknownConceptError):
            disambiguate(
                {"jaguar": ["c2", "nope"]}, ConceptAssignment(entries=context), toy_tax,
                {"jaguar": 1.0},
            )


@st.composite
def homonym_cases(draw):
    """A random DAG like test_taxonomy's small_taxonomies whose concepts,
    of 1-3 categories each, share a few labels, so that most labels are
    homonyms.  A concept often takes the categories of an earlier one, so
    candidates tie and the id tie-break decides.  Returns the taxonomy,
    the ambiguous terms with their candidates, context concept ids (maybe
    none) and a weight per term."""
    n = draw(st.integers(2, 8))
    ids = draw(st.permutations(["k%d" % i for i in range(n)]))
    parents = {ids[0]: frozenset()}
    for i in range(1, n):
        ps = draw(st.lists(st.integers(0, i - 1), min_size=1, max_size=3, unique=True))
        parents[ids[i]] = frozenset(ids[j] for j in ps)
    n_concepts = draw(st.integers(2, 9))
    pids = draw(st.permutations(["p%d" % j for j in range(n_concepts)]))
    n_labels = draw(st.integers(1, 3))
    concepts, drawn = {}, []
    for pid in pids:
        if drawn and draw(st.booleans()):
            cats = draw(st.sampled_from(drawn))
        else:
            cats = frozenset(draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True)))
            drawn.append(cats)
        label = "w%d" % draw(st.integers(0, n_labels - 1))
        concepts[pid] = Concept(pid, frozenset({label}), cats)
    tax = Taxonomy({k: k for k in ids}, parents, concepts)
    # in any order: the ranking must not lean on the label index's sorting
    ambiguous = {lab: draw(st.permutations(cids))
                 for lab, cids in tax.label_index.items() if len(cids) > 1}
    context = draw(st.lists(st.sampled_from(sorted(concepts)), max_size=4))
    weights = {lab: draw(st.floats(0.01, 1.0)) for lab in ambiguous}
    return tax, ambiguous, context, weights


class TestMatchesOracle:
    @pytest.mark.parametrize("measure", ["lin", "pirro_seco"])
    @pytest.mark.parametrize("method", ["nearest", "rank_half", "rank_inv", "uniform"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=homonym_cases())
    def test_disambiguate(self, method, measure, case):
        tax, ambiguous, context, weights = case
        parents, concept_cats = links(tax)
        assignment = ConceptAssignment(entries=[("t%d" % i, c, 1.0) for i, c in enumerate(context)])
        got = disambiguate(ambiguous, assignment, tax, weights, method, measure)
        assert got.entries == brute_disambiguate(
            parents, concept_cats, ambiguous, context, weights, method, measure
        )

    @pytest.mark.parametrize("measure", ["lin", "pirro_seco"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=homonym_cases())
    def test_mean_sim_page(self, measure, case):
        tax, _, context, _ = case
        parents, concept_cats = links(tax)
        ctx = sorted(set(context))
        concepts = sorted(concept_cats)
        sim = lambda k1, k2: brute_sim(parents, concept_cats, measure, k1, k2)
        assert mean_sim_page(tax, concepts, ctx, measure) == [
            sum(brute_sim_page(parents, concept_cats, sim, c, x) for x in ctx) / len(ctx)
            if ctx else 0.0
            for c in concepts
        ]


class TestProjection:
    def test_proportional_split(self, toy_tax):
        assignment = ConceptAssignment(entries=[("t", "cx", 0.6)])
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

    def test_key_order_does_not_follow_the_hash_seed(self):
        # a concept's categories come in id order, whatever order its
        # frozenset iterates in: six of them, so that hash order is the
        # id order under one hash seed in 720
        cats = ["K%d" % i for i in range(6)]
        tax = Taxonomy(
            {"R": "r", **dict.fromkeys(cats, "")},
            {"R": frozenset(), **dict.fromkeys(cats, frozenset(["R"]))},
            {"cx": Concept("cx", frozenset(["x"]), frozenset(cats)),
             "cy": Concept("cy", frozenset(["y"]), frozenset(["K3"]))},
        )
        got = project_to_categories(ConceptAssignment(entries=[("y", "cy", 0.4),
                                                               ("x", "cx", 0.6)]), tax)
        assert list(got) == ["K3", "K0", "K1", "K2", "K4", "K5"]


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

    def test_phrase_matches_label_whose_casefold_differs_from_its_lowercase(self):
        # labels are casefolded ("Große Straße" -> "grosse strasse"), and a
        # document's terms are only lowercased, so the phrase matches on
        # the terms' casefolds; the one-word concepts must not win
        tax = parse_taxonomy(["C\tR\tRoot\t", "C\tk\tK\tR", "C\tj\tJ\tR",
                              "P\tp1\tk\tGroße Straße", "P\tp2\tj\tgrosse",
                              "P\tp3\tj\tstrasse"])
        stats = BackgroundStats(doc_count=10, doc_freq={})
        for text in ("Große Straße", "grosse strasse", "GROSSE STRASSE", "große STRASSE"):
            assert categorize(text, tax, stats) == {"k": 1.0}

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


class TestLookupShortcutMatchesOracle:
    """A term that is a lowercase ASCII letter run is looked up as it is;
    every other term (uppercase, ß, É, padded phrases) is normalized
    first.  Both kinds find the candidates of a scan over every label."""

    label = st.text(alphabet="absßéÉ ", min_size=1, max_size=4).filter(str.strip)
    word = st.text(alphabet="absßéÉAB", min_size=1, max_size=3)
    term = st.one_of(
        st.text(alphabet="abs", min_size=1, max_size=3),
        word,
        st.builds(lambda a, b: " %s  %s " % (a, b), word, word),
    )

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.lists(st.lists(label, min_size=1, max_size=2), min_size=1, max_size=6),
           st.lists(st.dictionaries(term, st.sampled_from([0.25, 1.0]), max_size=5),
                    min_size=1, max_size=4),
           st.booleans())
    def test_terms_in_and_out_of_normal_form(self, concept_labels, vectors, exact_match):
        tax = parse_taxonomy(["C\tr\troot\t"] + [
            "P\tp%d\tr\t%s" % (i, "|".join(labels)) for i, labels in enumerate(concept_labels)])
        memo = {}
        for v in vectors:
            assert map_terms_to_concepts(v, tax, exact_match, memo) == \
                brute_map_terms_to_concepts(v, tax, exact_match)
            assert map_terms_to_concepts(v, tax, exact_match) == \
                brute_map_terms_to_concepts(v, tax, exact_match)
            for t in v:
                if t.isalpha() and t.isascii() and t.islower():
                    assert normalize_label(t) == t


class TestZeroICBelowTheRoot:
    """root -> A with every concept under A: A's IC is 0, like the
    root's, so lin meets its 0/0 case for a category that is not the
    root (1 for A against itself, 0 for A against the root).  A is a leaf
    or has children."""

    TAXONOMIES = {
        "leaf": ["C\tr\troot\t", "C\tA\tA\tr",
                 "P\tp1\tA\tw0", "P\tp2\tA\tw0", "P\tp3\tA\tw1"],
        "internal": ["C\tr\troot\t", "C\tA\tA\tr", "C\tB\tB\tA", "C\tC\tC\tA",
                     "C\tD\tD\tB,C", "P\tp1\tA\tw0", "P\tp2\tB\tw0", "P\tp3\tC\tw1",
                     "P\tp4\tD\tw1", "P\tp5\tA,B\tw0", "P\tp6\tC\tw2"],
    }

    @pytest.fixture(params=sorted(TAXONOMIES))
    def tax(self, request):
        tax = parse_taxonomy(self.TAXONOMIES[request.param])
        assert sim_lin(tax, "A", "A") == 1.0 and sim_lin(tax, "A", "r") == 0.0
        return tax

    def contexts(self, tax):
        ids = sorted(tax.concepts)
        return [[]] + [[c] for c in ids] + [[a, b] for a in ids for b in ids if a < b] + [ids]

    @pytest.mark.parametrize("measure", ["lin", "pirro_seco"])
    def test_mean_sim_page(self, tax, measure):
        parents, concept_cats = links(tax)
        sim = lambda k1, k2: brute_sim(parents, concept_cats, measure, k1, k2)
        concepts = sorted(concept_cats)
        for ctx in self.contexts(tax):
            assert mean_sim_page(tax, concepts, ctx, measure) == [
                sum(brute_sim_page(parents, concept_cats, sim, c, x) for x in ctx) / len(ctx)
                if ctx else 0.0
                for c in concepts
            ]

    @pytest.mark.parametrize("method", ["nearest", "rank_half", "rank_inv", "uniform"])
    def test_disambiguate(self, tax, method):
        parents, concept_cats = links(tax)
        ambiguous = {lab: cids for lab, cids in tax.label_index.items() if len(cids) > 1}
        weights = {lab: 0.5 for lab in ambiguous}
        for ctx in self.contexts(tax):
            assignment = ConceptAssignment(entries=[("t%d" % i, c, 1.0) for i, c in enumerate(ctx)])
            got = disambiguate(ambiguous, assignment, tax, weights, method, "lin")
            assert got.entries == brute_disambiguate(
                parents, concept_cats, ambiguous, ctx, weights, method, "lin")


PHRASE_WORDS = ["ab", "cd", "ef", "gh"]
PHRASE_LABELS = ["ab", "cd", "ef", "ab cd", "cd ef gh", "gh ab"]


@st.composite
def phrase_cases(draw):
    """A random DAG whose concepts, of 1-3 categories each, share a few
    labels, some of several words, so that most labels are homonyms and
    phrases must be matched; background statistics over the words; and
    texts of those words and some noise, in mixed case."""
    n = draw(st.integers(2, 7))
    ids = ["k%d" % i for i in range(n)]
    parents = {ids[0]: frozenset()}
    for i in range(1, n):
        ps = draw(st.lists(st.integers(0, i - 1), min_size=1, max_size=2, unique=True))
        parents[ids[i]] = frozenset(ids[j] for j in ps)
    concepts = {}
    for j in range(draw(st.integers(2, 9))):
        cats = frozenset(draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True)))
        labels = frozenset(draw(st.lists(st.sampled_from(PHRASE_LABELS), min_size=1, max_size=2)))
        concepts["p%d" % j] = Concept("p%d" % j, labels, cats)
    tax = Taxonomy({k: k for k in ids}, parents, concepts)
    doc_freq = draw(st.dictionaries(st.sampled_from(PHRASE_WORDS + ["zz"]), st.integers(1, 12)))
    stats = BackgroundStats(doc_count=20, doc_freq=doc_freq)
    token = st.sampled_from(PHRASE_WORDS + ["zz", "AB", "Cd", "the"])
    texts = draw(st.lists(st.lists(token, max_size=12).map(" ".join), min_size=1, max_size=4))
    return tax, stats, texts


class TestCategorizeMatchesAnalyzer:
    """The root categorize, which builds its own term table and looks
    every term up afresh, gives the category bag of an Analyzer that
    shares them over many texts: the same keys in the same order and the
    same float bits."""

    @staticmethod
    def bits(bag):
        return None if bag is None else [(k, w.hex()) for k, w in bag.items()]

    @pytest.mark.parametrize("method", ["nearest", "rank_half", "rank_inv", "uniform"])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=phrase_cases(), measure=st.sampled_from(["lin", "pirro_seco"]))
    def test_same_bag(self, method, case, measure):
        tax, stats, texts = case
        config = SemCatConfig(disambig=method, measure=measure, top_terms=3)
        index = PhraseIndex.from_taxonomy(tax)
        analyzer = Analyzer(tax, stats, config)
        for text in texts:
            try:
                want = categorize(text, tax, stats, config, index)
            except EmptyVectorError:
                want = None
            assert self.bits(analyzer.bag(text, "categories")) == self.bits(want)
