import gc
import io
import math
import random
import re
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from semtax.errors import (
    CycleError,
    DanglingLinkError,
    DataError,
    DuplicateIdError,
    EmptyLabelError,
    MultipleRootsError,
    TaxonomyError,
    UnknownCategoryError,
    UnknownConceptError,
)
from semtax.synth import random_taxonomy
from semtax.taxonomy import (
    Concept,
    Taxonomy,
    _ids,
    _labels,
    concept_count,
    information_content,
    load_taxonomy,
    mean_sim_page,
    msca,
    normalize_label,
    parse_taxonomy,
    sim_lin,
    sim_page,
    sim_pirro_seco,
)
from semtax.textpipe import PhraseIndex

from conftest import TOY_TAXONOMY, chain_taxonomy
from oracles import (
    brute_ancestors,
    brute_concept_set,
    brute_ic,
    brute_msca,
    brute_parse_taxonomy,
    brute_sim,
    brute_sim_page,
    brute_tokenize,
    links,
)


def ic(s, n):
    return 1.0 - math.log(1 + s) / math.log(1 + n)


class TestLoad:
    def test_toy_fixture_shape(self, toy_tax):
        assert len(toy_tax.category_labels) == 6
        assert len(toy_tax.concepts) == 7
        assert toy_tax.root == "R"

    def test_cycle_detected(self):
        text = "C\tR\tRoot\t\nC\tA\tA\tR,A1\nC\tA1\tA1\tA\nP\tc1\tA\tx\n"
        with pytest.raises(CycleError):
            parse_taxonomy(io.StringIO(text))

    def test_cycle_error_names_a_category_on_the_cycle(self):
        # R and S lie above the cycle X <-> Y and T below it; the search
        # for a named category starts at the smallest id left over, R
        text = "C\tR\tRoot\t\nC\tS\tS\tR\nC\tX\tX\tS,Y\nC\tY\tY\tX\nC\tT\tT\tY\n"
        with pytest.raises(CycleError) as exc:
            parse_taxonomy(io.StringIO(text + "P\tc1\tT\tx\n"))
        named = re.fullmatch(r"cycle detected through category (\S+)", str(exc.value))
        assert named and named.group(1) in {"X", "Y"}

    def test_self_loop_is_a_cycle(self):
        text = "C\tR\tRoot\t\nC\tA\tA\tR,A\nP\tc1\tA\tx\n"
        with pytest.raises(CycleError, match="through category A$"):
            parse_taxonomy(io.StringIO(text))

    def test_no_concepts(self):
        text = "C\tR\tRoot\t\nC\tA\tA\tR\n"
        with pytest.raises(TaxonomyError, match="no concepts"):
            parse_taxonomy(io.StringIO(text))

    def test_deep_chain_loads_at_default_recursion_limit(self):
        depth = 5000
        assert depth > sys.getrecursionlimit()
        tax = parse_taxonomy(io.StringIO(chain_taxonomy(depth)))
        leaf, root = "c%d" % (depth - 1), "c0"
        assert tax.root == root
        assert len(tax.ancestors(leaf)) == depth
        assert concept_count(tax, root) == depth
        assert concept_count(tax, leaf) == 1
        assert information_content(tax, root) == 0.0
        assert information_content(tax, leaf) == ic(1, depth)
        assert information_content(tax, "c1") == ic(depth - 1, depth)
        assert msca(tax, leaf, "c%d" % (depth - 2)) == "c%d" % (depth - 2)
        assert msca(tax, leaf, leaf) == leaf
        assert msca(tax, root, leaf) == root
        assert msca(tax, "c1", leaf) == "c1"

    def test_dangling_concept_link(self):
        text = "C\tR\tRoot\t\nP\tc1\tZ\tx\n"
        with pytest.raises(DanglingLinkError) as exc:
            parse_taxonomy(io.StringIO(text))
        assert "Z" in str(exc.value)

    def test_multiple_roots(self):
        text = "C\tR\tRoot\t\nC\tS\tOther\t\n"
        with pytest.raises(MultipleRootsError):
            parse_taxonomy(io.StringIO(text))

    def test_duplicate_ids(self):
        text = "C\tR\tRoot\t\nC\tR\tRoot2\tR\n"
        with pytest.raises(DuplicateIdError):
            parse_taxonomy(io.StringIO(text))

    def test_labels_case_folded(self, toy_tax):
        assert "black hole" in toy_tax.concepts["c3"].labels

    def test_dropped_taxonomy_freed_without_cyclic_collector(self):
        gc.disable()
        try:
            tax = parse_taxonomy(io.StringIO(TOY_TAXONOMY))
            ref = weakref.ref(tax)
            del tax
            assert ref() is None
        finally:
            gc.enable()


@pytest.mark.usefixtures("collector_state_restored")
class TestCollectorPause:
    """A load pauses the cyclic collector and leaves it as it found it."""

    @pytest.fixture
    def toy_file(self, tmp_path):
        path = tmp_path / "tax.tsv"
        path.write_text(TOY_TAXONOMY, encoding="utf-8")
        return path

    def test_paused_while_loading(self):
        gc.enable()
        seen = []

        def lines():
            seen.append(gc.isenabled())
            yield from io.StringIO(TOY_TAXONOMY)

        parse_taxonomy(lines())
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_kept(self, toy_file, enabled):
        (gc.enable if enabled else gc.disable)()
        parse_taxonomy(io.StringIO(TOY_TAXONOMY))
        assert gc.isenabled() is enabled
        load_taxonomy(toy_file)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("text, error", [
        (TOY_TAXONOMY + "P\tc1\tA1\tagain\n", DuplicateIdError),
        ("C\tR\tRoot\t\nC\tA\tA\tR,A1\nC\tA1\tA1\tA\nP\tc1\tA\tx\n", CycleError),
    ], ids=["duplicate-id", "cycle"])
    def test_enabled_after_a_failed_parse(self, text, error):
        gc.enable()
        with pytest.raises(error):
            parse_taxonomy(io.StringIO(text))
        assert gc.isenabled()

    def test_enabled_after_a_file_that_is_not_utf8(self, tmp_path):
        gc.enable()
        path = tmp_path / "tax.tsv"
        path.write_bytes((TOY_TAXONOMY + "P\tc8\tA1\tna\xefve\n").encode("latin-1"))
        with pytest.raises(UnicodeDecodeError):
            load_taxonomy(path)
        assert gc.isenabled()


class TestConcept:
    LABELS, CATEGORIES = frozenset({"bravo", "jaguar"}), frozenset({"A1"})

    def test_keyword_construction(self):
        c = Concept(id="c2", labels=self.LABELS, categories=self.CATEGORIES)
        assert (c.id, c.labels, c.categories) == ("c2", self.LABELS, self.CATEGORIES)
        assert c == Concept("c2", self.LABELS, self.CATEGORIES)

    @pytest.mark.parametrize("field", ["id", "labels", "categories", "other"])
    def test_fields_cannot_be_set(self, field):
        c = Concept("c2", self.LABELS, self.CATEGORIES)
        with pytest.raises(AttributeError):
            setattr(c, field, frozenset())
        assert c == Concept("c2", self.LABELS, self.CATEGORIES)

    def test_hashable(self):
        a = Concept("c2", self.LABELS, self.CATEGORIES)
        b = Concept(id="c2", labels=frozenset(["jaguar", "bravo"]), categories=self.CATEGORIES)
        assert hash(a) == hash(b)
        assert {a, b} == {a}

    def test_parsed_concepts_equal_records_built_by_hand(self, toy_tax):
        def concept(cid, cat, *labels):
            return Concept(cid, labels, (cat,))

        assert toy_tax.concepts == {
            "c1": concept("c1", "A1", "alpha"),
            "c2": concept("c2", "A1", "bravo", "jaguar"),
            "c3": concept("c3", "A2", "black hole", "charlie"),
            "c4": concept("c4", "A", "delta"),
            "c5": concept("c5", "B1", "echo", "jaguar"),
            "c6": concept("c6", "B1", "foxtrot"),
            "c7": concept("c7", "B", "golf"),
        }
        assert all(type(c) is Concept for c in toy_tax.concepts.values())


class TestLeanRecords:
    """A loaded concept's labels and categories are sorted tuples of
    distinct strings, shared by the concepts of one field, and every
    leaf's child set is one empty frozenset."""

    def test_category_field_gives_sorted_distinct_ids(self):
        tax = parse_taxonomy(io.StringIO("C\tR\tr\t\nC\tA\ta\tR\nC\tB\tb\tR\nP\tc1\tB,A,,B\tx\n"))
        assert tax.concepts["c1"].categories == ("A", "B")

    def test_label_field_gives_sorted_distinct_normalized_labels(self):
        tax = parse_taxonomy(io.StringIO("C\tR\tr\t\nP\tc1\tR\tJaguar|jaguar| \n"))
        assert tax.concepts["c1"].labels == ("jaguar",)

    def test_homonyms_share_one_tuple(self):
        tax = parse_taxonomy(io.StringIO(TOY_TAXONOMY + "P\tc8\tA2\tjaguar\nP\tc9\tB\tjaguar\n"))
        assert tax.concepts["c8"].labels is tax.concepts["c9"].labels == ("jaguar",)
        built = Taxonomy(tax.category_labels, tax.parents, {
            "x": Concept("x", frozenset({"jaguar"}), frozenset({"A1"})),
            "y": Concept("y", ["jaguar"], ["A1"]),
        })
        assert built.concepts["x"].labels is built.concepts["y"].labels == ("jaguar",)
        assert built.concepts["x"].categories is built.concepts["y"].categories == ("A1",)

    def test_every_leaf_shares_one_empty_child_set(self, toy_tax):
        leaves = [cs for cs in toy_tax.children.values() if not cs]
        assert len(leaves) == 3
        assert all(cs is leaves[0] for cs in leaves)
        assert leaves[0] == frozenset()
        assert all(type(cs) is frozenset for cs in toy_tax.children.values())
        assert toy_tax.children["A"] == {"A1", "A2"}

    def test_direct_taxonomy_does_not_follow_caller_dicts(self):
        labels = {"R": "r", "A": "a"}
        parents = {"A": {"R"}}
        concepts = {"c1": Concept("c1", {"x"}, {"A"})}
        tax = Taxonomy(labels, parents, concepts)
        labels["B"] = "b"
        parents["A"].add("B")
        parents["B"] = {"R"}
        concepts["c1"].labels.add("y")
        concepts["c2"] = Concept("c2", {"z"}, {"R"})
        assert tax.category_labels == {"R": "r", "A": "a"}
        assert tax.parents == {"R": frozenset(), "A": frozenset({"R"})}
        assert tax.concepts == {"c1": Concept("c1", ("x",), ("A",))}
        assert tax.children == {"R": frozenset({"A"}), "A": frozenset()}
        assert tax.label_index == {"x": ["c1"]}

    def test_a_parsed_concept_retains_at_most_450_bytes(self):
        # 1,000 categories in an 8-ary tree and 5,000 single-label
        # concepts on 3,000 labels; the bound sits between the frozenset
        # records (518 bytes a concept on Python 3.11) and the tuples (372)
        rng = random.Random(24)
        lines = ["C\tk0\tcategory 0\t\n"]
        lines += ["C\tk%d\tcategory %d\tk%d\n" % (i, i, (i - 1) // 8) for i in range(1, 1000)]
        lines += ["P\tp%d\tk%d\tlabel %d\n" % (j, rng.randrange(1000), rng.randrange(3000))
                  for j in range(5000)]
        tracemalloc.start()
        try:
            tax = parse_taxonomy(lines)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tax.concepts) == 5000
        assert retained / len(tax.concepts) <= 450


class TestConceptColumns:
    """A taxonomy keeps its concepts as two id-keyed columns, and
    `concepts` is a read-only view that builds each record on a read."""

    @staticmethod
    def tracked_after_load(n):
        """Containers the collector tracks after loading n concepts on one
        label field and one category field, once a young pass has
        untracked what it can."""
        lines = ["C\tR\troot\t\n", "C\tA\ta\tR\n"]
        lines += ["P\tp%d\tA\tjaguar|cat\n" % j for j in range(n)]
        gc.collect()
        before = len(gc.get_objects())
        tax = parse_taxonomy(lines)
        gc.collect(0)
        tracked = len(gc.get_objects()) - before
        assert len(tax.concepts) == n
        return tracked

    def test_a_load_tracks_no_container_per_concept(self):
        assert self.tracked_after_load(1000) == self.tracked_after_load(2000)

    def test_view_reads_the_columns(self, toy_tax):
        concepts = toy_tax.concepts
        assert list(concepts) == ["c1", "c2", "c3", "c4", "c5", "c6", "c7"]  # file order
        assert len(concepts) == 7
        assert concepts == {cid: Concept(cid, toy_tax.concept_labels[cid],
                                         toy_tax.concept_categories[cid])
                            for cid in toy_tax.concept_labels}
        assert "c1" in concepts and "c9" not in concepts
        with pytest.raises(KeyError):
            concepts["c9"]
        c2 = concepts["c2"]
        assert c2 == ("c2", ("bravo", "jaguar"), ("A1",))
        assert c2.labels is toy_tax.concept_labels["c2"]
        assert c2.categories is toy_tax.concept_categories["c2"]
        with pytest.raises(TypeError):
            concepts["c2"] = c2

    def test_constructor_copies_a_concept_view(self, toy_tax):
        built = Taxonomy(toy_tax.category_labels, toy_tax.parents, toy_tax.concepts)
        assert built.concepts == toy_tax.concepts
        assert built.label_index == toy_tax.label_index

    def test_concept_stored_under_another_id_is_an_error(self):
        concepts = {"c1": Concept("c1", ("x",), ("R",)), "c2": Concept("c3", ("y",), ("R",))}
        with pytest.raises(DataError, match="^concept under key c2 has id c3$"):
            Taxonomy({"R": "r"}, {}, concepts)

    def test_constructor_names_the_first_concept_with_no_labels(self):
        concepts = {cid: Concept(cid, labels, ("R",))
                    for cid, labels in [("c1", ("x",)), ("c2", ()), ("c3", ("x",)), ("c4", ())]}
        with pytest.raises(EmptyLabelError, match="^concept c2 has no labels$"):
            Taxonomy({"R": "r"}, {}, concepts)


class TestConceptCount:
    def test_root_covers_all(self, toy_tax):
        assert concept_count(toy_tax, "R") == 7

    def test_inner_category(self, toy_tax):
        # exhaustive descendant enumeration: {c1, c2, c3, c4}
        assert concept_count(toy_tax, "A") == 4

    def test_leaf(self, toy_tax):
        assert concept_count(toy_tax, "A2") == 1

    def test_unknown_category(self, toy_tax):
        with pytest.raises(UnknownCategoryError):
            concept_count(toy_tax, "nope")


class TestInformationContent:
    def test_root_is_zero(self, toy_tax):
        assert information_content(toy_tax, "R") == 0.0

    def test_category_b(self, toy_tax):
        # s_B=3, N=7: 1 - log4/log8 = 1/3 exactly
        got = information_content(toy_tax, "B")
        assert got == pytest.approx(1 - math.log(4) / math.log(8), abs=1e-12)
        assert got == pytest.approx(1 / 3, abs=1e-12)

    def test_empty_category_max(self):
        text = "C\tR\tRoot\t\nC\tE\tEmpty\tR\nP\tc1\tR\tx\n"
        tax = parse_taxonomy(io.StringIO(text))
        assert information_content(tax, "E") == pytest.approx(1.0)

    def test_base_invariance(self, toy_tax):
        for k in toy_tax.category_labels:
            s = concept_count(toy_tax, k)
            base10 = 1 - math.log10(1 + s) / math.log10(8)
            assert information_content(toy_tax, k) == pytest.approx(base10, abs=1e-12)


class TestMsca:
    def test_siblings(self, toy_tax):
        assert msca(toy_tax, "A1", "A2") == "A"

    def test_cross_branch(self, toy_tax):
        assert msca(toy_tax, "A1", "B1") == "R"

    def test_self(self, toy_tax):
        assert msca(toy_tax, "B1", "B1") == "B1"

    def test_unknown_category(self, toy_tax):
        with pytest.raises(UnknownCategoryError, match="nope"):
            msca(toy_tax, "A1", "nope")

    def test_matches_brute_force(self, toy_tax):
        parents, concept_cats = links(toy_tax)
        cats = sorted(toy_tax.category_labels)
        for k1 in cats:
            for k2 in cats:
                assert msca(toy_tax, k1, k2) == brute_msca(parents, concept_cats, k1, k2)


class TestSimilarities:
    def test_lin_siblings(self, toy_tax):
        ic_a, ic_a1, ic_a2 = ic(4, 7), ic(2, 7), ic(1, 7)
        expected = 2 * ic_a / (ic_a1 + ic_a2)
        got = sim_lin(toy_tax, "A1", "A2")
        assert got == pytest.approx(expected, abs=1e-12)
        assert round(got, 3) == 0.397

    def test_lin_meets_at_root(self, toy_tax):
        assert sim_lin(toy_tax, "A1", "B1") == 0.0

    def test_lin_identical(self, toy_tax):
        assert sim_lin(toy_tax, "A1", "A1") == pytest.approx(1.0)

    def test_lin_root_pair(self, toy_tax):
        assert sim_lin(toy_tax, "R", "R") == 1.0

    def test_pirro_seco_siblings(self, toy_tax):
        ic_a, ic_a1, ic_a2 = ic(4, 7), ic(2, 7), ic(1, 7)
        expected = (3 * ic_a - ic_a1 - ic_a2 + 2) / 3
        got = sim_pirro_seco(toy_tax, "A1", "A2")
        assert got == pytest.approx(expected, abs=1e-12)
        assert round(got, 3) == 0.513

    def test_pirro_seco_cross_branch(self, toy_tax):
        ic_a1, ic_b1 = ic(2, 7), ic(2, 7)
        expected = (0 - ic_a1 - ic_b1 + 2) / 3
        assert sim_pirro_seco(toy_tax, "A1", "B1") == pytest.approx(expected, abs=1e-12)

    def test_pirro_seco_identical_max_ic(self):
        text = "C\tR\tRoot\t\nC\tE\tE\tR\nP\tc1\tR\tx\n"
        tax = parse_taxonomy(io.StringIO(text))
        assert sim_pirro_seco(tax, "E", "E") == pytest.approx(1.0)


class TestSimPage:
    def test_single_pair(self, toy_tax):
        assert sim_page(toy_tax, "c1", "c3") == pytest.approx(
            sim_lin(toy_tax, "A1", "A2")
        )

    def test_self_is_one(self, toy_tax):
        assert sim_page(toy_tax, "c1", "c1") == pytest.approx(1.0)

    def test_root_only_overlap(self, toy_tax):
        assert sim_page(toy_tax, "c1", "c5") == 0.0

    def test_unknown_concept(self, toy_tax):
        with pytest.raises(UnknownConceptError):
            sim_page(toy_tax, "c1", "nope")

    @pytest.mark.parametrize("score", [
        lambda tax: mean_sim_page(tax, ["c1", "c2"], ["c3"], "bogus"),
        lambda tax: mean_sim_page(tax, ["c1"], [], "bogus"),
        lambda tax: sim_page(tax, "c1", "c3", "bogus"),
    ], ids=["mean_sim_page", "mean_sim_page-empty-context", "sim_page"])
    def test_unknown_measure(self, toy_tax, score):
        with pytest.raises(DataError, match="unknown similarity measure 'bogus'"):
            score(toy_tax)

    def test_matches_double_loop(self, toy_tax):
        parents, concept_cats = links(toy_tax)
        sim = lambda k1, k2: sim_lin(toy_tax, k1, k2)
        for p1 in toy_tax.concepts:
            for p2 in toy_tax.concepts:
                assert sim_page(toy_tax, p1, p2) == pytest.approx(
                    brute_sim_page(parents, concept_cats, sim, p1, p2)
                )


@st.composite
def small_taxonomies(draw):
    """Random DAGs with several parents per category and few concepts, so
    that many categories are concept-free (IC 1.0) and msca ties are common.
    Ids are shuffled against depth, so the id tie-break is exercised."""
    n = draw(st.integers(2, 10))
    ids = draw(st.permutations(["k%d" % i for i in range(n)]))
    parents = {ids[0]: frozenset()}
    for i in range(1, n):
        ps = draw(st.lists(st.integers(0, i - 1), min_size=1, max_size=3, unique=True))
        parents[ids[i]] = frozenset(ids[j] for j in ps)
    concepts = {}
    for j in range(draw(st.integers(1, 5))):
        cats = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True))
        pid = "p%d" % j
        concepts[pid] = Concept(pid, frozenset({"w%d" % j}), frozenset(cats))
    return Taxonomy({k: k for k in ids}, parents, concepts)


def pinned_taxonomy(parents, concept_cats):
    """A Taxonomy from category -> parent ids and concept -> category ids."""
    concepts = {
        pid: Concept(pid, frozenset({"w" + pid}), frozenset(cats))
        for pid, cats in concept_cats.items()
    }
    return Taxonomy({k: k for k in parents}, {k: frozenset(ps) for k, ps in parents.items()},
                    concepts)


class TestMatchesOracles:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(small_taxonomies())
    # a leaf of two parents whose concept also sits on one of them
    @example(pinned_taxonomy(
        {"r": [], "a": ["r"], "b": ["r"], "l": ["a", "b"]},
        {"p0": ["l", "a"], "p1": ["b"], "p2": ["l"]},
    ))
    # a leaf (l) of lower IC than an internal category (a), and a leaf
    # (k2) whose parent (k1) ties its IC and has the smaller id
    @example(pinned_taxonomy(
        {"r": [], "a": ["r"], "c": ["a"], "l": ["r"], "k1": ["r"], "k2": ["k1"]},
        {"p0": ["l"], "p1": ["l"], "p2": ["l"], "p3": ["k2"]},
    ))
    # one category, the root, which has no children
    @example(pinned_taxonomy({"r": []}, {"p0": ["r"]}))
    def test_tables_and_measures(self, tax):
        parents, concept_cats = links(tax)
        cats = sorted(tax.category_labels)
        for k in cats:
            assert k in tax.ancestors(k)
            assert tax.ancestors(k) == brute_ancestors(parents, k)
            assert concept_count(tax, k) == len(brute_concept_set(parents, concept_cats, k))
            assert information_content(tax, k) == brute_ic(parents, concept_cats, k)
            for k2 in cats:
                assert msca(tax, k, k2) == brute_msca(parents, concept_cats, k, k2)
        for measure in ("lin", "pirro_seco"):
            sim = lambda k1, k2: brute_sim(parents, concept_cats, measure, k1, k2)
            for p1 in concept_cats:
                for p2 in concept_cats:
                    assert sim_page(tax, p1, p2, measure) == brute_sim_page(
                        parents, concept_cats, sim, p1, p2
                    )
            ids = sorted(concept_cats)
            assert mean_sim_page(tax, ids, ids, measure) == [
                sum(brute_sim_page(parents, concept_cats, sim, p1, p2) for p2 in ids) / len(ids)
                for p1 in ids
            ]


class TestAncestorBits:
    """Only categories with children own an ancestor bit."""

    @staticmethod
    def assert_internal_width(tax):
        internal = sum(1 for cs in tax.children.values() if cs)
        assert internal < len(tax.category_labels)
        assert max(a.bit_length() for a in tax._anc.values()) <= internal

    def test_toy(self, toy_tax):
        self.assert_internal_width(toy_tax)

    def test_random(self):
        for seed in range(30):
            tax = random_taxonomy(random.Random(seed), max_categories=40, max_concepts=60)
            if len(tax.category_labels) > 1:
                self.assert_internal_width(tax)


class TestRandomDagProperties:
    def test_ic_and_msca_properties(self):
        for seed in range(30):
            rng = random.Random(seed)
            tax = random_taxonomy(rng, max_categories=20, max_concepts=40)
            parents, concept_cats = links(tax)
            assert information_content(tax, tax.root) == 0.0
            for k in tax.category_labels:
                v = information_content(tax, k)
                assert 0.0 <= v <= 1.0
                assert v == pytest.approx(brute_ic(parents, concept_cats, k), abs=1e-12)
                for p in tax.parents[k]:
                    assert information_content(tax, p) <= v + 1e-12
            cats = sorted(tax.category_labels)
            for _ in range(20):
                k1, k2 = rng.choice(cats), rng.choice(cats)
                assert msca(tax, k1, k2) == brute_msca(parents, concept_cats, k1, k2)
                for fn in (sim_lin, sim_pirro_seco):
                    s = fn(tax, k1, k2)
                    assert 0.0 <= s <= 1.0 + 1e-12
                    assert s == pytest.approx(fn(tax, k2, k1))


# label items: case and whitespace variants, diacritics (precomposed and
# combining), a ligature, punctuation inside multi-word labels, and
# blank items
LABEL_ITEMS = (
    "jaguar", "Jaguar", "café", "cafe", "CAFÉ", "cafe\u0301", "naïve bayes",
    "naive  Bayes", "black hole", " black hole ", "new-york city", "rock'n'roll band",
    "C++ code", "ﬁle", "file", "straße", "x", "", " ", "  ",
)
SKIPPED_LINES = ("", "# a comment", "#C\tk0\tcommented\t", "   ", " \t \t \t ")
MALFORMED_LINES = (
    "C\tk9\tsecond root\t",
    "C\tk9\tthree fields",
    "P\tp9\tk0\tx\textra",
    "Q\tk9\tunknown\tk0",
    " C\tk9\tleading space\tk0",
    "P\tp9\tk0\t | ",
    "P\tp9\t,\tx",
    "P\tp9\tzz\tx",
    "C\tk9\tdangling\tzz",
    "C\tk9\tself loop\tk0,k9",
)


@st.composite
def taxonomy_texts(draw):
    """Taxonomy text with shuffled records, skipped lines, empty and
    repeated list items, labels shared by several concepts, and now and
    then malformed lines, repeated records or a cycle."""
    n = draw(st.integers(1, 6))
    lines = ["C\tk0\troot\t" + draw(st.sampled_from(("", ",", ",,")))]
    for i in range(1, n):
        ps = draw(st.lists(st.integers(0, i - 1), min_size=1, max_size=3))
        sep = draw(st.sampled_from((",", ",,")))
        lines.append("C\tk%d\tcategory %d\t%s" % (i, i, sep.join("k%d" % j for j in ps)))
    for j in range(draw(st.integers(0, 6))):
        cats = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
        labels = draw(st.lists(st.sampled_from(LABEL_ITEMS), min_size=1, max_size=4))
        lines.append("P\tp%d\t%s\t%s" % (j, ",".join("k%d" % k for k in cats), "|".join(labels)))
    lines += draw(st.lists(st.sampled_from(SKIPPED_LINES), max_size=3))
    if lines[1:] and draw(st.integers(0, 5)) == 0:
        lines.append(draw(st.sampled_from(lines[1:])))
    bad = draw(st.integers(0, 3 * len(MALFORMED_LINES)))
    lines += MALFORMED_LINES[bad : bad + 1]
    lines = draw(st.permutations(lines))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return "".join(line + newline for line in lines)


def test_crlf_lines_parse_as_lf_lines():
    """A CRLF line's last field keeps its "\r" after the split: a
    category's parent field "\r" must still read as no parent, and "r\r"
    as the parent r."""
    crlf = "C\tr\troot\t\r\nC\ta\tA\tr\r\nP\tp\ta\tx\r\n"
    tax = parse_taxonomy(io.StringIO(crlf))
    lf = parse_taxonomy(io.StringIO(crlf.replace("\r\n", "\n")))
    assert tax.root == "r"
    assert tax.parents == lf.parents == {"r": frozenset(), "a": frozenset({"r"})}
    assert tax.label_index == lf.label_index == {"x": ["p"]}
    with pytest.raises(TaxonomyError, match="unknown record kind 'Q'"):
        parse_taxonomy(io.StringIO(crlf + "Q\r\n"))


class TestLoaderMatchesOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(taxonomy_texts())
    def test_tables_indexes_and_errors(self, text):
        try:
            want = brute_parse_taxonomy(io.StringIO(text))
        except TaxonomyError as exc:
            with pytest.raises(TaxonomyError) as got:
                parse_taxonomy(io.StringIO(text))
            assert type(got.value) is type(exc)
            return
        tax = parse_taxonomy(io.StringIO(text))
        assert tax.category_labels == want["category_labels"]
        assert tax.parents == want["parents"]
        assert {c.id: (c.labels, c.categories) for c in tax.concepts.values()} == want["concepts"]
        assert all(cid == c.id for cid, c in tax.concepts.items())
        assert tax.label_index == want["label_index"]
        assert tax.folded_label_index == want["folded_label_index"]
        index = PhraseIndex.from_taxonomy(tax)
        phrases = {tuple(t.casefold() for t in brute_tokenize(lab))
                   for labs, _ in want["concepts"].values() for lab in labs}
        phrases = {p for p in phrases if len(p) >= 2}
        assert index.phrases == phrases
        longest = {}
        for p in phrases:
            longest[p[0]] = max(longest.get(p[0], 0), len(p))
        assert index.longest == longest
        concept_cats = {cid: cats for cid, (_, cats) in want["concepts"].items()}
        for k in want["category_labels"]:
            assert tax.ancestors(k) == brute_ancestors(want["parents"], k)
            assert information_content(tax, k) == brute_ic(want["parents"], concept_cats, k)


class TestFieldFastPaths:
    """The fast paths of the field readers give what the general rule
    gives: sorted distinct non-empty items, labels normalized."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.text(alphabet="aBz09 \r|İßΣ", max_size=8), st.booleans())
    @example("alpha", True)
    @example("Alpha", True)
    @example("a b", True)
    @example("a\r", True)
    @example("", True)
    @example("", False)
    @example("ß", False)
    @example("İ", True)
    @example("a|a", True)
    def test_labels(self, text, newline):
        field = text + "\n" * newline
        want = tuple(sorted({normalize_label(item) for item in field.split("|")} - {""}))
        assert _labels(field) == want

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.text(alphabet="abAB,", max_size=8))
    @example("a,a")
    @example(",a")
    @example("a,")
    @example("a,b,c")
    @example("b,a")
    @example(",")
    def test_ids(self, field):
        assert _ids(field) == tuple(sorted(set(field.split(",")) - {""}))


class TestLoadErrorsNameTheLine:
    @pytest.mark.parametrize("line, error, message", [
        ("P\tc1\tA1\tagain", DuplicateIdError, "duplicate concept id c1"),
        ("C\tA\tA again\tR", DuplicateIdError, "duplicate category id A"),
        ("P\tc8\tA1\t | ", EmptyLabelError, "concept c8 has no labels"),
        ("P\tc8\tA1\t", EmptyLabelError, "concept c8 has no labels"),
        ("P\tc8\tA1", TaxonomyError, "P record needs 4 fields"),
        ("P\tc8\tA1\tx\ty", TaxonomyError, "P record needs 4 fields"),
        ("C\tA3\tA3\tA\tx", TaxonomyError, "C record needs 4 fields"),
        ("C\tA3\tA3", TaxonomyError, "C record needs 4 fields"),
        ("X\tc8\tA1\tx", TaxonomyError, "unknown record kind 'X'"),
    ])
    def test_record_errors(self, line, error, message):
        text = "# toy\n\n" + TOY_TAXONOMY + line + "\n"
        lineno = text.count("\n")
        with pytest.raises(error) as exc:
            parse_taxonomy(io.StringIO(text))
        assert str(exc.value) == "line %d: %s" % (lineno, message)
        with pytest.raises(error) as exc:
            parse_taxonomy(io.StringIO(text), "tax.tsv")
        assert str(exc.value) == "tax.tsv line %d: %s" % (lineno, message)
