"""Category DAG with attached concepts, information content and
IC-based similarity measures.

The taxonomy is a rooted DAG of categories (edges point child -> parent).
Concepts attach to one or more categories and carry surface-string labels
used for matching document terms.  Everything is immutable after load.
A taxonomy keeps its concepts as two columns, `concept_labels` and
`concept_categories`, each a dict from concept id to a sorted tuple of
distinct strings: a tuple of one or two strings takes a quarter of a
frozenset's memory, leaves the cyclic garbage collector's tracking at its
first collection, and iterates in id order under any hash seed, and the
concepts of one field share one tuple.  No per-concept record is kept, so
a load leaves the collector no container per concept; `concepts` is a
read-only mapping that builds a `Concept` named tuple when it is read.

Construction is iterative, so a taxonomy of any depth loads: one Kahn
order over the child -> parent edges finds cycles and builds every table.
A load streams the lines once and hands the tables it builds to the
taxonomy, which keeps them with no second copy.  Each distinct label or
id field is read once, and the common ones take a fast path: a label of
one lowercase ASCII word is its own normal form, and a field of two ids
needs one comparison to sort.  The concepts are then tallied by their
set of categories, each distinct set checked once, and read once more
to build the label index.  Concept counts are plain sums wherever a
category has one parent; bitsets carry only what could be reached twice
(concepts of several categories, and the concepts below a category of
several parents).  Loading pauses the cyclic garbage collector: a load
allocates tens of thousands of containers and a loaded taxonomy holds no
reference cycles, so the collector's passes during a load would walk
them and free nothing.

Ancestor sets are bitsets whose bits rank categories by IC, ties by id, so
the most specific common abstraction (msca) of two categories, the common
ancestor of largest IC with ties broken by smallest id, is the category at
the highest set bit of the AND of their ancestor bitsets.  Only internal
categories, those with children, own a bit (Ait-Kaci et al. 1989): a leaf
is a common ancestor of no other category, so its set is the union of its
parents' sets, and every int is as wide as the number of internal
categories.  A pair of the same category reads that category's own IC.
"""

from __future__ import annotations

import gc
import math
import unicodedata
from collections import Counter
from collections.abc import Mapping
from functools import cached_property
from typing import NamedTuple

from .errors import (
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


def normalize_label(s: str) -> str:
    """Case-fold and collapse whitespace; applied to every concept label
    at load time and to query terms before lookup."""
    return " ".join(s.casefold().split())


def fold_diacritics(s: str) -> str:
    decomposed = unicodedata.normalize("NFKD", s)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


class Concept(NamedTuple):
    """A concept: its id, its labels and the ids of its categories.  In
    a taxonomy, labels (normalized when loaded) and categories are sorted
    tuples of distinct strings, and concepts with the same label or
    category field share one tuple."""

    id: str
    labels: tuple[str, ...]
    categories: tuple[str, ...]


class ConceptView(Mapping):
    """A taxonomy's concepts as a read-only mapping from id to `Concept`,
    in the order the concepts were given.  Each read builds its record
    from the two columns, so the fields are the columns' shared tuples."""

    __slots__ = ("_labels", "_categories")

    def __init__(self, labels: dict[str, tuple[str, ...]],
                 categories: dict[str, tuple[str, ...]]):
        self._labels = labels
        self._categories = categories

    def __getitem__(self, cid: str) -> Concept:
        return Concept(cid, self._labels[cid], self._categories[cid])

    def __contains__(self, cid) -> bool:
        return cid in self._labels

    def __iter__(self):
        return iter(self._labels)

    def __len__(self) -> int:
        return len(self._labels)


class Taxonomy:
    """Validated category DAG.  Derived tables (concept counts, IC,
    ancestor bitsets and the similarity rows built from them, the exact
    label index) are computed once in the constructor; the
    diacritic-folded label index on first use.

    Concepts are kept as two columns: `concept_labels` and
    `concept_categories` map each concept id, in the order given, to its
    labels and to the ids of its categories, and `concepts` is a
    read-only view of both that builds a `Concept` per read.

    The constructor copies its inputs: a category missing from `parents`
    has no parents, each concept must be stored under its own id
    (TaxonomyError), and each concept's labels and categories become
    sorted tuples of distinct strings, one tuple for each distinct value
    (labels are taken as given).  `children` maps each category to the
    frozenset of its children, and every leaf shares one empty
    frozenset."""

    category_labels: dict[str, str]
    parents: dict[str, frozenset[str]]
    children: dict[str, frozenset[str]]
    concept_labels: dict[str, tuple[str, ...]]
    concept_categories: dict[str, tuple[str, ...]]
    concepts: ConceptView

    def __init__(
        self,
        category_labels: dict[str, str],
        parents: dict[str, frozenset[str]],
        concepts: Mapping[str, Concept],
    ):
        shared: dict[tuple[str, ...], tuple[str, ...]] = {}

        def canonical(items) -> tuple[str, ...]:
            t = tuple(sorted(set(items)))
            return shared.setdefault(t, t)

        concept_labels, concept_categories = {}, {}
        for key, (cid, labels, cats) in concepts.items():
            if cid != key:
                raise TaxonomyError("concept under key %s has id %s" % (key, cid))
            concept_labels[key] = canonical(labels)
            concept_categories[key] = canonical(cats)
        self._build(
            dict(category_labels),
            {k: frozenset(parents.get(k, ())) for k in category_labels},
            concept_labels,
            concept_categories,
        )

    @classmethod
    def _adopt(
        cls,
        category_labels: dict[str, str],
        parents: dict[str, frozenset[str]],
        concept_labels: dict[str, tuple[str, ...]],
        concept_categories: dict[str, tuple[str, ...]],
    ) -> Taxonomy:
        """A taxonomy that owns these tables as they are: every category
        has a parents entry, and the concept columns are in the
        constructor's form, with their ids in one order.  parse_taxonomy
        builds them so, and hands them over without a second copy."""
        tax = cls.__new__(cls)
        tax._build(category_labels, parents, concept_labels, concept_categories)
        return tax

    def _build(self, category_labels, parents, concept_labels, concept_categories):
        self.category_labels = category_labels
        self.parents = parents
        self.concept_labels = concept_labels
        self.concept_categories = concept_categories
        self.concepts = ConceptView(concept_labels, concept_categories)
        self._link_categories()
        order = self._children_first()
        counts = self._concept_counts = self._count_concepts(order, self._link_concepts())
        self.label_index = self._index_labels()
        self.total_concepts = n = len(concept_labels)
        ic_of = {s: 1.0 - math.log(1 + s) / math.log(1 + n) for s in set(counts.values())}
        ic = self._ic = {k: ic_of[s] for k, s in counts.items()}
        # only categories with children (the root alone in a one-category
        # taxonomy) own a bit: bit i of an ancestor set is _by_bit[i], and
        # bits run in (IC ascending, id descending) order, so the highest
        # one has the largest IC
        internal = [k for k, cs in self.children.items() if cs] or [self.root]
        self._leaves = frozenset([k for k, cs in self.children.items() if not cs])
        self._by_bit = sorted(internal, key=lambda k: (counts[k], k), reverse=True)
        self._ic_by_bit = [ic[k] for k in self._by_bit]
        anc = dict(zip(self._by_bit, (1 << i for i in range(len(self._by_bit)))))
        parents = self.parents
        for k in reversed(order):
            a = anc.get(k, 0)
            for p in parents[k]:
                # a leaf of one parent shares the parent's int
                a = a | anc[p] if a else anc[p]
            anc[k] = a
        self._anc = anc
        # category -> (id, ancestor bitset, IC), the rows of mean_sim_page
        self._row = {k: (k, a, ic[k]) for k, a in anc.items()}

    @cached_property
    def folded_label_index(self) -> dict[str, list[str]]:
        """Diacritic-folded label -> sorted distinct concept ids, built on
        the first fuzzy lookup: labels that fold to one key pool their
        concepts, each listed once."""
        pooled: dict[str, set[str]] = {}
        for lab, cids in self.label_index.items():
            pooled.setdefault(fold_diacritics(lab), set()).update(cids)
        return {key: sorted(cids) for key, cids in pooled.items()}

    # -- validation ------------------------------------------------------

    def _link_categories(self):
        """Check for one root and for known parents, and build the child
        sets."""
        roots = [k for k, ps in self.parents.items() if not ps]
        if len(roots) == 0:
            raise MultipleRootsError("no root category (every category has parents)")
        if len(roots) > 1:
            raise MultipleRootsError(
                "multiple root categories: %s" % ", ".join(sorted(roots))
            )
        self.root = roots[0]
        labels = self.category_labels
        below: dict[str, list[str]] = {}
        for child, ps in self.parents.items():
            for p in ps:
                if p not in labels:
                    raise DanglingLinkError(
                        "category %s has unknown parent %s" % (child, p)
                    )
                cs = below.get(p)
                if cs is None:
                    below[p] = [child]
                else:
                    cs.append(child)
        children = dict.fromkeys(labels, frozenset())  # every leaf shares one
        children.update((p, frozenset(cs)) for p, cs in below.items())
        self.children = children

    def _link_concepts(self) -> Counter[tuple[str, ...]]:
        """How many concepts link to each set of categories.  Each
        distinct set is checked once, and a bad concept is named by
        _check_concepts."""
        if not self.concept_categories:
            raise TaxonomyError("taxonomy has no concepts")
        links = Counter(self.concept_categories.values())
        if () in links or not frozenset().union(*links) <= self.category_labels.keys():
            self._check_concepts()
        return links

    def _index_labels(self) -> dict[str, list[str]]:
        """Label -> sorted concept ids: one pass over the concepts appends
        each id to its labels' lists, then each list of several ids is
        replaced by a sorted() copy, which is also exactly sized.  A
        concept with no label is named by _check_concepts."""
        index: dict[str, list[str]] = {}
        for cid, labels in self.concept_labels.items():
            for lab in labels:
                cids = index.get(lab)
                if cids is None:
                    index[lab] = [cid]
                else:
                    cids.append(cid)
        if not all(self.concept_labels.values()):
            self._check_concepts()
        for lab, cids in index.items():
            if len(cids) > 1:
                index[lab] = sorted(cids)
        return index

    def _check_concepts(self):
        """Raise the error of the first concept, in order, that has no
        label or a missing or unknown category."""
        categories = self.concept_categories
        for cid, labels in self.concept_labels.items():
            cats = categories[cid]
            if not labels:
                raise EmptyLabelError("concept %s has no labels" % cid)
            if not cats:
                raise DanglingLinkError("concept %s links to no category" % cid)
            for k in cats:
                if k not in self.category_labels:
                    raise DanglingLinkError(
                        "concept %s links to missing category %s" % (cid, k)
                    )

    # -- derived tables --------------------------------------------------

    def _children_first(self) -> list[str]:
        """Kahn's order over child -> parent edges: every category after
        all of its children.  With one root and no cycle, every category
        reaches the root."""
        pending = {k: len(cs) for k, cs in self.children.items()}
        order = [k for k, n in pending.items() if n == 0]
        parents = self.parents
        for k in order:  # grows while it is read
            for p in parents[k]:
                n = pending[p] - 1
                pending[p] = n
                if not n:
                    order.append(p)
        if len(order) < len(pending):
            # a category left over still waits on a child left over, so
            # walking down such children comes back to a category on a cycle
            k = min(k for k, n in pending.items() if n)
            seen = set()
            while k not in seen:
                seen.add(k)
                k = min(c for c in self.children[k] if pending[c])
            raise CycleError("cycle detected through category %s" % k)
        return order

    def _count_concepts(
        self, order: list[str], links: Counter[tuple[str, ...]]
    ) -> dict[str, int]:
        """Concepts attached to each category or any descendant, each
        counted once, in children-first order from `links` (concepts per
        set of categories).

        A category's plain count is the concepts attached to it alone
        plus the plain counts of its children of one parent.  What a
        category could reach by two paths goes into a bitset that is
        pushed to its parents: the concepts of each set of several
        categories take consecutive bits, all claimed in one pass over
        `links` before the walk, and the plain count of a category of
        several parents takes the next ones in the walk.  A category's
        count is its plain count plus the bits set below it, so where
        neither lies below, as everywhere in a tree, the bitset stays 0."""
        parents = self.parents
        plain = dict.fromkeys(self.category_labels, 0)
        own: dict[str, int] = {}  # category -> bits of its sets of several
        claimed = 0
        for cats, n in links.items():
            if len(cats) == 1:
                plain[cats[0]] += n
            else:
                bits = ((1 << n) - 1) << claimed
                claimed += n
                for k in cats:
                    own[k] = own.get(k, 0) | bits
        inbox: dict[str, int] = {}
        counts = {}
        for k in order:
            below = inbox.pop(k, 0) | own.pop(k, 0)
            n = plain[k]
            counts[k] = n + below.bit_count()
            ps = parents[k]
            if len(ps) == 1:
                for p in ps:
                    plain[p] += n
            elif ps:
                below |= ((1 << n) - 1) << claimed
                claimed += n
            if below:
                for p in ps:
                    inbox[p] = inbox.get(p, 0) | below
        return counts

    # -- queries ---------------------------------------------------------

    def _require_category(self, k: str):
        if k not in self.category_labels:
            raise UnknownCategoryError("unknown category %s" % k)

    def ancestors(self, k: str) -> frozenset[str]:
        """Categories reachable upward from k, including k."""
        self._require_category(k)
        bits = bin(self._anc[k])[:1:-1]  # character i is bit i
        return frozenset([k, *(self._by_bit[i] for i, b in enumerate(bits) if b == "1")])

    def descendants(self, k: str) -> set[str]:
        """Categories reachable downward from k, including k."""
        self._require_category(k)
        seen = {k}
        stack = [k]
        while stack:
            for c in self.children[stack.pop()]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return seen


def concept_count(tax: Taxonomy, k: str) -> int:
    tax._require_category(k)
    return tax._concept_counts[k]


def information_content(tax: Taxonomy, k: str) -> float:
    """IC(k) = 1 - log(1 + s_k) / log(1 + N); 0 at the root, 1 for empty
    categories.  Base-independent (ratio of logarithms)."""
    tax._require_category(k)
    return tax._ic[k]


def msca(tax: Taxonomy, k1: str, k2: str) -> str:
    """Most specific common abstraction: the common ancestor with maximal
    IC.  A category counts as its own ancestor; ties broken by smallest
    category id.  It is the category at the highest set bit of the AND of
    the two ancestor bitsets, except for a leaf against itself: a leaf has
    no bit, and is its own msca unless an ancestor ties its IC with a
    smaller id."""
    try:
        common = tax._anc[k1] & tax._anc[k2]
    except KeyError as exc:
        raise UnknownCategoryError("unknown category %s" % exc.args[0]) from None
    top = tax._by_bit[common.bit_length() - 1]
    if k1 == k2 and k1 in tax._leaves:
        counts = tax._concept_counts
        if counts[top] != counts[k1] or k1 < top:
            return k1
    return top


def lin(ic_at, rows, k2, a2, ic2) -> list[float]:
    """Lin similarity of category k2 (ancestor bitset a2, IC ic2) to each
    row (id, ancestor bitset, IC ic1) of rows: 2*ic_m / (ic1 + ic2), where
    ic_m, the IC of the two categories' msca, is ic_at[i] for the highest
    bit i of the AND of their bitsets.  A zero denominator (both
    categories have IC 0, as the root has) yields 1 for one category and
    0 for two."""
    # a zero denominator needs ic2 == 0: those rows divide by 1, then are set below
    safe = rows if ic2 else [(k1, a1, ic1 or 1.0) for k1, a1, ic1 in rows]
    scores = [2.0 * ic_at[(a1 & a2).bit_length() - 1] / (ic1 + ic2) for _, a1, ic1 in safe]
    if not ic2:
        scores = [s if ic1 else float(k1 == k2) for (k1, _, ic1), s in zip(rows, scores)]
    return scores


def pirro_seco(ic_at, rows, k2, a2, ic2) -> list[float]:
    """Pirro-Seco similarity of category k2 to each row (see lin):
    (3*ic_m - ic1 - ic2 + 2) / 3."""
    return [(3.0 * ic_at[(a1 & a2).bit_length() - 1] - ic1 - ic2 + 2.0) / 3.0
            for _, a1, ic1 in rows]


# measure name -> its formula, scoring one category against rows of
# categories
CATEGORY_MEASURES = {"lin": lin, "pirro_seco": pirro_seco}


def _measure(tax: Taxonomy, formula, k1: str, k2: str) -> float:
    """formula on one pair: one row, whose one bit carries the msca's IC."""
    ic = tax._ic
    return formula([ic[msca(tax, k1, k2)]], [(k1, 1, ic[k1])], k2, 1, ic[k2])[0]


def sim_lin(tax: Taxonomy, k1: str, k2: str) -> float:
    """Lin similarity of categories k1 and k2 (see lin)."""
    return _measure(tax, lin, k1, k2)


def sim_pirro_seco(tax: Taxonomy, k1: str, k2: str) -> float:
    """Pirro-Seco similarity of categories k1 and k2 (see pirro_seco)."""
    return _measure(tax, pirro_seco, k1, k2)


def mean_sim_page(
    tax: Taxonomy, candidates: list[str], context: list[str], measure: str = "lin"
) -> list[float]:
    """For each candidate concept, its mean sim_page to the context
    concepts: the best category-pair measure against each context
    concept, summed in context order and divided by the context size.
    Every mean is 0.0 when the context is empty.

    Each category of the concepts is one row (id, ancestor bitset, IC),
    and each context category is scored against every candidate row in
    one pass of the measure, with no Python call per pair.  The IC of the
    msca of two categories is the IC at the highest set bit of the AND of
    their bitsets.

    A leaf owns no bit, so the pass scores a leaf against itself at the
    IC of its best ancestor, which is no more than its own; both measures
    grow with the msca's IC, so a candidate of that leaf then takes the
    leaf's score at its own IC if that is higher."""
    formula = CATEGORY_MEASURES.get(measure)
    if formula is None:
        raise DataError("unknown similarity measure %r" % (measure,))
    row, concept_categories, ic_by_bit = tax._row, tax.concept_categories, tax._ic_by_bit
    try:
        categories = [concept_categories[c] for c in candidates]
        context_categories = [concept_categories[x] for x in context]
    except KeyError as exc:
        raise UnknownConceptError("unknown concept %s" % exc.args[0]) from None
    if not context:
        return [0.0] * len(candidates)
    # rows[i] is the first category of candidate i for i < m, and
    # rows[m + j] another category of candidate owners[j]
    rows, more, owners = [], [], []
    for i, ks in enumerate(categories):
        k, *others = ks
        rows.append(row[k])
        for k in others:
            more.append(row[k])
            owners.append(i)
    m = len(rows)
    rows += more
    leaves, ic = tax._leaves, tax._ic
    bests = []  # per context concept, the best measure of each candidate
    for xcats in context_categories:
        by_row = [formula(ic_by_bit, rows, *row[k2]) for k2 in xcats]
        # the best of each row against this context concept's categories,
        # then of each candidate over its rows
        scores = by_row[0] if len(by_row) == 1 else list(map(max, *by_row))
        best = scores[:m]
        for j, i in enumerate(owners, m):
            if scores[j] > best[i]:
                best[i] = scores[j]
        if not leaves.isdisjoint(xcats):  # a leaf, against itself at its own IC
            for k in leaves.intersection(xcats):
                # one row against itself, whose one bit carries k's IC
                own = formula([ic[k]], [(k, 1, ic[k])], k, 1, ic[k])[0]
                for i, ks in enumerate(categories):
                    if k in ks:
                        best[i] = max(best[i], own)
        bests.append(best)
    n = len(context)
    # the builtin sum, in context order: Python 3.12 compensates its float
    # additions, and a running += would round differently there
    return [sum(column) / n for column in zip(*bests)]


def sim_page(tax: Taxonomy, p1: str, p2: str, measure: str = "lin") -> float:
    """Concept similarity: max of the category measure over all pairs of
    categories the two concepts belong to (mean_sim_page of one pair)."""
    return mean_sim_page(tax, [p1], [p2], measure)[0]


# -- loading -------------------------------------------------------------


def _ids(field: str) -> tuple[str, ...]:
    """The sorted distinct ids of a comma-separated field, empty items
    dropped.  A field of one id or of two non-empty ids, the common
    shapes, is read with no set and no sort."""
    if "," not in field:
        return (field,) if field else ()
    a, _, b = field.partition(",")
    if a and b and "," not in b:
        return (a,) if a == b else (a, b) if a < b else (b, a)
    ids = set(field.split(","))
    ids.discard("")
    return tuple(sorted(ids))


def _labels(field: str) -> tuple[str, ...]:
    """The sorted distinct normalized labels of a |-separated field,
    empty labels dropped.  A field of one lowercase ASCII word, less its
    trailing whitespace (the record's newline), is its own normal form,
    by the test semcat.map_terms_to_concepts applies to query terms, so
    it is taken as it is, with no case-fold, split or join."""
    if "|" not in field:
        word = field.rstrip()
        if word.isalpha() and word.isascii() and word.islower():
            return (word,)
        label = normalize_label(word)
        return (label,) if label else ()
    labels = set(map(normalize_label, field.split("|")))
    labels.discard("")
    return tuple(sorted(labels))


def parse_taxonomy(lines, source=None) -> Taxonomy:
    """Parse the line-delimited taxonomy format.

    Records: ``C<TAB>id<TAB>label<TAB>parent[,parent...]`` (root has an
    empty parent field) and ``P<TAB>id<TAB>cat[,cat...]<TAB>label[|label...]``.
    Blank lines and lines starting with ``#`` are skipped; empty list
    items are dropped.  Order-independent; duplicate ids are a load
    error.  An error in a record names its line, after `source` (the
    file) when given.

    The cyclic garbage collector is paused, process-wide, while the
    taxonomy is built, and left as the caller had it, also when the load
    fails.  The taxonomy owns the tables the parse builds, with no second
    copy.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _build_taxonomy(lines, source)
    finally:
        if enabled:
            gc.enable()


def _build_taxonomy(lines, source) -> Taxonomy:
    cat_labels: dict[str, str] = {}
    parents: dict[str, frozenset[str]] = {}
    concept_labels: dict[str, tuple[str, ...]] = {}
    concept_categories: dict[str, tuple[str, ...]] = {}
    # homonyms share a label field and siblings a category or parent
    # field: each distinct field is split and normalized once per load
    # (checked for labels then, too), and its concepts or categories
    # share the result
    parent_sets: dict[str, frozenset[str]] = {}
    category_ids: dict[str, tuple[str, ...]] = {}
    label_tuples: dict[str, tuple[str, ...]] = {}
    for lineno, raw in enumerate(lines, 1):
        # the newline stays on the last field: normalizing drops it from
        # labels, and parent fields strip it
        try:
            kind, rid, third, fourth = raw.split("\t")
        except ValueError:  # not a record of 4 fields
            kind = None
        if kind == "P":
            if rid in concept_labels:
                raise _line_error(DuplicateIdError, source, lineno,
                                  "duplicate concept id %s" % rid)
            labels = label_tuples.get(fourth)
            if labels is None:
                labels = label_tuples[fourth] = _labels(fourth)
                if not labels:
                    raise _line_error(EmptyLabelError, source, lineno,
                                      "concept %s has no labels" % rid)
            cats = category_ids.get(third)
            if cats is None:
                cats = category_ids[third] = _ids(third)
            concept_labels[rid] = labels
            concept_categories[rid] = cats
            continue
        if kind == "C":
            if rid in cat_labels:
                raise _line_error(DuplicateIdError, source, lineno,
                                  "duplicate category id %s" % rid)
            cat_labels[rid] = third
            fourth = fourth.rstrip("\n")
            ps = parent_sets.get(fourth)
            if ps is None:
                ps = parent_sets[fourth] = frozenset(_ids(fourth))
            parents[rid] = ps
            continue
        kind = raw.rstrip("\n").split("\t")[0]
        if kind in ("C", "P"):
            raise _line_error(TaxonomyError, source, lineno, "%s record needs 4 fields" % kind)
        if raw.strip() and not raw.startswith("#"):
            raise _line_error(TaxonomyError, source, lineno, "unknown record kind %r" % kind)
    return Taxonomy._adopt(cat_labels, parents, concept_labels, concept_categories)


def _line_error(error, source, lineno, message):
    where = "line" if source is None else "%s line" % source
    return error("%s %d: %s" % (where, lineno, message))


def load_taxonomy(path) -> Taxonomy:
    with open(path, encoding="utf-8") as fh:
        return parse_taxonomy(fh, path)
