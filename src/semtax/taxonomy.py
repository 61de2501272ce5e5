"""Category DAG with attached concepts, information content and
IC-based similarity measures.

The taxonomy is a rooted DAG of categories (edges point child -> parent).
Concepts attach to one or more categories and carry surface-string labels
used for matching document terms.  Everything is immutable after load;
a `Concept` is a named tuple, an immutable record built at tuple cost.

Construction is iterative, so a taxonomy of any depth loads: one Kahn
order over the child -> parent edges finds cycles and builds every table.
Loading pauses the cyclic garbage collector: a load allocates tens of
thousands of containers and a loaded taxonomy holds no reference cycles,
so the collector's passes during a load would walk them and free nothing.
Ancestor sets are bitsets whose bits rank categories by IC, ties by id, so
the most specific common abstraction (msca) of two categories, the common
ancestor of largest IC with ties broken by smallest id, is the category at
the highest set bit of the AND of their ancestor bitsets.
"""

from __future__ import annotations

import gc
import math
import unicodedata
from functools import cache, cached_property
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
    id: str
    labels: frozenset[str]
    categories: frozenset[str]


class Taxonomy:
    """Validated category DAG.  Derived tables (concept counts, IC,
    ancestor bitsets and the similarity rows built from them, the exact
    label index) are computed once in the constructor; the
    diacritic-folded label index on first use."""

    def __init__(
        self,
        category_labels: dict[str, str],
        parents: dict[str, frozenset[str]],
        concepts: dict[str, Concept],
    ):
        self.category_labels = dict(category_labels)
        self.parents = {k: frozenset(parents.get(k, ())) for k in category_labels}
        self.concepts = dict(concepts)
        self._check_categories()
        self.children: dict[str, set[str]] = {k: set() for k in self.category_labels}
        for child, ps in self.parents.items():
            for p in ps:
                self.children[p].add(child)
        order = self._children_first()
        counts = self._concept_counts = self._count_concepts(order, *self._attach_concepts())
        self.total_concepts = len(self.concepts)
        self._ic = {
            k: 1.0 - math.log(1 + s) / math.log(1 + self.total_concepts)
            for k, s in counts.items()
        }
        # bit i of an ancestor set is _by_bit[i]: bits run in (IC ascending,
        # id descending) order, so the highest one has the largest IC
        self._by_bit = sorted(counts, key=lambda k: (counts[k], k), reverse=True)
        self._ic_by_bit = [self._ic[k] for k in self._by_bit]
        bit = {k: i for i, k in enumerate(self._by_bit)}
        self._anc: dict[str, int] = {}
        for k in reversed(order):
            a = 1 << bit[k]
            for p in self.parents[k]:
                a |= self._anc[p]
            self._anc[k] = a
        # category -> (id, ancestor bitset, IC), the rows of mean_sim_page
        self._row = {k: (k, self._anc[k], self._ic[k]) for k in self._anc}
        # label -> sorted concept ids
        self.label_index: dict[str, list[str]] = {}
        for cid in sorted(self.concepts):
            for lab in self.concepts[cid].labels:
                self.label_index.setdefault(lab, []).append(cid)

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

    def _check_categories(self):
        roots = [k for k, ps in self.parents.items() if not ps]
        if len(roots) == 0:
            raise MultipleRootsError("no root category (every category has parents)")
        if len(roots) > 1:
            raise MultipleRootsError(
                "multiple root categories: %s" % ", ".join(sorted(roots))
            )
        self.root = roots[0]
        for child, ps in self.parents.items():
            for p in ps:
                if p not in self.category_labels:
                    raise DanglingLinkError(
                        "category %s has unknown parent %s" % (child, p)
                    )

    def _attach_concepts(self) -> tuple[dict[str, int], dict[str, list[str]]]:
        """Check every concept's labels and category links, in one pass
        that also returns, per category, the number of concepts attached
        to it alone and the ids of those it shares with other categories."""
        if not self.concepts:
            raise TaxonomyError("taxonomy has no concepts")
        alone = dict.fromkeys(self.category_labels, 0)
        shared: dict[str, list[str]] = {}
        for cid, concept in self.concepts.items():
            if not concept.labels:
                raise EmptyLabelError("concept %s has no labels" % cid)
            cats = concept.categories
            if not cats:
                raise DanglingLinkError("concept %s links to no category" % cid)
            for k in cats:
                if k not in alone:
                    raise DanglingLinkError(
                        "concept %s links to missing category %s" % (cid, k)
                    )
                if len(cats) == 1:
                    alone[k] += 1
                else:
                    shared.setdefault(k, []).append(cid)
        return alone, shared

    # -- derived tables --------------------------------------------------

    def _children_first(self) -> list[str]:
        """Kahn's order over child -> parent edges: every category after
        all of its children.  With one root and no cycle, every category
        reaches the root."""
        pending = {k: len(cs) for k, cs in self.children.items()}
        ready = [k for k, n in pending.items() if n == 0]
        order = []
        while ready:
            k = ready.pop()
            order.append(k)
            for p in self.parents[k]:
                pending[p] -= 1
                if pending[p] == 0:
                    ready.append(p)
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
        self, order: list[str], alone: dict[str, int], shared: dict[str, list[str]]
    ) -> dict[str, int]:
        """Concepts attached to each category or any descendant, each
        counted once.  A bitset over concepts is pushed from every category
        to its parents in children-first order and dropped once the
        category is counted.  The concepts a category is the first to
        claim take the next consecutive bits: first those attached to it
        alone, then the shared ones no descendant claimed."""
        number: dict[str, int] = {}  # bit of each claimed shared concept
        claimed = 0
        inbox: dict[str, int] = {}
        counts = {}
        for k in order:
            below = inbox.pop(k, 0)
            start = claimed
            claimed += alone[k]
            for cid in shared.get(k, ()):
                i = number.get(cid)
                if i is None:
                    number[cid] = claimed
                    claimed += 1
                else:
                    below |= 1 << i
            below |= ((1 << (claimed - start)) - 1) << start
            counts[k] = below.bit_count()
            for p in self.parents[k]:
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
        return frozenset(self._by_bit[i] for i, b in enumerate(bits) if b == "1")

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
    the two ancestor bitsets."""
    try:
        common = tax._anc[k1] & tax._anc[k2]
    except KeyError as exc:
        raise UnknownCategoryError("unknown category %s" % exc.args[0]) from None
    return tax._by_bit[common.bit_length() - 1]


def lin(ic_m: float, ic1: float, ic2: float, same: bool) -> float:
    """Lin similarity of two categories of IC ic1 and ic2 whose msca has
    IC ic_m: 2*ic_m / (ic1 + ic2).  A zero denominator (both categories
    carry the root's IC of 0) yields 1 for one category (same) and 0 for
    two."""
    denom = ic1 + ic2
    if denom == 0.0:
        return 1.0 if same else 0.0
    return 2.0 * ic_m / denom


def pirro_seco(ic_m: float, ic1: float, ic2: float, same: bool) -> float:
    """Pirro-Seco similarity of two categories of IC ic1 and ic2 whose
    msca has IC ic_m: (3*ic_m - ic1 - ic2 + 2) / 3."""
    return (3.0 * ic_m - ic1 - ic2 + 2.0) / 3.0


# measure name -> its formula on IC values
CATEGORY_MEASURES = {"lin": lin, "pirro_seco": pirro_seco}


def _measure(tax: Taxonomy, formula, k1: str, k2: str) -> float:
    ic = tax._ic
    return formula(ic[msca(tax, k1, k2)], ic[k1], ic[k2], k1 == k2)


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
    one pass.  The IC of the msca of two categories is the IC at the
    highest set bit of the AND of their bitsets."""
    formula = CATEGORY_MEASURES.get(measure)
    if formula is None:
        raise DataError("unknown similarity measure %r" % (measure,))
    row, concepts, ic_by_bit = tax._row, tax.concepts, tax._ic_by_bit
    try:
        categories = [concepts[c].categories for c in candidates]
        context_rows = [list(map(row.__getitem__, concepts[x].categories)) for x in context]
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
    bests = []  # per context concept, the best measure of each candidate
    for xrows in context_rows:
        by_row = [
            [
                formula(ic_by_bit[(a1 & a2).bit_length() - 1], ic1, ic2, k1 == k2)
                for k1, a1, ic1 in rows
            ]
            for k2, a2, ic2 in xrows
        ]
        # the best of each row against this context concept's categories,
        # then of each candidate over its rows
        scores = by_row[0] if len(by_row) == 1 else list(map(max, *by_row))
        best = scores[:m]
        for j, i in enumerate(owners, m):
            if scores[j] > best[i]:
                best[i] = scores[j]
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


def _id_set(field: str) -> frozenset[str]:
    ids = set(field.split(","))
    ids.discard("")
    return frozenset(ids)


def _label_set(field: str) -> frozenset[str]:
    labels = set(map(normalize_label, field.split("|")))
    labels.discard("")
    return frozenset(labels)


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
    fails.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _build_taxonomy(lines, source)
    finally:
        if enabled:
            gc.enable()


def _build_taxonomy(lines, source) -> Taxonomy:
    where = "line" if source is None else "%s line" % source
    cat_labels: dict[str, str] = {}
    parents: dict[str, frozenset[str]] = {}
    concepts: dict[str, Concept] = {}
    # homonyms share a label field and siblings a category field: each
    # distinct field is split and normalized once per load
    id_set, label_set = cache(_id_set), cache(_label_set)
    for lineno, raw in enumerate(lines, 1):
        fields = raw.rstrip("\n").split("\t")
        kind = fields[0]
        if kind == "P":
            if len(fields) != 4:
                raise TaxonomyError("%s %d: P record needs 4 fields" % (where, lineno))
            _, pid, cat_field, label_field = fields
            if pid in concepts:
                raise DuplicateIdError("%s %d: duplicate concept id %s" % (where, lineno, pid))
            labels = label_set(label_field)
            if not labels:
                raise EmptyLabelError("%s %d: concept %s has no labels" % (where, lineno, pid))
            concepts[pid] = Concept(pid, labels, id_set(cat_field))
        elif kind == "C":
            if len(fields) != 4:
                raise TaxonomyError("%s %d: C record needs 4 fields" % (where, lineno))
            _, cid, label, parent_field = fields
            if cid in cat_labels:
                raise DuplicateIdError("%s %d: duplicate category id %s" % (where, lineno, cid))
            cat_labels[cid] = label
            parents[cid] = id_set(parent_field)
        elif raw.strip() and not raw.startswith("#"):
            raise TaxonomyError("%s %d: unknown record kind %r" % (where, lineno, kind))
    return Taxonomy(cat_labels, parents, concepts)


def load_taxonomy(path) -> Taxonomy:
    with open(path, encoding="utf-8") as fh:
        return parse_taxonomy(fh, path)
