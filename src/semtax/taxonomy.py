"""Category DAG with attached concepts, information content and
IC-based similarity measures.

The taxonomy is a rooted DAG of categories (edges point child -> parent).
Concepts attach to one or more categories and carry surface-string labels
used for matching document terms.  Everything is immutable after load.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass, field

from .errors import (
    CycleError,
    DanglingLinkError,
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


@dataclass(frozen=True)
class Concept:
    id: str
    labels: frozenset[str]
    categories: frozenset[str]


class Taxonomy:
    """Validated category DAG.  Derived tables (ancestors, concept counts,
    IC, label indexes) are computed once in the constructor."""

    def __init__(
        self,
        category_labels: dict[str, str],
        parents: dict[str, frozenset[str]],
        concepts: dict[str, Concept],
    ):
        self.category_labels = dict(category_labels)
        self.parents = {k: frozenset(parents.get(k, ())) for k in category_labels}
        self.concepts = dict(concepts)
        self._validate()
        self.children: dict[str, set[str]] = {k: set() for k in self.category_labels}
        for child, ps in self.parents.items():
            for p in ps:
                self.children[p].add(child)
        self._ancestors = self._compute_ancestors()
        self._concept_counts = self._compute_concept_counts()
        self.total_concepts = len(self.concepts)
        self._ic = {
            k: 1.0 - math.log(1 + s) / math.log(1 + self.total_concepts)
            for k, s in self._concept_counts.items()
        }
        # label -> sorted concept ids; exact index plus a diacritic-folded one
        self.label_index: dict[str, list[str]] = {}
        self.folded_label_index: dict[str, list[str]] = {}
        for cid in sorted(self.concepts):
            for lab in self.concepts[cid].labels:
                self.label_index.setdefault(lab, []).append(cid)
                self.folded_label_index.setdefault(fold_diacritics(lab), []).append(cid)

    # -- validation ------------------------------------------------------

    def _validate(self):
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
        self._check_acyclic()
        for cid, concept in self.concepts.items():
            if not concept.labels:
                raise EmptyLabelError("concept %s has no labels" % cid)
            if not concept.categories:
                raise DanglingLinkError("concept %s links to no category" % cid)
            for k in concept.categories:
                if k not in self.category_labels:
                    raise DanglingLinkError(
                        "concept %s links to missing category %s" % (cid, k)
                    )

    def _check_acyclic(self):
        # iterative DFS over child->parent edges; 0 unvisited, 1 on stack, 2 done
        state = {k: 0 for k in self.category_labels}
        for start in self.category_labels:
            if state[start]:
                continue
            stack = [(start, iter(sorted(self.parents[start])))]
            state[start] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for p in it:
                    if state[p] == 1:
                        raise CycleError("cycle detected through category %s" % p)
                    if state[p] == 0:
                        state[p] = 1
                        stack.append((p, iter(sorted(self.parents[p]))))
                        advanced = True
                        break
                if not advanced:
                    state[node] = 2
                    stack.pop()

    # -- derived tables --------------------------------------------------

    def _compute_ancestors(self) -> dict[str, frozenset[str]]:
        memo: dict[str, frozenset[str]] = {}

        def anc(k: str) -> frozenset[str]:
            if k in memo:
                return memo[k]
            acc = {k}
            for p in self.parents[k]:
                acc |= anc(p)
            memo[k] = frozenset(acc)
            return memo[k]

        for k in self.category_labels:
            anc(k)
        # the recursive closure refers to itself and to this taxonomy;
        # dropping it lets reference counting free a discarded taxonomy
        # without waiting for the cyclic collector
        del anc
        for k, a in memo.items():
            if self.root not in a:
                raise TaxonomyError("category %s does not reach root" % k)
        return memo

    def _compute_concept_counts(self) -> dict[str, int]:
        # concepts attached to a category or any descendant, each counted once
        direct: dict[str, set[str]] = {k: set() for k in self.category_labels}
        for cid, concept in self.concepts.items():
            for k in concept.categories:
                direct[k].add(cid)
        memo: dict[str, frozenset[str]] = {}

        def below(k: str) -> frozenset[str]:
            if k in memo:
                return memo[k]
            acc = set(direct[k])
            for c in self.children[k]:
                acc |= below(c)
            memo[k] = frozenset(acc)
            return memo[k]

        counts = {k: len(below(k)) for k in self.category_labels}
        del below  # as in _compute_ancestors
        return counts

    # -- queries ---------------------------------------------------------

    def _require_category(self, k: str):
        if k not in self.category_labels:
            raise UnknownCategoryError("unknown category %s" % k)

    def _require_concept(self, p: str):
        if p not in self.concepts:
            raise UnknownConceptError("unknown concept %s" % p)

    def ancestors(self, k: str) -> frozenset[str]:
        self._require_category(k)
        return self._ancestors[k]

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
    category id."""
    common = tax.ancestors(k1) & tax.ancestors(k2)
    return max(common, key=lambda k: (tax._ic[k], _NegStr(k)))


class _NegStr:
    """Orders strings in reverse so that max() picks the smallest id."""

    __slots__ = ("s",)

    def __init__(self, s):
        self.s = s

    def __lt__(self, other):
        return self.s > other.s

    def __eq__(self, other):
        return self.s == other.s


def sim_lin(tax: Taxonomy, k1: str, k2: str) -> float:
    """Lin similarity: 2*IC(msca) / (IC(k1) + IC(k2)).  Zero denominator
    (both arguments carry the root's IC of 0) yields 1 for identical
    arguments and 0 otherwise."""
    a = msca(tax, k1, k2)
    denom = tax._ic[k1] + tax._ic[k2]
    if denom == 0.0:
        return 1.0 if k1 == k2 else 0.0
    return 2.0 * tax._ic[a] / denom


def sim_pirro_seco(tax: Taxonomy, k1: str, k2: str) -> float:
    """Pirro-Seco similarity: (3*IC(msca) - IC(k1) - IC(k2) + 2) / 3."""
    a = msca(tax, k1, k2)
    return (3.0 * tax._ic[a] - tax._ic[k1] - tax._ic[k2] + 2.0) / 3.0


_CATEGORY_MEASURES = {"lin": sim_lin, "pirro_seco": sim_pirro_seco}


def sim_page(tax: Taxonomy, p1: str, p2: str, measure: str = "lin") -> float:
    """Concept similarity: max of the category measure over all pairs of
    categories the two concepts belong to."""
    tax._require_concept(p1)
    tax._require_concept(p2)
    fn = _CATEGORY_MEASURES[measure]
    return max(
        fn(tax, k1, k2)
        for k1 in tax.concepts[p1].categories
        for k2 in tax.concepts[p2].categories
    )


# -- loading -------------------------------------------------------------


def parse_taxonomy(lines) -> Taxonomy:
    """Parse the line-delimited taxonomy format.

    Records: ``C<TAB>id<TAB>label<TAB>parent[,parent...]`` (root has an
    empty parent field) and ``P<TAB>id<TAB>cat[,cat...]<TAB>label[|label...]``.
    Order-independent; duplicate ids are a load error.
    """
    cat_labels: dict[str, str] = {}
    parents: dict[str, frozenset[str]] = {}
    concepts: dict[str, Concept] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        kind = fields[0]
        if kind == "C":
            if len(fields) != 4:
                raise TaxonomyError("line %d: C record needs 4 fields" % lineno)
            _, cid, label, parent_field = fields
            if cid in cat_labels:
                raise DuplicateIdError("duplicate category id %s" % cid)
            cat_labels[cid] = label
            ps = [p for p in parent_field.split(",") if p]
            parents[cid] = frozenset(ps)
        elif kind == "P":
            if len(fields) != 4:
                raise TaxonomyError("line %d: P record needs 4 fields" % lineno)
            _, pid, cat_field, label_field = fields
            if pid in concepts:
                raise DuplicateIdError("duplicate concept id %s" % pid)
            cats = frozenset(c for c in cat_field.split(",") if c)
            labels = frozenset(
                normalize_label(l) for l in label_field.split("|") if l.strip()
            )
            if not labels:
                raise EmptyLabelError("concept %s has no labels" % pid)
            concepts[pid] = Concept(id=pid, labels=labels, categories=cats)
        else:
            raise TaxonomyError("line %d: unknown record kind %r" % (lineno, kind))
    return Taxonomy(cat_labels, parents, concepts)


def load_taxonomy(path) -> Taxonomy:
    with open(path, encoding="utf-8") as fh:
        return parse_taxonomy(fh)
