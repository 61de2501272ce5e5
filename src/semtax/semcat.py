"""The unsupervised categorizer: term vector -> concepts (with homonym
disambiguation) -> ranked category vector.

Weight conservation holds throughout: the total category weight equals the
total weight of the terms that mapped to some concept.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import ConfigError, DataError, EmptyVectorError
from .taxonomy import CATEGORY_MEASURES, Taxonomy, fold_diacritics, mean_sim_page, normalize_label
from .textpipe import (
    BackgroundStats,
    PhraseIndex,
    TermTable,
    extract_phrases,
    tfidf_weights,
    top_n_terms,
)

DISAMBIG_METHODS = ("nearest", "rank_half", "rank_inv", "uniform")
FEATURE_MODES = ("terms", "categories", "concepts")


@dataclass
class ConceptAssignment:
    # entries: (term, concept id, weight share); shares for one term sum
    # to that term's TermVector weight
    entries: list[tuple[str, str, float]] = field(default_factory=list)
    unresolved: list[str] = field(default_factory=list)

    def total_weight(self) -> float:
        return sum(w for _, _, w in self.entries)

    def context_concepts(self) -> list[str]:
        return sorted({c for _, c, _ in self.entries})


@dataclass
class SemCatConfig:
    top_terms: int = 10
    disambig: str = "nearest"
    measure: str = "lin"
    exact_match: bool = True
    min_df: int = 2
    max_df_ratio: float = 0.5
    stopwords: frozenset[str] = frozenset()
    lemmas: dict[str, str] = field(default_factory=dict)


def check_config(config: SemCatConfig, where: str = "semcat") -> SemCatConfig:
    """config, when top_terms, disambig and measure are in range and
    max_df_ratio is finite; otherwise a DataError naming the field as
    where.<field>.  A caller reading an experiment config raises it as a
    ConfigError."""
    for name, ok, allowed in (
        ("top_terms", config.top_terms >= 1, "at least 1"),
        ("disambig", config.disambig in DISAMBIG_METHODS, "one of " + ", ".join(DISAMBIG_METHODS)),
        ("measure", config.measure in CATEGORY_MEASURES, "one of " + ", ".join(CATEGORY_MEASURES)),
        ("max_df_ratio", math.isfinite(config.max_df_ratio), "finite"),
    ):
        if not ok:
            raise DataError("has field '%s.%s' = %r, not %s"
                            % (where, name, getattr(config, name), allowed))
    return config


def map_terms_to_concepts(
    v: dict[str, float], tax: Taxonomy, exact_match: bool = True,
    memo: dict[str, list[str]] | None = None,
):
    """Match each term against concept labels: the label index entry of
    the normalized term, else, with exact_match off, the folded index
    entry of its diacritic-folded form.  Both indexes hold sorted,
    distinct concept ids.  Exactly one match -> unambiguous; several ->
    ambiguous candidates; none -> unresolved.  memo, when given, maps
    each term already looked up in tax under exact_match to its
    candidates (empty for none), and gains the terms looked up here, so
    that many documents look each term up once.
    """
    unambiguous = ConceptAssignment()
    ambiguous: dict[str, list[str]] = {}
    for term in sorted(v):
        if memo is None or (candidates := memo.get(term)) is None:
            # a lowercase ASCII letter run is its own normal form
            key = term if term.isalpha() and term.isascii() and term.islower() \
                else normalize_label(term)
            candidates = tax.label_index.get(key)
            if not candidates and not exact_match:
                candidates = tax.folded_label_index.get(fold_diacritics(key))
            if memo is not None:
                memo[term] = candidates or []
        if not candidates:
            unambiguous.unresolved.append(term)
        elif len(candidates) == 1:
            unambiguous.entries.append((term, candidates[0], v[term]))
        else:
            ambiguous[term] = list(candidates)
    return unambiguous, ambiguous


def _rank_proportions(method: str, m: int) -> list[float]:
    if method == "rank_half":
        raw = [1.0 / 2**i for i in range(1, m + 1)]
    elif method == "rank_inv":
        raw = [1.0 / i for i in range(1, m + 1)]
    else:  # uniform; disambiguate has checked the method
        raw = [1.0] * m
    total = sum(raw)
    return [r / total for r in raw]


def disambiguate(
    ambiguous: dict[str, list[str]],
    context: ConceptAssignment,
    tax: Taxonomy,
    weights: dict[str, float],
    method: str = "nearest",
    measure: str = "lin",
) -> ConceptAssignment:
    """Resolve ambiguous terms against the unambiguous context.

    Candidates are scored by mean sim_page to the context concepts and
    sorted descending (ties by concept id); the method then splits the
    term's weight over ranks, and `nearest` gives it all to the first
    candidate, found by min, or with an empty context falls back to
    `uniform`.  One taxonomy.mean_sim_page call scores every term's candidates.
    """
    if method not in DISAMBIG_METHODS:
        raise DataError("unknown disambiguation method %r" % method)
    result = ConceptAssignment()
    if not ambiguous:
        return result
    ctx = context.context_concepts()
    pool = sorted({c for candidates in ambiguous.values() for c in candidates})
    rank = {c: (-s, c) for c, s in zip(pool, mean_sim_page(tax, pool, ctx, measure))}
    if method == "nearest" and ctx:
        result.entries += [(term, min(ambiguous[term], key=rank.__getitem__), weights[term])
                           for term in sorted(ambiguous)]
        return result
    effective = "uniform" if method == "nearest" else method
    for term in sorted(ambiguous):
        scored = sorted(ambiguous[term], key=rank.__getitem__)
        props = _rank_proportions(effective, len(scored))
        w = weights[term]
        for c, p in zip(scored, props):
            if p > 0.0:
                result.entries.append((term, c, w * p))
    return result


def project_to_categories(
    assignment: ConceptAssignment, tax: Taxonomy
) -> dict[str, float]:
    """Each (concept, weight) contributes weight/m to each of the
    concept's m categories.  Keys come in order of first contribution,
    a concept's categories in the id order they are stored in, so that
    the order, and the float sums that follow it downstream, do not
    depend on the hash seed."""
    out: dict[str, float] = {}
    categories = tax.concept_categories
    for _, cid, w in assignment.entries:
        cats = categories[cid]
        share = w / len(cats)
        for k in cats:
            out[k] = out.get(k, 0.0) + share
    return out


def assign_concepts(
    v: dict[str, float], tax: Taxonomy, config: SemCatConfig,
    memo: dict[str, list[str]] | None = None,
) -> ConceptAssignment:
    """TermVector -> merged (unambiguous + disambiguated) assignment.
    memo: as for map_terms_to_concepts."""
    unamb, amb = map_terms_to_concepts(v, tax, config.exact_match, memo)
    resolved = disambiguate(amb, unamb, tax, v, config.disambig, config.measure)
    merged = ConceptAssignment(
        entries=unamb.entries + resolved.entries, unresolved=unamb.unresolved
    )
    if not merged.entries:
        raise EmptyVectorError("no term maps to any concept")
    return merged


def categorize_vector(
    v: dict[str, float], tax: Taxonomy, config: SemCatConfig
) -> dict[str, float]:
    """TermVector -> CategoryVector (unsorted dict; use top_n_categories
    for the ranking)."""
    return project_to_categories(assign_concepts(v, tax, config), tax)


def term_vector(
    text: str,
    tax: Taxonomy,
    stats: BackgroundStats,
    config: SemCatConfig,
    phrase_index: PhraseIndex | None = None,
    term_table: TermTable | None = None,
) -> dict[str, float]:
    """The document's top-n tf-idf vector.  A caller that loops over
    documents passes one phrase index of tax and one term table of
    (config, stats) to every call, whose kept idfs then weigh every
    document.  When the index has no multi-word label, no token can join
    a phrase, so the term counts come straight from the text's letter
    runs (TermTable.counts); otherwise the ordered terms go through
    extract_phrases first.  Both give the same vector."""
    table = term_table if term_table is not None else TermTable.from_config(config, stats)
    index = phrase_index if phrase_index is not None else PhraseIndex.from_taxonomy(tax)
    if index.longest:
        counts = Counter(extract_phrases(table.terms(text), index))
    else:
        counts = table.counts(text)
    if table.stats is stats:
        return table.vector(counts, config.top_terms)
    return top_n_terms(tfidf_weights(counts, stats), config.top_terms)


def categorize(
    text: str,
    tax: Taxonomy,
    stats: BackgroundStats,
    config: SemCatConfig | None = None,
    phrase_index: PhraseIndex | None = None,
) -> dict[str, float]:
    """Full pipeline: preprocess -> phrases -> tfidf -> top-n -> concepts
    -> disambiguate -> categories.  Deterministic for a fixed config.
    Over many texts, Analyzer.bag(text, "categories") shares one phrase
    index and one term table."""
    config = config or SemCatConfig()
    v = term_vector(text, tax, stats, config, phrase_index)
    return categorize_vector(v, tax, config)


def vector_features(
    v: dict[str, float], mode: str, tax: Taxonomy, config: SemCatConfig
) -> dict[str, float]:
    """The `mode` feature bag of a document's term vector `v`.  terms: the
    tf-idf term vector; categories and concepts: see
    assignment_features."""
    if mode not in FEATURE_MODES:
        raise ConfigError("unknown feature mode %r" % mode)
    if mode == "terms":
        return v
    return assignment_features(assign_concepts(v, tax, config), mode, tax)


def assignment_features(
    assignment: ConceptAssignment, mode: str, tax: Taxonomy
) -> dict[str, float]:
    """The `mode` feature bag of a merged concept assignment.  categories:
    SemCat category weights; concepts: disambiguated concept ids weighted
    by share."""
    if mode == "categories":
        return project_to_categories(assignment, tax)
    if mode != "concepts":
        raise ConfigError("unknown feature mode %r" % mode)
    bag: dict[str, float] = {}
    for _, cid, w in assignment.entries:
        bag[cid] = bag.get(cid, 0.0) + w
    return bag


class Analyzer:
    """Text to feature bags through one phrase index of tax, one term
    table of (config, stats) and one term -> concepts memo, shared by
    every document analysed.  Without a taxonomy (tax None) there is no
    phrase matching, and only `terms` bags can be built.  Each method
    returns None for a document with no features: no terms, all tf-idf
    weights zero, or (categories and concepts) no term that maps to a
    concept.  A caller that needs both the categories and the concepts
    bag of a document derives both from one assignment (see
    assignment_features)."""

    def __init__(self, tax: Taxonomy | None, stats: BackgroundStats, config: SemCatConfig):
        self.tax = tax
        self.stats = stats
        self.config = config
        self.index = PhraseIndex.from_taxonomy(tax) if tax is not None else PhraseIndex(())
        self.table = TermTable.from_config(config, stats)
        # term -> candidate concept ids, for map_terms_to_concepts
        self.candidates: dict[str, list[str]] = {}

    def vector(self, text: str) -> dict[str, float] | None:
        """The document's top-n tf-idf term vector."""
        try:
            return term_vector(text, self.tax, self.stats, self.config, self.index, self.table)
        except EmptyVectorError:
            return None

    def assignment(self, v: dict[str, float] | None) -> ConceptAssignment | None:
        """The merged concept assignment of term vector v (see
        assign_concepts)."""
        if v is None:
            return None
        try:
            return assign_concepts(v, self.tax, self.config, self.candidates)
        except EmptyVectorError:
            return None

    def bag(self, text: str, mode: str) -> dict[str, float] | None:
        """The `mode` feature bag of text (see vector_features)."""
        if mode not in FEATURE_MODES:
            raise ConfigError("unknown feature mode %r" % mode)
        v = self.vector(text)
        if v is None or mode == "terms":
            return v
        assignment = self.assignment(v)
        return None if assignment is None else assignment_features(assignment, mode, self.tax)


def top_n_categories(v: dict[str, float], n: int) -> list[tuple[str, float]]:
    """The n highest-weight categories, ties broken by category id."""
    if n < 1:
        raise DataError("n must be >= 1")
    return ranked_categories(v)[:n]


def ranked_categories(v: dict[str, float]) -> list[tuple[str, float]]:
    return sorted(v.items(), key=lambda kv: (-kv[1], kv[0]))
