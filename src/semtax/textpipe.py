"""Raw text -> normalized tf-idf term/phrase vector.

Document frequencies come from a background corpus; vectors are
L1-normalized so that downstream category weights form a distribution.
"""

from __future__ import annotations

import math
import os
import re
from collections import Counter
from dataclasses import dataclass
from operator import neg
from typing import TYPE_CHECKING

from .errors import DataError, EmptyVectorError
from .taxonomy import Taxonomy

if TYPE_CHECKING:
    from .semcat import SemCatConfig

# Unicode letter runs only: language-neutral tokenization.
_TOKEN_RE = re.compile(r"[^\W\d_]+", re.UNICODE)
# On ASCII text the letter runs are the runs of [A-Za-z]; every other
# ASCII character, whitespace included, separates them.  One translate
# pass lowercases A-Z and turns each separator into a space.
_ASCII_RUNS = str.maketrans({chr(c): chr(c).lower() if chr(c).isalpha() else " "
                             for c in range(128) if not chr(c).islower()})


@dataclass(frozen=True)
class BackgroundStats:
    doc_count: int
    doc_freq: dict[str, int]

    def df(self, term: str) -> int:
        """Document frequency with unseen terms treated as df=1, so novel
        vocabulary (which concept labels may still match) keeps a high idf
        instead of being discarded."""
        return self.doc_freq.get(term, 1)


def _check_entry(term, n, where):
    """DataError for a blank term or a count below 1 (term None: the
    document count); where(term) gives the place and the shown value of
    the entry."""
    if term is not None and not term.strip():
        raise DataError("%s: blank term in %s" % where(term))
    if n < 1:
        raise DataError("%s: counts must be at least 1, got %s" % where(term))


def check_background(doc_count, doc_freq, where):
    """DataError for the first bad entry of a model file's background
    statistics, in order: the document count, then the terms of
    doc_freq.  Every count is at least 1, no term is blank, and the
    first largest df is no larger than the document count.  The counts
    are checked in bulk, and the entries are walked only to name a bad
    one: where(term) gives the field of an entry and its value, term
    None for the document count."""
    counts = doc_freq.values()
    if doc_count < 1 or min(counts, default=1) < 1 or not all(map(str.strip, doc_freq)):
        _check_entry(None, doc_count, where)
        for term, n in doc_freq.items():
            _check_entry(term, n, where)
    top_df = max(counts, default=0)
    if top_df > doc_count:
        place, shown = where(next(t for t, n in doc_freq.items() if n == top_df))
        raise DataError("%s: df is larger than #docs=%d, got %s" % (place, doc_count, shown))


def build_background(token_docs) -> BackgroundStats:
    """Build stats from an iterable of token sequences (one per document);
    a sequence may repeat a token, or be a term -> count dict, whose keys
    are its tokens."""
    df: Counter = Counter()
    n = 0
    for tokens in token_docs:
        n += 1
        df.update(set(tokens))
    return BackgroundStats(doc_count=max(n, 1), doc_freq=dict(df))


def _letter_runs(text: str) -> list[str]:
    """text's letter runs, in order: ASCII text is translated and split
    in C, and its runs come out lowercased; any other text goes through
    _TOKEN_RE, with each run as written.  (Lowercasing a whole non-ASCII
    text is not the same: "İ" lowers to "i" and a combining dot, which
    is no letter, and a final sigma depends on what follows it.)"""
    if text.isascii():
        return text.translate(_ASCII_RUNS).split()
    return _TOKEN_RE.findall(text)


def tokenize(text: str) -> list[str]:
    """text's letter runs, each lowercased."""
    runs = _letter_runs(text)
    return runs if text.isascii() else [s.lower() for s in runs]


_UNSEEN = object()  # a surface with no decision yet


class TermTable:
    """Each surface token's term, or None when the token is dropped,
    decided once per surface on first sight: lowercase, drop stopwords,
    apply the lemma map, then drop terms outside the document-frequency
    cutoffs.  ASCII surfaces come lowercased from _letter_runs, so every
    case form of an ASCII word shares one entry.  Build one table per
    batch of documents that share these settings.  terms(text) gives a
    text's terms in order, for phrase matching; counts(text) gives only
    each term's count, from the text's letter runs counted first, for a
    caller with no phrases to match.

    Cutoffs apply only to terms the background corpus has seen; unseen
    terms are kept (they may still match concept labels).  With stats,
    the table also keeps each kept term's idf, stored when the term is
    first seen (a phrase term's when first weighed), so that
    vector(counts, n) weighs a document with no df lookup or log.
    """

    def __init__(
        self,
        stopwords: frozenset[str] | set[str] = frozenset(),
        lemmas: dict[str, str] | None = None,
        stats: BackgroundStats | None = None,
        min_df: int = 2,
        max_df_ratio: float = 0.5,
    ):
        self.stopwords = stopwords
        self.lemmas = lemmas or {}
        self.stats = stats
        self.min_df = min_df
        self.max_df_ratio = max_df_ratio
        self._terms: dict[str, str | None] = {}
        self.idf = _Idf.of(stats) if stats is not None else None

    @classmethod
    def from_config(
        cls, config: "SemCatConfig", stats: BackgroundStats | None = None
    ) -> "TermTable":
        """The table of config's preprocessing; without stats, no cutoffs."""
        return cls(config.stopwords, config.lemmas, stats, config.min_df, config.max_df_ratio)

    def _decide(self, surface: str) -> str | None:
        tok = surface.lower()
        if tok in self.stopwords:
            return None
        tok = self.lemmas.get(tok, tok)
        stats = self.stats
        if stats is not None:
            df = stats.doc_freq.get(tok)
            if df is None:
                df = 1
            elif df < self.min_df or df / stats.doc_count > self.max_df_ratio:
                return None
            # the term's _Idf entry, from the df at hand; with no valid
            # log, weighing raises what it raised before
            if df > 0 and stats.doc_count >= 1:
                self.idf[tok] = math.log(stats.doc_count / df)
        return tok

    def terms(self, text: str) -> list[str]:
        """The kept terms of text's letter-run tokens, in text order."""
        surfaces = _letter_runs(text)
        table = self._terms
        for s in set(surfaces).difference(table):
            table[s] = self._decide(s)
        return [t for t in map(table.__getitem__, surfaces) if t is not None]

    def counts(self, text: str) -> dict[str, int]:
        """Each kept term of text with its number of tokens, in order of
        first occurrence: Counter(self.terms(text)), but with the letter
        runs counted first, so that each distinct surface is looked up
        once per text."""
        table = self._terms
        out: dict[str, int] = {}
        for s, n in Counter(_letter_runs(text)).items():
            t = table.get(s, _UNSEEN)
            if t is _UNSEEN:
                t = table[s] = self._decide(s)
            if t is not None:
                out[t] = out.get(t, 0) + n
        return out

    def vector(self, counts: dict[str, int], n: int) -> dict[str, float]:
        """top_n_terms(tfidf_weights(counts, self.stats), n), bit for bit,
        with each term's idf taken from the table."""
        return _vector(counts, self.stats, self.idf, n)


def preprocess(
    text: str,
    stopwords: frozenset[str] | set[str] = frozenset(),
    lemmas: dict[str, str] | None = None,
    stats: BackgroundStats | None = None,
    min_df: int = 2,
    max_df_ratio: float = 0.5,
) -> list[str]:
    """The terms of one text (see TermTable)."""
    return TermTable(stopwords, lemmas, stats, min_df, max_df_ratio).terms(text)


class PhraseIndex:
    """Multi-word concept labels, indexed for greedy longest-match:
    `phrases` holds each label's tokens, casefolded as concept labels
    are, and `longest` maps each first token to the length of the longest
    label it starts."""

    def __init__(self, phrases):
        self.phrases: set[tuple[str, ...]] = set()
        self.longest: dict[str, int] = {}
        for p in phrases:
            toks = tokenize(p)
            # a lowercased ASCII token is its own casefold
            toks = tuple(toks if p.isascii() else map(str.casefold, toks))
            if len(toks) >= 2:
                self.phrases.add(toks)
                self.longest[toks[0]] = max(self.longest.get(toks[0], 0), len(toks))

    @classmethod
    def from_taxonomy(cls, tax: Taxonomy) -> "PhraseIndex":
        """The index of tax's distinct labels; a label that is one letter
        run is one token, never a phrase, so it is not tokenized.  An
        ASCII label is one run when it is all letters."""
        return cls(lab for lab in tax.label_index
                   if not (lab.isalpha() if lab.isascii() else _TOKEN_RE.fullmatch(lab)))


def extract_phrases(tokens: list[str], index: PhraseIndex) -> list[str]:
    """Greedy leftmost-longest match of multi-word labels; matched spans
    become single space-joined phrase terms, everything else passes
    through.  A span matches a label when its tokens' casefolds do
    ("große straße" matches "grosse strasse"), and the phrase term joins
    the tokens as they are.  Lowercase ASCII tokens are their own
    casefolds, so they are folded only when some token is not ASCII.
    Spans are tried only where a label starts, and the tokens between
    such places are copied as slices."""
    longest = index.longest
    keys = tokens if "".join(tokens).isascii() else [t.casefold() for t in tokens]
    starts = [i for i, t in enumerate(keys) if t in longest]
    if not starts:
        return list(tokens)
    out = []
    i = 0  # tokens before i are done
    for s in starts:
        if s < i:  # inside the phrase just matched
            continue
        out += tokens[i:s]
        span = min(longest[keys[s]], len(tokens) - s)
        while span > 1 and tuple(keys[s : s + span]) not in index.phrases:
            span -= 1
        out.append(" ".join(tokens[s : s + span]) if span > 1 else tokens[s])
        i = s + span
    out += tokens[i:]
    return out


class _Idf(dict):
    """term -> idf under stats, log(doc_count / df(term)) with an unseen
    term's df 1 (as BackgroundStats.df), so that novel vocabulary keeps a
    high idf: computed at a term's first lookup unless TermTable._decide
    stored it first, then kept."""

    __slots__ = ("stats",)

    @staticmethod
    def of(stats: BackgroundStats) -> "_Idf":
        idf = _Idf()  # dict's own constructor: no Python-level __init__ call
        idf.stats = stats
        return idf

    def __missing__(self, term: str) -> float:
        stats = self.stats
        idf = self[term] = math.log(stats.doc_count / stats.doc_freq.get(term, 1))
        return idf


def _vector(
    tf: dict[str, int], stats: BackgroundStats, idf: _Idf, n: int | None = None
) -> dict[str, float]:
    """The one weighting rule: weight(t) = tf(t) * idf[t] in tf's order,
    zero weights dropped, L1-normalized, then, when n is given, cut to
    the n heaviest as top_n_terms cuts.  Raises tfidf_weights' errors,
    then top_n_terms'."""
    if stats.doc_count < 1:
        raise DataError("background stats are empty")
    if not tf:
        raise EmptyVectorError("no terms to weight")
    weights = {}
    for t, c in tf.items():
        w = c * idf[t]
        if w > 0.0:
            weights[t] = w
    if not weights:
        raise EmptyVectorError("all term weights are zero")
    if n is not None:
        _check_n(n)
        if len(weights) > n:
            total = sum(weights.values())
            # l1_normalize's weights, negated: -(w / total) is w / -total
            return _heaviest(zip([w / -total for w in weights.values()], weights), n)
    return l1_normalize(weights)


def _check_n(n: int):
    if n < 1:
        raise DataError("n must be >= 1")


def _heaviest(pairs, n: int) -> dict[str, float]:
    """The terms of the n smallest (-weight, term) pairs, in that order
    (the heaviest, ties by lexicographic term order), renormalized to
    L1 = 1.  The sum of the negated weights is the negated sum, so each
    quotient is the one of the weights themselves."""
    kept = sorted(pairs)[:n]
    total = sum([w for w, _ in kept])
    return {t: w / total for w, t in kept}


def tfidf_weights(
    terms: list[str] | dict[str, int], stats: BackgroundStats
) -> dict[str, float]:
    """weight(t) = tf(t) * log(doc_count / df(t)), zero-weight terms
    dropped, result L1-normalized.  terms is a document's term list, or
    its term -> count dict in order of first occurrence (as
    TermTable.counts makes it); both give the same weights in the same
    order.  Empty input (or all weights zero) is an error: the document
    cannot be categorized."""
    tf = terms if isinstance(terms, dict) else Counter(terms)
    return _vector(tf, stats, _Idf.of(stats))


def l1_normalize(weights: dict[str, float]) -> dict[str, float]:
    total = sum(weights.values())
    return {t: w / total for t, w in weights.items()}


def top_n_terms(v: dict[str, float], n: int = 10) -> dict[str, float]:
    """Keep the n highest-weight terms (ties by lexicographic term order)
    and renormalize to L1 = 1."""
    _check_n(n)
    if len(v) <= n:
        return dict(v)
    return _heaviest(zip(map(neg, v.values()), v), n)


# -- file formats --------------------------------------------------------


def load_stopwords(path) -> frozenset[str]:
    with open(path, encoding="utf-8") as fh:
        return frozenset(line.strip() for line in fh if line.strip())


def _first_line(path, key: str) -> str:
    """Where `path` first has a non-blank line whose text up to the first
    tab is `key`, read again only when a repeated entry fails a load:
    "line N", or "an earlier line" when the file can no longer be read
    the same way (a pipe, or a file changed since).  Only a regular file
    is opened again: reopening a FIFO would wait for another writer."""
    if not os.path.isfile(path):
        return "an earlier line"
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if line.strip() and line.split("\t")[0] == key:
                return "line %d" % lineno
    return "an earlier line"


def load_lemmas(path) -> dict[str, str]:
    """Read `surface<TAB>lemma` lines; neither field may be blank, and no
    surface may repeat."""
    lemmas = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            pair = line.split("\t")
            if len(pair) != 2:
                raise DataError("%s line %d: expected surface<TAB>lemma, got %r" % (path, lineno, line))
            if not (pair[0].strip() and pair[1].strip()):
                raise DataError("%s line %d: blank surface or lemma in %r" % (path, lineno, line))
            if pair[0] in lemmas:
                raise DataError("%s line %d: surface %r repeats %s"
                                % (path, lineno, pair[0], _first_line(path, pair[0])))
            lemmas[pair[0]] = pair[1]
    return lemmas


def load_background(path) -> BackgroundStats:
    """Read `term<TAB>df` lines and one `#docs=<n>` header, which may come
    after them, checking each line as it is read: a clean entry (one tab,
    no leading '#', a count of at least 1, a term not blank and not seen
    before) is stored at once, and every other line is checked in full
    by _check_line.  A df larger than the document count is named at the
    end, at the first largest df."""
    doc_count = doc_line = None
    df = {}
    top, top_at = 0, None  # the first largest df, and its (line number, line)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            term, _, count = line.partition("\t")
            try:
                # int() drops the newline
                n = int(count) if "\t" not in count and line[0] != "#" else 0
            except ValueError:
                n = 0
            if n < 1 or term in df or not term.strip():
                # a blank line, the header, an entry with a leading '#' or a bad line
                text = line.rstrip("\n")
                if not text.strip():
                    continue
                term, n = _check_line(path, lineno, text, df, doc_line)
                if term is None:
                    doc_count, doc_line = n, lineno
                    continue
            df[term] = n
            if n > top:
                top, top_at = n, (lineno, line)
    if doc_count is None:
        raise DataError("background stats file %s is missing the #docs= header" % path)
    if top > doc_count:
        raise DataError("%s line %d: df is larger than #docs=%d, got %r"
                        % (path, top_at[0], doc_count, top_at[1].rstrip("\n")))
    return BackgroundStats(doc_count=doc_count, doc_freq=df)


def _check_line(path, lineno, text, df, doc_line):
    """The (term, count) of a non-blank background line, term None for the
    `#docs=` header, when it parses, repeats neither the header (doc_line)
    nor a term of df, and passes _check_entry; else DataError naming it."""
    place = "%s line %d" % (path, lineno)
    try:
        if text.startswith("#docs="):
            term, n = None, int(text[len("#docs="):])
        else:
            term, n = text.split("\t")
            n = int(n)
    except ValueError:
        raise DataError("%s: expected #docs=<n> or term<TAB>df, got %r" % (place, text)) from None
    if term is None and doc_line is not None:
        raise DataError("%s: #docs= header repeats line %d" % (place, doc_line))
    if term in df:
        raise DataError("%s: term %r repeats %s" % (place, term, _first_line(path, term)))
    _check_entry(term, n, lambda _: (place, repr(text)))
    return term, n


def save_background(stats: BackgroundStats, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#docs=%d\n" % stats.doc_count)
        for term in sorted(stats.doc_freq):
            fh.write("%s\t%d\n" % (term, stats.doc_freq[term]))
