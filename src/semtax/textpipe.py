"""Raw text -> normalized tf-idf term/phrase vector.

Document frequencies come from a background corpus; vectors are
L1-normalized so that downstream category weights form a distribution.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field

from .errors import DataError, EmptyVectorError
from .taxonomy import Taxonomy

# Unicode letter runs only: language-neutral tokenization.
_TOKEN_RE = re.compile(r"[^\W\d_]+", re.UNICODE)


@dataclass(frozen=True)
class BackgroundStats:
    doc_count: int
    doc_freq: dict[str, int]

    def df(self, term: str) -> int:
        """Document frequency with unseen terms treated as df=1, so novel
        vocabulary (which concept labels may still match) keeps a high idf
        instead of being discarded."""
        return self.doc_freq.get(term, 1)


def build_background(token_docs) -> BackgroundStats:
    """Build stats from an iterable of token sequences (one per document)."""
    df: Counter = Counter()
    n = 0
    for tokens in token_docs:
        n += 1
        df.update(set(tokens))
    return BackgroundStats(doc_count=max(n, 1), doc_freq=dict(df))


def tokenize(text: str) -> list[str]:
    return [m.group(0).lower() for m in _TOKEN_RE.finditer(text)]


def preprocess(
    text: str,
    stopwords: frozenset[str] | set[str] = frozenset(),
    lemmas: dict[str, str] | None = None,
    stats: BackgroundStats | None = None,
    min_df: int = 2,
    max_df_ratio: float = 0.5,
) -> list[str]:
    """Lowercase, tokenize on letter boundaries, drop stopwords, apply the
    lemma map, then drop tokens outside the document-frequency cutoffs.

    Cutoffs apply only to tokens the background corpus has seen; unseen
    tokens are kept (they may still match concept labels).
    """
    lemmas = lemmas or {}
    out = []
    for tok in tokenize(text):
        if tok in stopwords:
            continue
        tok = lemmas.get(tok, tok)
        if stats is not None and tok in stats.doc_freq:
            df = stats.doc_freq[tok]
            if df < min_df or df / stats.doc_count > max_df_ratio:
                continue
        out.append(tok)
    return out


class PhraseIndex:
    """Multi-word concept labels, indexed for greedy longest-match."""

    def __init__(self, phrases):
        self.phrases: set[tuple[str, ...]] = set()
        self.max_len = 1
        for p in phrases:
            toks = tuple(tokenize(p))
            if len(toks) >= 2:
                self.phrases.add(toks)
                self.max_len = max(self.max_len, len(toks))

    @classmethod
    def from_taxonomy(cls, tax: Taxonomy) -> "PhraseIndex":
        return cls(lab for c in tax.concepts.values() for lab in c.labels)


def extract_phrases(tokens: list[str], index: PhraseIndex) -> list[str]:
    """Greedy leftmost-longest match of multi-word labels; matched spans
    become single space-joined phrase terms, everything else passes
    through."""
    out = []
    i = 0
    n = len(tokens)
    while i < n:
        matched = False
        for span in range(min(index.max_len, n - i), 1, -1):
            cand = tuple(tokens[i : i + span])
            if cand in index.phrases:
                out.append(" ".join(cand))
                i += span
                matched = True
                break
        if not matched:
            out.append(tokens[i])
            i += 1
    return out


def tfidf_weights(terms: list[str], stats: BackgroundStats) -> dict[str, float]:
    """weight(t) = tf(t) * log(doc_count / df(t)), zero-weight terms
    dropped, result L1-normalized.  Empty input (or all weights zero) is an
    error: the document cannot be categorized."""
    if stats.doc_count < 1:
        raise DataError("background stats are empty")
    if not terms:
        raise EmptyVectorError("no terms to weight")
    tf = Counter(terms)
    weights = {}
    for t, n in tf.items():
        w = n * math.log(stats.doc_count / stats.df(t))
        if w > 0.0:
            weights[t] = w
    if not weights:
        raise EmptyVectorError("all term weights are zero")
    return l1_normalize(weights)


def l1_normalize(weights: dict[str, float]) -> dict[str, float]:
    total = sum(weights.values())
    return {t: w / total for t, w in weights.items()}


def top_n_terms(v: dict[str, float], n: int = 10) -> dict[str, float]:
    """Keep the n highest-weight terms (ties by lexicographic term order)
    and renormalize to L1 = 1."""
    if n < 1:
        raise DataError("n must be >= 1")
    if len(v) <= n:
        return dict(v)
    kept = sorted(v.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
    return l1_normalize(dict(kept))


# -- file formats --------------------------------------------------------


def load_stopwords(path) -> frozenset[str]:
    with open(path, encoding="utf-8") as fh:
        return frozenset(line.strip() for line in fh if line.strip())


def load_lemmas(path) -> dict[str, str]:
    """Read `surface<TAB>lemma` lines."""
    lemmas = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            pair = line.split("\t")
            if len(pair) != 2:
                raise DataError("%s line %d: expected surface<TAB>lemma, got %r" % (path, lineno, line))
            lemmas[pair[0]] = pair[1]
    return lemmas


def load_background(path) -> BackgroundStats:
    """Read `term<TAB>df` lines preceded by a `#docs=<n>` header."""
    doc_count = None
    df = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            try:
                if line.startswith("#docs="):
                    doc_count = int(line[len("#docs=") :])
                    continue
                term, n = line.split("\t")
                df[term] = int(n)
            except ValueError:
                raise DataError(
                    "%s line %d: expected #docs=<n> or term<TAB>df, got %r" % (path, lineno, line)
                ) from None
    if doc_count is None:
        raise DataError("background stats file %s is missing the #docs= header" % path)
    return BackgroundStats(doc_count=doc_count, doc_freq=df)


def save_background(stats: BackgroundStats, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#docs=%d\n" % stats.doc_count)
        for term in sorted(stats.doc_freq):
            fh.write("%s\t%d\n" % (term, stats.doc_freq[term]))
