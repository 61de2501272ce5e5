import math

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import brute_extract_phrases, brute_preprocess, brute_tokenize
from semtax.errors import EmptyVectorError
from semtax.textpipe import (
    BackgroundStats,
    PhraseIndex,
    TermTable,
    build_background,
    extract_phrases,
    l1_normalize,
    preprocess,
    tfidf_weights,
    tokenize,
    top_n_terms,
)


class TestPreprocess:
    def test_stopwords_and_lemmas(self):
        got = preprocess("The cats sat", stopwords={"the"}, lemmas={"cats": "cat"})
        assert got == ["cat", "sat"]

    def test_empty_input(self):
        assert preprocess("") == []

    def test_all_stopwords(self):
        assert preprocess("the a of", stopwords={"the", "a", "of"}) == []

    def test_digits_and_punctuation_split(self):
        assert preprocess("foo42bar, baz!") == ["foo", "bar", "baz"]

    def test_df_cutoffs(self):
        stats = BackgroundStats(doc_count=10, doc_freq={"rare": 1, "common": 9, "ok": 4})
        got = preprocess("rare common ok novel", stats=stats)
        assert got == ["ok", "novel"]  # unseen tokens are kept

    words = st.lists(st.text(alphabet="abcdefg", min_size=1, max_size=6), max_size=15)

    @settings(derandomize=True)
    @given(words)
    def test_idempotent(self, tokens):
        text = " ".join(tokens)
        once = preprocess(text)
        assert preprocess(" ".join(once)) == once


class TestExtractPhrases:
    def test_longest_match(self):
        index = PhraseIndex(["black hole"])
        assert extract_phrases(["black", "hole", "mass"], index) == ["black hole", "mass"]

    def test_no_multiword_hit(self):
        index = PhraseIndex(["black hole"])
        toks = ["red", "dwarf", "mass"]
        assert extract_phrases(toks, index) == toks

    def test_leftmost_wins_on_overlap(self):
        index = PhraseIndex(["a b", "b c"])
        assert extract_phrases(["a", "b", "c"], index) == ["a b", "c"]

    def test_triple_beats_pair(self):
        index = PhraseIndex(["a b", "a b c"])
        assert extract_phrases(["a", "b", "c"], index) == ["a b c"]


# surfaces whose lowercase forms differ in interesting ways: "İ" lowers
# to "i" and a combining dot, so lowering a whole text before splitting it
# into letter runs cuts "İstanbul" in two
WORDS = ["alpha", "Beta", "GAMMA", "İstanbul", "i", "stanbul", "Straße", "ǅemal",
         "ΣΊΣΥΦΟΣ", "naïve", "the", "thee", "cats", "cat", "a", "b", "c", "d"]
SEPARATORS = [" ", "\u00a0", ", ", "-", "42", "_", "\n", "\u0307"]
VOCAB = sorted({t for w in WORDS for t in brute_tokenize(w)})


class TestTermTableMatchesOracle:
    """TermTable.terms then extract_phrases equal the token-by-token
    oracle, with one table shared by several texts."""

    vocab = st.sampled_from(VOCAB)
    texts = st.lists(
        st.text(max_size=30)
        | st.lists(st.sampled_from(WORDS + SEPARATORS), max_size=30).map("".join)
        | st.lists(st.sampled_from("abcd"), min_size=2, max_size=20).map(" ".join),
        min_size=1, max_size=4,
    )
    stats = st.none() | st.builds(
        BackgroundStats, st.integers(1, 20), st.dictionaries(vocab, st.integers(1, 6), max_size=12)
    )
    # few words, so that labels share first tokens and prefix one another
    labels = st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3).map(" ".join),
                      min_size=1, max_size=6)

    @settings(derandomize=True, max_examples=300)
    @given(
        texts=texts,
        stopwords=st.frozensets(vocab, max_size=4),
        lemmas=st.dictionaries(vocab, vocab, max_size=5),
        stats=stats,
        min_df=st.integers(0, 4),
        max_df_ratio=st.sampled_from([0.1, 0.5, 1.0]),
        labels=labels,
    )
    @example(texts=["İstanbul is big"], stopwords=frozenset(), lemmas={}, stats=None,
             min_df=2, max_df_ratio=0.5, labels=[])
    @example(texts=["The cats, thee cat"], stopwords=frozenset({"the", "cat"}),
             lemmas={"thee": "the", "cats": "cat"}, stats=None, min_df=2, max_df_ratio=0.5,
             labels=[])
    @example(texts=["alpha beta gamma naïve cats"], stopwords=frozenset(),
             lemmas={"naïve": "beta", "cats": "cat"},
             stats=BackgroundStats(10, {"alpha": 2, "beta": 6, "gamma": 5, "cat": 1}), min_df=2,
             max_df_ratio=0.5, labels=[])
    @example(texts=["a b c d a c b c d a b", "a b a"], stopwords=frozenset(), lemmas={},
             stats=None, min_df=2, max_df_ratio=0.5, labels=["a b", "a b c", "a c", "b c d", "a"])
    def test_matches_oracle(self, texts, stopwords, lemmas, stats, min_df, max_df_ratio, labels):
        table = TermTable(stopwords, lemmas, stats, min_df, max_df_ratio)
        index = PhraseIndex(labels)
        for text in texts:
            expected = brute_preprocess(text, stopwords, lemmas, stats, min_df, max_df_ratio)
            assert table.terms(text) == expected
            for tokens in (brute_tokenize(text), expected):
                assert extract_phrases(tokens, index) == brute_extract_phrases(tokens, labels)


class TestAsciiTokenizerMatchesOracle:
    """ASCII text is split by translate-and-split, any other text by the
    letter-run pattern; both equal the per-token oracle."""

    @settings(derandomize=True, max_examples=500)
    @given(st.text(st.characters(max_codepoint=127), max_size=40))
    @example("a_b1c\x1fd")
    @example("İstanbul")
    @example("")
    @example("The café opens at nine, Tuesdays\tto\x0bFridays.")
    def test_matches_oracle(self, text):
        assert tokenize(text) == brute_tokenize(text)
        stopwords, lemmas = frozenset({"the", "b"}), {"istanbul": "city", "d": "a"}
        assert TermTable(stopwords, lemmas).terms(text) == brute_preprocess(text, stopwords, lemmas)


class TestTfidf:
    def test_zero_idf_dropped(self):
        stats = BackgroundStats(doc_count=10, doc_freq={"x": 10, "y": 1})
        assert tfidf_weights(["x", "x", "y"], stats) == {"y": 1.0}

    def test_single_term(self):
        stats = BackgroundStats(doc_count=10, doc_freq={})
        assert tfidf_weights(["z"], stats) == {"z": 1.0}

    def test_empty_is_error(self):
        stats = BackgroundStats(doc_count=10, doc_freq={})
        with pytest.raises(EmptyVectorError):
            tfidf_weights([], stats)

    def test_hand_arithmetic(self):
        stats = BackgroundStats(doc_count=8, doc_freq={"x": 2, "y": 4})
        got = tfidf_weights(["x", "y", "y"], stats)
        wx = 1 * math.log(8 / 2)
        wy = 2 * math.log(8 / 4)
        total = wx + wy
        assert got["x"] == pytest.approx(wx / total)
        assert got["y"] == pytest.approx(wy / total)

    def test_l1_normalized(self):
        stats = BackgroundStats(doc_count=100, doc_freq={})
        got = tfidf_weights(list("abcdeffg"), stats)
        assert sum(got.values()) == pytest.approx(1.0, abs=1e-9)


class TestTopN:
    def test_truncate_and_renormalize(self):
        got = top_n_terms({"a": 0.5, "b": 0.3, "c": 0.2}, 2)
        assert got == {"a": pytest.approx(0.625), "b": pytest.approx(0.375)}

    def test_no_truncation_needed(self):
        v = {"a": 0.5, "b": 0.5}
        assert top_n_terms(v, 5) == v

    def test_lexicographic_tie_break(self):
        assert top_n_terms({"b": 0.5, "a": 0.5}, 1) == {"a": 1.0}

    @settings(derandomize=True)
    @given(
        st.dictionaries(
            st.text(alphabet="abcdef", min_size=1, max_size=4),
            st.floats(min_value=1e-6, max_value=1.0),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=1, max_value=15),
    )
    @example(
        weights={"a": 0.5, "b": 1.0, "c": 1.0, "d": 0.5, "e": 1.0, "f": 1.0, "aa": 0.5,
                 "ab": 0.9999999999999999, "ac": 1.0, "ad": 0.5},
        n=6,
    )
    def test_never_grows_and_keeps_order(self, weights, n):
        v = l1_normalize(weights)
        got = top_n_terms(v, n)
        assert len(got) <= len(v)
        # v[a] < v[b] implies got[a] <= got[b]: renormalizing may round two
        # close weights to one float (a tie in got), but never reverses them
        kept = sorted(got, key=lambda t: (got[t], v[t]))
        for t1, t2 in zip(kept, kept[1:]):
            assert v[t1] <= v[t2]


def test_build_background():
    stats = build_background([["a", "b", "a"], ["b", "c"]])
    assert stats.doc_count == 2
    assert stats.doc_freq == {"a": 1, "b": 2, "c": 1}
    assert stats.df("unseen") == 1
