import math
import os
import re
import threading
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    brute_extract_phrases,
    brute_load_background,
    brute_preprocess,
    brute_term_vector,
    brute_tokenize,
)
from semtax.errors import DataError, EmptyVectorError
from semtax.semcat import Analyzer, SemCatConfig, term_vector
from semtax.taxonomy import parse_taxonomy
from semtax.textpipe import (
    _TOKEN_RE,
    BackgroundStats,
    PhraseIndex,
    TermTable,
    build_background,
    extract_phrases,
    l1_normalize,
    load_background,
    load_lemmas,
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


class TestPhraseIndexFromTaxonomy:
    @settings(derandomize=True, max_examples=500)
    @given(st.text(alphabet=st.characters(max_codepoint=127), max_size=8))
    @example("")
    @example("_")
    def test_an_ascii_label_is_one_letter_run_when_it_is_all_letters(self, label):
        # from_taxonomy settles ASCII labels by isalpha(), not the regex
        assert label.isalpha() == bool(_TOKEN_RE.fullmatch(label))

    @settings(derandomize=True, deadline=None)
    @given(st.lists(st.text(alphabet="ab İß²-_ 1é", min_size=1, max_size=6), min_size=1,
                    max_size=6))
    def test_indexes_what_every_label_indexes(self, labels):
        lines = ["C\tR\tr\t\n"] + ["P\tp%d\tR\t%s\n" % (i, lab) for i, lab in enumerate(labels)]
        try:
            tax = parse_taxonomy(lines)
        except DataError:  # every label blank
            return
        index = PhraseIndex.from_taxonomy(tax)
        every = PhraseIndex(tax.label_index)
        assert (index.phrases, index.longest) == (every.phrases, every.longest)


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
    # phrases match on casefolds: ß folds to ss, and a final sigma, which
    # lowercasing keeps, folds to σ
    @example(texts=["Große Straße, grosse STRASSE", "ΟΔΟΣ ΟΔΟΣ οδοσ ΟΔΟΣ"], stopwords=frozenset(),
             lemmas={}, stats=None, min_df=2, max_df_ratio=0.5,
             labels=["grosse strasse", "Οδοσ οδοσ"])
    def test_matches_oracle(self, texts, stopwords, lemmas, stats, min_df, max_df_ratio, labels):
        table = TermTable(stopwords, lemmas, stats, min_df, max_df_ratio)
        index = PhraseIndex(labels)
        for text in texts:
            expected = brute_preprocess(text, stopwords, lemmas, stats, min_df, max_df_ratio)
            assert table.terms(text) == expected
            for tokens in (brute_tokenize(text), expected):
                assert extract_phrases(tokens, index) == brute_extract_phrases(tokens, labels)


def _bits(v):
    """v's keys in order with each weight's exact bits; None stays None."""
    return None if v is None else [(t, w.hex()) for t, w in v.items()]


def _taxonomy_of(labels):
    """A one-category taxonomy with one concept per label, plus one
    single-word label so that it has a concept when labels is empty."""
    return parse_taxonomy(["C\tR\tRoot\t"] + ["P\tp%d\tR\t%s" % (i, lab)
                                              for i, lab in enumerate(labels + ["zz"])])


class TestTermVectorMatchesOracle:
    """Every way of making a document's top-n tf-idf vector equals the
    token-by-token oracle, key order and float bits both: term_vector with
    a fresh table and with one table shared by several texts,
    Analyzer.vector, and the root pipeline preprocess -> extract_phrases
    -> tfidf_weights -> top_n_terms.  Indexes with no multi-word label
    take term_vector's counting path, the others its ordered path."""

    # repeats of a few words in mixed case, so that counts tie and lemmas
    # can merge one surface into another's term
    words = ["a", "A", "b", "B", "c", "C", "d", "cat", "Cat", "CATS", "cats", "the", "The"]
    vocab = st.sampled_from(sorted({w.lower() for w in words}))
    texts = st.lists(
        st.lists(st.sampled_from(words + SEPARATORS), max_size=40).map("".join)
        | st.lists(st.sampled_from(words), min_size=1, max_size=30).map(" ".join),
        min_size=1, max_size=4,
    )
    # phrase terms can have a df too
    df_terms = vocab | st.sampled_from(["a b", "b c", "c d a"])
    stats = st.builds(
        BackgroundStats, st.integers(1, 8), st.dictionaries(df_terms, st.integers(1, 8), max_size=8)
    )
    # none, single-word only (no phrase can form) or multi-word labels
    labels = st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3).map(" ".join),
                      max_size=5)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        texts=texts,
        stopwords=st.frozensets(vocab, max_size=3),
        lemmas=st.dictionaries(vocab, vocab, max_size=4),
        stats=stats,
        min_df=st.integers(0, 4),
        max_df_ratio=st.sampled_from([0.25, 0.5, 1.0]),
        labels=labels,
        top_terms=st.integers(1, 5),
    )
    # a later surface merges into an earlier term, mixed-case repeats
    @example(texts=["b Cats a cat CATS c A"], stopwords=frozenset(),
             lemmas={"cats": "cat", "c": "b"}, stats=BackgroundStats(4, {}), min_df=2,
             max_df_ratio=0.5, labels=[], top_terms=3)
    # an earlier surface's lemma is a later surface: the term enters first
    @example(texts=["c b b a"], stopwords=frozenset(), lemmas={"c": "b"},
             stats=BackgroundStats(4, {}), min_df=2, max_df_ratio=0.5, labels=["a", "b"],
             top_terms=5)
    # stopwords, a lemma onto a stopword, df cutoffs at both bounds
    # (df == min_df kept, df / doc_count == max_df_ratio kept, one more dropped)
    @example(texts=["The a b c d the cat", "d c b a"], stopwords=frozenset({"the", "cat"}),
             lemmas={"cats": "cat"}, stats=BackgroundStats(4, {"a": 2, "b": 1, "c": 3, "d": 2}),
             min_df=2, max_df_ratio=0.5, labels=[], top_terms=5)
    # four unseen terms tie: the cut keeps the smaller terms
    @example(texts=["d c b a", "d d c c b b a a"], stopwords=frozenset(), lemmas={},
             stats=BackgroundStats(8, {}), min_df=2, max_df_ratio=0.5, labels=["c"], top_terms=2)
    # phrases: overlapping labels, a phrase term with a df
    @example(texts=["a b c d a b c", "c d a b"], stopwords=frozenset(), lemmas={},
             stats=BackgroundStats(8, {"a b": 2, "d": 5}), min_df=2, max_df_ratio=0.5,
             labels=["a b", "b c", "c d a", "d"], top_terms=2)
    # every weight zero: no vector
    @example(texts=["a a b", ""], stopwords=frozenset(), lemmas={},
             stats=BackgroundStats(1, {}), min_df=0, max_df_ratio=1.0, labels=[], top_terms=1)
    def test_matches_oracle(self, texts, stopwords, lemmas, stats, min_df, max_df_ratio, labels,
                            top_terms):
        config = SemCatConfig(top_terms=top_terms, min_df=min_df, max_df_ratio=max_df_ratio,
                              stopwords=stopwords, lemmas=lemmas)
        tax = _taxonomy_of(labels)
        index = PhraseIndex(labels)
        assert bool(index.longest) == any(" " in lab for lab in labels)
        shared = TermTable.from_config(config, stats)
        analyzer = Analyzer(tax, stats, config)

        def vector(make):
            try:
                return _bits(make())
            except EmptyVectorError:
                return None

        for text in texts:
            expected = _bits(brute_term_vector(text, labels, stats, top_terms, stopwords, lemmas,
                                               min_df, max_df_ratio))
            assert vector(lambda: term_vector(text, tax, stats, config)) == expected
            assert vector(lambda: term_vector(text, tax, stats, config, index, shared)) == expected
            assert _bits(analyzer.vector(text)) == expected
            assert vector(lambda: top_n_terms(tfidf_weights(extract_phrases(
                preprocess(text, stopwords, lemmas, stats, min_df, max_df_ratio), index), stats),
                top_terms)) == expected

    def test_counts_are_the_counted_terms(self):
        table = TermTable(frozenset({"the"}), {"cats": "cat", "c": "b"})
        text = "c The cats b Cat CATS the b"
        assert list(table.counts(text).items()) == [("b", 3), ("cat", 3)]
        assert table.counts(text) == Counter(table.terms(text))


class TestAsciiTokenizerMatchesOracle:
    """ASCII text is split by translate-and-split, any other text by the
    letter-run pattern; both equal the per-token oracle."""

    @settings(derandomize=True, max_examples=500)
    @given(st.text(st.characters(max_codepoint=127), max_size=40))
    @example("a_b1c\x1fd")
    @example("İstanbul")
    @example("")
    @example("The café opens at nine, Tuesdays\tto\x0bFridays.")
    @example("The CAT sat")
    @example("McDONALD's ABC")
    def test_matches_oracle(self, text):
        assert tokenize(text) == brute_tokenize(text)
        stopwords, lemmas = frozenset({"the", "b"}), {"istanbul": "city", "d": "a"}
        assert TermTable(stopwords, lemmas).terms(text) == brute_preprocess(text, stopwords, lemmas)

    # mixed-case ASCII words, so that one lowercase form has several surfaces
    words = ["The", "the", "THE", "Cat", "cat", "CATS", "McDonald", "mcdonald", "A", "b", "Sat"]
    vocab = st.sampled_from(sorted({w.lower() for w in words}))

    @settings(derandomize=True, max_examples=300)
    @given(
        texts=st.lists(st.lists(st.sampled_from(words + [" ", ", ", "'s ", "42", "_"]), max_size=25)
                       .map("".join), min_size=1, max_size=4),
        stopwords=st.frozensets(vocab, max_size=3),
        lemmas=st.dictionaries(vocab, vocab, max_size=4),
        stats=st.builds(BackgroundStats, st.integers(1, 8),
                        st.dictionaries(vocab, st.integers(1, 8), max_size=6)),
        min_df=st.integers(0, 4),
        max_df_ratio=st.sampled_from([0.25, 0.5, 1.0]),
    )
    @example(texts=["The CAT sat", "the cat SAT cats", "McDONALD's ABC"],
             stopwords=frozenset({"the"}), lemmas={"cats": "cat", "mcdonald": "b"},
             stats=BackgroundStats(4, {"cat": 2, "sat": 3, "b": 1}), min_df=2,
             max_df_ratio=0.5)
    def test_mixed_case_with_cutoffs_matches_oracle(self, texts, stopwords, lemmas, stats,
                                                    min_df, max_df_ratio):
        table = TermTable(stopwords, lemmas, stats, min_df, max_df_ratio)
        for text in texts:
            terms = table.terms(text)
            assert terms == brute_preprocess(text, stopwords, lemmas, stats, min_df, max_df_ratio)
            assert list(table.counts(text).items()) == list(Counter(terms).items())


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


class TestFileFormats:
    @pytest.mark.parametrize("body, line", [
        ("cats\tcat\ntrees\t\n", 2),
        ("\ttree\n", 1),
        ("cats\tcat\n \ttree\n", 2),
    ], ids=["empty-lemma", "empty-surface", "space-surface"])
    def test_blank_lemma_field_names_the_line(self, tmp_path, body, line):
        path = tmp_path / "lemmas.tsv"
        path.write_text(body, encoding="utf-8")
        message = "%s line %d: blank surface or lemma" % (path, line)
        with pytest.raises(DataError, match=re.escape(message)):
            load_lemmas(path)

    @pytest.mark.parametrize("body, line", [
        ("#docs=5\n\t3\nfern\t2\n", 2),
        ("#docs=5\nfern\t2\n \t3\n", 3),
    ], ids=["empty-term", "space-term"])
    def test_blank_background_term_names_the_line(self, tmp_path, body, line):
        path = tmp_path / "bg.tsv"
        path.write_text(body, encoding="utf-8")
        message = "%s line %d: blank term" % (path, line)
        with pytest.raises(DataError, match=re.escape(message)):
            load_background(path)

    # counts that int() reads, or not, in several spellings, and terms
    # that are blank, repeat, or look like the header
    COUNTS = st.sampled_from(["0", "1", "2", "3", "12", " 2", "+1", "-1", "007", "2 ", "1_0",
                              "x", "", "2.0"])
    TERMS = st.sampled_from(["fern", "moss", "ivy", "fern ", " ", "", "#x", "#docs=1"])
    LINES = st.one_of(
        st.builds("#docs={}".format, COUNTS),
        st.builds("{}\t{}".format, TERMS, COUNTS),
        st.sampled_from(["", "  ", "\t", " \t ", "fern", "fern\t1\t2", "#docs=2\t1",
                         "# note", "#docs=3\r"]),
    )

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.lists(LINES, max_size=8), st.booleans())
    @example(["fern\t 03", "moss\t0", "#docs=4"], True)
    @example(["#docs=1", "", "fern\t+2", "moss\t1"], False)
    @example(["fern\t1", "#docs=2", "\t", "moss\tx"], True)
    @example(["#docs=0", "fern\t1", "fern\t2"], True)
    @example(["fern\t2", " \t1", "", "moss"], False)
    def test_load_background_matches_oracle(self, tmp_path_factory, lines, newline):
        """The stats, or the message of the first error in line order,
        that a loader checking each line in full as it reads it gives."""
        path = tmp_path_factory.getbasetemp() / "oracle_bg.tsv"
        path.write_text("\n".join(lines) + "\n" * newline, encoding="utf-8")
        try:
            want = brute_load_background(path)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                load_background(path)
            assert str(got.value) == str(exc)
        else:
            assert load_background(path) == BackgroundStats(*want)

    def test_lemmas_round_trip(self, tmp_path):
        path = tmp_path / "lemmas.tsv"
        path.write_text("cats\tcat\n\ntrees\ttree\n", encoding="utf-8")
        assert load_lemmas(path) == {"cats": "cat", "trees": "tree"}

    @pytest.mark.parametrize("body, line", [
        ("#docs=2\nfern\t5\n", 2),
        ("moss\t1\nfern\t3\n#docs=2\n", 2),
        ("fern\t3\nmoss\t4\nivy\t4\n#docs=3\n", 2),
    ], ids=["header-first", "header-last", "first-largest"])
    def test_df_above_doc_count_names_the_line(self, tmp_path, body, line):
        path = tmp_path / "bg.tsv"
        path.write_text(body, encoding="utf-8")
        message = "%s line %d: df is larger than #docs=" % (path, line)
        with pytest.raises(DataError, match=re.escape(message)):
            load_background(path)

    def test_df_equal_to_doc_count_loads(self, tmp_path):
        path = tmp_path / "bg.tsv"
        path.write_text("fern\t2\n#docs=2\nmoss\t1\n", encoding="utf-8")
        assert load_background(path) == BackgroundStats(2, {"fern": 2, "moss": 1})

    @pytest.mark.parametrize("name, body, loader, message", [
        ("lemmas.tsv", "cats\tcat\ncats\tkitten\n", load_lemmas,
         "line 2: surface 'cats' repeats line 1"),
        ("lemmas.tsv", "cats\tcat\n\ntrees\ttree\ncats\tcat\n", load_lemmas,
         "line 4: surface 'cats' repeats line 1"),
        ("bg.tsv", "#docs=5\nfern\t1\nfern\t3\n#docs=4\n", load_background,
         "line 3: term 'fern' repeats line 2"),
        ("bg.tsv", "#docs=5\nfern\t1\nmoss\t2\n#docs=4\n", load_background,
         "line 4: #docs= header repeats line 1"),
        ("bg.tsv", "fern\t1\n#docs=5\n\n#docs=5\n", load_background,
         "line 4: #docs= header repeats line 2"),
    ], ids=["lemma-surface", "lemma-surface-same-lemma", "background-term",
            "background-header", "background-header-after-terms"])
    def test_repeated_entry_names_both_lines(self, tmp_path, name, body, loader, message):
        path = tmp_path / name
        path.write_text(body, encoding="utf-8")
        with pytest.raises(DataError) as exc:
            loader(path)
        assert str(exc.value) == "%s %s" % (path, message)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("body, loader, message", [
        ("#docs=5\nfern\t1\nfern\t3\n", load_background,
         "line 3: term 'fern' repeats an earlier line"),
        ("cats\tcat\ncats\tkitten\n", load_lemmas,
         "line 2: surface 'cats' repeats an earlier line"),
    ], ids=["background-term", "lemma-surface"])
    def test_repeated_entry_in_a_fifo_is_not_read_again(self, tmp_path, body, loader, message):
        # opening a FIFO again to find the first line would wait for a
        # writer that never comes, so the load runs in a thread and a
        # hang fails the test instead of stalling it
        path = tmp_path / "pipe.tsv"
        os.mkfifo(path)
        outcome = {}

        def write():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(body)

        def load():
            try:
                loader(path)
            except DataError as exc:
                outcome["error"] = str(exc)

        writer = threading.Thread(target=write, daemon=True)
        reader = threading.Thread(target=load, daemon=True)
        writer.start()
        reader.start()
        reader.join(timeout=10)
        hung = reader.is_alive()
        if hung:
            # a writer that opens and closes the FIFO releases the reader
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
        writer.join(timeout=10)
        assert not hung, "the load waited on a second open of the FIFO"
        assert outcome == {"error": "%s %s" % (path, message)}
