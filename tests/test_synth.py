"""The synthetic generators name each class, subcategory, concept and
group with one letter, so their counts stay within the 26 letters.  A
seed fixes every byte of the gap benchmark's documents and background,
and the generator draws the stream random.choice and random.shuffle
would draw."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_gap_documents
from semtax.errors import ConfigError
from semtax.synth import make_calibration_groups, make_gap_benchmark


@pytest.mark.parametrize("name, value", [
    ("n_classes", 27), ("n_classes", 30), ("n_classes", 0),
    ("subcats_per_class", 27), ("concepts_per_subcat", 27), ("concepts_per_subcat", 0),
    ("docs_per_side", 0), ("docs_per_side", -1), ("words_per_doc", 0), ("words_per_doc", -3),
])
def test_gap_counts_outside_the_letters_are_config_errors(name, value):
    rule = "at least 1" if name in ("docs_per_side", "words_per_doc") else "in 1..26"
    with pytest.raises(ConfigError, match="^%s must be %s, got %d$" % (name, rule, value)):
        make_gap_benchmark(**{"docs_per_side": 3, name: value})


@pytest.mark.parametrize("name, value", [
    ("n_groups", 27), ("n_groups", 0), ("docs_per_group", 27), ("docs_per_group", 0),
])
def test_calibration_counts_outside_the_letters_are_config_errors(name, value):
    with pytest.raises(ConfigError, match="^%s must be in 1..26, got %d$" % (name, value)):
        make_calibration_groups(**{name: value})


def test_gap_parameters_are_keyword_only():
    # a positional 210 used to build 210 classes
    with pytest.raises(TypeError):
        make_gap_benchmark(210, seed=11)


def test_26_of_each_name_every_item_with_a_letter():
    bench = make_gap_benchmark(n_classes=26, subcats_per_class=26, concepts_per_subcat=26,
                               docs_per_side=26)
    assert len(bench.label_categories) == 26
    assert all(label.removeprefix("topic_").isalpha() for label in bench.label_categories)
    assert all(label.isalpha() for c in bench.taxonomy.concepts.values() for label in c.labels)
    tax, _, groups = make_calibration_groups(n_groups=26, docs_per_group=26)
    assert len(groups) == 26 and all(g.removeprefix("group_").isalpha() for g in groups)
    assert all(label.isalpha() for c in tax.concepts.values() for label in c.labels)


def _gap_digest(bench):
    """SHA-256 of the repr of every document's fields and the sorted
    background document frequencies."""
    docs = [(d.id, d.text, d.label, d.categories) for d in bench.train_docs + bench.test_docs]
    payload = (docs, sorted(bench.background.doc_freq.items()))
    return hashlib.sha256(repr(payload).encode()).hexdigest()


# digests taken from the generator that drew with rng.choice and
# rng.shuffle and tokenized every doubled text for the background
@pytest.mark.parametrize("kwargs, digest", [
    (dict(docs_per_side=210, seed=11),
     "39c415e400944d43ecba2b85e714c5c1d2da31ea1ad245c0cf48b31bb67e8619"),
    # a pool of one word: every word draw still uses up bits
    (dict(n_classes=2, subcats_per_class=1, concepts_per_subcat=1, docs_per_side=5,
          words_per_doc=7, seed=3),
     "67d32e2f9e211c182b962e73ea1383f68cb1f3171d09d4ab15ad87651fcd721b"),
    # a pool of 6 words drawn with 3 bits, so some draws are redrawn
    (dict(n_classes=4, subcats_per_class=2, concepts_per_subcat=3, docs_per_side=9,
          words_per_doc=13, seed=29),
     "7a20f0dadf7648997948835f013a12b6df9134efcd8093fcb64b6b2b1d5a1c6c"),
])
def test_gap_benchmark_bytes_are_pinned(kwargs, digest):
    bench = make_gap_benchmark(**kwargs)
    assert _gap_digest(bench) == digest
    assert bench.background.doc_count == 2 * kwargs["docs_per_side"]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    n_classes=st.integers(1, 4),
    subcats_per_class=st.integers(1, 4),
    concepts_per_subcat=st.integers(1, 4),
    docs_per_side=st.integers(1, 12),
    words_per_doc=st.integers(1, 40),
)
def test_gap_documents_and_background_match_the_choice_and_shuffle_oracle(**kwargs):
    bench = make_gap_benchmark(**kwargs)
    train, test, background = brute_gap_documents(**kwargs)
    assert bench.train_docs == train
    assert bench.test_docs == test
    assert bench.background.doc_count == background.doc_count
    # the same terms in the same order, with the same counts
    assert list(bench.background.doc_freq.items()) == list(background.doc_freq.items())
