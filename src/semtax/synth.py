"""Synthetic taxonomies and corpora: random DAG generators for property
testing and the seeded semantic-gap benchmark (train and test sides use
disjoint synonym vocabularies attached to the same concepts).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice, repeat

from .corpus import Document
from .errors import ConfigError
from .taxonomy import Concept, Taxonomy
from .textpipe import BackgroundStats, build_background, tokenize


def _letters(*nums) -> str:
    return "".join(chr(ord("a") + n) for n in nums)


def _check_letter_counts(**counts):
    """ConfigError unless each count is in 1..26: a count names its items
    with one letter each, and a 27th item would get a non-letter."""
    for name, n in counts.items():
        if not 1 <= n <= 26:
            raise ConfigError("%s must be in 1..26, got %r" % (name, n))


def random_taxonomy(
    rng: random.Random,
    max_categories: int = 50,
    max_concepts: int = 100,
    label_pool_factor: float = 0.8,
) -> Taxonomy:
    """Random rooted DAG.  The label pool is smaller than the concept set,
    so some labels are shared between concepts (homonyms)."""
    n_cats = rng.randint(2, max_categories)
    n_concepts = rng.randint(1, max_concepts)
    cat_ids = ["k%03d" % i for i in range(n_cats)]
    labels = {}
    parents = {}
    for i, cid in enumerate(cat_ids):
        labels[cid] = "category " + cid
        if i == 0:
            parents[cid] = frozenset()
        else:
            n_parents = min(i, rng.choice([1, 1, 1, 2]))
            parents[cid] = frozenset(rng.sample(cat_ids[:i], n_parents))
    pool_size = max(1, int(n_concepts * label_pool_factor))
    label_pool = [
        "w" + _letters(i // 26 // 26 % 26, i // 26 % 26, i % 26)
        for i in range(pool_size)
    ]
    concepts = {}
    for j in range(n_concepts):
        cid = "p%03d" % j
        n_links = min(n_cats, rng.choice([1, 1, 2, 3]))
        cats = tuple(sorted(rng.sample(cat_ids, n_links)))
        n_labels = rng.choice([1, 1, 2])
        labs = tuple(sorted(rng.sample(label_pool, min(n_labels, len(label_pool)))))
        concepts[cid] = Concept(id=cid, labels=labs, categories=cats)
    return Taxonomy(labels, parents, concepts)


def random_term_vector(rng: random.Random, tax: Taxonomy, size: int = 8):
    """Random L1-normalized vector over concept labels plus junk terms."""
    all_labels = sorted(tax.label_index)
    terms = {}
    for i in range(size):
        if all_labels and rng.random() < 0.7:
            t = rng.choice(all_labels)
        else:
            t = "junk" + _letters(i % 26, rng.randint(0, 25))
        terms[t] = terms.get(t, 0.0) + rng.random() + 0.05
    total = sum(terms.values())
    return {t: w / total for t, w in terms.items()}


# -- semantic-gap benchmark ----------------------------------------------


@dataclass
class GapBenchmark:
    taxonomy: Taxonomy
    background: BackgroundStats
    train_docs: list
    test_docs: list
    label_categories: dict


def make_gap_benchmark(
    *,
    n_classes: int = 3,
    subcats_per_class: int = 3,
    concepts_per_subcat: int = 4,
    docs_per_side: int = 210,
    words_per_doc: int = 30,
    seed: int = 0,
) -> GapBenchmark:
    """3-class, 2-level taxonomy whose concepts each carry one label from
    vocabulary A and one from vocabulary B.  Training documents are written
    in vocabulary A, test documents in vocabulary B, so bag-of-words
    learners see completely disjoint vocabularies while the taxonomy maps
    both sides onto the same categories.  n_classes, subcats_per_class
    and concepts_per_subcat are each in 1..26, and docs_per_side and
    words_per_doc are each at least 1 (ConfigError).  The seed fixes
    every byte of the documents and the background."""
    _check_letter_counts(n_classes=n_classes, subcats_per_class=subcats_per_class,
                         concepts_per_subcat=concepts_per_subcat)
    for name, n in (("docs_per_side", docs_per_side), ("words_per_doc", words_per_doc)):
        if n < 1:
            raise ConfigError("%s must be at least 1, got %r" % (name, n))
    rng = random.Random(seed)
    cat_labels = {"root": "root"}
    parents = {"root": frozenset()}
    concepts = {}
    label_categories = {}
    vocab = {}  # (class, side) -> word list
    classes = []  # class -> (its category, its label, its subcategories)
    for c in range(n_classes):
        class_cat = "class_" + _letters(c)
        label = "topic_" + _letters(c)
        cat_labels[class_cat] = class_cat
        parents[class_cat] = frozenset(["root"])
        label_categories[label] = class_cat
        vocab[(c, "a")] = []
        vocab[(c, "b")] = []
        subs = []
        classes.append((class_cat, label, subs))
        for s in range(subcats_per_class):
            sub = class_cat + "_sub_" + _letters(s)
            subs.append(sub)
            cat_labels[sub] = sub
            parents[sub] = frozenset([class_cat])
            for i in range(concepts_per_subcat):
                stem = _letters(c) + _letters(s) + _letters(i)
                word_a = "qa" + stem
                word_b = "qb" + stem
                cid = "p_" + stem
                concepts[cid] = Concept(
                    id=cid,
                    labels=(word_a, word_b),  # "qa..." sorts before "qb..."
                    categories=(sub,),
                )
                vocab[(c, "a")].append(word_a)
                vocab[(c, "b")].append(word_b)
    tax = Taxonomy(cat_labels, parents, concepts)

    # filler words present in every document: removed by the frequent-term
    # cutoff, never mapped to a concept
    fillers = ["lorem", "ipsum", "dolor"]
    # A draw below n follows random.choice and random.shuffle: take
    # n.bit_length() bits and redraw while the value is n or more (a pool
    # of one word still uses up bits).  Drawn from getrandbits here, so
    # the stream, and every byte made from it, is theirs.
    getrandbits = rng.getrandbits
    shuffle_steps = [(i, (i + 1).bit_length())
                     for i in range(words_per_doc + len(fillers) - 1, 0, -1)]
    doc_words = []  # each document's words, once: its text repeats them

    def make_doc(doc_id, c, side):
        pool = vocab[(c, side)]
        n = len(pool)
        k = n.bit_length()
        # the draws below n are the first words_per_doc values below n
        # among k-bit draws; islice stops without drawing one more
        below_n = filter(n.__gt__, map(getrandbits, repeat(k)))
        words = [pool[r] for r in islice(below_n, words_per_doc)]
        words += fillers
        for i, bits in shuffle_steps:
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            words[i], words[j] = words[j], words[i]
        doc_words.append(words)
        text = " ".join(words)
        while len(text) < 1100:  # keep out of the excluded length bucket
            text = text + " " + text
        class_cat, label, subs = classes[c]
        sub = subs[rng.randrange(subcats_per_class)]
        annotation = sub if rng.random() < 0.7 else class_cat
        return Document(id=doc_id, text=text, label=label, categories=(annotation,))

    train_docs = [
        make_doc("train%04d" % i, i % n_classes, "a") for i in range(docs_per_side)
    ]
    test_docs = [
        make_doc("test%04d" % i, i % n_classes, "b") for i in range(docs_per_side)
    ]
    # every vocabulary word and filler is one lowercase ASCII letter run,
    # so a document's tokens are its words, repeated
    background = build_background(doc_words)
    return GapBenchmark(
        taxonomy=tax,
        background=background,
        train_docs=train_docs,
        test_docs=test_docs,
        label_categories=label_categories,
    )


def make_calibration_groups(
    n_groups: int = 2,
    docs_per_group: int = 4,
    seed: int = 0,
):
    """Groups whose documents hit pairwise-distinct sibling subcategories,
    so only the super-category mass added by a positive alpha makes
    same-group documents similar.  Returns (taxonomy, background, groups).
    n_groups and docs_per_group are each in 1..26 (ConfigError).
    """
    _check_letter_counts(n_groups=n_groups, docs_per_group=docs_per_group)
    cat_labels = {"root": "root"}
    parents = {"root": frozenset()}
    concepts = {}
    groups = {}
    texts = []
    for g in range(n_groups):
        parent = "branch_" + _letters(g)
        cat_labels[parent] = parent
        parents[parent] = frozenset(["root"])
        docs = []
        for i in range(docs_per_group):
            sub = parent + "_sub_" + _letters(i)
            cat_labels[sub] = sub
            parents[sub] = frozenset([parent])
            word = "zz" + _letters(g) + _letters(i)
            cid = "p_" + _letters(g) + _letters(i)
            concepts[cid] = Concept(id=cid, labels=(word,), categories=(sub,))
            text = (word + " ") * 40
            docs.append(text)
            texts.append(text)
        groups["group_" + _letters(g)] = docs
    tax = Taxonomy(cat_labels, parents, concepts)
    # each marker word occurs in exactly one document; report df=2 so the
    # rare-term cutoff keeps them
    background = BackgroundStats(
        doc_count=len(texts),
        doc_freq={w: 2 for t in texts for w in set(tokenize(t))},
    )
    return tax, background, groups
