"""Seeded taxonomy, corpus and background generators for the
``wide_taxonomy`` and ``deep_taxonomy`` workloads.

The seed changes structure and never size.  It decides which category
hangs from which, which concepts share a label, which labels have two
words and what each document says.  The counts of categories, concepts,
labels, documents and words per document are fixed by the spec, so runs
with different seeds do the same amount of work and their figures can be
compared.  ``semtax.synth.random_taxonomy`` draws its sizes at random,
which is why the benchmark does not use it.

The generators do not import ``semtax``: they write the taxonomy, corpus
and background files in the formats ``semtax`` reads, so the benchmark's
inputs cannot move when the program changes.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

FILLERS = ("lorem", "ipsum", "dolor")  # in 90% of background docs: dropped by max_df
BACKGROUND_DOCS = 10_000
NOISE_WORDS = 500  # words no concept carries: they stay unresolved


def _word(prefix: str, i: int, width: int = 4) -> str:
    """Letters-only word, distinct for distinct (prefix, i)."""
    out = []
    for _ in range(width):
        i, r = divmod(i, 26)
        out.append(chr(ord("a") + r))
    return prefix + "".join(reversed(out))


@dataclass(frozen=True)
class Spec:
    name: str
    shape: str  # "wide" or "deep": how categories hang together
    n_categories: int
    # (concepts per label, number of such labels); the concept counts
    # add up to n_concepts, so every concept carries exactly one label
    label_groups: tuple
    two_word_labels: int
    two_category_concepts: int
    docs: int
    labels_per_doc: int
    noise_per_doc: int

    @property
    def n_concepts(self) -> int:
        return sum(m * n for m, n in self.label_groups)

    @property
    def n_labels(self) -> int:
        return sum(n for _, n in self.label_groups)


# About 2k categories at most 4 levels deep, 20k concepts on 10k labels
# (60% of labels are homonyms, 10% have two words).
WIDE = Spec(
    name="wide_taxonomy",
    shape="wide",
    n_categories=2000,
    label_groups=((1, 4000), (2, 4000), (4, 2000)),
    two_word_labels=1000,
    two_category_concepts=4000,
    docs=40,
    labels_per_doc=18,
    noise_per_doc=2,
)

# 600 categories, most of them on three chains of 170, so most categories
# have tens to over a hundred ancestors; 3k concepts on 2k labels.
DEEP = Spec(
    name="deep_taxonomy",
    shape="deep",
    n_categories=600,
    label_groups=((1, 1200), (2, 600), (3, 200)),
    two_word_labels=100,
    two_category_concepts=900,
    docs=900,
    labels_per_doc=18,
    noise_per_doc=2,
)

DEEP_CHAINS = 3
DEEP_CHAIN_LEN = 170
DEEP_SHORTCUTS = 50  # chain nodes given a second parent further up the chain
DEEP_TOPIC_SPAN = 40  # chain depths one deep document draws from
WIDE_LEVEL1 = 40
WIDE_LEVEL2 = 400
WIDE_SECOND_PARENTS = 150


@dataclass
class Generated:
    spec: Spec
    seed: int
    categories: list  # (id, parent ids), parents before children
    concepts: list  # (id, category ids, label)
    docs: list  # (id, text)
    doc_freq: dict  # token -> background document frequency

    def shape(self) -> dict:
        """The properties of this input that the workload's cost depends
        on, as measured on the generated data."""
        ancestors: dict[str, frozenset] = {}
        for cid, parents in self.categories:
            acc = {cid}
            for p in parents:
                acc |= ancestors[p]
            ancestors[cid] = frozenset(acc)
        counts = [len(a) for a in ancestors.values()]
        per_label: dict[str, int] = {}
        for _, _, label in self.concepts:
            per_label[label] = per_label.get(label, 0) + 1
        return {
            "categories": len(self.categories),
            "concepts": len(self.concepts),
            "documents": len(self.docs),
            "labels": len(per_label),
            "ambiguous_label_share": sum(n > 1 for n in per_label.values()) / len(per_label),
            "multiword_label_share": sum(" " in lab for lab in per_label) / len(per_label),
            "ancestors_mean": sum(counts) / len(counts),
            "ancestors_max": max(counts),
        }


def _other(rng: random.Random, pool: list, taken: str) -> str:
    while True:
        c = rng.choice(pool)
        if c != taken:
            return c


def _wide_categories(rng: random.Random, n: int):
    cats = [("k0000", ())]
    level1 = ["k%04d" % i for i in range(1, 1 + WIDE_LEVEL1)]
    cats += [(c, ("k0000",)) for c in level1]
    level2 = ["k%04d" % i for i in range(len(cats), len(cats) + WIDE_LEVEL2)]
    cats += [(c, (rng.choice(level1),)) for c in level2]
    level3 = ["k%04d" % i for i in range(len(cats), n)]
    second = set(rng.sample(level3, WIDE_SECOND_PARENTS))
    for c in level3:
        parents = [rng.choice(level2)]
        if c in second:
            parents.append(_other(rng, level2, parents[0]))
        cats.append((c, tuple(parents)))
    # topic of a category: its first level-1 ancestor
    parent_of = {c: ps[0] for c, ps in cats if ps}
    topic = {}
    for c, _ in cats[1:]:
        t = c
        while parent_of[t] != "k0000":
            t = parent_of[t]
        topic[c] = t
    return cats, topic


def _deep_categories(rng: random.Random, n: int):
    cats = [("k0000", ())]
    topic = {}
    chains = []
    for ch in range(DEEP_CHAINS):
        chain = []
        for depth in range(DEEP_CHAIN_LEN):
            cid = "k%04d" % len(cats)
            parents = [chain[-1] if chain else "k0000"]
            cats.append((cid, parents))
            chain.append(cid)
            topic[cid] = (ch, depth // DEEP_TOPIC_SPAN)
        chains.append(chain)
    # a shortcut adds a DAG edge without changing the ancestor set
    chain_nodes = [(ch, d) for ch in range(DEEP_CHAINS) for d in range(3, DEEP_CHAIN_LEN)]
    for ch, d in rng.sample(chain_nodes, DEEP_SHORTCUTS):
        cats[1 + ch * DEEP_CHAIN_LEN + d][1].append(chains[ch][rng.randrange(0, d - 1)])
    while len(cats) < n:  # leaf twigs hanging off random chain nodes
        ch = rng.randrange(DEEP_CHAINS)
        d = rng.randrange(DEEP_CHAIN_LEN)
        cid = "k%04d" % len(cats)
        cats.append((cid, [chains[ch][d]]))
        topic[cid] = (ch, d // DEEP_TOPIC_SPAN)
    return [(c, tuple(ps)) for c, ps in cats], topic


def generate(spec: Spec, seed: int) -> Generated:
    """The inputs of ``spec`` for ``seed``."""
    rng = random.Random("%s:%d" % (spec.name, seed))
    if spec.shape == "wide":
        categories, topic = _wide_categories(rng, spec.n_categories)
    else:
        categories, topic = _deep_categories(rng, spec.n_categories)
    non_root = [c for c, _ in categories[1:]]

    labels = []
    two_word = set(rng.sample(range(spec.n_labels), spec.two_word_labels))
    for i in range(spec.n_labels):
        labels.append(_word("q", i) + (" " + _word("x", i) if i in two_word else ""))
    rng.shuffle(labels)
    concept_ids = ["p%05d" % i for i in range(spec.n_concepts)]
    order = list(concept_ids)
    rng.shuffle(order)
    label_of = {}
    it = iter(order)
    multiplicities = (m for m, count in spec.label_groups for _ in range(count))
    for label, mult in zip(labels, multiplicities):
        for _ in range(mult):
            label_of[next(it)] = label
    two_cat = set(rng.sample(concept_ids, spec.two_category_concepts))
    concepts = []
    by_topic: dict = {}
    for pid in concept_ids:
        first = rng.choice(non_root)
        cats = [first]
        if pid in two_cat:
            cats.append(_other(rng, non_root, first))
        concepts.append((pid, tuple(cats), label_of[pid]))
        by_topic.setdefault(topic[first], []).append(label_of[pid])

    noise = [_word("z", i) for i in range(NOISE_WORDS)]
    topics = sorted(t for t, labs in by_topic.items() if len(labs) >= spec.labels_per_doc)
    docs = []
    for i in range(spec.docs):
        items = rng.sample(by_topic[rng.choice(topics)], spec.labels_per_doc)
        items += rng.sample(noise, spec.noise_per_doc) + list(FILLERS)
        rng.shuffle(items)
        docs.append(("d%05d" % i, " ".join(items)))

    doc_freq = {}
    for lab in sorted(labels):
        for tok in lab.split():
            doc_freq[tok] = rng.randint(2, 1500)
    for w in noise:
        doc_freq[w] = rng.randint(2, 1500)
    for w in FILLERS:
        doc_freq[w] = 9000
    return Generated(spec, seed, categories, concepts, docs, doc_freq)


def write_inputs(gen: Generated, workdir: str) -> dict:
    """Write the taxonomy, corpus and background files; return their
    paths by role."""
    paths = {
        "taxonomy": os.path.join(workdir, "taxonomy.tsv"),
        "corpus": os.path.join(workdir, "corpus.jsonl"),
        "background": os.path.join(workdir, "background.tsv"),
    }
    with open(paths["taxonomy"], "w", encoding="utf-8") as fh:
        for cid, parents in gen.categories:
            fh.write("C\t%s\tcategory %s\t%s\n" % (cid, cid, ",".join(parents)))
        for pid, cats, label in gen.concepts:
            fh.write("P\t%s\t%s\t%s\n" % (pid, ",".join(cats), label))
    with open(paths["corpus"], "w", encoding="utf-8") as fh:
        for doc_id, text in gen.docs:
            fh.write(json.dumps({"id": doc_id, "text": text}, sort_keys=True) + "\n")
    with open(paths["background"], "w", encoding="utf-8") as fh:
        fh.write("#docs=%d\n" % BACKGROUND_DOCS)
        for term in sorted(gen.doc_freq):
            fh.write("%s\t%d\n" % (term, gen.doc_freq[term]))
    return paths
