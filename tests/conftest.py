import sys

assert "scipy" not in sys.modules, (
    "something loaded scipy before tests/conftest.py; the suite must run without it")


class NoScipy:
    """A meta path finder that fails every scipy import: nothing in semtax
    needs scipy, and the whole suite runs without it."""

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError("No module named %r" % name, name=name)


sys.meta_path.insert(0, NoScipy())

import gc
import io
import json
import pathlib
import random

import pytest

from semtax.synth import random_taxonomy
from semtax.taxonomy import parse_taxonomy
from semtax.textpipe import BackgroundStats

TOY_TAXONOMY = """\
C\tR\tRoot\t
C\tA\tA\tR
C\tB\tB\tR
C\tA1\tA1\tA
C\tA2\tA2\tA
C\tB1\tB1\tB
P\tc1\tA1\talpha
P\tc2\tA1\tbravo|jaguar
P\tc3\tA2\tcharlie|black hole
P\tc4\tA\tdelta
P\tc5\tB1\techo|jaguar
P\tc6\tB1\tfoxtrot
P\tc7\tB\tgolf
"""


def chain_label(i: int) -> str:
    """A word of letters only for the number i: 4999 -> "wejjj"."""
    return "w" + "".join(chr(ord("a") + int(d)) for d in str(i))


def chain_taxonomy(depth: int) -> str:
    """Taxonomy text of one chain c0 <- c1 <- ... <- c<depth-1>, with one
    concept p<i> labeled chain_label(i) on each category c<i>."""
    lines = []
    for i in range(depth):
        lines.append("C\tc%d\tlevel %d\t%s" % (i, i, "c%d" % (i - 1) if i else ""))
        lines.append("P\tp%d\tc%d\t%s" % (i, i, chain_label(i)))
    return "\n".join(lines) + "\n"


def write_command_inputs(w: pathlib.Path, docs: int = 40):
    """Write into w a random taxonomy with homonyms and concepts of several
    categories (tax.tsv), a labeled corpus of `docs` documents
    (corpus.jsonl), each a prefix of the next larger one, and an
    experiment config over both with paths relative to w (exp.json)."""
    rng = random.Random(23)
    tax = random_taxonomy(rng, max_categories=30, max_concepts=80)
    lines = ["C\t%s\t%s\t%s" % (k, tax.category_labels[k], ",".join(sorted(tax.parents[k])))
             for k in sorted(tax.category_labels)]
    lines += ["P\t%s\t%s\t%s" % (c.id, ",".join(sorted(c.categories)), "|".join(sorted(c.labels)))
              for c in sorted(tax.concepts.values())]
    (w / "tax.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    words = sorted(tax.label_index)
    cats = sorted(tax.category_labels)
    with open(w / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for i in range(docs):
            text = " ".join(rng.choice(words) for _ in range(12))
            fh.write(json.dumps({"id": "d%02d" % i, "text": text, "label": "xz"[i % 2],
                                 "categories": [rng.choice(cats)]}) + "\n")
    root = min(cats)
    (w / "exp.json").write_text(json.dumps({
        "taxonomy": "tax.tsv", "corpus_train": "corpus.jsonl", "corpus_test": "corpus.jsonl",
        "label_categories": {"x": root, "z": cats[1]}, "buckets": False, "seed": 5,
        "methods": [
            {"name": "nb", "kind": "bayes", "features": "categories"},
            {"name": "llda", "kind": "llda", "features": "concepts"},
            {"name": "semcat", "kind": "semcat"},
            {"name": "semcla", "kind": "semcla"},
            {"name": "ensemble", "kind": "ensemble", "features": "categories",
             "params": {"members": [["bayes", 3]], "level": "inf", "sample_size": 8}},
        ],
    }), encoding="utf-8")


@pytest.fixture
def collector_state_restored():
    """Leave the cyclic collector enabled or disabled as the test found it."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


@pytest.fixture(scope="session")
def toy_tax():
    return parse_taxonomy(io.StringIO(TOY_TAXONOMY))


@pytest.fixture(scope="session")
def toy_background():
    # every concept label seen in exactly 1 of 100 background documents,
    # so every label keeps a positive idf
    terms = [
        "alpha", "bravo", "jaguar", "charlie", "black", "hole",
        "delta", "echo", "foxtrot", "golf",
    ]
    return BackgroundStats(doc_count=100, doc_freq={t: 2 for t in terms})
