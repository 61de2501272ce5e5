"""A seed fixes every output byte for byte, whatever PYTHONHASHSEED is.  A
concept's categories are a sorted tuple, but a category's parents
(Taxonomy.parents) are a frozenset, and the order of a set of strings
follows the hash seed, so only the sorting in each output keeps it fixed.
categorize, train, classify and evaluate run on a taxonomy with homonyms
and concepts of several categories, once under each of two hash seeds,
and must write the same bytes."""

import json
import os
import pathlib
import random
import subprocess
import sys

from semtax.synth import random_taxonomy

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# each command's argv; its output files carry the hash seed as a suffix
COMMANDS = [
    "categorize --taxonomy tax.tsv --corpus corpus.jsonl --disambig rank_half --out cat{s}.tsv",
    "categorize --taxonomy tax.tsv --corpus corpus.jsonl --disambig nearest --out near{s}.tsv",
    "train --model bayes --features categories --taxonomy tax.tsv --corpus corpus.jsonl"
    " --out nb{s}.json",
    "train --model semcla --taxonomy tax.tsv --corpus corpus.jsonl --out semcla{s}.json",
    "classify --model semcla{s}.json --taxonomy tax.tsv --corpus corpus.jsonl --out sc{s}.tsv",
    "evaluate --config exp.json --out report{s}.json",
]
OUTPUTS = ["cat", "near", "nb", "semcla", "sc", "report"]


def _write_inputs(w: pathlib.Path):
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
        for i in range(40):
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


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    _write_inputs(tmp_path)
    for seed in ("0", "1"):
        code = ("import sys\nfrom semtax.cli import main\n"
                "sys.exit(max(main(argv.split()) for argv in %r))"
                % ([c.format(s=seed) for c in COMMANDS],))
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                              text=True,
                              env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed))
        assert done.returncode == 0, done.stderr
    for name in OUTPUTS:
        (zero,), (one,) = (list(tmp_path.glob(name + s + ".*")) for s in "01")
        assert zero.read_bytes() == one.read_bytes(), name
