"""A seed fixes every output byte for byte, whatever PYTHONHASHSEED is.  A
concept's categories are a sorted tuple, but a category's parents
(Taxonomy.parents) are a frozenset, and the order of a set of strings
follows the hash seed, so only the sorting in each output keeps it fixed.
categorize, train, classify and evaluate run on a taxonomy with homonyms
and concepts of several categories, once under each of two hash seeds,
and must write the same bytes."""

import os
import pathlib
import subprocess
import sys

from conftest import write_command_inputs

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


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    write_command_inputs(tmp_path)
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
