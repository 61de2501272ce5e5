"""What importing the package, and running its SemCat path, loads.  numpy
is most of a process's memory and start-up time; only the classical
learners, committees, SemCla scoring and calibration compute with it,
and each of those imports it where it runs.  So no module may import it
when it loads, and `semtax categorize` and semtax.categorize never load
it.  scipy is no dependency: nothing loads it, and the tests pass
without it.  Each check runs in a fresh interpreter, because this one
has loaded whatever other tests imported."""

import functools
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

from conftest import TOY_TAXONOMY

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# every module of the package, found rather than listed, so that a new
# module is checked too
MODULES = ("semtax",) + tuple(
    "semtax." + m.name for m in pkgutil.iter_modules([str(SRC / "semtax")]))

# the last line a check prints: the top-level names in sys.modules
LOADED = "print(json.dumps(sorted({m.partition('.')[0] for m in sys.modules})))\n"

CORPUS = [
    {"id": "d1", "text": "alpha bravo charlie jaguar", "label": "x"},
    {"id": "d2", "text": "echo foxtrot golf jaguar", "label": "z"},
    {"id": "d3", "text": "alpha charlie delta", "label": "x"},
    {"id": "d4", "text": "echo golf foxtrot echo", "label": "z"},
]


def _run(code: str, cwd=SRC):
    """The JSON values that code prints, one per line, run in a new
    interpreter that imports semtax from this checkout."""
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC))).stdout
    return [json.loads(line) for line in out.splitlines()]


def _inputs(tmp_path):
    (tmp_path / "tax.tsv").write_text(TOY_TAXONOMY, encoding="utf-8")
    with open(tmp_path / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for rec in CORPUS:
            fh.write(json.dumps(rec) + "\n")
    return tmp_path


def test_every_module_is_found():
    assert {"semtax.cli", "semtax.classics", "semtax.ensemble", "semtax.evaluate",
            "semtax.semcla", "semtax.models", "semtax.taxonomy"} <= set(MODULES)


@functools.cache
def _loaded_after(*modules) -> frozenset:
    """The top-level names in sys.modules of a new interpreter after it
    imports modules."""
    (loaded,) = _run("import importlib, json, sys\n"
                     "for name in %r:\n"
                     "    importlib.import_module(name)\n" % (modules,) + LOADED)
    return frozenset(loaded)


def test_no_module_loads_scipy():
    assert "scipy" not in _loaded_after(*MODULES)


def test_no_module_loads_numpy():
    assert "numpy" not in _loaded_after(*MODULES)


def test_package_root_loads_no_numpy():
    assert "numpy" not in _loaded_after("semtax")


def test_categorize_loads_no_numpy(tmp_path):
    w = _inputs(tmp_path)
    code, categories, loaded = _run(
        "import json, sys\n"
        "import semtax\n"
        "from semtax.cli import main\n"
        "from semtax.textpipe import build_background, tokenize\n"
        "print(main(['categorize', '--taxonomy', 'tax.tsv', '--corpus', 'corpus.jsonl',"
        " '--out', 'out.tsv']))\n"
        "tax = semtax.load_taxonomy('tax.tsv')\n"
        "stats = build_background(tokenize(t) for t in %r)\n"
        "print(json.dumps(sorted(semtax.categorize(%r, tax, stats))))\n"
        % ([d["text"] for d in CORPUS], CORPUS[0]["text"]) + LOADED, cwd=w)
    assert code == 0
    assert len((w / "out.tsv").read_text().splitlines()) == len(CORPUS)
    assert categories
    assert "numpy" not in loaded


def test_train_and_classify_load_numpy_when_they_score(tmp_path):
    w = _inputs(tmp_path)
    codes, loaded = _run(
        "import json, sys\n"
        "from semtax.cli import main\n"
        "print(json.dumps([main(['train', '--model', 'bayes', '--corpus', 'corpus.jsonl',"
        " '--out', 'nb.json']),"
        " main(['classify', '--model', 'nb.json', '--corpus', 'corpus.jsonl',"
        " '--out', 'out.tsv'])]))\n" + LOADED, cwd=w)
    assert codes == [0, 0]
    assert len((w / "out.tsv").read_text().splitlines()) == len(CORPUS)
    assert "numpy" in loaded


def test_paired_t_test_loads_neither_numpy_nor_scipy():
    t, loaded = _run("import json, sys\n"
                     "from semtax.evaluate import paired_t_test\n"
                     "print(json.dumps(paired_t_test([0.9, 0.4, 0.6], [0.5, 0.5, 0.2])))\n"
                     + LOADED)
    assert len(t) == 2
    assert not {"numpy", "scipy"} & set(loaded)


# a meta path finder that fails every import of scipy, installed before
# pytest starts
NO_SCIPY = """\
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError("No module named %r" % name, name=name)

sys.meta_path.insert(0, NoScipy())
import pytest

sys.exit(pytest.main(sys.argv[1:]))
"""


def test_tests_pass_without_scipy():
    """The whole suite, this test left out, passes in an interpreter
    where importing scipy fails."""
    root = SRC.parent
    this = "%s::%s" % (pathlib.Path(__file__).resolve().relative_to(root).as_posix(),
                       test_tests_pass_without_scipy.__name__)
    run = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, "-q", "-x", "-p", "no:cacheprovider",
         "--deselect", this, "tests"],
        cwd=root, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
