"""What importing the package loads.  scipy.stats alone is most of a
process's memory and start-up time, and only evaluate.paired_t_test needs
it, so no module may import it when it loads; the package root needs no
numpy either.  Each check runs in a fresh interpreter, because this one
has loaded whatever other tests imported."""

import json
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

MODULES = ("semtax", "semtax.cli", "semtax.evaluate", "semtax.semcla", "semtax.ensemble",
           "semtax.classics")


def _loaded_after(*modules):
    """The top-level names in sys.modules of a new interpreter after it
    imports modules."""
    code = ("import importlib, json, sys\n"
            "for name in %r:\n"
            "    importlib.import_module(name)\n"
            "print(json.dumps(sorted({m.partition('.')[0] for m in sys.modules})))" % (modules,))
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC, check=True,
                         capture_output=True, text=True).stdout
    return set(json.loads(out))


def test_no_module_loads_scipy():
    assert "scipy" not in _loaded_after(*MODULES)


def test_package_root_loads_no_numpy():
    assert "numpy" not in _loaded_after("semtax")
