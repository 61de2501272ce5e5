import io
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

from semtax.taxonomy import parse_taxonomy  # noqa: E402
from semtax.textpipe import BackgroundStats  # noqa: E402

# "jaguar" names two concepts
TOY_TAXONOMY = """\
C\tR\tRoot\t
C\tA\tA\tR
C\tB\tB\tR
P\tc1\tA\talpha
P\tc2\tA\tbravo|jaguar
P\tc3\tB\tjaguar
"""


@pytest.fixture
def toy_tax():
    return parse_taxonomy(io.StringIO(TOY_TAXONOMY))


@pytest.fixture
def toy_background():
    return BackgroundStats(doc_count=100, doc_freq={t: 2 for t in ("alpha", "bravo", "jaguar")})
