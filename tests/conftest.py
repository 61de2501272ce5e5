import io

import pytest

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
