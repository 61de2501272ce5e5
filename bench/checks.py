"""Output checks.  Each function returns ``(attempted, failed)``: the
number of operations it checked and how many of them produced a wrong
output.  ``failed_frac`` is failed over attempted.
"""

from __future__ import annotations

# The paper's contrast on the vocabulary-gap benchmark: methods that go
# through the taxonomy bridge the gap, bag-of-words methods stay at chance.
BRIDGING_MIN = 0.95
BAG_OF_WORDS_MAX = 0.5
BAG_OF_WORDS = ("nb_terms", "winnow_terms")
CONSERVATION_TOL = 1e-9


def check_gap_report(report, n_test_docs: int) -> tuple[int, int]:
    """One operation per method: it fails when the method leaves a test
    document unclassified, or when its precision breaks the contrast."""
    failed = 0
    for r in report.results:
        unclassified = r.unclassified > 0 or report.evaluated_documents != n_test_docs
        if r.name in BAG_OF_WORDS:
            wrong = r.overall_precision > BAG_OF_WORDS_MAX
        else:
            wrong = r.overall_precision < BRIDGING_MIN
        failed += unclassified or wrong
    return len(report.results), failed


def check_alpha(alpha, grid) -> tuple[int, int]:
    return 1, int(alpha not in grid)


def check_categorize_lines(lines, expected: dict) -> tuple[int, int]:
    """One operation per document.  ``expected`` maps document id to the
    ranked-category field that the library gives for it.  A line fails
    when its ranking is ``-`` (not categorized) or differs from the
    expected one; a document without a line fails too."""
    seen = {}
    for line in lines:
        doc_id, _, ranking = line.rstrip("\n").split("\t")
        seen[doc_id] = ranking
    failed = 0
    for doc_id, want in expected.items():
        got = seen.get(doc_id)
        failed += got is None or got == "-" or got != want
    return len(expected), failed


def check_conservation(category_weights: dict, mapped_weight: float) -> tuple[int, int]:
    """Projection conserves weight: the categories' total equals the
    weight of the terms that matched a concept."""
    total = sum(category_weights.values())
    return 1, int(abs(total - mapped_weight) > CONSERVATION_TOL)
