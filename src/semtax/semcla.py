"""The semantic classifier: extend category vectors with super-category
mass, compare by cosine, classify by nearest training group.  Includes the
grid-search calibration of the extension constant alpha.

A model scores d/|d| . c, linear in the unit extended vector d/|d|, so it
ranks classes through a classics.LinearScorer as the classical learners do.

Training (semcla_train, semcla_fit) and cosine are pure Python.  numpy
loads on the first call to a model's .linear, semcla_score,
rank_separations or what calls them (rank_separation, calibrate_alpha);
importing this module loads no numpy, and neither does the SemCat path
(`semtax categorize`, semcat.Analyzer, semcat.categorize).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

from .classics import LinearScorer
from .errors import CalibrationError, ConfigError, TrainingError
from .semcat import Analyzer, SemCatConfig
from .semcat import categorize  # noqa: F401  bench/tests checks that the tracer rebinds it here
from .taxonomy import Taxonomy
from .textpipe import BackgroundStats

log = logging.getLogger(__name__)

DEFAULT_ALPHA = 0.33
DEFAULT_ALPHA_GRID = tuple(round(0.05 * i, 2) for i in range(11))  # 0.0 .. 0.5
SEMCLA_MODES = ("average", "centroid")


def check_alpha(alpha, where: str = "alpha", error=ConfigError):
    """alpha, when it is a finite number of at least 0 (a bool is not a
    number); otherwise error naming where.  The paper calibrates alpha
    over 0 .. 0.5: rejecting a negative one is this package's choice."""
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)) or not (
        math.isfinite(alpha) and alpha >= 0
    ):
        raise error("%s = %r, not a finite number of at least 0" % (where, alpha))
    return alpha


def extend_vector(
    v: dict[str, float], tax: Taxonomy, alpha: float = DEFAULT_ALPHA
) -> dict[str, float]:
    """For each entry (k, w) every direct super-category of k receives an
    extra w*alpha split equally among k's direct parents.  One level only;
    original entries are kept and summed with incoming parent mass.  New
    keys come in order of first contribution, a category's parents in id
    order, so that the float sums over the result do not depend on the
    hash seed."""
    out = dict(v)
    for k, w in v.items():
        parents = tax.parents[k]
        if not parents or alpha == 0.0:
            continue
        share = w * alpha / len(parents)
        if len(parents) > 1:  # a frozenset iterates in hash order
            parents = sorted(parents)
        for p in parents:
            out[p] = out.get(p, 0.0) + share
    return out


def _norm(v: dict[str, float]) -> float:
    return math.sqrt(sum(w * w for w in v.values()))


def _unit(v: dict[str, float]) -> dict[str, float]:
    n = _norm(v)
    return {k: w / n for k, w in v.items()} if n else {}


def cosine(v1: dict[str, float], v2: dict[str, float]) -> float:
    """Sparse cosine over the union of keys; 0 if either vector is
    all-zero.  Nonnegative weights keep the value in [0, 1]."""
    dot = 0.0
    for k, w in v1.items():
        w2 = v2.get(k)
        if w2 is not None:
            dot += w * w2
    n1, n2 = _norm(v1), _norm(v2)
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    return dot / (n1 * n2)


@dataclass
class SemClaConfig:
    alpha: float = DEFAULT_ALPHA
    mode: str = "average"  # one of SEMCLA_MODES; used at fit time only
    semcat: SemCatConfig = field(default_factory=SemCatConfig)


@dataclass
class SemClaModel:
    classes: dict[str, dict[str, float]]  # label -> class vector (class_vector)
    alpha: float

    @cached_property
    def linear(self) -> LinearScorer:
        """bias 0, weights the class vectors: scores a vector from
        .vector by its cosine with each class vector."""
        labels = sorted(self.classes)
        features = sorted({k for c in self.classes.values() for k in c})
        weights = [[self.classes[lab].get(k, 0.0) for k in features] for lab in labels]
        return LinearScorer(labels, features, [0.0] * len(labels), weights)

    def vector(self, cats: dict[str, float], tax: Taxonomy) -> dict[str, float]:
        """A document's category vector extended at the model's alpha and
        scaled to unit length: the bag that .linear scores."""
        return _unit(extend_vector(cats, tax, self.alpha))


def _mean_vector(vectors: list[dict[str, float]]) -> dict[str, float]:
    acc: dict[str, float] = {}
    for v in vectors:
        for k, w in v.items():
            acc[k] = acc.get(k, 0.0) + w
    n = len(vectors)
    return {k: w / n for k, w in acc.items()}


def class_vector(vectors: list[dict[str, float]], mode: str) -> dict[str, float]:
    """One class's extended training vectors reduced to the weights of its
    scores: the mean of their unit vectors (average: the score is the
    mean cosine) or their unit mean (centroid)."""
    if mode == "average":
        return _mean_vector([_unit(v) for v in vectors])
    if mode == "centroid":
        return _unit(_mean_vector(vectors))
    raise ConfigError("unknown SemCla mode %r (%s)" % (mode, " or ".join(SEMCLA_MODES)))


def semcla_train(
    docs,
    tax: Taxonomy,
    stats: BackgroundStats,
    config: SemClaConfig | None = None,
) -> SemClaModel:
    """docs: iterable of (label, text).  Categorizes each text and trains
    with semcla_fit."""
    config = config or SemClaConfig()
    analyzer = Analyzer(tax, stats, config.semcat)
    pairs = [(label, analyzer.bag(text, "categories")) for label, text in docs]
    return semcla_fit(pairs, tax, config)


def semcla_fit(
    pairs, tax: Taxonomy, config: SemClaConfig | None = None
) -> SemClaModel:
    """pairs: iterable of (label, category vector), where None marks a
    document that failed categorization: it is skipped with a warning.  A
    class with no categorized document is a training error, and an alpha
    that fails check_alpha a config error."""
    config = config or SemClaConfig()
    check_alpha(config.alpha)
    vectors: dict[str, list[dict[str, float]]] = {}
    for label, cats in pairs:
        vectors.setdefault(label, [])
        if cats is None:
            log.warning("skipping uncategorizable training document in class %s", label)
            continue
        vectors[label].append(extend_vector(cats, tax, config.alpha))
    for label, vs in vectors.items():
        if not vs:
            raise TrainingError("class %s has no categorizable documents" % label)
    return SemClaModel(
        classes={lab: class_vector(vs, config.mode) for lab, vs in vectors.items()},
        alpha=config.alpha,
    )


def semcla_score(doc_vector: dict[str, float], model: SemClaModel) -> list[tuple[str, float]]:
    """Score each class d/|d| . c, d the extended document vector and c
    the class vector, and rank the classes by model.linear: by the score
    rounded to 9 decimals, ties by label.  The scorer ignores weights of
    d that are not positive, and an extended category vector has none:
    its weights are positive by construction."""
    return model.linear.ranking(_unit(doc_vector))


def rank_separations(
    base_vectors: list[tuple[str, dict[str, float]]],
    tax: Taxonomy,
    grid,
) -> list[float]:
    """rank_separation at every alpha of grid, in grid order.

    extend_vector is v + alpha*u, u the parent mass v sends at alpha 1,
    so with V and U the rows of the v's and u's the Gram matrix of the
    extended vectors is G0 + alpha*(G1 + G1^T) + alpha^2*G2, G0 = V V^T,
    G1 = V U^T and G2 = U U^T.  Their pair entries and diagonals are
    read once; each alpha combines them in place.

    Ranks come from one sort per alpha.  A pair's similarity s becomes
    the integer rint(-1e9 s), which orders as -round(s, 9) and ties where
    it does (classics.rank_order's rule), shifted left one bit to hold
    the pair's same-group flag, and the int64 keys are sorted in place.
    A tie group is then a run of equal key >> 1, with its different-group
    pairs first.  Over the pairs in positions [a, b) of a group, d of them
    different-group and m same-group, tie-averaged ranks give each pair
    (a + b + 1) / 2, so the same-group pairs' ranks sum to m(a + b + 1) / 2,
    which is the sum of their untied ranks p + 1 (p their positions) less
    md / 2.  Twice the same-group rank sum is thus an integer: twice the
    untied ranks of the same-group pairs, less md for each group that has
    both kinds, found where an even key is followed by the next odd one.
    Twice the other pairs' sum is n(n + 1) less that, n the number of
    pairs.  Each mean is then its exact half-integer sum over its count,
    the float that the mean of tie-averaged ranks gives (the Mann-Whitney
    rank-sum statistic).  A NaN similarity spoils every rank, as it would
    tie-averaged ones, and makes the separation NaN."""
    import numpy as np

    code: dict[str, int] = {}
    groups = np.array([code.setdefault(group, len(code)) for group, _ in base_vectors])
    n_docs = len(groups)
    i, j = np.triu_indices(n_docs, k=1)
    same = (groups[i] == groups[j]).astype(np.int64)
    n_pairs, n_same = len(same), int(same.sum())
    if n_same in (0, n_pairs):
        raise CalibrationError("need at least one same-group and one different-group pair")
    keys = {k for _, v in base_vectors for k in v}
    column = {k: c for c, k in enumerate(sorted(keys.union(*(tax.parents[k] for k in keys))))}
    V = np.zeros((n_docs, len(column)))
    U = np.zeros_like(V)
    for row, (_, v) in enumerate(base_vectors):
        for k, w in v.items():
            V[row, column[k]] = w
            parents = tax.parents[k]
            for p in parents:
                U[row, column[p]] += w / len(parents)
    # the flat positions of the pair entries (i, j) and (j, i) of an
    # n_docs x n_docs matrix
    upper, lower = i * n_docs + j, j * n_docs + i
    G = V @ V.T
    pair0, diag0 = G.take(upper), G.diagonal().copy()
    G = V @ U.T
    pair1, diag1 = G.take(upper) + G.take(lower), 2.0 * G.diagonal()
    G = U @ U.T
    pair2, diag2 = G.take(upper), G.diagonal().copy()
    del G, upper, lower
    untied = np.arange(1, n_pairs + 1)  # the rank of each sorted position
    separations = []
    for alpha in grid:
        norm = np.sqrt(diag0 + alpha * (diag1 + alpha * diag2))
        norm[norm == 0.0] = 1.0  # an all-zero vector has cosine 0 with every vector
        sims = pair2 * alpha
        sims += pair1
        sims *= alpha
        sims += pair0
        sims /= norm.take(i) * norm.take(j)
        # descending similarity: the smallest key is the most similar pair
        np.rint(np.multiply(sims, -1e9, out=sims), out=sims)
        if np.isnan(sims).any():
            separations.append(math.nan)
            continue
        ranked = sims.astype(np.int64)
        ranked <<= 1
        ranked |= same
        ranked.sort()
        twice_same = 2 * int(untied @ (ranked & 1))
        mixed = ranked[np.flatnonzero((ranked[1:] ^ ranked[:-1]) == 1)]
        if len(mixed):  # the even keys of the groups with both kinds of pair
            d = ranked.searchsorted(mixed, "right") - ranked.searchsorted(mixed)
            m = ranked.searchsorted(mixed + 1, "right") - ranked.searchsorted(mixed + 1)
            twice_same -= int(d @ m)
        twice_diff = n_pairs * (n_pairs + 1) - twice_same
        separations.append(twice_diff / 2 / (n_pairs - n_same) - twice_same / 2 / n_same)
    return separations


def rank_separation(
    base_vectors: list[tuple[str, dict[str, float]]],
    tax: Taxonomy,
    alpha: float,
) -> float:
    """Mean rank of different-group pairs minus mean rank of same-group
    pairs, where rank 1 is the most similar pair.  Ties in similarity get
    tie-averaged (fractional) ranks, so identical groups separate by
    exactly 0.  Similarities are the cosines of the extended vectors
    rounded to 9 decimals, so that pairs equal in exact arithmetic tie.
    The one-alpha case of rank_separations."""
    return rank_separations(base_vectors, tax, [alpha])[0]


def calibrate_alpha(
    groups: dict[str, list[str]],
    tax: Taxonomy,
    stats: BackgroundStats,
    grid=DEFAULT_ALPHA_GRID,
    semcat_config: SemCatConfig | None = None,
) -> float:
    """Pick the grid alpha maximizing group separation (ties by smaller
    alpha).  groups: label -> list of document texts, each of which must
    categorize, and every grid alpha must pass check_alpha."""
    grid = sorted(check_alpha(alpha, "grid alpha") for alpha in grid)
    if len(groups) < 2:
        raise CalibrationError("need at least two groups")
    if not grid:
        raise CalibrationError("empty alpha grid")
    analyzer = Analyzer(tax, stats, semcat_config or SemCatConfig())
    base = []
    for label in sorted(groups):
        docs = groups[label]
        if len(docs) < 2:
            raise CalibrationError("group %s has fewer than two documents" % label)
        for position, text in enumerate(docs, 1):
            cats = analyzer.bag(text, "categories")
            if cats is None:
                raise CalibrationError("document %d of group %s has no categories"
                                       % (position, label))
            base.append((label, cats))
    # rank_separations rounds its similarities, so equal separations are
    # bit-identical and index, which finds the first maximum, picks the smaller alpha
    separations = rank_separations(base, tax, grid)
    return grid[separations.index(max(separations))]
