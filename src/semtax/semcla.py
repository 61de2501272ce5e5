"""The semantic classifier: extend category vectors with super-category
mass, compare by cosine, classify by nearest training group.  Includes the
grid-search calibration of the extension constant alpha.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import rankdata

from .errors import CalibrationError, EmptyVectorError, TrainingError
from .semcat import SemCatConfig, categorize
from .taxonomy import Taxonomy
from .textpipe import BackgroundStats, PhraseIndex

log = logging.getLogger(__name__)

DEFAULT_ALPHA = 0.33
DEFAULT_ALPHA_GRID = tuple(round(0.05 * i, 2) for i in range(11))  # 0.0 .. 0.5


@dataclass
class ExtendedCategoryVector:
    weights: dict[str, float]
    alpha: float


def extend_vector(
    v: dict[str, float], tax: Taxonomy, alpha: float = DEFAULT_ALPHA
) -> ExtendedCategoryVector:
    """For each entry (k, w) every direct super-category of k receives an
    extra w*alpha split equally among k's direct parents.  One level only;
    original entries are kept and summed with incoming parent mass."""
    out = dict(v)
    for k, w in v.items():
        parents = tax.parents[k]
        if not parents or alpha == 0.0:
            continue
        share = w * alpha / len(parents)
        for p in parents:
            out[p] = out.get(p, 0.0) + share
    return ExtendedCategoryVector(weights=out, alpha=alpha)


def cosine(v1: dict[str, float], v2: dict[str, float]) -> float:
    """Sparse cosine over the union of keys; 0 if either vector is
    all-zero.  Nonnegative weights keep the value in [0, 1]."""
    dot = 0.0
    for k, w in v1.items():
        w2 = v2.get(k)
        if w2 is not None:
            dot += w * w2
    n1 = math.sqrt(sum(w * w for w in v1.values()))
    n2 = math.sqrt(sum(w * w for w in v2.values()))
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    return dot / (n1 * n2)


@dataclass
class SemClaConfig:
    alpha: float = DEFAULT_ALPHA
    mode: str = "average"  # or "centroid"
    semcat: SemCatConfig = field(default_factory=SemCatConfig)


@dataclass
class SemClaModel:
    classes: dict[str, list[dict[str, float]]]  # label -> extended vectors
    alpha: float
    mode: str
    centroids: dict[str, dict[str, float]] | None = None


def _mean_vector(vectors: list[dict[str, float]]) -> dict[str, float]:
    acc: dict[str, float] = {}
    for v in vectors:
        for k, w in v.items():
            acc[k] = acc.get(k, 0.0) + w
    n = len(vectors)
    return {k: w / n for k, w in acc.items()}


def semcla_train(
    docs,
    tax: Taxonomy,
    stats: BackgroundStats,
    config: SemClaConfig | None = None,
    phrase_index: PhraseIndex | None = None,
) -> SemClaModel:
    """docs: iterable of (label, text).  Categorizes each text and trains
    with semcla_fit."""
    config = config or SemClaConfig()
    index = phrase_index if phrase_index is not None else PhraseIndex.from_taxonomy(tax)
    pairs = []
    for label, text in docs:
        try:
            cats = categorize(text, tax, stats, config.semcat, index)
        except EmptyVectorError:
            cats = None
        pairs.append((label, cats))
    return semcla_fit(pairs, tax, config)


def semcla_fit(
    pairs, tax: Taxonomy, config: SemClaConfig | None = None
) -> SemClaModel:
    """pairs: iterable of (label, category vector), where None marks a
    document that failed categorization: it is skipped with a warning.  A
    class with no categorized document is a training error."""
    config = config or SemClaConfig()
    classes: dict[str, list[dict[str, float]]] = {}
    for label, cats in pairs:
        classes.setdefault(label, [])
        if cats is None:
            log.warning("skipping uncategorizable training document in class %s", label)
            continue
        classes[label].append(extend_vector(cats, tax, config.alpha).weights)
    for label, vectors in classes.items():
        if not vectors:
            raise TrainingError("class %s has no categorizable documents" % label)
    centroids = None
    if config.mode == "centroid":
        centroids = {lab: _mean_vector(vs) for lab, vs in classes.items()}
    return SemClaModel(
        classes=classes, alpha=config.alpha, mode=config.mode, centroids=centroids
    )


def semcla_score(doc_vector: dict[str, float], model: SemClaModel) -> list[tuple[str, float]]:
    """Rank class labels against an already-extended document vector."""
    scores = []
    for label in sorted(model.classes):
        if model.mode == "centroid":
            s = cosine(doc_vector, model.centroids[label])
        else:
            vs = model.classes[label]
            s = sum(cosine(doc_vector, v) for v in vs) / len(vs)
        scores.append((label, s))
    scores.sort(key=lambda ls: (-ls[1], ls[0]))
    return scores


def semcla_classify(
    text: str,
    model: SemClaModel,
    tax: Taxonomy,
    stats: BackgroundStats,
    semcat_config: SemCatConfig | None = None,
    phrase_index: PhraseIndex | None = None,
) -> list[tuple[str, float]]:
    """average mode: score(class) = mean cosine to every training vector
    of the class; centroid mode: cosine to the class centroid.  Ranked
    descending, ties by label order.  Categorization failures propagate."""
    cats = categorize(text, tax, stats, semcat_config or SemCatConfig(), phrase_index)
    doc_vector = extend_vector(cats, tax, model.alpha).weights
    return semcla_score(doc_vector, model)


def rank_separation(
    base_vectors: list[tuple[str, dict[str, float]]],
    tax: Taxonomy,
    alpha: float,
) -> float:
    """Mean rank of different-group pairs minus mean rank of same-group
    pairs, where rank 1 is the most similar pair.  Ties in similarity get
    tie-averaged (fractional) ranks, so identical groups separate by
    exactly 0."""
    extended = [
        (group, extend_vector(v, tax, alpha).weights) for group, v in base_vectors
    ]
    sims = []
    same = []
    for i in range(len(extended)):
        for j in range(i + 1, len(extended)):
            sims.append(cosine(extended[i][1], extended[j][1]))
            same.append(extended[i][0] == extended[j][0])
    if not any(same) or all(same):
        raise CalibrationError("need at least one same-group and one different-group pair")
    ranks = rankdata([-s for s in sims], method="average")
    same_ranks = [r for r, s in zip(ranks, same) if s]
    diff_ranks = [r for r, s in zip(ranks, same) if not s]
    return float(np.mean(diff_ranks) - np.mean(same_ranks))


def calibrate_alpha(
    groups: dict[str, list[str]],
    tax: Taxonomy,
    stats: BackgroundStats,
    grid=DEFAULT_ALPHA_GRID,
    semcat_config: SemCatConfig | None = None,
    phrase_index: PhraseIndex | None = None,
) -> float:
    """Pick the grid alpha maximizing group separation (ties by smaller
    alpha).  groups: label -> list of document texts."""
    if len(groups) < 2:
        raise CalibrationError("need at least two groups")
    if not grid:
        raise CalibrationError("empty alpha grid")
    config = semcat_config or SemCatConfig()
    index = phrase_index if phrase_index is not None else PhraseIndex.from_taxonomy(tax)
    base = []
    for label in sorted(groups):
        docs = groups[label]
        if len(docs) < 2:
            raise CalibrationError("group %s has fewer than two documents" % label)
        for text in docs:
            base.append((label, categorize(text, tax, stats, config, index)))
    best_alpha = None
    best_sep = None
    for alpha in sorted(grid):
        sep = rank_separation(base, tax, alpha)
        if best_sep is None or sep > best_sep + 1e-12:
            best_sep = sep
            best_alpha = alpha
    return best_alpha
