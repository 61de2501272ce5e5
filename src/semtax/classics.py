"""Baseline supervised classifiers: multinomial Naive Bayes, Balanced
Winnow (one-vs-rest) and Labeled LDA.  Each trained model, and a SemCla
model too, ranks labels through one linear form, score = bias + W·x (its
.linear), so that a committee of them scores every member with one
matrix product.

Training is pure Python.  numpy loads on the first call that computes
with arrays: rank_order, a model's .linear scorer and the LinearScorer
methods, so the *_predict functions and every committee.  Importing this
module loads no numpy, and neither does the SemCat path (`semtax
categorize`, semcat.Analyzer, taxonomy loading), which never calls them.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import ConfigError, TrainingError

if TYPE_CHECKING:
    import numpy as np

Bag = dict  # feature -> count/weight
MAX_EPOCHS = 1000  # winnow_train's bound: 20 times its default; see README


def rank_order(scores: np.ndarray) -> np.ndarray:
    """The ranking rule of every scorer: the indices of each row of
    scores by score rounded to 9 decimals, descending, so that scores
    equal in exact arithmetic tie; ties keep index order, which is label
    order."""
    import numpy as np

    # rint(-1e9 s) orders as -round(s, 9) does, in two array operations
    return np.argsort(np.rint(scores * -1e9), axis=-1, kind="stable")


class LinearScorer:
    """Labels scored as bias + W·x over the columns of a feature bag x.
    Features outside the columns and non-positive values contribute
    nothing.  The rows form one group per model, each sorted by label:
    one group for a single model, one per member for a stacked
    committee.  Bags are scored together, one matrix product per
    BATCH of them."""

    BATCH = 256

    def __init__(self, labels, features, bias, weights, starts=(0,)):
        import numpy as np

        self.labels = tuple(labels)
        self.columns = {f: j for j, f in enumerate(features)}
        self.bias = np.asarray(bias, dtype=float)
        # feature-major, so that a bag's columns are rows
        self.weights_t = np.asarray(weights, dtype=float).reshape(
            len(self.labels), len(self.columns)).T.copy()
        self.groups = list(zip(starts, tuple(starts[1:]) + (len(self.labels),)))

    @classmethod
    def stack(cls, scorers: list["LinearScorer"]) -> "LinearScorer":
        """One scorer whose groups are the given scorers' rows, in order,
        over the union of their columns."""
        import numpy as np

        features = sorted({f for s in scorers for f in s.columns})
        index = {f: j for j, f in enumerate(features)}
        weights_t = np.zeros((len(features), sum(len(s.labels) for s in scorers)))
        starts, row = [], 0
        for s in scorers:
            starts.append(row)
            weights_t[[index[f] for f in s.columns], row:row + len(s.labels)] = s.weights_t
            row += len(s.labels)
        return cls([lab for s in scorers for lab in s.labels], features,
                   np.concatenate([s.bias for s in scorers]), weights_t.T, starts)

    def scores(self, bags: list[Bag]) -> np.ndarray:
        """bias + W·x for each bag x: one row per bag."""
        import numpy as np

        rows, cols, vals = [], [], []
        for i, bag in enumerate(bags):
            for f, v in bag.items():
                j = self.columns.get(f)
                if j is not None and v > 0:
                    rows.append(i)
                    cols.append(j)
                    vals.append(v)
        # only the columns some bag uses
        used, at = np.unique(np.array(cols, dtype=np.intp), return_inverse=True)
        x = np.zeros((len(bags), len(used)))
        x[rows, at] = vals
        return x @ self.weights_t[used] + self.bias

    def top_rows(self, bags: list[Bag], depth: int | None = None):
        """For each BATCH of bags, its scores and its top rows: one row
        of row indices per bag, each group's top `depth` rows by
        rank_order side by side, group after group."""
        import numpy as np

        for first in range(0, len(bags), self.BATCH):
            scores = self.scores(bags[first:first + self.BATCH])
            yield scores, np.concatenate(
                [rank_order(scores[:, a:b])[:, :depth] + a for a, b in self.groups], axis=1)

    def widths(self, depth: int | None = None) -> list[int]:
        """How many top rows each group gives at `depth`."""
        return [len(range(a, b)[:depth]) for a, b in self.groups]

    def rankings(self, bags: list[Bag], depth: int | None = None) -> list:
        """For each bag, each group's (label, score) ranking of it, cut
        to `depth` labels; scores are not rounded."""
        import numpy as np

        labels = self.labels
        # the column where each group's top rows end
        cuts = np.cumsum([0] + self.widths(depth)).tolist()
        out = []
        for scores, rows in self.top_rows(bags, depth):
            kept = np.take_along_axis(scores, rows, axis=1).tolist()
            out.extend(
                [[(labels[i], s) for i, s in zip(r[a:b], k[a:b])] for a, b in zip(cuts, cuts[1:])]
                for r, k in zip(rows.tolist(), kept)
            )
        return out

    def ranking(self, bag: Bag) -> list[tuple[str, float]]:
        """The bag's ranking by a single model."""
        ((ranking,),) = self.rankings([bag])
        return ranking


# -- Naive Bayes ---------------------------------------------------------


def _smoothed(counts: dict[str, dict], vocab, a: float) -> dict[str, dict[str, float]]:
    """label -> word -> (a + n_cw) / (a·k + n_c) for every word w of the
    k-word vocabulary, where n_cw counts w under label c and n_c counts
    all of c's words: additive smoothing, add-one (a = 1) for Naive Bayes
    and a_word for Labeled LDA."""
    k = len(vocab)
    smoothed = {}
    for c, n in counts.items():
        denominator = a * k + sum(n.values())
        smoothed[c] = {w: (a + n.get(w, 0)) / denominator for w in vocab}
    return smoothed


@dataclass
class NBModel:
    priors: dict[str, float]
    likelihoods: dict[str, dict[str, float]]  # label -> word -> P(w|c) over the vocabulary
    vocabulary: frozenset[str]

    @cached_property
    def linear(self) -> LinearScorer:
        """bias log P(c), weights log P(w|c) over the vocabulary."""
        import numpy as np

        labels = sorted(self.priors)
        features = sorted(self.vocabulary)
        weights = [[self.likelihoods[c][w] for w in features] for c in labels]
        return LinearScorer(labels, features, np.log([self.priors[c] for c in labels]),
                            np.log(weights))


def nb_train(labeled_bags) -> NBModel:
    """labeled_bags: iterable of (label, bag).  P(c) is the class document
    fraction; P(w|c) = (1 + count_wc) / (k + total_c) with k the
    vocabulary size (add-one smoothing)."""
    counts: dict[str, dict] = {}
    ndocs: dict[str, int] = {}
    for label, bag in labeled_bags:
        if label in ndocs:
            ndocs[label] += 1
            n = counts[label]
        else:
            ndocs[label] = 1
            n = counts[label] = {}
        # v + n[w], the order in which Counter.update adds
        for w, v in bag.items():
            n[w] = v + n[w] if w in n else v
    if not ndocs:
        raise TrainingError("empty training set")
    vocab = {w for n in counts.values() for w in n}
    if not vocab:
        raise TrainingError("every training bag is empty")
    total_docs = sum(ndocs.values())
    return NBModel(
        priors={c: ndocs[c] / total_docs for c in ndocs},
        likelihoods=_smoothed(counts, vocab, 1),
        vocabulary=frozenset(vocab),
    )


def nb_predict(model: NBModel, bag: Bag) -> list[tuple[str, float]]:
    """score(c) = log P(c) + sum_w n_wd * log P(w|c); out-of-vocabulary
    words are ignored, in-vocabulary words unseen in a class use the
    smoothing floor.  Ranked by rank_order."""
    return model.linear.ranking(bag)


# -- Balanced Winnow -----------------------------------------------------


@dataclass
class WinnowModel:
    theta: float
    alpha: float
    beta: float
    # label -> feature -> (w+, w-)
    weights: dict[str, dict[str, tuple[float, float]]]
    features: frozenset[str]

    @cached_property
    def linear(self) -> LinearScorer:
        """bias -theta, weights w+ - w-."""
        labels = sorted(self.weights)
        features = sorted(self.features)
        weights = [[wp - wn for wp, wn in (self.weights[lab].get(f, (0.0, 0.0))
                                           for f in features)]
                   for lab in labels]
        return LinearScorer(labels, features, [-self.theta] * len(labels), weights)


def winnow_train(
    labeled_vectors,
    theta: float = 1.0,
    alpha: float = 1.1,
    beta: float = 0.9,
    epochs: int = 50,
) -> WinnowModel:
    """One-vs-rest Balanced Winnow.  Positive prediction iff
    sum_i (w+ - w-) x_i > theta.  Weights start at w+ = 1, w- = 0.5 and
    change only on mistakes and only for active features (x_i > 0): false
    negative promotes (w+ *= alpha, w- *= beta), false positive demotes
    (w+ *= beta, w- *= alpha).  TrainingError when a weight ends up
    infinite."""
    if not (alpha > 1 and 0 < beta < 1 and 1 <= epochs <= MAX_EPOCHS
            and math.isfinite(theta) and math.isfinite(alpha)):
        raise ConfigError("winnow needs alpha > 1, 0 < beta < 1, epochs in 1..%d, "
                          "theta and alpha finite" % MAX_EPOCHS)
    labeled_vectors = list(labeled_vectors)
    if not labeled_vectors:
        raise TrainingError("empty training set")
    features = frozenset(f for _, x in labeled_vectors for f in x)
    labels = sorted({lab for lab, _ in labeled_vectors})
    # each label's w+ and w- lists, feature f's weights at column[f]
    column = {f: j for j, f in enumerate(features)}
    rows = [(lab, [1.0] * len(column), [0.5] * len(column)) for lab in labels]
    # each bag's active (column, value) pairs, in bag order
    active = [(lab, [(column[f], v) for f, v in x.items() if v > 0])
              for lab, x in labeled_vectors]
    for _ in range(epochs):
        mistakes = 0
        for lab, x in active:
            for target, wp, wn in rows:
                positive = lab == target
                # a running +=, as the margin always was: Python 3.12's
                # builtin sum compensates float additions
                s = 0.0
                for j, v in x:
                    s += (wp[j] - wn[j]) * v
                if (s - theta > 0) == positive:
                    continue
                mistakes += 1
                up, down = (alpha, beta) if positive else (beta, alpha)
                for j, _ in x:
                    wp[j] *= up
                    wn[j] *= down
        if mistakes == 0:
            break
    for lab, wp, wn in rows:
        if not all(map(math.isfinite, wp)) or not all(map(math.isfinite, wn)):
            raise TrainingError("winnow alpha %r drove a weight of label %s past the float range"
                                % (alpha, lab))
    weights = {lab: {f: (wp[j], wn[j]) for f, j in column.items()} for lab, wp, wn in rows}
    return WinnowModel(
        theta=theta, alpha=alpha, beta=beta, weights=weights, features=features
    )


def winnow_predict(model: WinnowModel, x: Bag) -> list[tuple[str, float]]:
    """Labels ranked (rank_order) by margin sum (w+ - w-) x_i - theta.
    Features unseen at training time are ignored."""
    return model.linear.ranking(x)


# -- Labeled LDA ---------------------------------------------------------


@dataclass
class LLDAModel:
    topics: list[str]  # == label set
    phi: dict[str, dict[str, float]]  # topic -> word -> probability
    a_word: float
    vocabulary: frozenset[str]

    @cached_property
    def linear(self) -> LinearScorer:
        """bias 0, weights log phi."""
        import numpy as np

        labels = sorted(self.topics)
        features = sorted(self.vocabulary)
        weights = [[self.phi[t][w] for w in features] for t in labels]
        return LinearScorer(labels, features, np.zeros(len(labels)),
                            np.log(weights))


def llda_train(
    labeled_docs,
    a_doc: float | None = None,
    a_word: float = 0.01,
    iterations: int = 200,
    seed: int = 0,
) -> LLDAModel:
    """Labeled LDA (Ramage et al. 2009).  labeled_docs: iterable of
    (labels, tokens), where labels lists the document's labels and tokens
    is a word sequence.  A single-label document's tokens all take its
    label, so on single-label documents, all that semtax itself trains
    on, phi(w|t) = (a_word + n_tw) / (a_word·V + n_t) in closed form:
    Naive Bayes' likelihood with a_word for 1, whatever a_doc, iterations
    and seed.  The tokens of multi-label documents take their topics by
    collapsed Gibbs sampling (_gibbs_counts), deterministic for a fixed
    seed.  TrainingError when a_word makes a phi zero, which has no log."""
    if not (0 < a_word < math.inf and iterations >= 0):
        raise ConfigError("llda needs a_word > 0, iterations >= 0, a_word finite")
    counts: dict[str, Counter] = defaultdict(Counter)
    multi_label = []
    for labels, tokens in labeled_docs:
        labels = sorted(set(labels))
        if not labels:
            raise TrainingError("document with empty label set")
        if len(labels) == 1:
            counts[labels[0]].update(tokens)
            continue
        multi_label.append((labels, list(tokens)))
        for lab in labels:
            counts[lab]  # every label is a topic, with or without tokens
    if not counts:
        raise TrainingError("empty training set")
    topics = sorted(counts)
    vocab = sorted({w for n in counts.values() for w in n}
                   | {w for _, tokens in multi_label for w in tokens})
    if multi_label:
        _gibbs_counts(multi_label, counts, 50.0 / len(topics) if a_doc is None else a_doc,
                      a_word, len(vocab), iterations, random.Random(seed))
    phi = _smoothed(counts, vocab, a_word)
    for t, row in phi.items():
        for w, p in row.items():
            if not 0 < p < math.inf:
                raise TrainingError("llda a_word %r makes phi(%s|%s) = %r, not a positive "
                                    "finite number" % (a_word, w, t, p))
    return LLDAModel(
        topics=topics,
        phi=phi,
        a_word=a_word,
        vocabulary=frozenset(vocab),
    )


def _gibbs_counts(docs, counts, a_doc, a_word, vsize, iterations, rng):
    """Add to counts (topic -> word -> count) the tokens of docs, a list of
    (labels, tokens) with several labels each: each token is drawn a
    topic among its document's labels, then `iterations` sweeps of
    collapsed Gibbs sampling redraw each one."""
    n_z = Counter({t: sum(n.values()) for t, n in counts.items()})
    # (labels, tokens, topic counts, topic per token) of each document
    sampled = []
    for labels, tokens in docs:
        zs = [rng.choice(labels) for _ in tokens]
        for w, z in zip(tokens, zs):
            counts[z][w] += 1
        n_z.update(zs)
        sampled.append((labels, tokens, Counter(zs), zs))

    for _ in range(iterations):
        for labels, tokens, dz, zs in sampled:
            for i, w in enumerate(tokens):
                z = zs[i]
                counts[z][w] -= 1
                n_z[z] -= 1
                dz[z] -= 1
                probs = [(dz[t] + a_doc) * (counts[t][w] + a_word) / (n_z[t] + vsize * a_word)
                         for t in labels]
                r = rng.random() * sum(probs)
                acc = 0.0
                new_z = labels[-1]
                for t, p in zip(labels, probs):
                    acc += p
                    if r < acc:
                        new_z = t
                        break
                zs[i] = new_z
                counts[new_z][w] += 1
                n_z[new_z] += 1
                dz[new_z] += 1


def llda_predict(model: LLDAModel, bag: Bag) -> list[tuple[str, float]]:
    """score(label) = sum_w n_wd * log phi(w|label); out-of-vocabulary
    words are ignored.  Ranked by rank_order."""
    return model.linear.ranking(bag)
