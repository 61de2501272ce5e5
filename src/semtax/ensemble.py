"""Bagging committees: taxonomy-driven class pools, every member's sample
drawn from them before any member trains, each kind's samples trained in
one call, vote aggregation and the SemCom heterogeneous committee.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Callable, NamedTuple

from .classics import LinearScorer
from .errors import DataError, TrainingError
from .taxonomy import Taxonomy, sim_lin

if TYPE_CHECKING:
    import numpy as np

AGGREGATION_MODES = ("single_vote", "weighted", "rank")


class Vote(NamedTuple):
    label: str
    weight: float = 1.0
    rank: int = 1


def derive_seed(master_seed: int, index: int) -> int:
    """Member seed mixing rule (recorded in reports): splitmix-style hash
    of the master seed and the member index."""
    x = (master_seed * 0x9E3779B97F4A7C15 + (index + 1) * 0xBF58476D1CE4E5B9) & (
        2**64 - 1
    )
    x ^= x >> 31
    return x & (2**32 - 1)


def _allowed_categories(tax: Taxonomy, class_cat: str, level: str) -> set[str]:
    if level in (1, "1"):
        return {class_cat}
    if level in (2, "2"):
        return {class_cat} | tax.children[class_cat]
    if level in ("inf", float("inf")):
        return tax.descendants(class_cat)
    raise DataError("unknown sample level %r" % (level,))


def class_pools(
    tax: Taxonomy,
    class_categories: dict[str, str],
    docs,
    level: str,
) -> dict[str, list[str]]:
    """Each class's pool: the sorted ids of its eligible documents, by
    label.  docs: iterable of objects with .id and .categories (taxonomy
    annotations).  Eligibility: L=1 needs a document category equal to
    the class category, L=2 additionally direct subcategories, L=inf any
    descendant.  A pool does not depend on the member seed, so a
    committee computes its pools once and draws every member's sample
    from them."""
    docs = list(docs)
    pools: dict[str, list[str]] = {}
    for label in sorted(class_categories):
        class_cat = class_categories[label]
        tax._require_category(class_cat)
        allowed = _allowed_categories(tax, class_cat, level)
        pool = sorted(d.id for d in docs if allowed.intersection(d.categories))
        if not pool:
            raise TrainingError("class %s has no eligible documents" % label)
        pools[label] = pool
    return pools


def draw_training_sample(
    pools: dict[str, list[str]], size: int, seed: int
) -> dict[str, list[str]]:
    """One member's sample from the pools of class_pools: for each label,
    in label order, `size` ids drawn uniformly without replacement (the
    whole pool if smaller), seeded, and sorted."""
    rng = random.Random(seed)
    return {label: list(pool) if len(pool) <= size else sorted(rng.sample(pool, size))
            for label, pool in sorted(pools.items())}


def aggregate(votes: list[Vote], mode: str = "single_vote", seed: int = 0) -> str:
    """single_vote: one point per rank-1 vote; weighted: sum of vote
    weights; rank: Borda points (M - rank + 1) with M the deepest rank
    present.  Exact ties are resolved by a seeded uniform choice among the
    winners."""
    if mode not in AGGREGATION_MODES:
        raise DataError("unknown aggregation mode %r" % mode)
    if not votes:
        raise DataError("empty vote set")
    tally: dict[str, float] = {}
    if mode == "single_vote":
        for v in votes:
            if v.rank == 1:
                tally[v.label] = tally.get(v.label, 0.0) + 1.0
    elif mode == "weighted":
        for v in votes:
            tally[v.label] = tally.get(v.label, 0.0) + v.weight
    else:
        depth = max(v.rank for v in votes)
        for v in votes:
            tally[v.label] = tally.get(v.label, 0.0) + (depth - v.rank + 1)
    if not tally:
        raise DataError("no rank-1 votes to count")
    best = max(tally.values())
    winners = sorted(lab for lab, s in tally.items() if s == best)
    if not winners:
        raise DataError("no label attains the best tally %r" % best)
    if len(winners) == 1:
        return winners[0]
    return random.Random(seed).choice(winners)


@dataclass
class BaggingEnsemble:
    """Trained members in member order, each a LinearScorer, and their
    seeds; train_committee builds one.  Their rows are stacked into one
    scorer, so a batch of documents is scored for every member with
    one matrix product and the members' votes are counted per label in
    one array pass."""

    members: list
    master_seed: int
    member_seeds: list

    def __post_init__(self):
        self._stacked = LinearScorer.stack(self.members)

    def vote_counts(self, bags, depth: int = 1) -> tuple[list[str], np.ndarray]:
        """The sorted union of the members' labels, and each bag's points
        per label, one row per bag.  Every member gives Borda points
        D - rank + 1 to each label of its top `depth`, where D is the
        deepest rank any member gives, so that at depth 1 a label's points
        count the members whose top label it is."""
        import numpy as np

        stacked = self._stacked
        labels = sorted(set(stacked.labels))
        label_column = np.searchsorted(labels, stacked.labels)
        widths = stacked.widths(depth)
        deepest = max(widths)
        # the points of each top-row position
        points = np.concatenate([deepest - np.arange(w, dtype=float) for w in widths])
        n = len(labels)
        tallies = [np.zeros((0, n))]
        for _, rows in stacked.top_rows(bags, depth):
            cells = label_column[rows] + n * np.arange(len(rows))[:, None]
            tallies.append(np.bincount(cells.ravel(), np.broadcast_to(points, rows.shape).ravel(),
                                       len(rows) * n).reshape(-1, n))
        return labels, np.concatenate(tallies)

    def predict(self, bags, mode: str = "single_vote", rank_depth: int = 3) -> list[str]:
        """The committee's label for each bag.  single_vote and weighted:
        each member casts one weight-1 vote for its top label, so weighted
        counts top labels exactly as single_vote does until member weights
        are defined; rank: Borda over each member's top `rank_depth`
        labels.  aggregate tallies each label's points, and ties are
        broken with the master seed."""
        if mode not in AGGREGATION_MODES:
            raise DataError("unknown aggregation mode %r" % mode)
        labels, points = self.vote_counts(bags, rank_depth if mode == "rank" else 1)
        return [aggregate([Vote(lab, p) for lab, p in zip(labels, row) if p], "weighted",
                          seed=self.master_seed)
                for row in points.tolist()]


def draw_samples(pools: dict, members, size: int, master_seed: int) -> list[tuple]:
    """Every member's (kind, seed, ids), in member order, before any
    member trains.  members: (kind, count) pairs.  Member i's seed is
    derive_seed(master_seed, i), and its ids are its draw_training_sample
    from the pools: label order, each label's ids sorted."""
    kinds = [kind for kind, count in members for _ in range(count)]
    seeds = [derive_seed(master_seed, i) for i in range(len(kinds))]
    return [(kind, seed, tuple(chain(*draw_training_sample(pools, size, seed).values())))
            for kind, seed in zip(kinds, seeds)]


def train_committee(samples: list, train_many: Callable, master_seed: int = 0) -> BaggingEnsemble:
    """The committee of draw_samples' (kind, seed, ids) samples.
    train_many(kind, samples) returns one LinearScorer per sample, and is
    called once per kind with that kind's distinct samples in member
    order, so members of one kind with equal ids share one scorer.  A
    DataError is a TrainingError naming the first failing member."""
    if not samples:
        raise DataError("ensemble needs at least one member")
    # each kind's distinct samples, in member order
    distinct = {kind: list(dict.fromkeys(ids for k, _, ids in samples if k == kind))
                for kind in dict.fromkeys(kind for kind, _, _ in samples)}
    try:
        trained = {(kind, ids): scorer for kind, many in distinct.items()
                   for ids, scorer in zip(many, train_many(kind, many), strict=True)}
    except DataError:
        # train the members one at a time to name the first that fails
        for i, (kind, _, ids) in enumerate(samples):
            try:
                train_many(kind, [ids])
            except DataError as exc:
                raise TrainingError("member %d failed: %s" % (i, exc)) from exc
        raise
    return BaggingEnsemble([trained[kind, ids] for kind, _, ids in samples], master_seed,
                           [seed for _, seed, _ in samples])


def project_category_to_label(
    tax: Taxonomy, category: str, class_categories: dict[str, str]
) -> str | None:
    """Map a taxonomy category to a task label: exact match on a class
    category, else the nearest class category by Lin similarity; ties
    dropped (None)."""
    by_cat = {cat: lab for lab, cat in class_categories.items()}
    if category in by_cat:
        return by_cat[category]
    scored = sorted(
        ((sim_lin(tax, category, cat), lab) for lab, cat in class_categories.items()),
        key=lambda t: (-t[0], t[1]),
    )
    if len(scored) > 1 and scored[0][0] == scored[1][0]:
        return None
    return scored[0][1]


@dataclass
class CommitteeDecision:
    winner: str
    semcat_used: bool


def semcom_predict(
    member_votes: dict[str, float],
    semcat_ranking: list | None,
    weight_vector,
    label_map: dict[str, str | None],
    seed: int = 0,
) -> CommitteeDecision:
    """member_votes maps each label to the number of members whose top
    label it is, and those votes are counted first; SemCat's top
    categories (one per weight-vector entry) are mapped through label_map
    and cast weighted votes.  Categories outside the map, or mapped to
    None, are dropped.  A SemCat failure (None ranking) leaves the plain
    member vote, flagged."""
    if not weight_vector:
        raise DataError("empty SemCat weight vector")
    votes = [Vote(label, float(count)) for label, count in member_votes.items()]
    semcat_used = False
    if semcat_ranking is not None:
        for i, (category, _) in enumerate(semcat_ranking[: len(weight_vector)]):
            label = label_map.get(category)
            if label is not None:
                votes.append(Vote(label, float(weight_vector[i]), i + 1))
                semcat_used = True
    winner = aggregate(votes, "weighted", seed=seed)
    return CommitteeDecision(winner=winner, semcat_used=semcat_used)
