"""Brute-force oracles, independent of the library's cached tables.

These work from the raw parent map and concept->category links only and
recompute everything by naive enumeration.
"""

import math


def brute_ancestors(parents, k):
    acc = {k}
    frontier = [k]
    while frontier:
        for p in parents[frontier.pop()]:
            if p not in acc:
                acc.add(p)
                frontier.append(p)
    return acc


def brute_concept_set(parents, concept_cats, k):
    """Concepts attached to k or any category below k: a concept counts if
    k is an ancestor of one of its categories."""
    return {
        c
        for c, cats in concept_cats.items()
        if any(k in brute_ancestors(parents, kk) for kk in cats)
    }


def brute_ic(parents, concept_cats, k):
    s = len(brute_concept_set(parents, concept_cats, k))
    n = len(concept_cats)
    return 1.0 - math.log(1 + s) / math.log(1 + n)


def brute_msca(parents, concept_cats, k1, k2):
    common = brute_ancestors(parents, k1) & brute_ancestors(parents, k2)
    return sorted(common, key=lambda k: (-brute_ic(parents, concept_cats, k), k))[0]


def brute_sim(parents, concept_cats, measure, k1, k2):
    """Lin ("lin") or Pirro-Seco ("pirro_seco") similarity of two
    categories from brute_ic and brute_msca."""
    ic = lambda k: brute_ic(parents, concept_cats, k)
    shared, ic1, ic2 = ic(brute_msca(parents, concept_cats, k1, k2)), ic(k1), ic(k2)
    if measure == "lin":
        if ic1 + ic2 == 0.0:
            return 1.0 if k1 == k2 else 0.0
        return 2.0 * shared / (ic1 + ic2)
    return (3.0 * shared - ic1 - ic2 + 2.0) / 3.0


def brute_sim_page(parents, concept_cats, sim_fn, p1, p2):
    best = None
    for k1 in concept_cats[p1]:
        for k2 in concept_cats[p2]:
            s = sim_fn(k1, k2)
            if best is None or s > best:
                best = s
    return best


def links(tax):
    """(parents, concept->categories) raw views of a Taxonomy."""
    return tax.parents, {c.id: set(c.categories) for c in tax.concepts.values()}
