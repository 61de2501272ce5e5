"""Brute-force oracles, independent of the library's cached tables.

These work from the raw parent map and concept->category links only and
recompute everything by naive enumeration.  The SemCla oracles score
against every training vector and compare every pair by its own cosine.
The text oracles decide every token afresh and try every phrase span,
and the term vector oracle counts the terms one token at a time and
picks the top terms by selection.
The classical oracles score each label by its own loop over the bag,
and the Labeled LDA oracle draws a topic for every token.  The Naive
Bayes trainer oracle counts with Counter.update, and the Winnow trainer
oracle keeps each weight pair as a tuple in a per-label dict.  The
concept lookup oracle scans every concept's labels.  The committee
oracle has each member rank each bag on its own and casts one vote per
ranked label.  The taxonomy file oracle reads one record at a time and
builds both label indexes eagerly.  The background file oracle checks
each line in full as it reads it.  The disambiguation oracle scores each candidate by its own
brute_sim_page against every context concept.
"""

import math
import random
import re
import unicodedata
from collections import Counter, defaultdict

import numpy as np

from semtax.classics import NBModel, WinnowModel
from semtax.ensemble import Vote, aggregate
from semtax.errors import (
    CycleError,
    DanglingLinkError,
    DataError,
    DuplicateIdError,
    EmptyLabelError,
    MultipleRootsError,
    TaxonomyError,
    TrainingError,
)
from semtax.semcat import ConceptAssignment
from semtax.taxonomy import fold_diacritics, normalize_label


def brute_ancestors(parents, k):
    acc = {k}
    frontier = [k]
    while frontier:
        for p in parents[frontier.pop()]:
            if p not in acc:
                acc.add(p)
                frontier.append(p)
    return acc


def brute_parse_taxonomy(lines):
    """The tables of taxonomy text, read one record at a time with
    generator-built id and label sets, then checked in the loader's
    order: roots, dangling parents, cycles, concepts.  Returns
    category_labels, parents, concepts (id -> (labels, categories), each
    a sorted tuple of distinct strings),
    label_index and folded_label_index, both label -> sorted distinct
    concept ids, or raises the loader's error class."""
    cat_labels, parents, concepts = {}, {}, {}
    for raw in lines:
        line = raw.rstrip("\r\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        kind = fields[0]
        if kind not in ("C", "P"):
            raise TaxonomyError("unknown record kind %r" % kind)
        if len(fields) != 4:
            raise TaxonomyError("%s record needs 4 fields" % kind)
        _, rid, third, fourth = fields
        if kind == "C":
            if rid in cat_labels:
                raise DuplicateIdError(rid)
            cat_labels[rid] = third
            parents[rid] = frozenset(p for p in fourth.split(",") if p)
        else:
            if rid in concepts:
                raise DuplicateIdError(rid)
            labels = tuple(sorted({
                " ".join(lab.casefold().split()) for lab in fourth.split("|") if lab.strip()
            }))
            if not labels:
                raise EmptyLabelError(rid)
            concepts[rid] = (labels, tuple(sorted({c for c in third.split(",") if c})))
    roots = [k for k, ps in parents.items() if not ps]
    if len(roots) != 1:
        raise MultipleRootsError(roots)
    if any(p not in cat_labels for ps in parents.values() for p in ps):
        raise DanglingLinkError("parent")
    if any(k in brute_ancestors(parents, p) for k, ps in parents.items() for p in ps):
        raise CycleError("cycle")
    if not concepts:
        raise TaxonomyError("no concepts")
    for labels, cats in concepts.values():
        if not cats or any(k not in cat_labels for k in cats):
            raise DanglingLinkError("category")
    label_index, folded = {}, {}
    for cid in sorted(concepts):
        for lab in concepts[cid][0]:
            label_index.setdefault(lab, []).append(cid)
            key = "".join(ch for ch in unicodedata.normalize("NFKD", lab)
                          if not unicodedata.combining(ch))
            folded.setdefault(key, set()).add(cid)
    return {
        "category_labels": cat_labels,
        "parents": parents,
        "concepts": concepts,
        "label_index": label_index,
        "folded_label_index": {key: sorted(cids) for key, cids in folded.items()},
    }


def brute_load_background(path):
    """The (doc_count, doc_freq) of a background file, each line checked
    in full as it is read, and the document count against the first
    largest df at the end; or the loader's DataError message."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    doc_count = doc_line = top = None
    df, first = {}, {}
    for lineno, text in enumerate(lines, 1):
        if not text.strip():
            continue
        where = "%s line %d" % (path, lineno)
        bad = "%s: expected #docs=<n> or term<TAB>df, got %r" % (where, text)
        if text.startswith("#docs="):
            if not _is_int(text[6:]):
                raise DataError(bad)
            if doc_line is not None:
                raise DataError("%s: #docs= header repeats line %d" % (where, doc_line))
            n = int(text[6:])
            doc_count, doc_line = n, lineno
        else:
            fields = text.split("\t")
            if len(fields) != 2 or not _is_int(fields[1]):
                raise DataError(bad)
            term, n = fields[0], int(fields[1])
            if term in df:
                raise DataError("%s: term %r repeats line %d" % (where, term, first[term]))
            if not term.strip():
                raise DataError("%s: blank term in %r" % (where, text))
            df[term], first[term] = n, lineno
            if top is None or n > top[0]:
                top = n, where, text
        if n < 1:
            raise DataError("%s: counts must be at least 1, got %r" % (where, text))
    if doc_count is None:
        raise DataError("background stats file %s is missing the #docs= header" % path)
    if top is not None and top[0] > doc_count:
        raise DataError("%s: df is larger than #docs=%d, got %r" % (top[1], doc_count, top[2]))
    return doc_count, df


def _is_int(s):
    try:
        int(s)
    except ValueError:
        return False
    return True


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


def brute_disambiguate(parents, concept_cats, ambiguous, context, weights, method, measure):
    """The entries (term, concept, share) of the ambiguous terms resolved
    against the context concept ids: each term's candidates sorted by
    their mean brute_sim_page to the sorted distinct context, descending,
    ties by id, one brute_sim_page per candidate and context concept.
    The method then splits the term's weight over the ranks; nearest
    with an empty context falls back to uniform."""
    ctx = sorted(set(context))
    sim = lambda k1, k2: brute_sim(parents, concept_cats, measure, k1, k2)
    entries = []
    for term in sorted(ambiguous):
        candidates = ambiguous[term]
        if ctx:
            scored = sorted(
                candidates,
                key=lambda c: (
                    -sum(brute_sim_page(parents, concept_cats, sim, c, x) for x in ctx) / len(ctx),
                    c,
                ),
            )
            effective = method
        else:
            scored = sorted(candidates)
            effective = "uniform" if method == "nearest" else method
        m = len(scored)
        if effective == "nearest":
            props = [1.0] + [0.0] * (m - 1)
        else:
            raw = {
                "rank_half": [1.0 / 2**i for i in range(1, m + 1)],
                "rank_inv": [1.0 / i for i in range(1, m + 1)],
                "uniform": [1.0] * m,
            }[effective]
            props = [r / sum(raw) for r in raw]
        w = weights[term]
        for c, p in zip(scored, props):
            if p > 0.0:
                entries.append((term, c, w * p))
    return entries


def links(tax):
    """(parents, concept->categories) raw views of a Taxonomy."""
    return tax.parents, {c.id: set(c.categories) for c in tax.concepts.values()}


def brute_extend(parents, v, alpha):
    """v plus, for each entry (k, w), w*alpha split equally among k's
    direct parents."""
    out = dict(v)
    for k, w in v.items():
        for p in parents[k]:
            out[p] = out.get(p, 0.0) + w * alpha / len(parents[k])
    return out


def brute_cosine(v1, v2):
    dot = sum(w * v2.get(k, 0.0) for k, w in v1.items())
    n1 = math.sqrt(sum(w * w for w in v1.values()))
    n2 = math.sqrt(sum(w * w for w in v2.values()))
    return dot / (n1 * n2) if n1 and n2 else 0.0


def brute_semcla_ranking(doc, classes, mode):
    """SemCla scoring from every training vector: classes maps a label to
    its extended vectors; average scores the mean cosine of doc to them,
    centroid the cosine to their mean.  Sorted by the score rounded to 9
    decimals, descending, ties by label."""
    scores = []
    for label, vs in classes.items():
        if mode == "average":
            s = sum(brute_cosine(doc, v) for v in vs) / len(vs)
        else:
            keys = {k for v in vs for k in v}
            mean = {k: sum(v.get(k, 0.0) for v in vs) / len(vs) for k in keys}
            s = brute_cosine(doc, mean)
        scores.append((label, s))
    return sorted(scores, key=lambda ls: (-round(ls[1], 9), ls[0]))


def brute_average_ranks(values):
    """The rank of each value, 1 for the smallest, with tied values
    given the mean of their ranks: the L values below v and the E equal
    to it (v included) give ranks L + 1 .. L + E, of mean (2L + E + 1) / 2."""
    return [(2 * sum(u < v for u in values) + sum(u == v for u in values) + 1) / 2
            for v in values]


def brute_rank_separation(parents, base_vectors, alpha):
    """Mean rank of different-group pairs minus mean rank of same-group
    pairs, from the cosine of every pair of extended vectors rounded to 9
    decimals (rank 1 the most similar, ties tie-averaged)."""
    extended = [(g, brute_extend(parents, v, alpha)) for g, v in base_vectors]
    sims, same = [], []
    for i in range(len(extended)):
        for j in range(i + 1, len(extended)):
            sims.append(round(brute_cosine(extended[i][1], extended[j][1]), 9))
            same.append(extended[i][0] == extended[j][0])
    ranks = brute_average_ranks([-s for s in sims])
    same_ranks = [r for r, s in zip(ranks, same) if s]
    diff_ranks = [r for r, s in zip(ranks, same) if not s]
    return float(np.mean(diff_ranks) - np.mean(same_ranks))


def brute_tokenize(text):
    """Letter runs of text, each lowercased on its own."""
    return [m.group(0).lower() for m in re.finditer(r"[^\W\d_]+", text)]


def brute_preprocess(text, stopwords=frozenset(), lemmas=None, stats=None,
                     min_df=2, max_df_ratio=0.5):
    """Token by token: drop stopwords, apply the lemma map, then drop
    terms the background has seen outside the df cutoffs."""
    lemmas = lemmas or {}
    out = []
    for tok in brute_tokenize(text):
        if tok in stopwords:
            continue
        tok = lemmas.get(tok, tok)
        if stats is not None and tok in stats.doc_freq:
            df = stats.doc_freq[tok]
            if df < min_df or df / stats.doc_count > max_df_ratio:
                continue
        out.append(tok)
    return out


def brute_extract_phrases(tokens, labels):
    """Greedy leftmost-longest match of the multi-word labels: at every
    position try each span from the longest label's length down to 2.  A
    span matches a label when each token's casefold equals the casefold
    of the label's token at its place; a match joins the tokens as given."""
    phrases = {tuple(t.casefold() for t in brute_tokenize(lab)) for lab in labels}
    phrases = {p for p in phrases if len(p) >= 2}
    max_len = max((len(p) for p in phrases), default=1)
    out = []
    i = 0
    n = len(tokens)
    while i < n:
        matched = False
        for span in range(min(max_len, n - i), 1, -1):
            cand = tuple(tokens[i : i + span])
            if tuple(t.casefold() for t in cand) in phrases:
                out.append(" ".join(cand))
                i += span
                matched = True
                break
        if not matched:
            out.append(tokens[i])
            i += 1
    return out


def _brute_l1(weights):
    total = sum(weights.values())
    return {t: w / total for t, w in weights.items()}


def brute_term_vector(text, labels, stats, top_terms, stopwords=frozenset(), lemmas=None,
                      min_df=2, max_df_ratio=0.5):
    """The top_terms tf-idf vector of text: brute_preprocess, then
    brute_extract_phrases, then one count per term in order of first
    occurrence, weight count * log(doc_count / df) with an unseen term's
    df 1, zero weights dropped, L1.  With more than top_terms terms, the
    heaviest are picked one at a time (ties by the smaller term) and
    renormalized.  None when there is no term or every weight is zero."""
    tokens = brute_preprocess(text, stopwords, lemmas, stats, min_df, max_df_ratio)
    counts = {}
    for t in brute_extract_phrases(tokens, labels):
        counts[t] = counts.get(t, 0) + 1
    weights = {}
    for t, n in counts.items():
        w = n * math.log(stats.doc_count / stats.doc_freq.get(t, 1))
        if w > 0.0:
            weights[t] = w
    if not weights:
        return None
    v = _brute_l1(weights)
    if len(v) <= top_terms:
        return v
    kept = {}
    while len(kept) < top_terms:
        best = None
        for t, w in v.items():
            if t not in kept and (best is None or w > v[best] or (w == v[best] and t < best)):
                best = t
        kept[best] = v[best]
    return _brute_l1(kept)


def _ranked(scores):
    """The ranking rule: by score rounded to 9 decimals, descending, ties
    by label."""
    return sorted(scores.items(), key=lambda ls: (-round(ls[1], 9), ls[0]))


def brute_nb_predict(model, bag):
    """Per class: log P(c) + sum_w n_wd * log P(w|c) over the in-vocabulary
    words."""
    scores = {}
    for c, prior in model.priors.items():
        s = math.log(prior)
        lk = model.likelihoods[c]
        for w, n in bag.items():
            if w in model.vocabulary:
                s += n * math.log(lk[w])
        scores[c] = s
    return _ranked(scores)


def brute_winnow_predict(model, x):
    """Per label: sum (w+ - w-) x_i over the known features with x_i > 0,
    minus theta."""
    scores = {}
    for lab, w in model.weights.items():
        s = 0.0
        for f, v in x.items():
            pair = w.get(f)
            if pair is not None and v > 0:
                s += (pair[0] - pair[1]) * v
        scores[lab] = s - model.theta
    return _ranked(scores)


def brute_llda_predict(model, bag):
    """Per topic: sum_w n_wd * log phi(w|topic) over the in-vocabulary
    words."""
    scores = {}
    for t in model.topics:
        s = 0.0
        for w, n in bag.items():
            if w in model.vocabulary:
                s += n * math.log(model.phi[t][w])
        scores[t] = s
    return _ranked(scores)


def brute_llda_phi(labeled_docs, a_doc, a_word, iterations, seed):
    """Labeled LDA's phi by drawing every token's topic, those of
    single-label documents included, then Gibbs sweeps over the tokens
    of multi-label documents."""
    docs = [(sorted(set(labels)), list(tokens)) for labels, tokens in labeled_docs]
    topics = sorted({lab for labels, _ in docs for lab in labels})
    vocab = sorted({w for _, tokens in docs for w in tokens})
    vsize = len(vocab)
    rng = random.Random(seed)
    n_zw = {t: Counter() for t in topics}
    n_z = Counter()
    n_dz, assignments = [], []
    for labels, tokens in docs:
        dz, zs = Counter(), []
        for w in tokens:
            z = rng.choice(labels)
            zs.append(z)
            n_zw[z][w] += 1
            n_z[z] += 1
            dz[z] += 1
        n_dz.append(dz)
        assignments.append(zs)
    for _ in range(iterations):
        for d, (labels, tokens) in enumerate(docs):
            if len(labels) == 1:
                continue
            dz, zs = n_dz[d], assignments[d]
            for i, w in enumerate(tokens):
                z = zs[i]
                n_zw[z][w] -= 1
                n_z[z] -= 1
                dz[z] -= 1
                probs = [(dz[t] + a_doc) * (n_zw[t][w] + a_word) / (n_z[t] + vsize * a_word)
                         for t in labels]
                r = rng.random() * sum(probs)
                acc, new_z = 0.0, labels[-1]
                for t, p in zip(labels, probs):
                    acc += p
                    if r < acc:
                        new_z = t
                        break
                zs[i] = new_z
                n_zw[new_z][w] += 1
                n_z[new_z] += 1
                dz[new_z] += 1
    return {t: {w: (n_zw[t][w] + a_word) / (n_z[t] + vsize * a_word) for w in vocab}
            for t in topics}


def brute_committee_predict(members, bags, mode, rank_depth, seed):
    """A committee's label for each bag, from per-member vote lists: each
    member (a LinearScorer) ranks the bag on its own and casts one Vote
    per label of its top rank_depth (rank) or its top label (otherwise),
    and aggregate counts them."""
    depth = rank_depth if mode == "rank" else 1
    return [
        aggregate([Vote(lab, 1.0, i)
                   for member in members
                   for i, (lab, _) in enumerate(member.ranking(bag)[:depth], 1)],
                  mode, seed=seed)
        for bag in bags
    ]


def brute_nb_train(labeled_bags):
    """Naive Bayes counted with Counter.update per bag and smoothed by
    (1 + n_cw) / (k + n_c)."""
    counts = defaultdict(Counter)
    ndocs = Counter()
    for label, bag in labeled_bags:
        ndocs[label] += 1
        counts[label].update(bag)
    if not ndocs:
        raise TrainingError("empty training set")
    vocab = {w for n in counts.values() for w in n}
    if not vocab:
        raise TrainingError("every training bag is empty")
    total_docs = sum(ndocs.values())
    k = len(vocab)
    likelihoods = {}
    for c, n in counts.items():
        denominator = 1 * k + sum(n.values())
        likelihoods[c] = {w: (1 + n[w]) / denominator for w in vocab}
    return NBModel(priors={c: ndocs[c] / total_docs for c in ndocs},
                   likelihoods=likelihoods, vocabulary=frozenset(vocab))


def brute_winnow_train(labeled_vectors, theta=1.0, alpha=1.1, beta=0.9, epochs=50):
    """Balanced Winnow with each (w+, w-) pair a tuple in a per-label
    dict, replaced on every update."""
    labeled_vectors = list(labeled_vectors)
    if not labeled_vectors:
        raise TrainingError("empty training set")
    features = frozenset(f for _, x in labeled_vectors for f in x)
    labels = sorted({lab for lab, _ in labeled_vectors})
    weights = {lab: {f: (1.0, 0.5) for f in features} for lab in labels}
    active = [(lab, [(f, v) for f, v in x.items() if v > 0]) for lab, x in labeled_vectors]
    for _ in range(epochs):
        mistakes = 0
        for lab, x in active:
            for target in labels:
                w = weights[target]
                positive = lab == target
                s = 0.0
                for f, v in x:
                    wp, wn = w[f]
                    s += (wp - wn) * v
                if (s - theta > 0) == positive:
                    continue
                mistakes += 1
                up, down = (alpha, beta) if positive else (beta, alpha)
                for f, _ in x:
                    wp, wn = w[f]
                    w[f] = (wp * up, wn * down)
        if mistakes == 0:
            break
    return WinnowModel(theta=theta, alpha=alpha, beta=beta, weights=weights,
                       features=features)


def brute_concept_candidates(tax, term, exact_match):
    """The sorted ids of the concepts with a label equal to the
    normalized term; with exact_match off and none found, of those with a
    label equal to it once both are diacritic-folded."""
    key = normalize_label(term)
    found = sorted(c.id for c in tax.concepts.values() if key in c.labels)
    if found or exact_match:
        return found
    folded = fold_diacritics(key)
    return sorted(c.id for c in tax.concepts.values()
                  if any(fold_diacritics(lab) == folded for lab in c.labels))


def brute_map_terms_to_concepts(v, tax, exact_match):
    """(unambiguous assignment, ambiguous term -> candidates), each term
    looked up by brute_concept_candidates."""
    unambiguous = ConceptAssignment()
    ambiguous = {}
    for term in sorted(v):
        candidates = brute_concept_candidates(tax, term, exact_match)
        if not candidates:
            unambiguous.unresolved.append(term)
        elif len(candidates) == 1:
            unambiguous.entries.append((term, candidates[0], v[term]))
        else:
            ambiguous[term] = candidates
    return unambiguous, ambiguous
