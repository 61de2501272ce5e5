"""Metrics, length bucketing, the paired t-test, feature-mode extraction
and the seeded experiment runner.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import dataclass, field, asdict

from .classics import llda_train, nb_train, winnow_train
from .corpus import Document
from .ensemble import (
    AGGREGATION_MODES,
    class_pools,
    draw_samples,
    project_category_to_label,
    semcom_predict,
    train_committee,
)
from .errors import ConfigError, DataError, DegenerateInputError
from .models import decode
from .semcat import (
    FEATURE_MODES,
    Analyzer,
    SemCatConfig,
    assignment_features,
    check_config,
    ranked_categories,
    term_vector,
    vector_features,
)
from .semcla import (
    DEFAULT_ALPHA,
    SEMCLA_MODES,
    SemClaConfig,
    check_alpha,
    semcla_fit,
)
from .taxonomy import Taxonomy, sim_lin
from .textpipe import BackgroundStats

# each classical learner's params and their types
LEARNER_PARAMS = {
    "bayes": {},
    "winnow": {"theta": float, "alpha": float, "beta": float, "epochs": int},
    "llda": {"a_word": float},
}
CLASSICAL_KINDS = tuple(LEARNER_PARAMS)
# a committee's own params and their defaults
COMMITTEE_DEFAULTS = {"members": (("bayes", 25), ("winnow", 25)), "level": "2",
                      "sample_size": 200, "aggregation": "single_vote",
                      "semcat_weights": (14.0, 10.0, 6.0)}
MAX_MEMBERS = 1000  # a committee's members in all: 20 times the default; see README


def _committee_params(own: str) -> dict:
    """The params of a committee kind: members, level, sample_size and
    `own`, the one of aggregation and semcat_weights that the kind reads,
    which committee_key checks (type None), and every learner's params,
    which it passes on to its members."""
    return dict.fromkeys(("members", "level", "sample_size", own)) | {
        k: tp for params in LEARNER_PARAMS.values() for k, tp in params.items()}


# the params each method kind takes, and the type each is decoded as:
# ensemble aggregates its members' votes, semcom weighs SemCat's against them
METHOD_PARAMS = {**LEARNER_PARAMS, "semcat": {}, "semcla": {"alpha": float, "mode": str},
                 "ensemble": _committee_params("aggregation"),
                 "semcom": _committee_params("semcat_weights")}
SAMPLE_LEVELS = {1: "1", "1": "1", 2: "2", "2": "2", "inf": "inf", float("inf"): "inf"}
# the SemCatConfig fields an experiment config may set, echoed in its report
SEMCAT_KEYS = ("top_terms", "disambig", "measure", "exact_match", "min_df", "max_df_ratio")

SHORT_MIN, MEDIUM_MIN, LONG_MIN = 1000, 2000, 10000


def precision(preds: list, truths: list) -> float:
    """Fraction of exact matches."""
    if len(preds) != len(truths):
        raise DataError("prediction/truth length mismatch")
    if not preds:
        raise DataError("empty input")
    return sum(p == t for p, t in zip(preds, truths)) / len(preds)


def lin_precision(
    preds: list, truths: list, tax: Taxonomy, label_categories: dict[str, str]
) -> float:
    """Mean Lin similarity between the mapped truth and prediction
    categories; rewards near-miss predictions."""
    if len(preds) != len(truths):
        raise DataError("prediction/truth length mismatch")
    if not preds:
        raise DataError("empty input")
    # sim_lin once per distinct (truth, prediction) pair, summed in order
    sims: dict = {}
    total = 0.0
    for p, t in zip(preds, truths):
        s = sims.get((t, p))
        if s is None:
            if p not in label_categories or t not in label_categories:
                raise DataError("label without a taxonomy category: %r"
                                % (p if p not in label_categories else t,))
            s = sims[t, p] = sim_lin(tax, label_categories[t], label_categories[p])
        total += s
    return total / len(preds)


def bucket_of(text: str) -> str:
    c = len(text)
    if c < SHORT_MIN:
        return "excluded"
    if c < MEDIUM_MIN:
        return "short"
    if c < LONG_MIN:
        return "medium"
    return "long"


def bucket_by_length(docs) -> dict[str, list]:
    """Partition documents by raw character count: short [1000, 2000),
    medium [2000, 10000), long [10000, inf); under 1000 excluded."""
    out = {"short": [], "medium": [], "long": [], "excluded": []}
    for d in docs:
        out[bucket_of(d.text)].append(d)
    return out


def paired_t_test(a: list, b: list) -> tuple[float, float]:
    """Standard paired t on the differences, df = n - 1, two-sided p via
    the Student-t distribution.  A NaN or infinite score or difference is
    a data error, and zero variance of the differences a degenerate-input
    error."""
    if len(a) != len(b):
        raise DataError("paired t-test needs equal-length score lists")
    n = len(a)
    if n < 2:
        raise DataError("paired t-test needs n >= 2")
    # finite scores can still differ by more than the largest float
    diffs = [float(x) - float(y) for x, y in zip(a, b)]
    if not all(map(math.isfinite, diffs)):
        raise DataError("paired t-test needs finite scores")
    # plain float sums, as numpy's mean and std would take them: an
    # overflow gives inf, never an exception
    mean = sum(diffs) / n
    sd = math.sqrt(sum([(d - mean) * (d - mean) for d in diffs]) / (n - 1))
    if sd == 0.0:
        raise DegenerateInputError("differences have zero variance")
    t = mean / sd * math.sqrt(n)
    return t, _t_two_sided_p(t, n - 1)


def _t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom: the
    regularized incomplete beta I_x(df/2, 1/2), x = df / (df + t^2),
    with 1 - x taken as t^2 / (df + t^2), so that neither loses digits to
    a difference from 1."""
    tt = t * t
    if math.isnan(tt):
        return math.nan
    if math.isinf(tt):
        return 0.0
    a, b = df / 2.0, 0.5
    x, y = df / (df + tt), tt / (df + tt)
    if y == 0.0:
        return 1.0
    if x == 0.0:
        return 0.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y))
    # the continued fraction converges fast below the mean of the beta
    # distribution; above it, use I_x(a, b) = 1 - I_y(b, a)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of the incomplete beta function, by the
    modified Lentz method (Numerical Recipes, 3rd ed., section 6.4)."""
    tiny, eps = 1e-300, 1e-16
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    # it needs of the order of sqrt(max(a, b)) terms
    for m in range(1, 100 + int(10 * math.sqrt(max(a, b)))):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                    -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < eps:
            break
    return h


def extract_features(
    text: str, mode: str, tax: Taxonomy, stats: BackgroundStats, config: SemCatConfig
) -> dict[str, float]:
    """The `mode` feature bag of one text (see semcat.vector_features);
    EmptyVectorError when it has none.  Over many texts, semcat.Analyzer
    shares one phrase index and term table."""
    return vector_features(term_vector(text, tax, stats, config), mode, tax, config)


def bag_to_tokens(bag: dict[str, float]) -> list[str]:
    """Integerize a weighted bag for token-based learners (LLDA): each
    feature repeated round(100 * weight) times, at least once."""
    tokens = []
    for f in sorted(bag):
        tokens.extend([f] * max(1, round(bag[f] * 100)))
    return tokens


def train_learner(kind: str, bags: list, params: dict):
    """The classical learner of kind (bayes, winnow or llda) trained on
    (label, bag) pairs.  Of params, the learner gets its LEARNER_PARAMS;
    one that is absent keeps the learner's default."""
    given = {k: params[k] for k in LEARNER_PARAMS[kind] if k in params}
    if kind == "bayes":
        return nb_train(bags)
    if kind == "winnow":
        return winnow_train(bags, **given)
    return llda_train([([lab], bag_to_tokens(bag)) for lab, bag in bags], **given)


# -- experiment runner ---------------------------------------------------


@dataclass
class MethodSpec:
    name: str
    kind: str  # a key of METHOD_PARAMS
    features: str = "terms"
    params: dict = field(default_factory=dict)


@dataclass
class ExperimentConfig:
    taxonomy: Taxonomy
    background: BackgroundStats
    train_docs: list
    test_docs: list
    methods: list
    label_categories: dict
    seed: int = 0
    common_subset: bool = True
    buckets: bool = True
    semcat: SemCatConfig = field(default_factory=SemCatConfig)
    alpha: float = DEFAULT_ALPHA


@dataclass
class MethodResult:
    name: str
    overall_precision: float
    overall_lin_precision: float
    per_bucket: dict
    unclassified: int


@dataclass
class ExperimentReport:
    config: dict
    evaluated_documents: int
    excluded_short: int
    results: list

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def render_table(self) -> str:
        lines = ["%-28s %10s %14s %12s" % ("method", "precision", "lin_precision", "unclassified")]
        for r in self.results:
            lines.append(
                "%-28s %10.3f %14.3f %12d"
                % (r.name, r.overall_precision, r.overall_lin_precision, r.unclassified)
            )
        return "\n".join(lines)


def _shown(value) -> str:
    return json.dumps(value, default=str)


def committee_key(spec: MethodSpec) -> tuple:
    """What a committee's members are trained from, besides the
    experiment's master seed: (members as (kind, count) pairs, sample
    level, sample size, features, the learner params given).  ConfigError
    when a committee param has a bad value."""
    params = COMMITTEE_DEFAULTS | spec.params
    members = params["members"]
    if not isinstance(members, (list, tuple)) or not members or not all(
        isinstance(m, (list, tuple)) and len(m) == 2 and m[0] in CLASSICAL_KINDS
        and isinstance(m[1], int) and not isinstance(m[1], bool) and m[1] >= 1
        for m in members
    ):
        raise ConfigError("method %s: members must be a non-empty list of [kind, count] "
                          "pairs, kind one of %s and count at least 1, got %s"
                          % (spec.name, ", ".join(CLASSICAL_KINDS), _shown(members)))
    if sum(count for _, count in members) > MAX_MEMBERS:
        raise ConfigError("method %s: a committee has at most %d members, got %s"
                          % (spec.name, MAX_MEMBERS, _shown(members)))
    level = params["level"]
    if isinstance(level, bool) or not isinstance(level, (int, float, str)) or (
        level not in SAMPLE_LEVELS
    ):
        raise ConfigError("method %s: level must be 1, 2 or \"inf\", got %s"
                          % (spec.name, _shown(level)))
    size = params["sample_size"]
    if isinstance(size, bool) or not isinstance(size, int) or size < 1:
        raise ConfigError("method %s: sample_size must be an integer of at least 1, got %s"
                          % (spec.name, _shown(size)))
    aggregation = params["aggregation"]
    if aggregation not in AGGREGATION_MODES:
        raise ConfigError("method %s: aggregation must be one of %s, got %s"
                          % (spec.name, ", ".join(AGGREGATION_MODES), _shown(aggregation)))
    weights = params["semcat_weights"]
    if not isinstance(weights, (list, tuple)) or not weights or not all(
        isinstance(w, (int, float)) and not isinstance(w, bool) and math.isfinite(w)
        for w in weights
    ):
        raise ConfigError("method %s: semcat_weights must be a non-empty list of numbers, "
                          "all finite, got %s"
                          % (spec.name, _shown(weights)))
    return (
        tuple((kind, count) for kind, count in members),
        SAMPLE_LEVELS[level],
        size,
        spec.features,
        tuple((k, _shown(v)) for k, v in sorted(spec.params.items())
              if k not in COMMITTEE_DEFAULTS),
    )


def check_experiment(cfg: ExperimentConfig):
    """ConfigError, before any training, for a seed, alpha, common_subset,
    buckets or SemCat value of another type than declared, an alpha that
    fails check_alpha, a SemCat setting out of range, an empty
    label_categories or a category in it that is not a string, a method
    name that is not a string or that two methods share, an unknown
    method kind (any kind that is not a string) or feature mode, a param
    that the method's kind does not take (METHOD_PARAMS), a learner param
    of the wrong type or not finite, or a bad SemCla or committee param.
    Values are checked, not converted, so that the report echoes them as
    given.  Then a DataError for a document id that names two different
    documents, within or across train_docs and test_docs."""
    top, semcat = typing.get_type_hints(ExperimentConfig), typing.get_type_hints(SemCatConfig)
    try:
        for name in ("seed", "common_subset", "buckets", "alpha"):
            decode(top[name], getattr(cfg, name), name)
        for name in SEMCAT_KEYS:
            decode(semcat[name], getattr(cfg.semcat, name), "semcat." + name)
        check_config(cfg.semcat)
    except DataError as exc:
        raise ConfigError("experiment config %s" % exc) from None
    check_alpha(cfg.alpha)
    if not isinstance(cfg.label_categories, dict) or not cfg.label_categories:
        raise ConfigError("label_categories must be a non-empty object (label -> category)")
    for label, category in cfg.label_categories.items():
        if not isinstance(category, str):
            raise ConfigError("label_categories: label %s must map to a category id string, "
                              "got %s" % (_shown(label), _shown(category)))
    names = set()
    for spec in cfg.methods:
        # the report keys each method's counts by its name
        if not isinstance(spec.name, str):
            raise ConfigError("method names must be strings, got %s" % _shown(spec.name))
        if spec.name in names:
            raise ConfigError("method %s: two methods have this name" % spec.name)
        names.add(spec.name)
        if not isinstance(spec.kind, str) or spec.kind not in METHOD_PARAMS:
            raise ConfigError("method %s: unknown kind %s" % (spec.name, _shown(spec.kind)))
        if spec.features not in FEATURE_MODES:
            raise ConfigError("method %s: unknown feature mode %s"
                              % (spec.name, _shown(spec.features)))
        if not isinstance(spec.params, dict):
            raise ConfigError("method %s: params must be an object" % spec.name)
        takes = METHOD_PARAMS[spec.kind]
        for name, value in spec.params.items():
            if name not in takes:
                raise ConfigError("method %s: unknown param %s; kind %s takes %s"
                                  % (spec.name, name, spec.kind, ", ".join(takes) or "none"))
            if takes[name] is None:
                continue
            try:
                value = decode(takes[name], value, "params." + name)
            except DataError as exc:
                raise ConfigError("method %s %s" % (spec.name, exc)) from None
            if takes[name] is float and not math.isfinite(value):
                raise ConfigError("method %s: params.%s must be finite, got %s"
                                  % (spec.name, name, _shown(value)))
        if spec.kind == "semcla":
            semcla = SemClaConfig(**spec.params)
            check_alpha(semcla.alpha, "method %s: params.alpha" % spec.name)
            if semcla.mode not in SEMCLA_MODES:
                raise ConfigError("method %s: params.mode must be one of %s, got %s"
                                  % (spec.name, ", ".join(SEMCLA_MODES), _shown(semcla.mode)))
        if spec.kind in ("ensemble", "semcom"):
            committee_key(spec)
    # documents are analysed once per id, so an id must name one document
    # (a test set may repeat training documents)
    seen = {}
    for side, docs in (("train_docs", cfg.train_docs), ("test_docs", cfg.test_docs)):
        for d in docs:
            if seen.setdefault(d.id, d) != d:
                raise DataError("%s: document id %s names two different documents in "
                                "train_docs and test_docs" % (side, _shown(d.id)))


class _Predictor:
    """One configured method: its trained state, and the label it gives
    each document (None means unclassified)."""

    def __init__(self, spec: MethodSpec, ctx: "_Context"):
        self.spec = spec
        self.ctx = ctx
        self._build()

    def _train_classical(self, kind, bags):
        """The learner of kind trained on (label, bag) pairs."""
        if not bags:
            raise DataError("no usable training documents for %s" % self.spec.name)
        return train_learner(kind, bags, self.spec.params)

    def _labeled_bags(self, docs) -> list:
        """The (label, bag) pairs of the documents that have a bag."""
        features = self.spec.features
        return [(d.label, bag) for d in docs if (bag := self.ctx.bag(d, features)) is not None]

    def _build(self):
        cfg = self.ctx.cfg
        kind = self.spec.kind
        if kind in CLASSICAL_KINDS:
            self._model = self._train_classical(kind, self._labeled_bags(cfg.train_docs))
        elif kind == "semcla":
            # check_experiment allows no params here but alpha and mode
            sc = SemClaConfig(**{"alpha": cfg.alpha, **self.spec.params}, semcat=cfg.semcat)
            self._model = semcla_fit(
                ((d.label, self.ctx.categorized(d)) for d in cfg.train_docs),
                cfg.taxonomy,
                sc,
            )
        elif kind in ("ensemble", "semcom"):
            key = committee_key(self.spec)
            self._ensemble = self.ctx.committee(key, lambda: self._train_committee(*key[:3]))

    def _train_committee(self, members, level, size):
        """The committee of members ((kind, count) pairs), each trained on
        its sample of the class pools at level less the ids without a bag."""
        cfg = self.ctx.cfg
        pools = class_pools(cfg.taxonomy, cfg.label_categories, cfg.train_docs, level)
        pooled = set().union(*pools.values())
        # each pooled document's (label, bag) by id, when it has a bag
        table = {d.id: (d.label, bag) for d in cfg.train_docs if d.id in pooled
                 and (bag := self.ctx.bag(d, self.spec.features)) is not None}
        samples = [(kind, seed, tuple(i for i in ids if i in table))
                   for kind, seed, ids in draw_samples(pools, members, size, cfg.seed)]

        def train_many(kind, many):
            return [self._train_classical(kind, [table[i] for i in ids]).linear for ids in many]

        return train_committee(samples, train_many, cfg.seed)

    def predict_all(self, docs) -> list:
        """Each document's label, None when it is unclassified.  Classical
        learners, SemCla and committees score all the documents' bags
        together, a SemCla bag being the model's vector of its categories."""
        kind = self.spec.kind
        if kind == "semcat":
            return [None if (cats := self.ctx.categorized(d)) is None
                    else self.ctx.label_of(ranked_categories(cats)[0][0]) for d in docs]
        if kind == "semcla":
            tax = self.ctx.cfg.taxonomy
            bags = [None if (cats := self.ctx.categorized(d)) is None
                    else self._model.vector(cats, tax) for d in docs]
        else:
            bags = [self.ctx.bag(d, self.spec.features) for d in docs]
        known = [(d, bag) for d, bag in zip(docs, bags) if bag is not None]
        labels = iter(self._predict_bags(known))
        return [None if bag is None else next(labels) for bag in bags]

    def _predict_bags(self, known: list) -> list:
        """The labels of (document, bag) pairs."""
        kind = self.spec.kind
        cfg = self.ctx.cfg
        bags = [bag for _, bag in known]
        if kind in CLASSICAL_KINDS or kind == "semcla":
            linear = self._model.linear
            return [linear.labels[i] for _, rows in linear.top_rows(bags, 1)
                    for i in rows[:, 0].tolist()]
        params = COMMITTEE_DEFAULTS | self.spec.params
        if kind == "ensemble":
            return self._ensemble.predict(bags, params["aggregation"])
        # semcom: weighted committee with SemCat injection
        weights = tuple(params["semcat_weights"])
        member_labels, counts = self._ensemble.vote_counts(bags)
        labels = []
        for (doc, _), row in zip(known, counts.tolist()):
            cats = self.ctx.categorized(doc)
            semcat_ranking = None if cats is None else ranked_categories(cats)
            # semcom_predict drops a category whose label is None
            label_map = {c: self.ctx.label_of(c) for c, _ in (semcat_ranking or ())[:len(weights)]}
            member_votes = {lab: n for lab, n in zip(member_labels, row) if n}
            labels.append(semcom_predict(
                member_votes, semcat_ranking, weights, label_map, cfg.seed).winner)
        return labels

    def can_handle(self, doc: Document) -> bool:
        """Whether the document has what the method reads: categories
        (semcat, semcla, semcom) and its feature bag (every other kind and
        semcom)."""
        kind = self.spec.kind
        if kind in ("semcat", "semcla", "semcom") and self.ctx.categorized(doc) is None:
            return False
        return kind in ("semcat", "semcla") or self.ctx.bag(doc, self.spec.features) is not None


class _Context:
    """Per-experiment document analysis, category projection and
    committees: each document's term vector and concept assignment are
    computed once, and every feature bag is derived from them; each
    category is projected to a label once; methods with equal committee
    keys share one trained committee.  Documents are keyed by id, which
    check_experiment requires to name one document in both sets."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.analyzer = Analyzer(cfg.taxonomy, cfg.background, cfg.semcat)
        self._vectors: dict = {}
        self._assignments: dict = {}
        self._bags: dict = {}
        self._committees: dict = {}
        # the task label of a category, None for none
        self.label_of = functools.cache(lambda category: project_category_to_label(
            cfg.taxonomy, category, cfg.label_categories))

    def committee(self, key: tuple, train):
        """The committee trained for key, trained by train() on first use."""
        if key not in self._committees:
            self._committees[key] = train()
        return self._committees[key]

    def bag(self, doc: Document, mode: str):
        """The document's `mode` feature bag, None when it has none.  Its
        categories and concepts bags come from one concept assignment."""
        key = (doc.id, mode)
        if key not in self._bags:
            if doc.id not in self._vectors:
                self._vectors[doc.id] = self.analyzer.vector(doc.text)
            bag = self._vectors[doc.id]
            if mode != "terms" and bag is not None:
                if doc.id not in self._assignments:
                    self._assignments[doc.id] = self.analyzer.assignment(bag)
                assignment = self._assignments[doc.id]
                bag = None if assignment is None else assignment_features(
                    assignment, mode, self.cfg.taxonomy)
            self._bags[key] = bag
        return self._bags[key]

    def categorized(self, doc: Document):
        return self.bag(doc, "categories")


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Train every configured method, evaluate on the test set (optionally
    restricted to documents every method can classify) and emit a
    deterministic report."""
    check_experiment(cfg)
    ctx = _Context(cfg)
    predictors = [_Predictor(spec, ctx) for spec in cfg.methods]

    if cfg.buckets:
        buckets = bucket_by_length(cfg.test_docs)
        excluded = len(buckets["excluded"])
        eligible = buckets["short"] + buckets["medium"] + buckets["long"]
    else:
        excluded = 0
        eligible = list(cfg.test_docs)

    unclassified_by_method = {p.spec.name: 0 for p in predictors}
    if cfg.common_subset:
        common = []
        for d in eligible:
            handled = [p.can_handle(d) for p in predictors]
            if all(handled):
                common.append(d)
            else:
                for p, ok in zip(predictors, handled):
                    if not ok:
                        unclassified_by_method[p.spec.name] += 1
        eligible = common
    if not eligible:
        raise DataError("no evaluable test documents")

    results = []
    for p in predictors:
        preds, truths, doc_buckets = [], [], []
        unclassified = unclassified_by_method[p.spec.name]
        for d, label in zip(eligible, p.predict_all(eligible)):
            if label is None:
                unclassified += 1
                continue
            preds.append(label)
            truths.append(d.label)
            doc_buckets.append(bucket_of(d.text) if cfg.buckets else "all")
        per_bucket = {}
        for b in sorted(set(doc_buckets)):
            bp = [p_ for p_, db in zip(preds, doc_buckets) if db == b]
            bt = [t for t, db in zip(truths, doc_buckets) if db == b]
            per_bucket[b] = {
                "count": len(bp),
                "precision": precision(bp, bt),
                "lin_precision": lin_precision(bp, bt, cfg.taxonomy, cfg.label_categories),
            }
        results.append(
            MethodResult(
                name=p.spec.name,
                overall_precision=precision(preds, truths),
                overall_lin_precision=lin_precision(
                    preds, truths, cfg.taxonomy, cfg.label_categories
                ),
                per_bucket=per_bucket,
                unclassified=unclassified,
            )
        )

    config_echo = {
        "seed": cfg.seed,
        "common_subset": cfg.common_subset,
        "buckets": cfg.buckets,
        "alpha": cfg.alpha,
        "label_categories": dict(sorted(cfg.label_categories.items())),
        "member_seed_rule": "splitmix64(master, index)",
        "semcat": {k: getattr(cfg.semcat, k) for k in SEMCAT_KEYS},
        "methods": [
            {"name": m.name, "kind": m.kind, "features": m.features,
             "params": {k: list(v) if isinstance(v, tuple) else v
                        for k, v in sorted(m.params.items())}}
            for m in cfg.methods
        ],
    }
    return ExperimentReport(
        config=config_echo,
        evaluated_documents=len(eligible),
        excluded_short=excluded,
        results=results,
    )
