import collections
import dataclasses
import io
import math
import warnings

import pytest

import semtax.ensemble
import semtax.evaluate
import semtax.semcat
from semtax.corpus import Document
from semtax.errors import (ConfigError, DataError, DegenerateInputError, EmptyVectorError,
                           TrainingError)
from semtax.evaluate import (
    ExperimentConfig,
    MethodSpec,
    bag_to_tokens,
    bucket_by_length,
    extract_features,
    lin_precision,
    _t_two_sided_p,
    paired_t_test,
    precision,
    run_experiment,
)
from semtax.semcat import FEATURE_MODES, Analyzer, SemCatConfig, term_vector
from semtax.textpipe import BackgroundStats
from semtax.synth import make_gap_benchmark
from semtax.taxonomy import parse_taxonomy, sim_lin
from oracles import brute_committee_predict, brute_nb_train, brute_winnow_train


class TestPrecision:
    def test_all_correct(self):
        assert precision(["a", "b"], ["a", "b"]) == 1.0

    def test_none_correct(self):
        assert precision(["a", "b"], ["b", "a"]) == 0.0

    def test_fraction(self):
        assert precision(list("aaab"), list("aaaa")) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            precision(["a"], ["a", "b"])

    def test_empty(self):
        with pytest.raises(DataError):
            precision([], [])


class TestLinPrecision:
    label_map = {"x": "A1", "y": "A2", "z": "B1"}

    def test_exact_match_is_one(self, toy_tax):
        assert lin_precision(["x", "y"], ["x", "y"], toy_tax, self.label_map) == pytest.approx(1.0)

    def test_near_miss_hand_value(self, toy_tax):
        got = lin_precision(["x", "y"], ["y", "y"], toy_tax, self.label_map)
        expected = (sim_lin(toy_tax, "A2", "A1") + 1.0) / 2
        assert got == pytest.approx(expected)
        assert got == pytest.approx((1 + 0.3976) / 2, abs=5e-4)

    def test_flat_taxonomy_equals_precision(self):
        text = (
            "C\tR\tRoot\t\nC\tK1\tk1\tR\nC\tK2\tk2\tR\nC\tK3\tk3\tR\n"
            "P\tp1\tK1\ta\nP\tp2\tK2\tb\nP\tp3\tK3\tc\n"
        )
        flat = parse_taxonomy(io.StringIO(text))
        label_map = {"x": "K1", "y": "K2", "z": "K3"}
        preds = ["x", "y", "z", "x"]
        truths = ["x", "z", "z", "y"]
        assert lin_precision(preds, truths, flat, label_map) == precision(preds, truths)

    def test_unmapped_label(self, toy_tax):
        with pytest.raises(DataError):
            lin_precision(["w"], ["x"], toy_tax, self.label_map)
        # the error names the first bad label, after a good pair
        with pytest.raises(DataError, match="'v'"):
            lin_precision(["x", "v", "w"], ["x", "x", "x"], toy_tax, self.label_map)

    def test_sim_lin_once_per_distinct_pair(self, toy_tax, monkeypatch):
        preds = ["x", "y", "z", "x", "y", "x", "z"]
        truths = ["x", "x", "y", "x", "x", "z", "y"]
        want = 0.0
        for p, t in zip(preds, truths):
            want += sim_lin(toy_tax, self.label_map[t], self.label_map[p])
        calls = []
        monkeypatch.setattr(semtax.evaluate, "sim_lin",
                            lambda *args: calls.append(args) or sim_lin(*args))
        assert lin_precision(preds, truths, toy_tax, self.label_map) == want / len(preds)
        assert len(calls) == len(set(zip(truths, preds))) == 4

    def test_lower_bounded_by_precision(self, toy_tax):
        preds = ["x", "y", "z", "x", "z"]
        truths = ["x", "x", "y", "z", "z"]
        assert lin_precision(preds, truths, toy_tax, self.label_map) >= precision(preds, truths)


class TestBuckets:
    def doc(self, n):
        return Document(id="d%d" % n, text="x" * n)

    def test_bounds(self):
        got = bucket_by_length([self.doc(n) for n in (999, 1000, 1500, 1999, 2000, 9999, 10000, 50000)])
        assert [d.id for d in got["excluded"]] == ["d999"]
        assert [d.id for d in got["short"]] == ["d1000", "d1500", "d1999"]
        assert [d.id for d in got["medium"]] == ["d2000", "d9999"]
        assert [d.id for d in got["long"]] == ["d10000", "d50000"]

    def test_partition_exhaustive_disjoint(self):
        docs = [self.doc(n) for n in range(500, 15000, 317)]
        got = bucket_by_length(docs)
        ids = [d.id for b in got.values() for d in b]
        assert sorted(ids) == sorted(d.id for d in docs)


# (t, df, two-sided p), p from scipy.stats as 2 * t.sf(abs(t), df)
STUDENT_T_POINTS = [
    (0.01, 1, 0.993634014470186),
    (0.5, 1, 0.7048327646991335),
    (1.0, 1, 0.5000000000000001),
    (12.7062, 1, 0.0500000185607104),
    (35.0, 1, 0.01818418935129687),
    (-318.3, 1, 0.0020000555383436376),
    (1.0, 2, 0.4226497308103742),
    (4.303, 2, 0.0499925249852145),
    (-2.5, 3, 0.08770664700806556),
    (0.2, 5, 0.8493605139958288),
    (3.0, 5, 0.030099247897462586),
    (31.6, 5, 5.959637473902006e-07),
    (2.262, 9, 0.05001284550245463),
    (-5.0, 9, 0.0007389679098032426),
    (1.699, 29, 0.10002420437072623),
    (40.0, 29, 6.346877329729342e-27),
    (0.05, 100, 0.9602221217419742),
    (1.984, 100, 0.04999677379616732),
    (-6.5, 100, 3.179014026235434e-09),
    (3.3, 1000, 0.00100099672500209),
    (33.0, 1000, 3.7468790852704256e-162),
]


@pytest.mark.parametrize("t, df, p", STUDENT_T_POINTS)
def test_p_value_matches_student_t(t, df, p):
    """The continued-fraction p-value agrees with scipy's Student t to a
    relative 1e-8 (it is within about 1e-13 at these points), from
    df = 1 to 1000 and at |t| beyond 30."""
    assert _t_two_sided_p(t, df) == pytest.approx(p, rel=1e-8, abs=0)


class TestPairedT:
    def test_identical_lists_degenerate(self):
        with pytest.raises(DegenerateInputError):
            paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_constant_difference_degenerate(self):
        with pytest.raises(DegenerateInputError):
            paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])

    def test_hand_value(self):
        a = [1.0, 0.0, 1.0, 0.0, 1.0]
        b = [0.0, 1.0, 0.0, 1.0, 0.0]
        t, p = paired_t_test(a, b)
        # differences (1,-1,1,-1,1): mean 0.2, sd ~1.0954
        sd = math.sqrt(sum((d - 0.2) ** 2 for d in (1, -1, 1, -1, 1)) / 4)
        expected_t = 0.2 / (sd / math.sqrt(5))
        assert t == pytest.approx(expected_t, abs=1e-9)
        assert round(t, 3) == 0.408
        # scipy.stats: 2 * t.sf(0.408248290463863, 4)
        assert p == pytest.approx(0.7040000000000001, rel=1e-8)

    def test_antisymmetric(self):
        a = [0.9, 0.4, 0.6, 0.8]
        b = [0.5, 0.5, 0.7, 0.2]
        ta, _ = paired_t_test(a, b)
        tb, _ = paired_t_test(b, a)
        assert ta == pytest.approx(-tb)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            paired_t_test([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("a, b", [
        ([0.5, math.nan, 0.7], [0.9, 0.4, 0.6]),
        ([0.9, 0.4, 0.6], [0.5, math.inf, 0.7]),
        ([-math.inf, 0.4, 0.6], [0.5, 0.5, 0.7]),
    ], ids=["nan", "inf", "minus-inf"])
    def test_non_finite_score_is_data_error(self, a, b):
        with pytest.raises(DataError, match="^paired t-test needs finite scores$"):
            paired_t_test(a, b)

    @pytest.mark.parametrize("a, b", [
        ([1e308, 0.0, 1.0], [-1e308, 1.0, 0.0]),
        ([math.inf, 0.4, 0.6], [math.inf, 0.5, 0.7]),
    ], ids=["difference-overflows", "inf-minus-inf"])
    def test_non_finite_difference_is_data_error(self, a, b):
        # and without a numpy RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^paired t-test needs finite scores$"):
                paired_t_test(a, b)


def check_analyzer(text, tax, stats, config):
    """Analyzer.bag, through one shared phrase index and term table, is
    extract_features in every mode, and None where it raises
    EmptyVectorError.  Returns the modes that raised."""
    analyzer = Analyzer(tax, stats, config)
    failed = []
    for mode in FEATURE_MODES:
        try:
            expected = extract_features(text, mode, tax, stats, config)
        except EmptyVectorError as exc:
            failed.append((mode, str(exc)))
            expected = None
        assert analyzer.bag(text, mode) == expected
    return failed


class TestExtractFeatures:
    def test_terms_mode_passthrough(self, toy_tax, toy_background):
        text = "alpha echo golf"
        config = SemCatConfig()
        got = extract_features(text, "terms", toy_tax, toy_background, config)
        assert got == term_vector(text, toy_tax, toy_background, config)
        assert check_analyzer(text, toy_tax, toy_background, config) == []

    def test_concepts_mode_single_concept(self, toy_tax, toy_background):
        got = extract_features("alpha", "concepts", toy_tax, toy_background, SemCatConfig())
        assert got == {"c1": pytest.approx(1.0)}
        assert check_analyzer("alpha", toy_tax, toy_background, SemCatConfig()) == []

    def test_categories_mode_conserves_weight(self, toy_tax, toy_background):
        config = SemCatConfig()
        text = "alpha echo jaguar"
        v = term_vector(text, toy_tax, toy_background, config)
        got = extract_features(text, "categories", toy_tax, toy_background, config)
        assert sum(got.values()) == pytest.approx(sum(v.values()), abs=1e-9)
        assert check_analyzer(text, toy_tax, toy_background, config) == []

    @pytest.mark.parametrize("text, modes, reason", [
        ("42 -- 7", FEATURE_MODES, "no terms to weight"),
        ("omega omega", FEATURE_MODES, "all term weights are zero"),
        ("zulu yankee", ("categories", "concepts"), "no term maps to any concept"),
    ], ids=["no-tokens", "weights-zero", "no-concept"])
    def test_analyzer_is_none_where_extraction_fails(
        self, toy_tax, toy_background, text, modes, reason
    ):
        # omega is in every background document: kept by max_df_ratio 1, idf 0
        stats = BackgroundStats(100, dict(toy_background.doc_freq, omega=100))
        failed = check_analyzer(text, toy_tax, stats, SemCatConfig(max_df_ratio=1.0))
        assert failed == [(mode, reason) for mode in modes]

    def test_bag_to_tokens(self):
        got = bag_to_tokens({"a": 0.02, "b": 0.05})
        assert got == ["a", "a", "b", "b", "b", "b", "b"]


class TestRunExperiment:
    def corpus(self):
        train = [
            Document("t1", "alpha bravo alpha", label="x"),
            Document("t2", "charlie alpha", label="x"),
            Document("t3", "echo foxtrot", label="z"),
            Document("t4", "golf echo foxtrot", label="z"),
        ]
        test = [
            Document("e1", "alpha charlie", label="x"),
            Document("e2", "foxtrot echo", label="z"),
        ]
        return train, test

    def config(self, toy_tax, toy_background, methods):
        train, test = self.corpus()
        return ExperimentConfig(
            taxonomy=toy_tax,
            background=toy_background,
            train_docs=train,
            test_docs=test,
            methods=methods,
            label_categories={"x": "A", "z": "B"},
            seed=11,
            buckets=False,
        )

    def test_single_method_report_shape(self, toy_tax, toy_background):
        cfg = self.config(toy_tax, toy_background, [MethodSpec("nb", "bayes")])
        report = run_experiment(cfg)
        assert len(report.results) == 1
        assert report.results[0].name == "nb"
        assert 0.0 <= report.results[0].overall_precision <= 1.0
        assert report.results[0].overall_lin_precision >= report.results[0].overall_precision

    def test_deterministic_report(self, toy_tax, toy_background):
        methods = [
            MethodSpec("nb", "bayes"),
            MethodSpec("semcla", "semcla"),
            MethodSpec("semcat", "semcat"),
        ]
        r1 = run_experiment(self.config(toy_tax, toy_background, methods))
        r2 = run_experiment(self.config(toy_tax, toy_background, methods))
        assert r1.to_json() == r2.to_json()

    def test_semcla_method_classifies(self, toy_tax, toy_background):
        cfg = self.config(toy_tax, toy_background, [MethodSpec("sc", "semcla")])
        report = run_experiment(cfg)
        assert report.results[0].overall_precision == pytest.approx(1.0)


class TestCheckedBeforeTraining:
    """run_experiment checks its config as CLI evaluate does: a bad value
    is a ConfigError before any method trains."""

    @pytest.mark.parametrize("change", [
        {"seed": "7"},
        {"alpha": float("nan")},
        {"label_categories": {}},
        {"methods": [MethodSpec("nb", "bayes"), MethodSpec("sc", "semcla", params={"mode": "x"})]},
        {"methods": [MethodSpec("nb", "bayes"), MethodSpec("w", "winnow", params={"epoch": 5})]},
    ], ids=["seed-str", "alpha-nan", "label-categories-empty", "semcla-mode-unknown",
            "winnow-param-unknown"])
    def test_config_error_before_any_trainer(self, toy_tax, toy_background, monkeypatch, change):
        trained = []
        monkeypatch.setattr(semtax.evaluate, "train_learner", lambda *args: trained.append(args))
        monkeypatch.setattr(semtax.evaluate, "semcla_fit", lambda *args: trained.append(args))
        cfg = TestRunExperiment().config(
            toy_tax, toy_background, [MethodSpec("nb", "bayes"), MethodSpec("sc", "semcla")])
        with pytest.raises(ConfigError):
            run_experiment(dataclasses.replace(cfg, **change))
        assert trained == []


class TestDocumentIds:
    """Documents are analysed once per id, so an id that names two
    different documents would score one with the other's features."""

    @pytest.mark.parametrize("side, index", [("train_docs", 1), ("test_docs", 0),
                                             ("test_docs", 1)],
                             ids=["within-train", "across", "within-test"])
    def test_id_naming_two_documents_is_a_data_error(self, toy_tax, toy_background,
                                                     monkeypatch, side, index):
        trained = []
        monkeypatch.setattr(semtax.evaluate, "train_learner", lambda *args: trained.append(args))
        cfg = TestRunExperiment().config(toy_tax, toy_background, [MethodSpec("nb", "bayes")])
        docs = list(getattr(cfg, side))
        # the id of the first training document, or of the first test
        # document for within-test, on another text
        taken = (cfg.test_docs if side == "test_docs" and index == 1 else cfg.train_docs)[0]
        docs[index] = dataclasses.replace(docs[index], id=taken.id)
        with pytest.raises(DataError, match='"%s"' % taken.id):
            run_experiment(dataclasses.replace(cfg, **{side: docs}))
        assert trained == []


class TestOneAssignmentPerDocument:
    def test_categories_and_concepts_bags_share_one_lookup(self, monkeypatch):
        bench = make_gap_benchmark(docs_per_side=30, seed=5)
        docs = bench.train_docs + bench.test_docs
        analyzer = Analyzer(bench.taxonomy, bench.background, SemCatConfig())
        with_terms = sum(analyzer.vector(d.text) is not None for d in docs)
        calls = []
        real = semtax.semcat.map_terms_to_concepts
        monkeypatch.setattr(semtax.semcat, "map_terms_to_concepts",
                            lambda *args: calls.append(args) or real(*args))
        run_experiment(ExperimentConfig(
            taxonomy=bench.taxonomy, background=bench.background,
            train_docs=bench.train_docs, test_docs=bench.test_docs,
            methods=[MethodSpec("nb", "bayes", features="categories"),
                     MethodSpec("llda", "llda", features="concepts")],
            label_categories=bench.label_categories, seed=5,
        ))
        assert with_terms > 0 and len(calls) == with_terms


class TestCommitteeSharing:
    """An experiment trains one committee per distinct committee key, so
    the paper's ensemble-against-SemCom comparison trains its 50 members
    once."""

    def draws(self, monkeypatch, methods):
        bench = make_gap_benchmark(docs_per_side=30, seed=5)
        calls = []
        real = semtax.ensemble.draw_training_sample

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(semtax.ensemble, "draw_training_sample", counting)
        report = run_experiment(ExperimentConfig(
            taxonomy=bench.taxonomy, background=bench.background,
            train_docs=bench.train_docs, test_docs=bench.test_docs,
            methods=methods, label_categories=bench.label_categories, seed=5,
        ))
        return len(calls), report

    def test_pools_computed_once_per_committee(self, monkeypatch):
        pools = []
        real = semtax.ensemble._allowed_categories
        monkeypatch.setattr(semtax.ensemble, "_allowed_categories",
                            lambda *args: pools.append(args[1]) or real(*args))
        n, _ = self.draws(monkeypatch, [MethodSpec("ensemble", "ensemble", features="categories")])
        assert n == 50
        assert len(pools) == len(set(pools)) == 3

    def test_equal_specs_train_once(self, monkeypatch):
        n, report = self.draws(monkeypatch, [
            MethodSpec("ensemble", "ensemble", features="categories",
                       params={"aggregation": "weighted"}),
            MethodSpec("semcom", "semcom", features="categories"),
        ])
        assert n == 50
        assert [r.name for r in report.results] == ["ensemble", "semcom"]

    @pytest.mark.parametrize("params", [
        {"sample_size": 100}, {"level": "inf"}, {"members": [["bayes", 50]]}, {"theta": 2.0},
    ])
    def test_unequal_specs_train_twice(self, monkeypatch, params):
        n, _ = self.draws(monkeypatch, [
            MethodSpec("ensemble", "ensemble", features="categories"),
            MethodSpec("semcom", "semcom", features="categories", params=params),
        ])
        assert n == 100

    def test_other_features_train_twice(self, monkeypatch):
        n, _ = self.draws(monkeypatch, [
            MethodSpec("ensemble", "ensemble", features="categories"),
            MethodSpec("semcom", "semcom", features="concepts"),
        ])
        assert n == 100


class TestDistinctMembersTrainOnce:
    """A committee member is a deterministic function of its kind and its
    sampled ids, so members of one kind that draw the same ids share one
    trained model; a class pool no larger than sample_size makes every
    member draw the whole pool."""

    def committee(self, monkeypatch, members, sample_size=200, docs_per_side=30):
        """The committee of members on a gap benchmark, its config, and
        the (kind, labeled bags) of each train_learner call."""
        bench = make_gap_benchmark(docs_per_side=docs_per_side, seed=5)
        cfg = ExperimentConfig(
            taxonomy=bench.taxonomy, background=bench.background,
            train_docs=bench.train_docs, test_docs=bench.test_docs, methods=[],
            label_categories=bench.label_categories, seed=5,
        )
        calls = []
        real = semtax.evaluate.train_learner
        monkeypatch.setattr(semtax.evaluate, "train_learner",
                            lambda kind, bags, params: calls.append((kind, bags))
                            or real(kind, bags, params))
        spec = MethodSpec("ensemble", "ensemble", features="categories",
                          params={"members": members, "sample_size": sample_size})
        predictor = semtax.evaluate._Predictor(spec, semtax.evaluate._Context(cfg))
        return predictor._ensemble, cfg, calls

    def test_whole_pools_train_each_kind_once(self, monkeypatch):
        ens, _, calls = self.committee(monkeypatch, [["bayes", 3], ["winnow", 3]])
        assert [kind for kind, _ in calls] == ["bayes", "winnow"]
        assert len(ens.members) == 6
        assert ens.members[0] is ens.members[1] is ens.members[2]
        assert ens.members[3] is ens.members[4] is ens.members[5]

    def test_one_member_of_each_kind_stays_two_members(self, monkeypatch):
        ens, _, calls = self.committee(monkeypatch, [["bayes", 1], ["winnow", 1]])
        assert [kind for kind, _ in calls] == ["bayes", "winnow"]
        assert calls[0][1] == calls[1][1]
        assert ens.members[0] is not ens.members[1]
        assert ens.members[0].weights_t.tolist() != ens.members[1].weights_t.tolist()

    def test_failing_member_is_the_first(self, monkeypatch):
        # no document has a bag, so every member's sample is empty
        monkeypatch.setattr(semtax.evaluate._Context, "bag", lambda self, doc, mode: None)
        with pytest.raises(TrainingError, match="^member 0 failed: no usable training "
                                                "documents for ensemble$"):
            self.committee(monkeypatch, [["bayes", 2], ["winnow", 2]])

    # 10 documents per class pool drawn 9 at a time, and 2 drawn 1 at a
    # time, where members of one kind often draw the same sample
    @pytest.mark.parametrize("docs_per_side, sample_size", [(30, 9), (6, 1)])
    def test_trainings_and_votes_match_members_trained_alone(self, monkeypatch,
                                                             docs_per_side, sample_size):
        members = [["bayes", 6], ["winnow", 6]]
        ens, cfg, calls = self.committee(monkeypatch, members, sample_size, docs_per_side)
        semcat = SemCatConfig()

        def bag(doc):
            try:
                return extract_features(doc.text, "categories", cfg.taxonomy, cfg.background,
                                        semcat)
            except EmptyVectorError:
                return None

        bags = {d.id: bag(d) for d in cfg.train_docs}
        labels = {d.id: d.label for d in cfg.train_docs}
        pools = semtax.ensemble.class_pools(cfg.taxonomy, cfg.label_categories,
                                            cfg.train_docs, "2")
        kinds = [kind for kind, count in members for _ in range(count)]
        samples = [[i for ids in semtax.ensemble.draw_training_sample(
                        pools, sample_size, semtax.ensemble.derive_seed(cfg.seed, m)).values()
                    for i in ids if bags[i] is not None]
                   for m in range(len(kinds))]
        distinct = {(kind, tuple(ids)) for kind, ids in zip(kinds, samples)}
        assert len(pools["topic_a"]) > sample_size
        assert len(calls) == len(distinct)
        if sample_size == 1:
            assert len(distinct) < len(kinds)

        train = {"bayes": brute_nb_train, "winnow": brute_winnow_train}
        alone = [train[kind]([(labels[i], bags[i]) for i in ids]).linear
                 for kind, ids in zip(kinds, samples)]

        def exact(scorer):
            return (scorer.labels, scorer.columns, [x.hex() for x in scorer.bias.tolist()],
                    [[x.hex() for x in row] for row in scorer.weights_t.tolist()])

        assert [exact(m) for m in ens.members] == [exact(m) for m in alone]
        test_bags = [b for d in cfg.test_docs if (b := bag(d)) is not None]
        member_labels, counts = ens.vote_counts(test_bags)
        tops = [dict(collections.Counter(m.ranking(b)[0][0] for m in alone)) for b in test_bags]
        assert [{lab: n for lab, n in zip(member_labels, row) if n}
                for row in counts.tolist()] == tops
        for mode in semtax.ensemble.AGGREGATION_MODES:
            assert ens.predict(test_bags, mode) == brute_committee_predict(
                alone, test_bags, mode, 3, cfg.seed)
