import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from semtax.errors import CalibrationError, ConfigError, TrainingError
from semtax.semcla import (
    DEFAULT_ALPHA_GRID,
    SemClaConfig,
    calibrate_alpha,
    cosine,
    extend_vector,
    rank_separation,
    rank_separations,
    semcla_fit,
    semcla_score,
    semcla_train,
)
from semtax.synth import make_calibration_groups
from semtax.taxonomy import parse_taxonomy
from oracles import brute_extend, brute_rank_separation, brute_semcla_ranking


class TestExtendVector:
    def test_single_parent(self, toy_tax):
        got = extend_vector({"A1": 0.9}, toy_tax, alpha=0.33)
        assert got == {"A1": 0.9, "A": pytest.approx(0.297)}

    def test_alpha_zero_is_identity(self, toy_tax):
        v = {"A1": 0.4, "B": 0.6}
        assert extend_vector(v, toy_tax, alpha=0.0) == v

    def test_root_receives_mass(self, toy_tax):
        got = extend_vector({"A": 0.5}, toy_tax, alpha=0.33)
        assert got == {"A": 0.5, "R": pytest.approx(0.165)}

    def test_added_mass_equals_alpha_times_base(self, toy_tax):
        v = {"A1": 0.2, "A2": 0.3, "B1": 0.25, "A": 0.25}
        alpha = 0.4
        got = extend_vector(v, toy_tax, alpha)
        added = sum(got.values()) - sum(v.values())
        assert abs(added - alpha * sum(v.values())) <= 1e-9

    def test_one_level_only(self, toy_tax):
        # A1's grandparent R gets nothing from an A1-only vector
        got = extend_vector({"A1": 1.0}, toy_tax, alpha=0.5)
        assert "R" not in got

    def test_key_order_does_not_follow_the_hash_seed(self):
        # new parents come in id order, whatever order the frozenset of a
        # category's parents iterates in: six of them, so that hash order
        # is the id order under one hash seed in 720
        parents = ["K%d" % i for i in range(6)]
        lines = ["C\tR\tr\t"] + ["C\t%s\t%s\tR" % (k, k) for k in parents]
        lines += ["C\tleaf\tleaf\t%s" % ",".join(reversed(parents)), "P\tc\tleaf\tx"]
        tax = parse_taxonomy(io.StringIO("\n".join(lines) + "\n"))
        got = extend_vector({"leaf": 0.5, "K4": 0.5}, tax, alpha=0.3)
        assert list(got) == ["leaf", "K4", "K0", "K1", "K2", "K3", "K5", "R"]


class TestCosine:
    def test_identical(self):
        assert cosine({"a": 0.3, "b": 0.7}, {"a": 0.3, "b": 0.7}) == pytest.approx(1.0)

    def test_disjoint(self):
        assert cosine({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_hand_value(self):
        assert cosine({"A": 1.0}, {"A": 1.0, "B": 1.0}) == pytest.approx(
            1 / math.sqrt(2), abs=1e-9
        )

    def test_zero_vector(self):
        assert cosine({}, {"a": 1.0}) == 0.0

    vectors = st.dictionaries(
        st.sampled_from("abcdef"),
        st.floats(min_value=0.0, max_value=10.0),
        max_size=6,
    )

    @settings(derandomize=True)
    @given(vectors, vectors, st.floats(min_value=0.01, max_value=100.0))
    def test_symmetric_and_scale_invariant(self, v1, v2, c):
        assert cosine(v1, v2) == pytest.approx(cosine(v2, v1))
        scaled = {k: c * w for k, w in v1.items()}
        assert cosine(scaled, v2) == pytest.approx(cosine(v1, v2))
        assert -1e-9 <= cosine(v1, v2) <= 1.0 + 1e-9


class TestTrainClassify:
    def docs(self):
        # class X lives in the A-branch, class Y in the B-branch
        return [
            ("X", "alpha bravo"),
            ("X", "charlie delta"),
            ("Y", "echo foxtrot"),
            ("Y", "golf echo"),
        ]

    def test_model_shape(self, toy_tax, toy_background):
        model = semcla_train(self.docs(), toy_tax, toy_background)
        assert set(model.classes) == {"X", "Y"}
        assert all(isinstance(c, dict) for c in model.classes.values())

    def test_uncategorizable_doc_skipped(self, toy_tax, toy_background):
        docs = self.docs() + [("X", "qqqq wwww")]
        model = semcla_train(docs, toy_tax, toy_background)
        assert model == semcla_train(self.docs(), toy_tax, toy_background)

    def test_all_docs_fail_is_error(self, toy_tax, toy_background):
        docs = self.docs() + [("Z", "qqqq wwww")]
        with pytest.raises(TrainingError) as exc:
            semcla_train(docs, toy_tax, toy_background)
        assert "Z" in str(exc.value)

    def test_unknown_mode_is_config_error(self, toy_tax):
        with pytest.raises(ConfigError, match="bogus"):
            semcla_fit([("X", {"A1": 1.0})], toy_tax, SemClaConfig(mode="bogus"))

    @staticmethod
    def fit(tax, classes, mode="average"):
        """A model fitted at alpha 0 (no extension) on label -> vectors."""
        pairs = [(label, v) for label, vs in classes.items() for v in vs]
        return semcla_fit(pairs, tax, SemClaConfig(alpha=0.0, mode=mode))

    # two-category vectors over the toy taxonomy's leaves A1 and B1
    doc = {"A1": 1.0}
    vx1 = {"A1": 0.9, "B1": math.sqrt(1 - 0.81)}
    vx2 = {"A1": 0.5, "B1": math.sqrt(1 - 0.25)}
    vy = {"A1": 0.8, "B1": 0.6}

    def test_identical_vector_wins(self, toy_tax):
        model = self.fit(toy_tax, {"X": [{"A1": 1.0}], "Y": [{"B1": 1.0}]})
        ranking = semcla_score({"A1": 1.0}, model)
        assert ranking == [("X", pytest.approx(1.0)), ("Y", 0.0)]

    def test_average_vs_max_distinction(self, toy_tax):
        # class X cosines {0.9, 0.5} -> mean 0.7; class Y {0.8} -> Y wins
        model = self.fit(toy_tax, {"X": [self.vx1, self.vx2], "Y": [self.vy]})
        ranking = semcla_score(self.doc, model)
        scores = dict(ranking)
        assert scores["X"] == pytest.approx(0.7)
        assert scores["Y"] == pytest.approx(0.8)
        assert ranking[0][0] == "Y"

    def test_centroid_mode_deterministic(self, toy_tax):
        model = self.fit(toy_tax, {"X": [self.vx1, self.vx2], "Y": [self.vy]}, "centroid")
        centroid_x = {"A1": 0.7, "B1": (self.vx1["B1"] + self.vx2["B1"]) / 2}
        expected_x = cosine(self.doc, centroid_x)
        scores = dict(semcla_score(self.doc, model))
        assert scores["X"] == pytest.approx(expected_x)

    def test_alpha_zero_single_doc_is_nearest_neighbor(self, toy_tax, toy_background):
        config = SemClaConfig(alpha=0.0)
        model = semcla_train(
            [("X", "alpha"), ("Y", "echo")], toy_tax, toy_background, config
        )
        from semtax.semcat import categorize

        doc_v = categorize("alpha bravo", toy_tax, toy_background)
        ranking = semcla_score(extend_vector(doc_v, toy_tax, model.alpha), model)
        # oracle: raw category-vector cosine nearest neighbor
        x_v = categorize("alpha", toy_tax, toy_background)
        y_v = categorize("echo", toy_tax, toy_background)
        assert dict(ranking)["X"] == pytest.approx(cosine(doc_v, x_v))
        assert dict(ranking)["Y"] == pytest.approx(cosine(doc_v, y_v))

    def test_scaling_training_vector_keeps_ranking(self, toy_tax):
        doc = {"A1": 1.0, "B1": 0.5}
        vx = {"A1": 0.9, "B1": 0.1}
        vy = {"B1": 1.0}
        m1 = self.fit(toy_tax, {"X": [vx], "Y": [vy]})
        m2 = self.fit(toy_tax, {"X": [{k: 7.3 * w for k, w in vx.items()}], "Y": [vy]})
        assert [l for l, _ in semcla_score(doc, m1)] == [
            l for l, _ in semcla_score(doc, m2)
        ]


class TestCalibration:
    def test_singleton_grid(self, toy_tax, toy_background):
        groups = {
            "X": ["alpha bravo", "charlie delta"],
            "Y": ["echo foxtrot", "golf echo"],
        }
        assert calibrate_alpha(groups, toy_tax, toy_background, grid=(0.0,)) == 0.0

    def test_separation_fixture_gives_positive_alpha(self):
        tax, stats, groups = make_calibration_groups()
        alpha = calibrate_alpha(groups, tax, stats)
        assert alpha in DEFAULT_ALPHA_GRID
        assert alpha > 0.0

    def test_identical_groups_tie_to_smallest(self, toy_tax):
        base = [
            ("X", {"A1": 1.0}), ("X", {"A1": 1.0}),
            ("Y", {"A1": 1.0}), ("Y", {"A1": 1.0}),
        ]
        seps = [rank_separation(base, toy_tax, a) for a in (0.0, 0.1, 0.2)]
        assert all(s == pytest.approx(0.0) for s in seps)

    def test_single_group_is_error(self, toy_tax, toy_background):
        with pytest.raises(CalibrationError):
            calibrate_alpha({"X": ["alpha", "bravo"]}, toy_tax, toy_background)

    def test_uncategorizable_document_is_named(self, toy_tax, toy_background):
        groups = {
            "X": ["alpha bravo", "charlie delta"],
            "Y": ["echo foxtrot", "zulu yankee", "golf echo"],
        }
        with pytest.raises(CalibrationError, match="^document 2 of group Y has no categories$"):
            calibrate_alpha(groups, toy_tax, toy_background)

    def test_exhaustive_grid_oracle(self):
        tax, stats, groups = make_calibration_groups()
        from semtax.semcat import SemCatConfig, categorize

        config = SemCatConfig()
        base = []
        for label in sorted(groups):
            for text in groups[label]:
                base.append((label, categorize(text, tax, stats, config)))
        grid = (0.0, 0.1, 0.3)
        seps = {a: rank_separation(base, tax, a) for a in grid}
        best = max(sorted(grid), key=lambda a: seps[a])
        # smallest-alpha tie rule on equal separations
        candidates = [a for a in sorted(grid) if seps[a] == seps[best]]
        assert calibrate_alpha(groups, tax, stats, grid=grid) == candidates[0]

    def test_unsorted_grid_picks_the_smallest_best_alpha(self, toy_tax, toy_background):
        from semtax.semcat import SemCatConfig, categorize

        groups = {"X": ["alpha bravo", "charlie delta"], "Y": ["echo foxtrot", "golf echo"]}
        base = [(label, categorize(text, toy_tax, toy_background, SemCatConfig()))
                for label in sorted(groups) for text in groups[label]]
        grid = (0.5, 0.3, 0.0, 0.1)
        # alpha 0 separates the groups less than the other three, which tie
        assert rank_separations(base, toy_tax, grid) == [3.0, 3.0, 1.5, 3.0]
        assert calibrate_alpha(groups, toy_tax, toy_background, grid=grid) == 0.1

    def test_nan_similarity_gives_nan_separation(self, toy_tax):
        # 1e200 squared overflows, and at alpha 0 the parent mass term is inf * 0
        base = [("X", {"A1": 1e200}), ("X", {"B1": 1.0}), ("Y", {"A1": 1.0}), ("Y", {"B": 2.0})]
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(rank_separation(base, toy_tax, 0.0))

    def test_tie_group_with_both_kinds_of_pair(self, toy_tax):
        """Ties are by similarity rounded to 9 decimals, whatever the
        groups.  The four A1-heavy vectors tie at cosine 1 (the fourth's
        differs only from the 11th decimal), in 2 same-group and 4
        different-group pairs, ranks 1-6; the Y pair of cosine 1e-5 is
        rank 7; the three pairs with the B1 vector tie at 0, ranks 8-10,
        one same-group.  Same-group mean (3.5 + 3.5 + 7 + 9) / 4, the other
        (4 * 3.5 + 2 * 9) / 6: the separation is 16/3 - 23/4 = -5/12.  Tie
        groups split by group would give -2.5."""
        base = [("X", {"A1": 1.0}), ("X", {"A1": 1.0}), ("Y", {"A1": 1.0}),
                ("Y", {"A1": 1.0, "B1": 1e-5}), ("Y", {"B1": 1.0})]
        assert rank_separations(base, toy_tax, [0.0]) == [16 / 3 - 23 / 4]
        grid = (0.0, 0.2, 0.5)
        assert rank_separations(base, toy_tax, grid) == [
            brute_rank_separation(toy_tax.parents, base, a) for a in grid]

    def test_gap_label_groups_pinned(self):
        """The separations of the gap benchmark's training label groups,
        as calibrate_alpha builds them, over the default grid, bit for
        bit: every different-label pair has cosine 0 and every same-label
        pair more, at every alpha."""
        from semtax.semcat import Analyzer, SemCatConfig
        from semtax.synth import make_gap_benchmark

        bench = make_gap_benchmark(docs_per_side=210, seed=11)
        analyzer = Analyzer(bench.taxonomy, bench.background, SemCatConfig())
        groups = {}
        for doc in bench.train_docs:
            groups.setdefault(doc.label, []).append(doc.text)
        base = [(label, analyzer.bag(text, "categories"))
                for label in sorted(groups) for text in groups[label]]
        got = rank_separations(base, bench.taxonomy, DEFAULT_ALPHA_GRID)
        assert DEFAULT_ALPHA_GRID == (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)
        assert [s.hex() for s in got] == ["0x1.56e4000000000p+13"] * 11


@st.composite
def grouped_vectors(draw):
    """2-8 (group, category vector) pairs over the toy taxonomy, each a
    multiple of one of a few base vectors with weights on a small grid, so
    repeated and proportional vectors, and so exact cosine ties, are
    common."""
    weights = st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.0))
    cats = st.sampled_from(("R", "A", "B", "A1", "A2", "B1"))
    base = draw(st.lists(
        st.dictionaries(cats, weights, min_size=1, max_size=4), min_size=1, max_size=4
    ))
    out = []
    for _ in range(draw(st.integers(2, 8))):
        v = draw(st.sampled_from(base))
        scale = draw(st.sampled_from((1.0, 2.0, 3.0)))
        out.append((draw(st.sampled_from("XYZ")), {k: scale * w for k, w in v.items()}))
    return out


alphas = st.sampled_from((0.0, 0.1, 0.33, 0.5))


class TestMatchesOracles:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(grouped_vectors(), alphas, st.sampled_from(("average", "centroid")))
    def test_semcla_score(self, toy_tax, pairs, alpha, mode):
        *train, (_, doc) = pairs
        model = semcla_fit(train, toy_tax, SemClaConfig(alpha=alpha, mode=mode))
        classes = {}
        for label, v in train:
            classes.setdefault(label, []).append(brute_extend(toy_tax.parents, v, alpha))
        want = brute_semcla_ranking(brute_extend(toy_tax.parents, doc, alpha), classes, mode)
        got = semcla_score(extend_vector(doc, toy_tax, alpha), model)
        assert [label for label, _ in got] == [label for label, _ in want]
        assert [s for _, s in got] == pytest.approx([s for _, s in want], abs=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(grouped_vectors(), alphas)
    def test_rank_separation(self, toy_tax, pairs, alpha):
        groups = [g for g, _ in pairs]
        if len(set(groups)) == len(groups) or len(set(groups)) == 1:
            with pytest.raises(CalibrationError):
                rank_separation(pairs, toy_tax, alpha)
            return
        assert rank_separation(pairs, toy_tax, alpha) == brute_rank_separation(
            toy_tax.parents, pairs, alpha
        )

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(grouped_vectors())
    @example([("X", {"R": 0.0}), ("X", {"R": 0.0}), ("Y", {"R": 0.0})])
    # every vector identical: one tie group, separation exactly 0
    @example([("X", {"A1": 1.0}), ("Y", {"A1": 1.0}), ("X", {"A1": 1.0}), ("Z", {"A1": 1.0})])
    # tie groups that hold same-group and different-group pairs alike
    @example([("X", {"A1": 1.0}), ("Y", {"A1": 1.0}), ("X", {"A1": 2.0}), ("Y", {"B1": 1.0}),
              ("Z", {"B1": 1.0})])
    # exactly one same-group pair
    @example([("X", {"A": 1.0}), ("Y", {"A1": 1.0}), ("X", {"B": 2.0}), ("Z", {"B1": 0.5})])
    def test_rank_separations(self, toy_tax, pairs):
        grid = (0.0, 0.1, 0.33, 0.5, 0.05)
        groups = [g for g, _ in pairs]
        if len(set(groups)) == len(groups) or len(set(groups)) == 1:
            with pytest.raises(CalibrationError):
                rank_separations(pairs, toy_tax, grid)
            return
        assert rank_separations(pairs, toy_tax, grid) == [
            brute_rank_separation(toy_tax.parents, pairs, a) for a in grid
        ]
