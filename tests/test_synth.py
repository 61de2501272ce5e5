"""The synthetic generators name each class, subcategory, concept and
group with one letter, so their counts stay within the 26 letters."""

import pytest

from semtax.errors import ConfigError
from semtax.synth import make_calibration_groups, make_gap_benchmark


@pytest.mark.parametrize("name, value", [
    ("n_classes", 27), ("n_classes", 30), ("n_classes", 0),
    ("subcats_per_class", 27), ("concepts_per_subcat", 27), ("concepts_per_subcat", 0),
])
def test_gap_counts_outside_the_letters_are_config_errors(name, value):
    with pytest.raises(ConfigError, match="^%s must be in 1..26, got %d$" % (name, value)):
        make_gap_benchmark(**{name: value}, docs_per_side=3)


@pytest.mark.parametrize("name, value", [
    ("n_groups", 27), ("n_groups", 0), ("docs_per_group", 27), ("docs_per_group", 0),
])
def test_calibration_counts_outside_the_letters_are_config_errors(name, value):
    with pytest.raises(ConfigError, match="^%s must be in 1..26, got %d$" % (name, value)):
        make_calibration_groups(**{name: value})


def test_gap_parameters_are_keyword_only():
    # a positional 210 used to build 210 classes
    with pytest.raises(TypeError):
        make_gap_benchmark(210, seed=11)


def test_26_of_each_name_every_item_with_a_letter():
    bench = make_gap_benchmark(n_classes=26, subcats_per_class=26, concepts_per_subcat=26,
                               docs_per_side=26)
    assert len(bench.label_categories) == 26
    assert all(label.removeprefix("topic_").isalpha() for label in bench.label_categories)
    assert all(label.isalpha() for c in bench.taxonomy.concepts.values() for label in c.labels)
    tax, _, groups = make_calibration_groups(n_groups=26, docs_per_group=26)
    assert len(groups) == 26 and all(g.removeprefix("group_").isalpha() for g in groups)
    assert all(label.isalpha() for c in tax.concepts.values() for label in c.labels)
