import json

import pytest

from semtax.classics import llda_train, nb_train, winnow_train
from semtax.models import Pipeline, load_model, save_model
from semtax.semcat import SemCatConfig
from semtax.semcla import SemClaModel
from semtax.textpipe import BackgroundStats

BAGS = [("x", {"a": 0.5, "b": 0.5}), ("y", {"c": 1.0}), ("x", {"a": 1.0})]
MODELS = {
    "bayes": lambda: nb_train(BAGS),
    "winnow": lambda: winnow_train(BAGS, epochs=3),
    "llda": lambda: llda_train([([lab], sorted(bag)) for lab, bag in BAGS]),
    "semcla": lambda: SemClaModel(classes={"x": {"A": 0.6, "R": 0.2}, "y": {"B": 1.0}}, alpha=0.33),
}
PIPELINE = Pipeline(
    features="categories",
    taxonomy=True,
    semcat=SemCatConfig(top_terms=3, disambig="uniform", measure="pirro_seco",
                        exact_match=False, stopwords=frozenset({"the", "of"}),
                        lemmas={"cars": "car"}),
    background=BackgroundStats(doc_count=10, doc_freq={"car": 2, "road": 3}),
)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_save_and_load_give_back_model_and_pipeline(tmp_path, kind):
    model = MODELS[kind]()
    save_model(model, PIPELINE, tmp_path / "m.json")
    payload = json.loads((tmp_path / "m.json").read_text())
    assert payload["type"] == kind
    assert payload["pipeline"]["semcat"]["stopwords"] == ["of", "the"]
    assert load_model(tmp_path / "m.json") == (model, PIPELINE)


@pytest.mark.parametrize("kind, features", [("bayes", "terms"), ("semcla", "categories")])
def test_file_without_pipeline_gets_the_old_defaults(tmp_path, kind, features):
    save_model(MODELS[kind](), PIPELINE, tmp_path / "m.json")
    payload = json.loads((tmp_path / "m.json").read_text())
    del payload["pipeline"]
    (tmp_path / "m.json").write_text(json.dumps(payload))
    _, pipeline = load_model(tmp_path / "m.json")
    assert pipeline == Pipeline(features, None, SemCatConfig(), None)
