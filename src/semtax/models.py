"""Model persistence: one JSON file per model with a header recording the
type, hyperparameters and seed."""

from __future__ import annotations

import json

from .classics import LLDAModel, NBModel, WinnowModel
from .errors import DataError
from .semcla import SemClaModel, class_vector


def save_model(model, path):
    if isinstance(model, NBModel):
        payload = {
            "type": "bayes",
            "priors": model.priors,
            "likelihoods": model.likelihoods,
            "floors": model.floors,
            "vocabulary": sorted(model.vocabulary),
        }
    elif isinstance(model, WinnowModel):
        payload = {
            "type": "winnow",
            "theta": model.theta,
            "alpha": model.alpha,
            "beta": model.beta,
            "weights": {
                lab: {f: list(pair) for f, pair in w.items()}
                for lab, w in model.weights.items()
            },
            "features": sorted(model.features),
        }
    elif isinstance(model, LLDAModel):
        payload = {
            "type": "llda",
            "topics": model.topics,
            "phi": model.phi,
            "a_doc": model.a_doc,
            "a_word": model.a_word,
            "iterations": model.iterations,
            "seed": model.seed,
            "vocabulary": sorted(model.vocabulary),
        }
    elif isinstance(model, SemClaModel):
        payload = {
            "type": "semcla",
            "alpha": model.alpha,
            "classes": model.classes,
        }
    else:
        raise DataError("cannot persist model of type %s" % type(model).__name__)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_model(path):
    """The model saved at path; DataError when the file is not a JSON
    object of a known type with every field that type needs."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise DataError("model file %s is not JSON: %s" % (path, exc)) from None
    try:
        return _model_from_payload(payload, path)
    except KeyError as exc:
        raise DataError("model file %s lacks field %s" % (path, exc)) from None


def _model_from_payload(payload, path):
    kind = payload.get("type") if isinstance(payload, dict) else None
    if kind == "bayes":
        return NBModel(
            priors=payload["priors"],
            likelihoods=payload["likelihoods"],
            floors=payload["floors"],
            vocabulary=frozenset(payload["vocabulary"]),
        )
    if kind == "winnow":
        return WinnowModel(
            theta=payload["theta"],
            alpha=payload["alpha"],
            beta=payload["beta"],
            weights={
                lab: {f: tuple(pair) for f, pair in w.items()}
                for lab, w in payload["weights"].items()
            },
            features=frozenset(payload["features"]),
        )
    if kind == "llda":
        return LLDAModel(
            topics=payload["topics"],
            phi=payload["phi"],
            a_doc=payload["a_doc"],
            a_word=payload["a_word"],
            iterations=payload["iterations"],
            seed=payload["seed"],
            vocabulary=frozenset(payload["vocabulary"]),
        )
    if kind == "semcla":
        classes = payload["classes"]
        if "mode" in payload:
            # older files keep every extended vector, and scored any mode but centroid as average
            mode = "centroid" if payload["mode"] == "centroid" else "average"
            classes = {lab: class_vector(vs, mode) for lab, vs in classes.items()}
        return SemClaModel(classes=classes, alpha=payload["alpha"])
    raise DataError("unknown model type %r in %s" % (kind, path))
