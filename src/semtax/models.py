"""Model persistence: one JSON file per model, holding its type, every
field of the model (hyperparameters included) and the pipeline that
turns text into the model's features."""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import asdict, dataclass, fields, is_dataclass

from .classics import LLDAModel, NBModel, WinnowModel
from .errors import DataError
from .semcat import SemCatConfig, check_config
from .semcla import SemClaModel, check_alpha, class_vector
from .textpipe import BackgroundStats, check_background

MODEL_TYPES = {"bayes": NBModel, "winnow": WinnowModel, "llda": LLDAModel, "semcla": SemClaModel}

# the JSON value each declared type is read from
_JSON_TYPES = {float: (int, float), int: int, str: str, bool: bool, dict: dict,
               list: list, tuple: list, frozenset: list}


@dataclass
class Pipeline:
    """How text becomes the model's features: the feature mode, whether a
    taxonomy was used, the SemCat config and the background statistics
    of training.  taxonomy and background are None only for files written
    before models recorded their pipeline: classify then takes the
    taxonomy as given and builds the background from its corpus."""

    features: str
    taxonomy: bool | None
    semcat: SemCatConfig
    background: BackgroundStats | None


def save_model(model, pipeline: Pipeline, path):
    (kind,) = [k for k, cls in MODEL_TYPES.items() if isinstance(model, cls)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"type": kind, **asdict(model), "pipeline": asdict(pipeline)},
                  fh, sort_keys=True, default=sorted)


def load_model(path) -> tuple[object, Pipeline]:
    """The (model, pipeline) saved at path; DataError when the file is not
    a JSON object of a known type whose fields have the declared types,
    or its probabilities fail check_probabilities, its SemCla alpha
    check_alpha or its pipeline's background check_background."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise DataError("model file %s is not JSON: %s" % (path, exc)) from None
    kind = payload.get("type") if isinstance(payload, dict) else None
    if not isinstance(kind, str) or kind not in MODEL_TYPES:
        raise DataError("unknown model type %r in %s" % (kind, path))
    cls = MODEL_TYPES[kind]
    try:
        if cls is SemClaModel and "mode" in payload and "classes" in payload:
            # older files keep every extended vector, and scored any mode but centroid as average
            mode = "centroid" if payload["mode"] == "centroid" else "average"
            vectors = decode(dict[str, list[dict[str, float]]], payload["classes"], "classes")
            payload["classes"] = {lab: class_vector(vs, mode) for lab, vs in vectors.items()}
        model = decode(cls, payload, "")
        check_probabilities(model)
        if cls is SemClaModel:
            check_alpha(model.alpha, "has field 'alpha'", DataError)
        if "pipeline" not in payload:
            default = "categories" if cls is SemClaModel else "terms"
            return model, Pipeline(default, None, SemCatConfig(), None)
        pipeline = decode(Pipeline, payload["pipeline"], "pipeline")
        check_config(pipeline.semcat, "pipeline.semcat")
        stats = pipeline.background
        if stats is not None:
            check_background(stats.doc_count, stats.doc_freq, _background_field(stats))
        return model, pipeline
    except DataError as exc:
        raise DataError("model file %s %s" % (path, exc)) from None


def _background_field(stats: BackgroundStats):
    """check_background's where for a model file's background: the field
    of an entry and its value."""
    def where(term):
        if term is None:
            return "has field 'pipeline.background.doc_count'", repr(stats.doc_count)
        return ("has field %r" % ("pipeline.background.doc_freq.%s" % term),
                json.dumps({term: stats.doc_freq[term]}))
    return where


def check_probabilities(model):
    """DataError unless the scorer of a classical model can use every
    number it reads: a bayes or llda model takes the log of each label's
    prior and its P(w|label) for every vocabulary word, which must be
    finite and positive; a winnow model sums theta and its (w+, w-)
    weights, which must be finite."""
    if isinstance(model, WinnowModel):
        if not math.isfinite(model.theta):
            raise DataError("has field 'theta' = %r, not a finite number" % model.theta)
        for lab, row in model.weights.items():
            for f, pair in row.items():
                if not all(map(math.isfinite, pair)):
                    raise DataError("has field 'weights.%s.%s' = %r, not finite"
                                    % (lab, f, list(pair)))
        return
    if isinstance(model, NBModel):
        labels, rows, name = model.priors, model.likelihoods, "likelihoods"
        for lab, p in model.priors.items():
            if not 0 < p < math.inf:
                raise DataError("has field 'priors.%s' = %r, not a positive probability" % (lab, p))
    elif isinstance(model, LLDAModel):
        labels, rows, name = model.topics, model.phi, "phi"
    else:
        return
    vocabulary = sorted(model.vocabulary)
    for lab in labels:
        row = rows.get(lab, {})
        for w in vocabulary:
            if not 0 < row.get(w, 0.0) < math.inf:
                raise DataError("has field '%s.%s' without a positive probability for %r"
                                % (name, lab, w))


def decode(tp, value, where):
    """value, read from JSON, rebuilt as the declared type tp; where names
    the field for the DataError raised when a field is missing or a value
    has another type.  Unions are `X | None`."""
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if origin is types.UnionType:
        return None if value is None else decode(args[0], value, where)
    if not isinstance(value, _JSON_TYPES.get(origin, dict)) or (
        isinstance(value, bool) and origin is not bool
    ):
        raise DataError("has field %r of type %s, not %s"
                        % (where, type(value).__name__, origin.__name__))
    if is_dataclass(origin):
        hints = typing.get_type_hints(origin)
        decoded = {}
        for f in fields(origin):
            name = "%s.%s" % (where, f.name) if where else f.name
            if f.name not in value:
                raise DataError("lacks field %r" % name)
            decoded[f.name] = decode(hints[f.name], value[f.name], name)
        return origin(**decoded)
    if origin is dict:
        return {k: decode(args[1], v, "%s.%s" % (where, k)) for k, v in value.items()}
    if origin is tuple:
        if len(value) != len(args):
            raise DataError("has field %r with %d values, not %d" % (where, len(value), len(args)))
        return tuple(decode(a, v, where) for a, v in zip(args, value))
    if origin in (list, frozenset):
        return origin(decode(args[0], v, where) for v in value)
    return origin(value)
