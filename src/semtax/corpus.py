"""Corpus records and file formats.

Corpus files are line-delimited UTF-8 JSON: ``{"id": ..., "text": ...,
"label": ..., "categories": [...]}`` with label and categories optional.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import DataError


@dataclass
class Document:
    id: str
    text: str
    label: str | None = None
    categories: tuple = ()


def parse_corpus(lines, source) -> list[Document]:
    """The documents on `lines`; DataError naming `source` and the line
    for a line that is not a JSON object with an id and a string text,
    whose id is not a string or an integer (an integer id becomes its
    decimal string), whose label is not a string or whose categories are
    not a list of strings."""
    docs = []
    seen = set()
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError("%s line %d: invalid JSON (%s)" % (source, lineno, exc))
        if not isinstance(rec, dict) or "id" not in rec or not isinstance(rec.get("text"), str):
            raise DataError("%s line %d: record needs an id and a string text" % (source, lineno))
        doc_id = rec["id"]
        if isinstance(doc_id, bool) or not isinstance(doc_id, (str, int)):
            raise DataError("%s line %d: id must be a string or an integer" % (source, lineno))
        label = rec.get("label")
        if label is not None and not isinstance(label, str):
            raise DataError("%s line %d: label must be a string" % (source, lineno))
        categories = rec.get("categories", [])
        if not isinstance(categories, list) or not all(isinstance(c, str) for c in categories):
            raise DataError("%s line %d: categories must be a list of strings" % (source, lineno))
        doc_id = str(doc_id)
        if doc_id in seen:
            raise DataError("%s line %d: duplicate document id %s" % (source, lineno, doc_id))
        seen.add(doc_id)
        docs.append(
            Document(
                id=doc_id,
                text=rec["text"],
                label=label,
                categories=tuple(categories),
            )
        )
    return docs


def load_corpus(path) -> list[Document]:
    with open(path, encoding="utf-8") as fh:
        return parse_corpus(fh, path)
