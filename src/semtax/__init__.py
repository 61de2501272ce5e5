"""semtax: taxonomy-driven semantic text categorization and
classification.  The root offers the categorizer's text-to-categories
path; everything else is imported from its module (semtax.evaluate,
semtax.semcla, ...)."""

from .taxonomy import load_taxonomy
from .textpipe import extract_phrases, preprocess, tfidf_weights, top_n_terms
from .semcat import categorize

__version__ = "0.1.0"
