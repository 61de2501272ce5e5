"""semtax: taxonomy-driven semantic text categorization and
classification."""

from .taxonomy import (
    Taxonomy,
    Concept,
    load_taxonomy,
    concept_count,
    information_content,
    msca,
    sim_lin,
    sim_pirro_seco,
    sim_page,
)
from .textpipe import (
    BackgroundStats,
    preprocess,
    extract_phrases,
    tfidf_weights,
    top_n_terms,
)
from .semcat import (
    SemCatConfig,
    categorize,
    map_terms_to_concepts,
    disambiguate,
    project_to_categories,
    top_n_categories,
)
from .semcla import (
    SemClaConfig,
    SemClaModel,
    extend_vector,
    cosine,
    semcla_train,
    calibrate_alpha,
)
from .classics import (
    nb_train,
    nb_predict,
    winnow_train,
    winnow_predict,
    llda_train,
    llda_predict,
)
from .ensemble import (
    Vote,
    aggregate,
    draw_training_sample,
    build_bagging_ensemble,
    semcom_predict,
)
from .evaluate import (
    precision,
    lin_precision,
    bucket_by_length,
    paired_t_test,
    extract_features,
    run_experiment,
)

__version__ = "0.1.0"
