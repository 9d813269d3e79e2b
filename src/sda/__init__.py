"""snoRNA-disease association prediction.

Pipeline: similarity-based pair features (functional, semantic, and
interaction-profile kernels, meshed), cluster-balanced negative sampling,
gradient-boosted-tree leaf encodings, and an RBF-kernel SVM trained by
sequential minimal optimization, evaluated with stratified cross-validation.
The ``sda`` command (``sda.cli``) runs it; this package root re-exports the
corpus loaders and similarity builders.
"""

__version__ = "0.1.0"

from .corpus import (
    AssociationMatrix,
    DiseaseDag,
    FeatureTable,
    load_association_matrix,
    load_disease_dag,
    load_feature_table,
    split_known_unknown,
)
from .errors import ConfigError, DataError, NumericError
from .similarity import (
    GipBandwidth,
    SimilarityMatrix,
    disease_semantic_similarity,
    gip_bandwidth,
    gip_similarity,
    mesh_similarity,
    semantic_contribution,
    snorna_functional_similarity,
)

__all__ = [
    "AssociationMatrix",
    "ConfigError",
    "DataError",
    "DiseaseDag",
    "FeatureTable",
    "GipBandwidth",
    "NumericError",
    "SimilarityMatrix",
    "disease_semantic_similarity",
    "gip_bandwidth",
    "gip_similarity",
    "load_association_matrix",
    "load_disease_dag",
    "load_feature_table",
    "mesh_similarity",
    "semantic_contribution",
    "snorna_functional_similarity",
    "split_known_unknown",
]
