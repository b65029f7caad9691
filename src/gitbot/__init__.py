"""Bot detection for git repositories from commit message repetitiveness."""

from .errors import (
    DuplicateName,
    EmptyInput,
    ExtractionFailed,
    GitbotError,
    GitUnavailable,
    MalformedDataset,
    MalformedMapping,
    NotAGitRepository,
    SingleClassData,
    UnreadableModel,
)
from .extractor import RawCommit, Role, extract_commits, group_messages
from .features import (
    FeatureConfig,
    FeatureVector,
    MessageCorpus,
    PatternAssignment,
    cluster_patterns,
    compute_features,
    gini_coefficient,
)
from .forest import (
    BOT,
    HUMAN,
    UNKNOWN,
    ForestModel,
    LabeledExample,
    Prediction,
    predict,
)
from .identity import IGNORE_IDENTITY, IdentityMapping, apply_mapping, load_mapping
from .model_io import MODEL_FORMAT, load_model, save_model
from .similarity import (
    compound_similarity,
    jaccard_similarity,
    levenshtein_similarity,
    normalize_message,
)

__version__ = "0.1.0"

__all__ = [
    "BOT",
    "HUMAN",
    "UNKNOWN",
    "IGNORE_IDENTITY",
    "MODEL_FORMAT",
    "DuplicateName",
    "EmptyInput",
    "ExtractionFailed",
    "FeatureConfig",
    "FeatureVector",
    "ForestModel",
    "GitUnavailable",
    "GitbotError",
    "IdentityMapping",
    "LabeledExample",
    "MalformedDataset",
    "MalformedMapping",
    "MessageCorpus",
    "NotAGitRepository",
    "PatternAssignment",
    "Prediction",
    "RawCommit",
    "Role",
    "SingleClassData",
    "UnreadableModel",
    "apply_mapping",
    "cluster_patterns",
    "compound_similarity",
    "compute_features",
    "extract_commits",
    "gini_coefficient",
    "group_messages",
    "jaccard_similarity",
    "levenshtein_similarity",
    "load_mapping",
    "load_model",
    "normalize_message",
    "predict",
    "save_model",
]
