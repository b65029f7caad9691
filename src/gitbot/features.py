"""Turn one contributor's commit messages into the four model features.

Features per contributor: number of messages considered, number of
empty messages, number of message patterns (groups of mutually similar
messages), and the Gini coefficient of pattern sizes.
"""

from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from . import similarity
from .similarity import normalize_message

FEATURE_NAMES = ("n_messages", "n_empty", "n_patterns", "gini")


@dataclass(frozen=True)
class MessageCorpus:
    """Commit messages of one contributor identity, most recent first."""

    contributor: str
    messages: list[str]
    timestamps: list[datetime] | None = None

    def __len__(self) -> int:
        return len(self.messages)


@dataclass(frozen=True)
class FeatureConfig:
    min_messages: int = 10
    max_messages: int = 100
    distance_threshold: float = 0.5

    def __post_init__(self):
        if not 0 < self.min_messages <= self.max_messages:
            raise ValueError("need 0 < min_messages <= max_messages")
        if not 0.0 <= self.distance_threshold <= 1.0:
            raise ValueError("distance_threshold must be in [0, 1]")


@dataclass(frozen=True)
class FeatureVector:
    n_messages: int
    n_empty: int
    n_patterns: int
    gini: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.n_messages, self.n_empty, self.n_patterns, self.gini],
            dtype=np.float64,
        )


@dataclass(frozen=True)
class PatternAssignment:
    """Pattern id per message plus the size of each pattern.

    Ids are contiguous from 0, assigned in first-occurrence order.
    """

    labels: list[int] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)


def cluster_patterns(messages: list[str], eps: float) -> PatternAssignment:
    """Group normalized messages into patterns by single linkage.

    Two messages share a pattern iff they are connected by a chain of
    pairs whose compound distance (1 - similarity) is <= eps.

    Each pair i < j is compared only if its two messages are not yet in
    one component: linking such a pair could not change any component.
    The components of single linkage do not depend on the order in which
    edges are added, so skipping those pairs gives the same partition as
    comparing every pair, and the same first-occurrence labels.
    """
    n = len(messages)
    if n == 0:
        raise ValueError("cluster_patterns needs at least one message")

    parent = list(range(n))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for i in range(n):
        # every link below hangs a root under ri, so ri stays i's root
        ri = find(i)
        for j in range(i + 1, n):
            rj = find(j)
            if rj == ri:
                continue
            if 1.0 - similarity.compound_similarity(messages[i], messages[j]) <= eps:
                parent[rj] = ri

    pattern_of_root: dict[int, int] = {}
    labels = []
    for i in range(n):
        root = find(i)
        if root not in pattern_of_root:
            pattern_of_root[root] = len(pattern_of_root)
        labels.append(pattern_of_root[root])
    sizes = [0] * len(pattern_of_root)
    for lab in labels:
        sizes[lab] += 1
    return PatternAssignment(labels=labels, sizes=sizes)


def gini_coefficient(sizes) -> float:
    """Inequality of pattern sizes: sum |xi - xj| / (2 n^2 mean).

    0 means all patterns hold equally many messages; a single pattern
    yields 0.
    """
    x = np.asarray(sizes, dtype=np.float64)
    if x.size == 0:
        raise ValueError("sizes must be non-empty")
    if np.any(x <= 0):
        raise ValueError("sizes must all be positive")
    if x.size == 1:
        return 0.0
    n = x.size
    total = np.abs(x[:, None] - x[None, :]).sum()
    return float(total / (2.0 * n * n * x.mean()))


def compute_features(
    corpus: MessageCorpus,
    config: FeatureConfig = FeatureConfig(),
) -> FeatureVector | None:
    """Feature vector for one corpus, or None when it is too small.

    Corpora under config.min_messages yield None (no prediction is
    possible). Otherwise the most recent config.max_messages messages
    are considered; empty messages count toward n_empty and are
    excluded from pattern clustering.
    """
    if len(corpus) < config.min_messages:
        return None
    selected = corpus.messages[: config.max_messages]
    normalized = [normalize_message(m) for m in selected]
    non_empty = [m for m in normalized if m]
    n_empty = len(normalized) - len(non_empty)
    if not non_empty:
        return FeatureVector(len(selected), n_empty, 0, 0.0)
    assignment = cluster_patterns(non_empty, config.distance_threshold)
    return FeatureVector(
        n_messages=len(selected),
        n_empty=n_empty,
        n_patterns=len(assignment.sizes),
        gini=gini_coefficient(assignment.sizes),
    )

