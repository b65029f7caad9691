"""Random forest of depth-bounded decision trees, built from scratch.

Trees split greedily on information gain (entropy criterion by
default, gini available for grid search) with candidate thresholds at
midpoints between consecutive distinct feature values. Each tree of a
forest trains on a bootstrap sample and considers a random subset of
features per node. Training is fully deterministic given a seed.

Every classifier in the package answers `bot_fraction(X)`, the bot
share of each row in [0, 1]. `predict` and `predict_labels` below derive
the label and the confidence from it for all of them.
"""

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import SingleClassData
from .features import FEATURE_NAMES, FeatureConfig, FeatureVector

BOT = "bot"
HUMAN = "human"
UNKNOWN = "unknown"

# integer encoding used throughout: human 0, bot 1 (bot is the positive class)
LABEL_IDS = {HUMAN: 0, BOT: 1}

CRITERIA = ("entropy", "gini")


@dataclass(frozen=True)
class LabeledExample:
    features: FeatureVector
    label: str  # BOT or HUMAN


@dataclass(frozen=True)
class Leaf:
    counts: tuple[int, int]  # (humans, bots)

    def vote(self) -> int:
        # tie goes to human: a false bot label is the costlier mistake
        return 1 if self.counts[1] > self.counts[0] else 0


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    left: "TreeNode"  # taken when x[feature] <= threshold
    right: "TreeNode"


TreeNode = Union[Leaf, Split]


@dataclass(frozen=True)
class Prediction:
    label: str  # BOT, HUMAN, or UNKNOWN
    confidence: float  # the winner's share, max(f, 1 - f) of bot fraction f; 0 for UNKNOWN


@dataclass(frozen=True)
class ForestModel:
    trees: list[TreeNode]
    n_estimators: int
    max_depth: int
    criterion: str
    seed: int
    feature_names: tuple[str, ...] = FEATURE_NAMES
    feature_config: FeatureConfig = field(default_factory=FeatureConfig)

    def bot_fraction(self, X: np.ndarray) -> np.ndarray:
        """Share of the trees voting bot, per row of X."""
        votes = np.zeros(len(X), dtype=np.int64)
        for tree in self.trees:
            votes += _tree_votes(tree, X)
        return votes / len(self.trees)


def entropy(class_counts) -> float:
    """Shannon entropy in bits of a two-class count pair."""
    h, b = class_counts
    n = h + b
    if n == 0:
        raise ValueError("entropy of an empty node is undefined")
    out = 0.0
    for c in (h, b):
        if c > 0:
            p = c / n
            out -= p * np.log2(p)
    return float(out)


def _impurity(h: np.ndarray, b: np.ndarray, criterion: str) -> np.ndarray:
    n = h + b
    ph = h / n
    pb = b / n
    if criterion == "gini":
        return 1.0 - ph * ph - pb * pb
    out = np.zeros_like(ph)
    mask = ph > 0
    out[mask] -= ph[mask] * np.log2(ph[mask])
    mask = pb > 0
    out[mask] -= pb[mask] * np.log2(pb[mask])
    return out


def best_split(X: np.ndarray, y: np.ndarray, feature_indices, criterion: str = "entropy"):
    """Highest-gain (feature, threshold, gain) over the given features.

    Thresholds are midpoints between consecutive distinct sorted
    values. Returns None when no candidate split has positive gain.
    Ties are broken toward the lower feature index, then the lower
    threshold, which keeps training deterministic.
    """
    n = len(y)
    total_b = int(y.sum())
    total_h = n - total_b
    parent = _impurity(np.array([total_h]), np.array([total_b]), criterion)[0]

    best = None
    for f in sorted(feature_indices):
        vals = X[:, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sy = y[order]
        change = np.nonzero(sv[1:] != sv[:-1])[0] + 1
        if change.size == 0:
            continue
        cum_b = np.cumsum(sy)
        left_n = change.astype(np.float64)
        left_b = cum_b[change - 1].astype(np.float64)
        left_h = left_n - left_b
        right_n = n - left_n
        right_b = total_b - left_b
        right_h = right_n - right_b
        children = (
            left_n * _impurity(left_h, left_b, criterion)
            + right_n * _impurity(right_h, right_b, criterion)
        ) / n
        gains = parent - children
        k = int(np.argmax(gains))
        gain = float(gains[k])
        if gain > 0.0 and (best is None or gain > best[2]):
            threshold = float((sv[change[k] - 1] + sv[change[k]]) / 2.0)
            best = (int(f), threshold, gain)
    return best


def _grow(X, y, depth, max_depth, feature_subset_size, rng, criterion) -> TreeNode:
    counts_arr = np.bincount(y, minlength=2)
    counts = (int(counts_arr[0]), int(counts_arr[1]))
    if depth >= max_depth or counts[0] == 0 or counts[1] == 0:
        return Leaf(counts)
    n_features = X.shape[1]
    k = min(feature_subset_size, n_features)
    candidates = rng.choice(n_features, size=k, replace=False)
    found = best_split(X, y, candidates, criterion)
    if found is None:
        return Leaf(counts)
    f, threshold, _ = found
    mask = X[:, f] <= threshold
    left = _grow(X[mask], y[mask], depth + 1, max_depth, feature_subset_size, rng, criterion)
    right = _grow(X[~mask], y[~mask], depth + 1, max_depth, feature_subset_size, rng, criterion)
    return Split(feature=f, threshold=threshold, left=left, right=right)


def _to_arrays(data: list[LabeledExample]):
    X = np.array([ex.features.as_array() for ex in data], dtype=np.float64)
    y = np.array([LABEL_IDS[ex.label] for ex in data], dtype=np.int64)
    return X, y


def _check_two_classes(y: np.ndarray):
    if len(np.unique(y)) < 2:
        raise SingleClassData("training data must contain both classes")


def train_tree(
    data: list[LabeledExample],
    max_depth: int,
    feature_subset_size: int,
    rng: np.random.Generator,
    criterion: str = "entropy",
) -> TreeNode:
    """Grow one decision tree by greedy recursive partitioning."""
    if not data:
        raise ValueError("train_tree needs at least one example")
    X, y = _to_arrays(data)
    return _grow(X, y, 0, max_depth, feature_subset_size, rng, criterion)


def train_forest(
    data: list[LabeledExample],
    n_estimators: int = 20,
    max_depth: int = 8,
    seed: int = 0,
    criterion: str = "entropy",
    feature_subset_size: int = 2,
    feature_config: FeatureConfig | None = None,
) -> ForestModel:
    """Train the forest: bootstrap per tree, random features per node."""
    X, y = _to_arrays(data)
    _check_two_classes(y)
    n = len(y)
    trees = []
    for child_seed in np.random.SeedSequence(seed).spawn(n_estimators):
        rng = np.random.default_rng(child_seed)
        idx = rng.integers(0, n, size=n)
        trees.append(
            _grow(X[idx], y[idx], 0, max_depth, feature_subset_size, rng, criterion)
        )
    return ForestModel(
        trees=trees,
        n_estimators=n_estimators,
        max_depth=max_depth,
        criterion=criterion,
        seed=seed,
        feature_config=feature_config if feature_config is not None else FeatureConfig(),
    )


def _tree_votes(node: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X), dtype=np.int64)
    idx = np.arange(len(X))
    stack = [(node, idx)]
    while stack:
        current, rows = stack.pop()
        if not len(rows):
            continue
        if isinstance(current, Leaf):
            out[rows] = current.vote()
            continue
        mask = X[rows, current.feature] <= current.threshold
        stack.append((current.left, rows[mask]))
        stack.append((current.right, rows[~mask]))
    return out


def predict_labels(model, X: np.ndarray) -> np.ndarray:
    """0/1 labels of the rows of X under any model with `bot_fraction`."""
    return _labels(model.bot_fraction(X))


def _labels(fraction: np.ndarray) -> np.ndarray:
    # tie goes to human: a false bot label is the costlier mistake
    return (fraction > 0.5).astype(np.int64)


def predict(model, features: FeatureVector | None) -> Prediction:
    """Label one contributor under any model with `bot_fraction`.

    Bot iff the bot fraction exceeds one half; ties resolve to human.
    A contributor whose corpus was too small for features (None) is
    classified as unknown with confidence 0.
    """
    if features is None:
        return Prediction(UNKNOWN, 0.0)
    fraction = model.bot_fraction(features.as_array().reshape(1, -1))
    f = float(fraction[0])
    return Prediction(BOT if _labels(fraction)[0] else HUMAN, max(f, 1.0 - f))


def tree_depth(node: TreeNode) -> int:
    """Longest root-to-leaf path, in edges."""
    if isinstance(node, Leaf):
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))
