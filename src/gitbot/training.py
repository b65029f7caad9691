"""Growing random forests from labeled feature arrays.

A trainer takes (X, y) as `dataset.featurize` returns them: float64
feature rows in `FEATURE_NAMES` order and int64 labels, bot 1 and
human 0. Trees split greedily on information gain (entropy criterion
by default, gini available for grid search) with candidate thresholds
at midpoints between consecutive distinct feature values. Each tree of
a forest trains on a bootstrap sample. The grower decides each node's
candidate features: given a tree's rng, it draws `FEATURE_SUBSET_SIZE`
of them at every node that is neither pure nor at the depth limit,
before the node's scan, in preorder; given no rng, as for the single
tree of `baselines`, every feature is a candidate and nothing is
drawn. Training is fully deterministic given a seed.

A node's split search takes one of two paths, chosen by its row count:
- A node of more than `SMALL_NODE` rows is searched by `best_split`,
  a few numpy calls per candidate feature.
- A node of at most `SMALL_NODE` rows is turned into Python lists once,
  and its whole subtree grows in pure Python: `best_split_small` sorts
  each candidate column and reads every child's impurity from
  `IMPURITY`. On such nodes numpy's cost per call, not arithmetic,
  would dominate. Past a few hundred rows the Python scan is the slower
  one, and a table for every node size would grow with the square of
  the training-set size.
Both paths give the same tree. `IMPURITY` holds `_impurity` of every
(rows, bots) pair up to `SMALL_NODE` rows, computed by `_impurity`
itself: `math.log2` is not bit-identical to `np.log2` on every ratio,
and a table of other values could break a tie the other way. The scan
adds, multiplies and divides in `best_split`'s order, so every gain is
the same float.

This is the training half of the forest. `forest` holds the model and
predicts in pure Python; this module is imported by `evaluation`,
`baselines` and the model build script, and by the CLI only when
`train` or `evaluate` runs.
"""

import numpy as np

from .errors import SingleClassData
from .features import FeatureConfig
from .forest import CRITERIA, ForestModel, Leaf, Split, TreeNode, is_bot

FEATURE_SUBSET_SIZE = 2  # features drawn as split candidates at each forest node
SMALL_NODE = 64  # nodes of at most this many rows grow in pure Python


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


def _impurity_table(criterion: str) -> list[list[float]]:
    """Row m, indexed by bot count b, is the impurity of m rows with b bots.

    Row 0, an empty node, is never read.
    """
    table = [[]]
    for m in range(1, SMALL_NODE + 1):
        b = np.arange(m + 1, dtype=np.float64)
        table.append(_impurity(m - b, b, criterion).tolist())
    return table


IMPURITY = {criterion: _impurity_table(criterion) for criterion in CRITERIA}


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


def best_split_small(cols, labels, rows, feature_indices, criterion: str = "entropy"):
    """`best_split` of the given rows, at most `SMALL_NODE` of them, in pure Python.

    cols[f] lists feature f of every row and labels their 0/1 labels;
    rows are the node's row ids. Returns what `best_split` returns on
    the same rows, to the last bit.
    """
    imp = IMPURITY[criterion]
    n = len(rows)
    total_b = sum([labels[i] for i in rows])
    parent = imp[n][total_b]

    best = None
    best_gain = 0.0  # a split must gain something; a tie keeps the earlier one
    for f in sorted(feature_indices):
        col = cols[f]
        order = sorted(rows, key=col.__getitem__)
        prev = col[order[0]]
        left_b = 0
        for left_n, i in enumerate(order):
            value = col[i]
            if value != prev:
                # the ints convert to float exactly: best_split's arithmetic, in its order
                right_n = n - left_n
                gain = parent - (
                    left_n * imp[left_n][left_b] + right_n * imp[right_n][total_b - left_b]
                ) / n
                if gain > best_gain:
                    best_gain = gain
                    best = (int(f), (prev + value) / 2.0, gain)
                prev = value
            left_b += labels[i]
    return best


def _candidates(n_features: int, rng):
    """A node's candidate features: `FEATURE_SUBSET_SIZE` drawn from rng, or all without one."""
    if rng is None:
        return range(n_features)
    return rng.choice(n_features, size=min(FEATURE_SUBSET_SIZE, n_features), replace=False)


def _grow_small(cols, labels, rows, depth, max_depth, rng, criterion):
    """`_grow` on lists: the subtree of a node of at most `SMALL_NODE` rows."""
    bots = sum([labels[i] for i in rows])
    counts = (len(rows) - bots, bots)
    if depth >= max_depth or counts[0] == 0 or counts[1] == 0:
        return Leaf(counts)
    found = best_split_small(cols, labels, rows, _candidates(len(cols), rng), criterion)
    if found is None:
        return Leaf(counts)
    f, threshold, _ = found
    col = cols[f]
    left = [i for i in rows if col[i] <= threshold]
    right = [i for i in rows if not col[i] <= threshold]
    grow = (depth + 1, max_depth, rng, criterion)
    return Split(
        feature=f,
        threshold=threshold,
        left=_grow_small(cols, labels, left, *grow),
        right=_grow_small(cols, labels, right, *grow),
    )


def _grow(X, y, depth, max_depth, rng, criterion) -> TreeNode:
    """The subtree of a node; rng draws each node's candidates, or None takes every feature."""
    if len(y) <= SMALL_NODE:
        return _grow_small(
            X.T.tolist(), y.tolist(), range(len(y)), depth, max_depth, rng, criterion
        )
    counts_arr = np.bincount(y, minlength=2)
    counts = (int(counts_arr[0]), int(counts_arr[1]))
    if depth >= max_depth or counts[0] == 0 or counts[1] == 0:
        return Leaf(counts)
    found = best_split(X, y, _candidates(X.shape[1], rng), criterion)
    if found is None:
        return Leaf(counts)
    f, threshold, _ = found
    mask = X[:, f] <= threshold
    left = _grow(X[mask], y[mask], depth + 1, max_depth, rng, criterion)
    right = _grow(X[~mask], y[~mask], depth + 1, max_depth, rng, criterion)
    return Split(feature=f, threshold=threshold, left=left, right=right)


def _check_two_classes(y: np.ndarray):
    if len(np.unique(y)) < 2:
        raise SingleClassData("training data must contain both classes")


def train_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_estimators: int = 20,
    max_depth: int = 8,
    seed: int = 0,
    criterion: str = "entropy",
    feature_config: FeatureConfig | None = None,
) -> ForestModel:
    """Train the forest: bootstrap per tree, random features per node."""
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    if n_estimators < 1:
        raise ValueError(f"n_estimators must be at least 1, got {n_estimators!r}")
    _check_two_classes(y)
    n = len(y)
    trees = []
    # tree i's stream depends only on (seed, i), so an n-tree forest is the
    # first n trees of any larger one: cross_validate scores such prefixes
    for child_seed in np.random.SeedSequence(seed).spawn(n_estimators):
        rng = np.random.default_rng(child_seed)
        idx = rng.integers(0, n, size=n)
        trees.append(_grow(X[idx], y[idx], 0, max_depth, rng, criterion))
    return ForestModel(
        trees=trees,
        max_depth=max_depth,
        criterion=criterion,
        seed=seed,
        feature_config=feature_config if feature_config is not None else FeatureConfig(),
    )


def predict_labels(model, X: np.ndarray) -> np.ndarray:
    """0/1 labels of the rows of X under any model with `bot_fraction`."""
    return is_bot(np.asarray(model.bot_fraction(X))).astype(np.int64)
