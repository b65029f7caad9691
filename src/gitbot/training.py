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

The draw is `rng.choice(n, k, replace=False)` without its per-call
cost: `_FeatureDraw` runs numpy's own algorithm for it on the
generator's raw 64-bit stream, so it gives the same candidates and
leaves the same generator state. The algorithm is numpy's, not part of
its documented interface; the tests compare the two on the installed
numpy, and the shipped-model rebuild test fails if they part.
Because each tree draws in preorder from one stream, a tree grown to
a shallower limit is often the same tree: see `deepest_draw`.

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


class _FeatureDraw:
    """`rng.choice(n, k, replace=False)`, computed from rng's raw stream.

    This is numpy's own algorithm for a population of at most 10,000,
    so every draw and the generator's final state are the same:
    - the stream is cut into 32-bit halves, low half first, with the
      high half buffered in the generator's `has_uint32`/`uinteger`;
    - each value in [0, j] is Lemire's bounded integer over those
      halves, and a bound of 0 consumes nothing;
    - Floyd's loop picks the k values, then a Fisher-Yates pass from
      the last position down to the second one shuffles them.
    One `random_raw` call per 64 bits replaces numpy's per-call setup.
    The buffered half is written back by `close`.
    """

    def __init__(self, rng):
        self._bit_generator = rng.bit_generator
        self._next_raw = self._bit_generator.random_raw
        state = self._bit_generator.state
        self._buffered = state["has_uint32"]
        self._half = state["uinteger"]  # kept after use, as numpy keeps it

    def _bounded(self, high: int) -> int:
        """A value in [0, high], for 0 < high < 2**32 - 1."""
        span = high + 1
        while True:
            if self._buffered:
                self._buffered = 0
                word = self._half
            else:
                raw = self._next_raw()
                self._buffered = 1
                self._half = raw >> 32
                word = raw & 0xFFFFFFFF
            m = word * span
            # numpy rejects low 32 bits below 2**32 % span, which would bias the
            # result; that bound is below span, so it is computed only under span
            if (m & 0xFFFFFFFF) >= span or (m & 0xFFFFFFFF) >= (0xFFFFFFFF - high) % span:
                return m >> 32

    def choice(self, n: int, k: int) -> list[int]:
        picked = []
        for j in range(n - k, n):
            value = self._bounded(j) if j else 0
            picked.append(j if value in picked else value)
        for i in range(k - 1, 0, -1):
            j = self._bounded(i)
            picked[i], picked[j] = picked[j], picked[i]
        return picked

    def close(self):
        """Leave the generator's buffered half as `rng.choice` would have."""
        state = self._bit_generator.state
        state["has_uint32"] = self._buffered
        state["uinteger"] = self._half
        self._bit_generator.state = state


def _candidates(n_features: int, draw):
    """A node's candidate features: `FEATURE_SUBSET_SIZE` drawn, or all without a draw."""
    if draw is None:
        return range(n_features)
    return draw.choice(n_features, min(FEATURE_SUBSET_SIZE, n_features))


def _grow_small(cols, labels, rows, depth, max_depth, draw, criterion):
    """`_grow_node` on lists: the subtree of a node of at most `SMALL_NODE` rows."""
    bots = sum([labels[i] for i in rows])
    counts = (len(rows) - bots, bots)
    if depth >= max_depth or counts[0] == 0 or counts[1] == 0:
        return Leaf(counts)
    found = best_split_small(cols, labels, rows, _candidates(len(cols), draw), criterion)
    if found is None:
        return Leaf(counts)
    f, threshold, _ = found
    col = cols[f]
    left = [i for i in rows if col[i] <= threshold]
    right = [i for i in rows if not col[i] <= threshold]
    grow = (depth + 1, max_depth, draw, criterion)
    return Split(
        feature=f,
        threshold=threshold,
        left=_grow_small(cols, labels, left, *grow),
        right=_grow_small(cols, labels, right, *grow),
    )


def _grow_node(X, y, depth, max_depth, draw, criterion) -> TreeNode:
    """`_grow` with rng's `_FeatureDraw`, or None to take every feature."""
    if len(y) <= SMALL_NODE:
        return _grow_small(
            X.T.tolist(), y.tolist(), range(len(y)), depth, max_depth, draw, criterion
        )
    counts_arr = np.bincount(y, minlength=2)
    counts = (int(counts_arr[0]), int(counts_arr[1]))
    if depth >= max_depth or counts[0] == 0 or counts[1] == 0:
        return Leaf(counts)
    found = best_split(X, y, _candidates(X.shape[1], draw), criterion)
    if found is None:
        return Leaf(counts)
    f, threshold, _ = found
    mask = X[:, f] <= threshold
    left = _grow_node(X[mask], y[mask], depth + 1, max_depth, draw, criterion)
    right = _grow_node(X[~mask], y[~mask], depth + 1, max_depth, draw, criterion)
    return Split(feature=f, threshold=threshold, left=left, right=right)


def _grow(X, y, depth, max_depth, rng, criterion) -> TreeNode:
    """The subtree of a node; rng draws each node's candidates, or None takes every feature.

    rng is left in the state that drawing with `rng.choice` leaves.
    """
    if rng is None:
        return _grow_node(X, y, depth, max_depth, None, criterion)
    draw = _FeatureDraw(rng)
    tree = _grow_node(X, y, depth, max_depth, draw, criterion)
    draw.close()
    return tree


def deepest_draw(node: TreeNode, max_depth: int, depth: int = 0) -> int:
    """The depth of the deepest node that drew candidates when grown to max_depth; -1 if none did.

    A node draws when it is neither pure nor at the limit: every
    `Split` did, and so did an impure `Leaf` above the limit, where no
    split gained. A tree grown from the same rng and rows to a limit
    d < max_depth equals this one when this returns less than d: each
    tree draws in preorder from one stream, so the shallower grower
    makes the same draws at the same nodes, and its nodes at depth d
    are this tree's pure leaves.
    """
    if isinstance(node, Split):
        return max(
            depth,
            deepest_draw(node.left, max_depth, depth + 1),
            deepest_draw(node.right, max_depth, depth + 1),
        )
    return depth if depth < max_depth and min(node.counts) > 0 else -1


def _check_two_classes(y: np.ndarray):
    if len(np.unique(y)) < 2:
        raise SingleClassData("training data must contain both classes")


def tree_seeds(seed: int, n_estimators: int) -> list[np.random.SeedSequence]:
    """Each tree's seed: tree i's depends only on (seed, i).

    So an n-tree forest is the first n trees of any larger one:
    `cross_validate` scores such prefixes.
    """
    return np.random.SeedSequence(seed).spawn(n_estimators)


def grow_tree(X: np.ndarray, y: np.ndarray, tree_seed, max_depth: int, criterion: str) -> TreeNode:
    """One forest tree: a bootstrap sample of (X, y), then its nodes, all drawn from one stream."""
    rng = np.random.default_rng(tree_seed)
    idx = rng.integers(0, len(y), size=len(y))
    return _grow(X[idx], y[idx], 0, max_depth, rng, criterion)


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
    trees = [
        grow_tree(X, y, tree_seed, max_depth, criterion)
        for tree_seed in tree_seeds(seed, n_estimators)
    ]
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
