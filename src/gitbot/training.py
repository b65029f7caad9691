"""Growing random forests from labeled feature arrays.

A trainer takes (X, y) as `dataset.featurize` returns them: float64
feature rows in `FEATURE_NAMES` order and int64 labels, bot 1 and
human 0. Trees split greedily on information gain (entropy criterion
by default, gini available for grid search) with candidate thresholds
at midpoints between consecutive distinct feature values. Each tree of
a forest trains on a bootstrap sample. The grower decides each node's
candidate features: given a tree's `_FeatureDraw`, it draws
`FEATURE_SUBSET_SIZE` of them at every node that is neither pure nor
at the depth limit, before the node's scan, in preorder; given None,
as for the single tree of `baselines`, every feature is a candidate
and nothing is drawn. Training is fully deterministic given a seed.

The draw is `rng.choice(n, k, replace=False)` without its per-call
cost: `_FeatureDraw` runs numpy's own algorithm for it on the
generator's raw 64-bit stream, so it gives the same candidates and
leaves the same generator state. The algorithm is numpy's, not part of
its documented interface; the tests compare the two on the installed
numpy, and the shipped-model rebuild test fails if they part.
Because each tree draws in preorder from one stream, the tree grown to
a shallower limit is a prefix of the deeper tree's growth:
`grow_tree_depths` grows a tree once and resumes it at each shallower
limit from the generator state saved on the way.

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
    `state` gives the generator's state with the buffered half.

    Given depths to save, `_candidates` saves in `saved`, just before the
    first draw at a node of each such depth, the `state` at that point;
    setting a generator to it resumes the draws from there.
    """

    def __init__(self, rng, save_depths=()):
        self._bit_generator = rng.bit_generator
        self._next_raw = self._bit_generator.random_raw
        state = self._bit_generator.state
        self._buffered = state["has_uint32"]
        self._half = state["uinteger"]  # kept after use, as numpy keeps it
        self.unsaved = set(save_depths)  # depths whose first draw is still to come
        self.saved: dict[int, dict] = {}  # depth -> state just before its first draw

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

    def state(self) -> dict:
        """The generator state that `rng.choice` would have left by now."""
        state = self._bit_generator.state
        state["has_uint32"] = self._buffered
        state["uinteger"] = self._half
        return state


def _candidates(n_features: int, draw, depth: int):
    """A node's candidate features: `FEATURE_SUBSET_SIZE` drawn, or all without a draw."""
    if draw is None:
        return range(n_features)
    if depth in draw.unsaved:
        draw.unsaved.discard(depth)
        draw.saved[depth] = draw.state()
    return draw.choice(n_features, min(FEATURE_SUBSET_SIZE, n_features))


def _grow_small(cols, labels, rows, depth, max_depth, draw, criterion):
    """`_grow_node` on lists: the subtree of a node of at most `SMALL_NODE` rows."""
    bots = sum([labels[i] for i in rows])
    counts = (len(rows) - bots, bots)
    if depth >= max_depth or counts[0] == 0 or counts[1] == 0:
        return Leaf(counts)
    found = best_split_small(cols, labels, rows, _candidates(len(cols), draw, depth), criterion)
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
    """The subtree of a node: draw picks each node's candidates, or None takes every feature."""
    if len(y) <= SMALL_NODE:
        return _grow_small(
            X.T.tolist(), y.tolist(), range(len(y)), depth, max_depth, draw, criterion
        )
    counts_arr = np.bincount(y, minlength=2)
    counts = (int(counts_arr[0]), int(counts_arr[1]))
    if depth >= max_depth or counts[0] == 0 or counts[1] == 0:
        return Leaf(counts)
    found = best_split(X, y, _candidates(X.shape[1], draw, depth), criterion)
    if found is None:
        return Leaf(counts)
    f, threshold, _ = found
    mask = X[:, f] <= threshold
    left = _grow_node(X[mask], y[mask], depth + 1, max_depth, draw, criterion)
    right = _grow_node(X[~mask], y[~mask], depth + 1, max_depth, draw, criterion)
    return Split(feature=f, threshold=threshold, left=left, right=right)


def _first_draw_path(node: TreeNode, depth: int, limit: int):
    """Turns (0 left, 1 right) from node to the first node in preorder at depth `limit` that drew.

    node is of a tree grown deeper than `limit`, where a node drew when
    it was neither pure nor at that tree's limit: a `Split`, or an
    impure `Leaf`, where no split gained. None if no node there drew.
    """
    if depth == limit:
        return [] if isinstance(node, Split) or min(node.counts) > 0 else None
    if isinstance(node, Split):
        for turn in (0, 1):
            path = _first_draw_path(node[2 + turn], depth + 1, limit)
            if path is not None:
                return [turn, *path]
    return None


def _resume_small(node, path, cols, labels, rows, depth, limit, draw, criterion):
    """`_resume_node` on lists: node has at most `SMALL_NODE` rows."""
    if not path:  # at depth `limit`: the grower limited to it makes a leaf of the rows
        return _grow_small(cols, labels, rows, depth, limit, draw, criterion)
    f, threshold, left, right = node
    col = cols[f]
    right_rows = [i for i in rows if not col[i] <= threshold]
    grow = (depth + 1, limit, draw, criterion)
    if path[0]:
        right = _resume_small(right, path[1:], cols, labels, right_rows, *grow)
    else:
        left_rows = [i for i in rows if col[i] <= threshold]
        left = _resume_small(left, path[1:], cols, labels, left_rows, *grow)
        right = _grow_small(cols, labels, right_rows, *grow)
    return Split(f, threshold, left, right)


def _resume_node(node, path, X, y, depth, limit, draw, criterion) -> TreeNode:
    """The subtree that `_grow_node` grows at `limit`, from node, grown deeper, and its rows.

    path leads from node to the first node at depth `limit` that drew,
    and draw resumes from just before that draw. What precedes that node
    in preorder is kept, that node becomes a leaf, and every subtree
    after it is grown with draw.
    """
    if len(y) <= SMALL_NODE:
        return _resume_small(
            node, path, X.T.tolist(), y.tolist(), range(len(y)), depth, limit, draw, criterion
        )
    if not path:
        return _grow_node(X, y, depth, limit, draw, criterion)
    f, threshold, left, right = node
    mask = X[:, f] <= threshold
    grow = (depth + 1, limit, draw, criterion)
    if path[0]:
        right = _resume_node(right, path[1:], X[~mask], y[~mask], *grow)
    else:
        left = _resume_node(left, path[1:], X[mask], y[mask], *grow)
        right = _grow_node(X[~mask], y[~mask], *grow)
    return Split(f, threshold, left, right)


def _check_forest(y: np.ndarray, n_estimators: int, criterion: str):
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    if n_estimators < 1:
        raise ValueError(f"n_estimators must be at least 1, got {n_estimators!r}")
    _check_two_classes(y)


def _check_two_classes(y: np.ndarray):
    # not np.unique: it imports numpy.ma, about 40 ms, in every process that calls it
    if len(set(y.tolist())) < 2:
        raise SingleClassData("training data must contain both classes")


def tree_seeds(seed: int, n_estimators: int) -> list[np.random.SeedSequence]:
    """Each tree's seed: tree i's depends only on (seed, i).

    So an n-tree forest is the first n trees of any larger one:
    `cross_validate` scores such prefixes.
    """
    return np.random.SeedSequence(seed).spawn(n_estimators)


def grow_tree_depths(X: np.ndarray, y: np.ndarray, tree_seed, limits, criterion: str) -> dict:
    """`grow_tree` at each depth limit in limits, by limit, from one growth.

    The tree is grown once, at the deepest limit D. Each tree draws its
    nodes' candidates in preorder from one stream, so the grower limited
    to d < D makes the same draws at the same nodes up to the first node
    at depth d that draws in D's growth: there it makes a leaf instead,
    and draws nothing. So the tree at d is D's preorder up to that node,
    the node as a `Leaf` of its rows, and the rest of the preorder grown
    to d from the state the generator had just before that node's draw,
    which D's growth saves. Where no node at depth d drew, the tree at d
    is D's tree itself, the same object.
    """
    rng = np.random.default_rng(tree_seed)
    idx = rng.integers(0, len(y), size=len(y))
    X, y = X[idx], y[idx]
    draw = _FeatureDraw(rng, limits)  # D's growth never draws at depth D
    deep = _grow_node(X, y, 0, max(limits), draw, criterion)
    trees = {}
    for limit in limits:
        state = draw.saved.get(limit)
        if state is None:
            trees[limit] = deep
        else:
            rng.bit_generator.state = state
            path = _first_draw_path(deep, 0, limit)
            trees[limit] = _resume_node(deep, path, X, y, 0, limit, _FeatureDraw(rng), criterion)
    return trees


def grow_tree(X: np.ndarray, y: np.ndarray, tree_seed, max_depth: int, criterion: str) -> TreeNode:
    """One forest tree: a bootstrap sample of (X, y), then its nodes, all drawn from one stream."""
    return grow_tree_depths(X, y, tree_seed, [max_depth], criterion)[max_depth]


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
    _check_forest(y, n_estimators, criterion)
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
