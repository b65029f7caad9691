"""Growing random forests from labeled feature arrays.

A trainer takes (X, y) as `dataset.featurize` returns them: float64
feature rows in `FEATURE_NAMES` order and int64 labels, bot 1 and
human 0. Trees split greedily on information gain (entropy criterion
by default, gini available for grid search) with candidate thresholds
at midpoints between consecutive distinct feature values. Each tree of
a forest trains on a bootstrap sample. The grower decides each node's
candidate features: given a tree's `_FeatureDraw`, it takes a pick of
`FEATURE_SUBSET_SIZE` of them at every node that is neither pure nor
at the depth limit, before the node's scan, in preorder; given None,
as for the single tree of `baselines`, every feature is a candidate
and nothing is drawn. Training is fully deterministic given a seed:
tree i of a forest draws its bootstrap sample and its picks from one
stream keyed by (seed, i), `SeedSequence(seed, spawn_key=(i,))`, which
is the i-th child of `SeedSequence(seed).spawn(n)` for any n > i. So an
n-tree forest is the first n trees of any larger one with its seed.

The draw is `rng.choice(n, k, replace=False)` without its per-call
cost: `_FeatureDraw` runs numpy's own algorithm for it on the
generator's raw 64-bit stream, so it gives the same candidates, and
so does every later draw. The algorithm is numpy's, not part of
its documented interface; the tests compare the two on the installed
numpy, and the shipped-model rebuild test fails if they part.
Because each tree's nodes take their picks in preorder from one
stream, the tree grown to a shallower limit is the deeper tree's growth
up to its first node at that depth that searched: `grow_tree_depths`
grows the deepest tree once, recording each searching node's pick and
split, and grows each shallower tree again from the root, taking the
recorded splits up to that node and the stream's picks after it.

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
    """A forest tree's candidate features at each node, and the record that regrows it.

    `choice` is `rng.choice(n, k, replace=False)`, computed from rng's
    raw stream. This is numpy's own algorithm for a population of at
    most 10,000, so every draw is the same, and so is every later one:
    - the stream is cut into 32-bit halves, low half first, with the
      high half buffered in the generator's `has_uint32`/`uinteger`;
    - each value in [0, j] is Lemire's bounded integer over those
      halves, and a bound of 0 consumes nothing;
    - Floyd's loop picks the k values, then a Fisher-Yates pass from
      the last position down to the second one shuffles them.
    One `random_raw` call per 64 bits replaces numpy's per-call setup.

    The nodes that search are numbered in preorder from `node`, and
    node i searches `picks[i]`, the stream's i-th pick, drawn when first
    needed. A tree's first growth records each node's split in `splits`
    and, per depth, the number of its first searching node there in
    `first`. `rewind(limit)` starts a growth of the same rows to a
    shallower limit, whose nodes before `first[limit]` take their
    recorded splits (see `grow_tree_depths`).
    """

    def __init__(self, rng):
        self._next_raw = rng.bit_generator.random_raw
        state = rng.bit_generator.state
        self._buffered = state["has_uint32"]
        self._half = state["uinteger"]  # kept after use, as numpy keeps it
        self.picks: list[list[int]] = []
        self.splits: list = []  # best_split's result at each node of the first growth
        self.first: list[int] = []  # depth -> the first growth's first node there
        self.node = 0  # the number of the next node that searches
        self.reused = 0  # nodes before this number take their recorded split

    def rewind(self, limit: int):
        self.node = 0
        self.reused = self.first[limit]

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


def _split(search, data, n_features: int, draw, depth: int, criterion: str):
    """A node's split, `search(*data, candidates, criterion)`, or its recorded split.

    With no draw every feature is a candidate. With a forest's draw the
    node is the draw's next node i: before `draw.reused` it takes its
    recorded split, else it searches pick i, `FEATURE_SUBSET_SIZE`
    features.
    """
    if draw is None:
        return search(*data, range(n_features), criterion)
    i = draw.node
    draw.node = i + 1
    if i < draw.reused:
        return draw.splits[i]
    if i == len(draw.picks):
        draw.picks.append(draw.choice(n_features, min(FEATURE_SUBSET_SIZE, n_features)))
    found = search(*data, draw.picks[i], criterion)
    # only the first growth records: a later one reuses at least the root's
    # split, since first[limit] is 0 only at limit 0, where the root is a leaf
    if not draw.reused:
        if depth == len(draw.first):
            draw.first.append(i)
        draw.splits.append(found)
    return found


def _grow_small(cols, labels, rows, depth, max_depth, draw, criterion):
    """`_grow_node` on lists: the subtree of a node of at most `SMALL_NODE` rows."""
    bots = sum([labels[i] for i in rows])
    counts = (len(rows) - bots, bots)
    if depth >= max_depth or counts[0] == 0 or counts[1] == 0:
        return Leaf(counts)
    found = _split(best_split_small, (cols, labels, rows), len(cols), draw, depth, criterion)
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
    found = _split(best_split, (X, y), X.shape[1], draw, depth, criterion)
    if found is None:
        return Leaf(counts)
    f, threshold, _ = found
    mask = X[:, f] <= threshold
    left = _grow_node(X[mask], y[mask], depth + 1, max_depth, draw, criterion)
    right = _grow_node(X[~mask], y[~mask], depth + 1, max_depth, draw, criterion)
    return Split(feature=f, threshold=threshold, left=left, right=right)


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


def grow_tree_depths(
    X: np.ndarray, y: np.ndarray, seed: int, tree: int, limits, criterion: str
) -> dict:
    """Forest tree `tree` of seed `seed` at each depth limit in limits, by limit.

    The tree's stream is keyed by (seed, tree) alone (see the module
    docstring). A tree is a bootstrap sample of (X, y), then its nodes,
    grown with candidates drawn from that stream. It is grown at the
    deepest limit D first. The grower limited to d < D makes the same
    nodes, with the same rows and picks, up to D's first searching node
    at depth d: there it makes a leaf instead, and takes no pick. So the
    tree at d is grown again from the root with D's `_FeatureDraw`
    rewound: each node before that one takes D's recorded split without
    a search, and each node after it searches the next pick of the same
    stream, read from the picks drawn so far and drawn only past them.
    Where no node at depth d searched, the tree at d is D's tree itself,
    the same object.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tree,)))
    idx = rng.integers(0, len(y), size=len(y))
    X, y = X[idx], y[idx]
    draw = _FeatureDraw(rng)
    deep = _grow_node(X, y, 0, max(limits), draw, criterion)
    trees = {}
    for limit in limits:
        if limit < len(draw.first):
            draw.rewind(limit)
            trees[limit] = _grow_node(X, y, 0, limit, draw, criterion)
        else:  # no node at this depth searched, as at D itself
            trees[limit] = deep
    return trees


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
        grow_tree_depths(X, y, seed, tree, [max_depth], criterion)[max_depth]
        for tree in range(n_estimators)
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
