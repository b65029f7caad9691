from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gitbot import training
from gitbot.cli import SHIPPED_MODEL
from gitbot.errors import SingleClassData
from gitbot.features import FeatureConfig, FeatureVector
from gitbot.forest import (
    BOT,
    CRITERIA,
    HUMAN,
    LABEL_IDS,
    ForestModel,
    Leaf,
    Split,
    predict,
)
from gitbot.model_io import load_model, model_to_json
from gitbot.training import (
    FEATURE_SUBSET_SIZE,
    IMPURITY,
    SMALL_NODE,
    _FeatureDraw,
    _grow_node,
    _impurity,
    best_split,
    best_split_small,
    predict_labels,
    train_forest,
)


def entropy(class_counts) -> float:
    """Shannon entropy in bits of a two-class count pair, by the training criterion."""
    h, b = class_counts
    if h + b == 0:
        raise ValueError("entropy of an empty node is undefined")
    return float(_impurity(np.array([h]), np.array([b]), "entropy")[0])


def train_tree(data, max_depth, criterion="entropy"):
    """Grow one decision tree on all of `data`, an (X, y) pair, without bootstrap or rng."""
    X, y = data
    return _grow_node(X, y, 0, max_depth, None, criterion)


def tree_depth(node) -> int:
    """Longest root-to-leaf path, in edges."""
    if isinstance(node, Leaf):
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def example(n_messages, n_empty, n_patterns, gini, label, copies=1):
    """`copies` rows of one labeled feature vector, as `featurize` returns them."""
    X = np.tile(np.array([n_messages, n_empty, n_patterns, gini], dtype=np.float64), (copies, 1))
    return X, np.full(copies, LABEL_IDS[label], dtype=np.int64)


def stack(*parts):
    """The rows of several (X, y) pairs, in order, as one pair."""
    return np.vstack([X for X, _ in parts]), np.concatenate([y for _, y in parts])


def random_examples(rng, n, separable=True):
    """n labeled feature rows as (X, y): bots with few patterns, humans with many."""
    out = []
    for _ in range(n):
        if rng.random() < 0.5:
            # bot-like: few patterns
            patterns = int(rng.integers(1, 5))
            label = BOT
        else:
            patterns = int(rng.integers(20, 90))
            label = HUMAN
        if not separable and rng.random() < 0.2:
            label = BOT if label == HUMAN else HUMAN
        out.append(
            example(
                int(rng.integers(10, 101)),
                int(rng.integers(0, 4)),
                patterns,
                float(rng.random()),
                label,
            )
        )
    return stack(*out)


class TestEntropy:
    def test_pure_node(self):
        assert entropy((10, 0)) == 0.0

    def test_balanced_node(self):
        assert entropy((5, 5)) == 1.0

    def test_known_value(self):
        assert entropy((9, 3)) == pytest.approx(0.8113, abs=5e-5)

    def test_empty_node_rejected(self):
        with pytest.raises(ValueError):
            entropy((0, 0))


def python_best_split(X, y, feature_indices, criterion="entropy"):
    """`best_split_small` on the (X, y) that `best_split` takes."""
    return best_split_small(X.T.tolist(), y.tolist(), range(len(y)), feature_indices, criterion)


def numpy_grow(X, y, depth, max_depth, feature_subset_size, rng, criterion):
    """The all-numpy grower, from before small nodes grew in Python, kept as the reference."""
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
    left = numpy_grow(X[mask], y[mask], depth + 1, max_depth, feature_subset_size, rng, criterion)
    right = numpy_grow(X[~mask], y[~mask], depth + 1, max_depth, feature_subset_size, rng, criterion)
    return Split(feature=f, threshold=threshold, left=left, right=right)


both_scans = pytest.mark.parametrize(
    "scan", [best_split, python_best_split], ids=["numpy", "python"]
)


class TestBestSplit:
    @both_scans
    def test_gain_positive_and_bounded_by_parent_entropy(self, scan):
        rng = np.random.default_rng(1)
        for _ in range(50):
            X = rng.random((30, 4))
            y = rng.integers(0, 2, size=30)
            if len(np.unique(y)) < 2:
                continue
            found = scan(X, y, range(4))
            if found is None:
                continue
            _, _, gain = found
            parent = entropy((int((y == 0).sum()), int((y == 1).sum())))
            assert 0.0 < gain <= parent + 1e-12

    @both_scans
    def test_no_split_on_constant_features(self, scan):
        X = np.ones((10, 4))
        y = np.array([0, 1] * 5)
        assert scan(X, y, range(4)) is None

    @both_scans
    def test_picks_the_separating_feature(self, scan):
        X = np.zeros((8, 4))
        X[:, 2] = [0, 0, 0, 0, 5, 5, 5, 5]
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        feature, threshold, gain = scan(X, y, range(4))
        assert feature == 2
        assert threshold == 2.5
        assert gain == pytest.approx(1.0)


# few distinct values, so that ties are common; -0.0 ties with 0.0
tied_values = st.one_of(
    st.integers(-2, 3).map(float),
    st.sampled_from([-0.0, 0.25, 0.5]),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@st.composite
def nodes(draw, max_rows):
    """A node (X, y) of 1 to max_rows rows, drawn from a few distinct rows."""
    n = draw(st.integers(1, max_rows))
    distinct = draw(st.lists(st.tuples(*[tied_values] * 4), min_size=1, max_size=n))
    X = np.array(draw(st.lists(st.sampled_from(distinct), min_size=n, max_size=n)))
    classes = draw(st.sampled_from(["mixed", "human", "bot"]))
    if classes == "mixed":
        y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    else:
        y = [LABEL_IDS[HUMAN if classes == "human" else BOT]] * n
    return X, np.array(y, dtype=np.int64)


CANDIDATE_SUBSETS = [c for k in range(1, 5) for c in combinations(range(4), k)]


class TestSmallNodeScan:
    """`best_split_small` returns exactly what `best_split` returns."""

    @settings(deadline=None, max_examples=300)
    @given(node=nodes(SMALL_NODE), criterion=st.sampled_from(CRITERIA))
    def test_matches_best_split_on_every_candidate_subset(self, node, criterion):
        X, y = node
        for candidates in CANDIDATE_SUBSETS:
            # the candidates arrive unsorted, as rng.choice draws them
            drawn = np.array(candidates[::-1])
            assert python_best_split(X, y, drawn, criterion) == best_split(X, y, drawn, criterion)

    def test_table_holds_impurity_of_every_small_node(self):
        for criterion in CRITERIA:
            table = IMPURITY[criterion]
            assert len(table) == SMALL_NODE + 1
            for m in range(1, SMALL_NODE + 1):
                h = np.arange(m, -1, -1)
                assert table[m] == _impurity(h, m - h, criterion).tolist()
                assert table[m][m // 3] == _impurity(
                    np.array([m - m // 3]), np.array([m // 3]), criterion
                )[0]


def tied_data(seed, n):
    """n feature rows with many ties, and labels that depend on them only in part."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.integers(10, 40, n),
        rng.integers(0, 4, n),
        rng.integers(1, 30, n),
        rng.integers(0, 5, n) / 4,
    ]).astype(np.float64)
    # adjacent floats: their midpoint rounds to one of them, so rows lie on a threshold
    X[:, 3] = np.where(rng.random(n) < 0.3, np.nextafter(X[:, 3], 2.0), X[:, 3])
    y = (rng.random(n) < 0.2 + 0.02 * X[:, 2]).astype(np.int64)
    return X, y


# (n, k) with 1 <= k <= n <= 8
choice_sizes = st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n)))


class TestFeatureDraw:
    """`_FeatureDraw.choice` is `rng.choice(n, k, replace=False)` of the installed numpy."""

    @settings(deadline=None, max_examples=300)
    @given(
        seed=st.integers(0, 2**64 - 1),
        start=st.sampled_from(["fresh", "bootstrap", "half buffered"]),
        rows=st.integers(1, 200),
        sizes=st.lists(choice_sizes, max_size=20),
    )
    def test_same_draws_and_state_as_rng_choice(self, seed, start, rows, sizes):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for generator in (rng, reference):
            if start == "bootstrap":  # as a forest tree starts
                generator.integers(0, rows, size=rows)
            elif start == "half buffered":  # a 32-bit draw keeps the other half of its word
                generator.random(dtype=np.float32)
        draw = _FeatureDraw(rng)
        # the pick after the sequence starts from the half of a word it left buffered
        for n, k in [*sizes, (4, 2)]:
            assert draw.choice(n, k) == reference.choice(n, k, replace=False).tolist()

    def test_a_biased_product_is_rejected(self):
        # no seed reaches this in practice: the low half 0 times span 3 leaves
        # 0 in the low 32 bits, below (2**32 - 3) % 3 == 1, so Lemire's method
        # rejects it and multiplies the buffered high half instead
        high = 0x8000_0000
        # with no half left buffered, the next pick multiplies the next word's low half
        low = 0xC000_0000

        class Scripted:
            state = {"has_uint32": 0, "uinteger": 0}
            random_raw = iter([high << 32, 1 << 32 | low]).__next__

        rng = type("Rng", (), {"bit_generator": Scripted()})()
        draw = _FeatureDraw(rng)
        assert draw.choice(3, 1) == [high * 3 >> 32]
        assert draw.choice(3, 1) == [low * 3 >> 32]


class TestGrowAcrossTheSwitch:
    """`_grow_node` grows the tree, and draws the random stream, of the all-numpy grower.

    With a forest's `_FeatureDraw` it draws `FEATURE_SUBSET_SIZE`
    candidates per node, as the reference does; with None it takes all
    four, as the reference does when it draws four of four.
    """

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(2, 200),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
        criterion=st.sampled_from(CRITERIA),
        max_depth=st.integers(1, 12),
        forest_draws=st.booleans(),
    )
    def test_same_tree_as_numpy_grower(self, n, data_seed, seed, criterion, max_depth, forest_draws):
        X, y = tied_data(data_seed, n)
        reference_rng = np.random.default_rng(seed)
        draw = _FeatureDraw(np.random.default_rng(seed)) if forest_draws else None
        tree = _grow_node(X, y, 0, max_depth, draw, criterion)
        k = FEATURE_SUBSET_SIZE if forest_draws else X.shape[1]
        assert tree == numpy_grow(X, y, 0, max_depth, k, reference_rng, criterion)
        if forest_draws:  # and leaves the stream where the reference leaves it
            assert draw.choice(4, 2) == reference_rng.choice(4, 2, replace=False).tolist()

    def test_large_nodes_split_in_numpy_and_small_ones_in_python(self, monkeypatch):
        sizes = {"numpy": [], "python": []}

        def counted(name, scan):
            def wrapper(*args):
                # y for best_split, the row ids for best_split_small
                sizes[name].append(len(args[-3]))
                return scan(*args)
            return wrapper

        monkeypatch.setattr(training, "best_split", counted("numpy", best_split))
        monkeypatch.setattr(training, "best_split_small", counted("python", best_split_small))
        X, y = tied_data(3, 200)
        tree = _grow_node(X, y, 0, 12, None, "entropy")
        assert tree == numpy_grow(X, y, 0, 12, 4, np.random.default_rng(0), "entropy")
        assert sizes["numpy"] and min(sizes["numpy"]) > SMALL_NODE
        assert sizes["python"] and max(sizes["python"]) <= SMALL_NODE


class TestTrainTree:
    def test_separable_data_single_split(self):
        data = stack(example(10, 0, 1, 0.0, BOT, copies=5), example(10, 0, 50, 0.0, HUMAN, copies=5))
        tree = train_tree(data, max_depth=8)
        assert tree_depth(tree) == 1
        assert isinstance(tree, Split)

    def test_identical_features_mixed_labels_single_leaf(self):
        data = stack(example(10, 0, 5, 0.1, BOT, copies=3), example(10, 0, 5, 0.1, HUMAN, copies=7))
        tree = train_tree(data, max_depth=8)
        assert isinstance(tree, Leaf)
        assert tree.counts == (7, 3)

    def test_beats_majority_baseline_on_training_data(self):
        rng = np.random.default_rng(5)
        data = random_examples(rng, 40, separable=False)
        tree = train_tree(data, max_depth=8)
        X, y = data
        model = ForestModel(trees=[tree], max_depth=8, criterion="entropy", seed=0)
        accuracy = (predict_labels(model, X) == y).mean()
        majority = max(y.mean(), 1 - y.mean())
        assert accuracy >= majority

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(6)
        data = random_examples(rng, 200, separable=False)
        for depth in (1, 3, 8):
            tree = train_tree(data, max_depth=depth)
            assert tree_depth(tree) <= depth


class TestTrainForest:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        X, y = random_examples(rng, 60)
        first = train_forest(X, y, seed=123)
        second = train_forest(X, y, seed=123)
        assert model_to_json(first) == model_to_json(second)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(7)
        X, y = random_examples(rng, 60)
        assert model_to_json(train_forest(X, y, seed=1)) != model_to_json(
            train_forest(X, y, seed=2)
        )

    def test_single_class_rejected(self):
        X, y = example(10, 0, 1, 0.0, BOT, copies=10)
        with pytest.raises(SingleClassData):
            train_forest(X, y)

    @pytest.mark.parametrize("criterion", ["Gini", "log_loss", ""])
    def test_unknown_criterion_rejected(self, criterion):
        X, y = random_examples(np.random.default_rng(7), 20)
        with pytest.raises(ValueError, match="criterion"):
            train_forest(X, y, criterion=criterion)

    @pytest.mark.parametrize("n_estimators", [0, -1])
    def test_forest_without_trees_rejected(self, n_estimators):
        X, y = random_examples(np.random.default_rng(7), 20)
        with pytest.raises(ValueError, match="n_estimators"):
            train_forest(X, y, n_estimators=n_estimators)

    def test_holdout_f1_on_separable_data(self):
        rng = np.random.default_rng(8)
        X_all, y_all = random_examples(rng, 200)
        model = train_forest(X_all[:120], y_all[:120], seed=0)
        X, y = X_all[120:], y_all[120:]
        pred = predict_labels(model, X)
        tp = int(((pred == 1) & (y == 1)).sum())
        fp = int(((pred == 1) & (y == 0)).sum())
        fn = int(((pred == 0) & (y == 1)).sum())
        f1 = 2 * tp / (2 * tp + fp + fn)
        assert f1 >= 0.9

    def test_tree_count_and_depths(self):
        rng = np.random.default_rng(9)
        X, y = random_examples(rng, 80)
        model = train_forest(X, y, n_estimators=20, max_depth=8, seed=3)
        assert len(model.trees) == 20
        assert all(tree_depth(t) <= 8 for t in model.trees)

    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 2**32 - 1),
        criterion=st.sampled_from(CRITERIA),
        max_depth=st.integers(1, 12),
        sizes=st.tuples(st.integers(1, 12), st.integers(1, 12)).map(sorted),
    )
    def test_smaller_forest_is_a_prefix_of_a_larger_one(self, seed, criterion, max_depth, sizes):
        # cross_validate scores every n_estimators of a grid from one grown forest
        X, y = random_examples(np.random.default_rng(10), 50, separable=False)
        n, m = sizes

        def grow(n_estimators):
            return train_forest(
                X, y, n_estimators=n_estimators, max_depth=max_depth, seed=seed, criterion=criterion
            ).trees

        assert grow(n) == grow(m)[:n]


class TestPredict:
    def test_unanimous_vote(self):
        # every tree routes the vector to a bot leaf
        bot_tree = Split(feature=2, threshold=10.0, left=Leaf((0, 5)), right=Leaf((5, 0)))
        model = ForestModel(trees=[bot_tree] * 20, max_depth=8, criterion="entropy", seed=0)
        assert predict(model, FeatureVector(100, 0, 1, 0.0)) == BOT

    def test_tie_votes_resolve_to_human(self):
        bot_leaf = Leaf((0, 1))
        human_leaf = Leaf((1, 0))
        model = ForestModel(trees=[bot_leaf] * 10 + [human_leaf] * 10,
                            max_depth=8, criterion="entropy", seed=0)
        assert predict(model, FeatureVector(50, 0, 10, 0.3)) == HUMAN

    def test_prediction_invariant_under_tree_permutation(self):
        rng = np.random.default_rng(12)
        model = train_forest(*random_examples(rng, 60), seed=4)
        shuffled = ForestModel(
            trees=list(reversed(model.trees)),
            max_depth=model.max_depth,
            criterion=model.criterion,
            seed=model.seed,
        )
        for _ in range(50):
            fv = FeatureVector(
                int(rng.integers(10, 101)), int(rng.integers(0, 4)),
                int(rng.integers(1, 90)), float(rng.random()),
            )
            assert predict(model, fv) == predict(shuffled, fv)

    def test_leaf_tie_votes_human(self):
        assert Leaf((3, 3)).vote() == 0
        assert Leaf((2, 3)).vote() == 1


def numpy_bot_fraction(model, X):
    """The former numpy walk, kept as the reference: each tree routes all rows at once."""

    def tree_votes(node, X):
        out = np.empty(len(X), dtype=np.int64)
        stack = [(node, np.arange(len(X)))]
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

    votes = np.zeros(len(X), dtype=np.int64)
    for tree in model.trees:
        votes += tree_votes(tree, X)
    return votes / len(model.trees)


# thresholds at integers and midpoints, where drawn features land on ties
thresholds = st.one_of(
    st.integers(-1, 101).map(float),
    st.integers(-1, 201).map(lambda k: k / 2),
    st.floats(-1e9, 1e9),
)
leaves = st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(sum).map(Leaf)
trees = st.recursive(
    leaves,
    lambda children: st.builds(Split, st.integers(0, 3), thresholds, children, children),
    max_leaves=24,
)
forests = st.lists(trees, min_size=1, max_size=12).flatmap(
    lambda drawn: st.builds(
        ForestModel,
        trees=st.just(drawn),
        max_depth=st.integers(1, 20),
        criterion=st.sampled_from(CRITERIA),
        seed=st.integers(0, 2**63),
        # builds() draws every field of a NamedTuple, defaulted ones too
        feature_config=st.just(FeatureConfig()),
    )
)
feature_rows = st.tuples(
    st.integers(1, 100),
    st.integers(0, 100),
    st.integers(0, 100),
    st.one_of(st.integers(0, 2).map(lambda k: k / 2), st.floats(0.0, 1.0)),
)


def thresholds_of(node):
    if isinstance(node, Leaf):
        return []
    return [(node.feature, node.threshold), *thresholds_of(node.left), *thresholds_of(node.right)]


class TestBotFraction:
    """The per-row walk gives the former numpy walk's fractions, element for element."""

    def assert_matches_numpy_walk(self, model, rows):
        X = np.array(rows, dtype=np.float64)
        assert model.bot_fraction(rows) == numpy_bot_fraction(model, X).tolist()
        assert model.bot_fraction(X) == numpy_bot_fraction(model, X).tolist()

    @settings(deadline=None)
    @given(rows=st.lists(feature_rows, min_size=1, max_size=20))
    def test_shipped_model(self, rows):
        self.assert_matches_numpy_walk(load_model(SHIPPED_MODEL), rows)

    def test_shipped_model_on_its_own_thresholds(self):
        model = load_model(SHIPPED_MODEL)
        rows = []
        for feature, threshold in sorted({s for tree in model.trees for s in thresholds_of(tree)}):
            for value in (np.nextafter(threshold, -np.inf), threshold, np.nextafter(threshold, np.inf)):
                row = [50.0, 2.0, 20.0, 0.25]
                row[feature] = float(value)
                rows.append(row)
        self.assert_matches_numpy_walk(model, rows)

    @settings(deadline=None)
    @given(model=forests, rows=st.lists(feature_rows, min_size=1, max_size=20))
    def test_drawn_forests(self, model, rows):
        self.assert_matches_numpy_walk(model, rows)
