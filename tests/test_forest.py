import numpy as np
import pytest

from gitbot.errors import SingleClassData
from gitbot.features import FeatureVector
from gitbot.forest import (
    BOT,
    HUMAN,
    UNKNOWN,
    ForestModel,
    LabeledExample,
    Leaf,
    Split,
    best_split,
    entropy,
    predict,
    predict_labels,
    train_forest,
    train_tree,
    tree_depth,
)
from gitbot.model_io import model_to_json


def example(n_messages, n_empty, n_patterns, gini, label):
    return LabeledExample(FeatureVector(n_messages, n_empty, n_patterns, gini), label)


def random_examples(rng, n, separable=True):
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
    return out


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


class TestBestSplit:
    def test_gain_positive_and_bounded_by_parent_entropy(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            X = rng.random((30, 4))
            y = rng.integers(0, 2, size=30)
            if len(np.unique(y)) < 2:
                continue
            found = best_split(X, y, range(4))
            if found is None:
                continue
            _, _, gain = found
            parent = entropy((int((y == 0).sum()), int((y == 1).sum())))
            assert 0.0 < gain <= parent + 1e-12

    def test_no_split_on_constant_features(self):
        X = np.ones((10, 4))
        y = np.array([0, 1] * 5)
        assert best_split(X, y, range(4)) is None

    def test_picks_the_separating_feature(self):
        X = np.zeros((8, 4))
        X[:, 2] = [0, 0, 0, 0, 5, 5, 5, 5]
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        feature, threshold, gain = best_split(X, y, range(4))
        assert feature == 2
        assert threshold == 2.5
        assert gain == pytest.approx(1.0)


class TestTrainTree:
    def test_separable_data_single_split(self):
        data = [example(10, 0, 1, 0.0, BOT)] * 5 + [example(10, 0, 50, 0.0, HUMAN)] * 5
        tree = train_tree(data, max_depth=8, feature_subset_size=4,
                          rng=np.random.default_rng(0))
        assert tree_depth(tree) == 1
        assert isinstance(tree, Split)

    def test_identical_features_mixed_labels_single_leaf(self):
        data = [example(10, 0, 5, 0.1, BOT)] * 3 + [example(10, 0, 5, 0.1, HUMAN)] * 7
        tree = train_tree(data, max_depth=8, feature_subset_size=4,
                          rng=np.random.default_rng(0))
        assert isinstance(tree, Leaf)
        assert tree.counts == (7, 3)

    def test_beats_majority_baseline_on_training_data(self):
        rng = np.random.default_rng(5)
        data = random_examples(rng, 40, separable=False)
        tree = train_tree(data, max_depth=8, feature_subset_size=4,
                          rng=np.random.default_rng(0))
        X = np.array([ex.features.as_array() for ex in data])
        y = np.array([1 if ex.label == BOT else 0 for ex in data])
        model = ForestModel(trees=[tree], n_estimators=1, max_depth=8,
                            criterion="entropy", seed=0)
        accuracy = (predict_labels(model, X) == y).mean()
        majority = max(y.mean(), 1 - y.mean())
        assert accuracy >= majority

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(6)
        data = random_examples(rng, 200, separable=False)
        for depth in (1, 3, 8):
            tree = train_tree(data, max_depth=depth, feature_subset_size=4,
                              rng=np.random.default_rng(0))
            assert tree_depth(tree) <= depth


class TestTrainForest:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        data = random_examples(rng, 60)
        first = train_forest(data, seed=123)
        second = train_forest(data, seed=123)
        assert model_to_json(first) == model_to_json(second)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(7)
        data = random_examples(rng, 60)
        assert model_to_json(train_forest(data, seed=1)) != model_to_json(
            train_forest(data, seed=2)
        )

    def test_single_class_rejected(self):
        data = [example(10, 0, 1, 0.0, BOT)] * 10
        with pytest.raises(SingleClassData):
            train_forest(data)

    def test_holdout_f1_on_separable_data(self):
        rng = np.random.default_rng(8)
        data = random_examples(rng, 200)
        train, holdout = data[:120], data[120:]
        model = train_forest(train, seed=0)
        X = np.array([ex.features.as_array() for ex in holdout])
        y = np.array([1 if ex.label == BOT else 0 for ex in holdout])
        pred = predict_labels(model, X)
        tp = int(((pred == 1) & (y == 1)).sum())
        fp = int(((pred == 1) & (y == 0)).sum())
        fn = int(((pred == 0) & (y == 1)).sum())
        f1 = 2 * tp / (2 * tp + fp + fn)
        assert f1 >= 0.9

    def test_tree_count_and_depths(self):
        rng = np.random.default_rng(9)
        data = random_examples(rng, 80)
        model = train_forest(data, n_estimators=20, max_depth=8, seed=3)
        assert len(model.trees) == 20
        assert all(tree_depth(t) <= 8 for t in model.trees)


class TestPredict:
    def test_insufficient_features_unknown(self):
        rng = np.random.default_rng(10)
        model = train_forest(random_examples(rng, 40), seed=0)
        prediction = predict(model, None)
        assert prediction.label == UNKNOWN
        assert prediction.confidence == 0.0

    def test_unanimous_vote(self):
        # every tree routes the vector to a bot leaf
        bot_tree = Split(feature=2, threshold=10.0, left=Leaf((0, 5)), right=Leaf((5, 0)))
        model = ForestModel(trees=[bot_tree] * 20, n_estimators=20, max_depth=8,
                            criterion="entropy", seed=0)
        prediction = predict(model, FeatureVector(100, 0, 1, 0.0))
        assert prediction.label == BOT
        assert prediction.confidence == 1.0

    def test_tie_votes_resolve_to_human(self):
        bot_leaf = Leaf((0, 1))
        human_leaf = Leaf((1, 0))
        model = ForestModel(trees=[bot_leaf] * 10 + [human_leaf] * 10,
                            n_estimators=20, max_depth=8, criterion="entropy", seed=0)
        prediction = predict(model, FeatureVector(50, 0, 10, 0.3))
        assert prediction.label == HUMAN
        assert prediction.confidence == 0.5

    def test_prediction_invariant_under_tree_permutation(self):
        rng = np.random.default_rng(12)
        model = train_forest(random_examples(rng, 60), seed=4)
        shuffled = ForestModel(
            trees=list(reversed(model.trees)),
            n_estimators=model.n_estimators,
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
