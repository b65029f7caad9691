import multiprocessing
import os
import signal
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gitbot import evaluation, training
from gitbot.baselines import train_knn, train_linear_svm, train_logistic, train_single_tree
from gitbot.errors import EmptyInput, SingleClassData
from gitbot.evaluation import (
    ConfusionCounts,
    FamilyResult,
    GridConfig,
    _stratified_folds,
    confusion_counts,
    cross_validate,
    evaluate_pretrained,
    report_from_counts,
    stratified_split,
    train_config,
)
from gitbot.features import FeatureVector
from gitbot.forest import BOT, CRITERIA, HUMAN, predict
from gitbot.training import deepest_draw, grow_tree, predict_labels, train_forest

from .test_forest import random_examples, tied_data


def class_labels(n_bots, n_humans):
    """Labels as `featurize` returns them (bot 1, human 0), in a shuffled order."""
    labels = np.array([1] * n_bots + [0] * n_humans, dtype=np.int64)
    return labels[np.random.default_rng(n_bots * 100 + n_humans).permutation(len(labels))]


class TestStratifiedSplit:
    @pytest.mark.parametrize("n_bots,n_humans", [(1, 1), (5, 5), (7, 20), (33, 4)])
    @pytest.mark.parametrize("fraction", [0.3, 0.6, 0.8])
    def test_disjoint_exhaustive_and_stratified(self, n_bots, n_humans, fraction):
        y = class_labels(n_bots, n_humans)
        n_train = int(fraction * n_bots + 0.5) + int(fraction * n_humans + 0.5)
        if n_train in (0, n_bots + n_humans):
            empty = "train" if n_train == 0 else "test"
            with pytest.raises(EmptyInput, match=f"leaves the {empty} part empty"):
                stratified_split(y, fraction, seed=3)
            return
        train, test = stratified_split(y, fraction, seed=3)
        assert not set(train.tolist()) & set(test.tolist())
        assert sorted(train.tolist() + test.tolist()) == list(range(len(y)))
        for label_id, n in ((1, n_bots), (0, n_humans)):
            assert np.count_nonzero(y[train] == label_id) == int(fraction * n + 0.5)
            assert np.count_nonzero(y[test] == label_id) == n - int(fraction * n + 0.5)

    def test_keeps_dataset_order(self):
        for part in stratified_split(class_labels(6, 9), 0.6, seed=0):
            assert part.dtype.kind == "i"
            assert part.tolist() == sorted(part.tolist())

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassData):
            stratified_split(class_labels(4, 0))


class TestStratifiedFolds:
    @pytest.mark.parametrize("n_bots,n_humans,k", [(5, 5, 5), (12, 30, 5), (9, 4, 3), (2, 2, 2)])
    def test_partition_with_both_classes_everywhere(self, n_bots, n_humans, k):
        y = np.random.default_rng(k).permutation([1] * n_bots + [0] * n_humans)
        folds = _stratified_folds(y, k, np.random.default_rng(0))
        assert len(folds) == k
        tests = np.concatenate([test for _, test in folds])
        assert sorted(tests.tolist()) == list(range(len(y)))
        for train, test in folds:
            assert sorted(train.tolist() + test.tolist()) == list(range(len(y)))
            assert set(y[train]) == {0, 1}
            assert set(y[test]) == {0, 1}

    def test_too_few_per_class_rejected(self):
        with pytest.raises(SingleClassData):
            _stratified_folds(np.array([1, 1, 0, 0, 0, 0]), 3, np.random.default_rng(0))

    @settings(deadline=None)
    @given(
        y=st.lists(st.integers(0, 1), min_size=4, max_size=80),
        k=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_robin_over_each_class_permutation(self, y, k, seed):
        # the reference: fold f takes every k-th member of each class's
        # permutation, starting at the f-th, bots drawn first
        y = np.array(y, dtype=np.int64)
        assume(min(int((y == 1).sum()), int((y == 0).sum())) >= k)
        rng = np.random.default_rng(seed)
        members = [[] for _ in range(k)]
        for label_id in (1, 0):
            shuffled = rng.permutation(np.nonzero(y == label_id)[0])
            for fold in range(k):
                members[fold].extend(shuffled[fold::k].tolist())
        folds = _stratified_folds(y, k, np.random.default_rng(seed))
        for (train, test), fold_members in zip(folds, members, strict=True):
            assert test.tolist() == sorted(fold_members)
            assert train.tolist() == sorted(set(range(len(y))) - set(fold_members))
            assert train.dtype == test.dtype == np.intp


counts = st.builds(ConfusionCounts, *[st.integers(0, 50)] * 4)


class TestReportFromCounts:
    @given(counts=counts)
    def test_metric_identities(self, counts):
        report = report_from_counts(counts)
        for metrics in (report.bot, report.human):
            p, r = metrics.precision, metrics.recall
            assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0
            assert metrics.f1 == (pytest.approx(2 * p * r / (p + r)) if p + r else 0.0)
        assert report.bot.support == counts.tp + counts.fn
        assert report.human.support == counts.fp + counts.tn
        total = counts.total
        for weighted, per_class in (
            (report.weighted_precision, "precision"),
            (report.weighted_recall, "recall"),
            (report.weighted_f1, "f1"),
        ):
            expected = (
                report.bot.support * getattr(report.bot, per_class)
                + report.human.support * getattr(report.human, per_class)
            ) / total if total else 0.0
            assert weighted == pytest.approx(expected)

    def test_zero_divisions_give_zero(self):
        report = report_from_counts(ConfusionCounts(tp=0, fn=0, fp=4, tn=6))
        assert (report.bot.precision, report.bot.recall, report.bot.f1) == (0.0, 0.0, 0.0)
        assert report.bot.support == 0
        empty = report_from_counts(ConfusionCounts(0, 0, 0, 0))
        assert empty.weighted_f1 == 0.0 and empty.human.f1 == 0.0


GRID = [
    GridConfig("random forest", "forest(a)", {"n_estimators": 5, "max_depth": 3}),
    GridConfig("random forest", "forest(b)", {"n_estimators": 5, "max_depth": 1}),
    GridConfig("decision tree", "tree(a)", {"max_depth": 1}),
    GridConfig("decision tree", "tree(b)", {"max_depth": 4}),
    GridConfig("k-nearest neighbours", "knn(a)", {"k": 1}),
    GridConfig("k-nearest neighbours", "knn(b)", {"k": 7}),
    GridConfig("logistic regression", "logistic(a)", {"l2": 1e-2}),
    GridConfig("logistic regression", "logistic(b)", {"l2": 1e3}),
    GridConfig("support vector machine", "svm(a)", {"l2": 1e-1}),
]


def sort_key(row):
    return (-row.f1, -row.precision, row.config.name)


class TestCrossValidate:
    def test_best_row_per_family_ordered_by_f1_precision_name(self):
        data = random_examples(np.random.default_rng(21), 60, separable=False)
        rows = cross_validate(*data, GRID, k_folds=3, seed=1)
        families = [row.config.family for row in rows]
        assert sorted(families) == sorted({c.family for c in GRID})
        assert [sort_key(r) for r in rows] == sorted(sort_key(r) for r in rows)
        for row in rows:
            alone = [
                cross_validate(*data, [c], k_folds=3, seed=1)[0]
                for c in GRID
                if c.family == row.config.family
            ]
            assert row == min(alone, key=sort_key)


class TestEvaluatePretrained:
    @pytest.fixture(scope="class")
    def model(self):
        return train_forest(*random_examples(np.random.default_rng(8), 30), n_estimators=3)

    def test_empty_dataset_rejected(self, model):
        with pytest.raises(EmptyInput, match="no corpus to evaluate"):
            evaluate_pretrained(model, np.empty((0, 4)), np.empty(0, dtype=np.int64))

    def test_counts_are_the_per_row_predictions(self, model):
        X, y = random_examples(np.random.default_rng(9), 40, separable=False)
        report = evaluate_pretrained(model, X, y)
        predicted = [predict(model, FeatureVector(*row)) for row in X.tolist()]
        actual = [BOT if label == 1 else HUMAN for label in y.tolist()]
        pairs = list(zip(predicted, actual))
        assert report.confusion == ConfusionCounts(
            tp=pairs.count((BOT, BOT)),
            fn=pairs.count((HUMAN, BOT)),
            fp=pairs.count((BOT, HUMAN)),
            tn=pairs.count((HUMAN, HUMAN)),
        )
        assert report.model_descriptor == "ForestModel(criterion=entropy, estimators=3, depth=8, seed=0)"


PREFIX_GRID = [
    GridConfig("random forest", "forest(gini,3,small)", {"criterion": "gini", "max_depth": 3, "n_estimators": 4}),
    GridConfig("random forest", "forest(gini,3,large)", {"criterion": "gini", "max_depth": 3, "n_estimators": 9}),
    GridConfig("random forest", "forest(entropy,3)", {"criterion": "entropy", "max_depth": 3, "n_estimators": 5}),
    GridConfig("random forest", "forest(defaults)", {}),
    GridConfig("random forest", "forest(defaults,small)", {"n_estimators": 6}),
    GridConfig("decision tree", "tree(a)", {"max_depth": 2}),
    GridConfig("support vector machine", "svm(a)", {"l2": 1e-2}),
]


def table_fitting_every_config(data, grid, k_folds, seed):
    """The best row per family, from one `train_config` fit per (configuration, fold)."""
    X, y = data
    folds = _stratified_folds(y, k_folds, np.random.default_rng(seed))
    best = {}
    for config in grid:
        reports = []
        for train_idx, test_idx in folds:
            model = train_config(config, X[train_idx], y[train_idx], seed=seed)
            predicted = predict_labels(model, X[test_idx])
            reports.append(report_from_counts(confusion_counts(predicted, y[test_idx])))

        def mean(metric):
            return float(np.mean([metric(r) for r in reports]))

        row = FamilyResult(
            config=config,
            p_bot=mean(lambda r: r.bot.precision),
            r_bot=mean(lambda r: r.bot.recall),
            p_human=mean(lambda r: r.human.precision),
            r_human=mean(lambda r: r.human.recall),
            precision=mean(lambda r: r.weighted_precision),
            recall=mean(lambda r: r.weighted_recall),
            f1=mean(lambda r: r.weighted_f1),
        )
        if config.family not in best or sort_key(row) < sort_key(best[config.family]):
            best[config.family] = row
    return sorted(best.values(), key=sort_key)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forest_prefixes_score_like_separate_fits(seed):
    # two forests share (criterion, depth) at different sizes, a third differs
    # from them only in criterion, and two take train_forest's defaults for
    # what they omit: each pair is one grown forest
    data = random_examples(np.random.default_rng(30 + seed), 45, separable=False)
    rows = cross_validate(*data, PREFIX_GRID, k_folds=3, seed=seed)
    assert rows == table_fitting_every_config(data, PREFIX_GRID, 3, seed)


CAPPED_LOGISTIC = GridConfig("logistic regression", "logistic(capped)", {"l2": 1.0, "max_iter": 3})
ONE_CPU, THREE_CPUS = {0}, {0, 1, 2}


def cpus(monkeypatch, available):
    """Make `cross_validate` see `available` as the CPUs it may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(available))


DEPTH_GRID = [
    GridConfig("random forest", "forest(depth=02)", {"max_depth": 2, "n_estimators": 8}),
    GridConfig("random forest", "forest(depth=04,small)", {"max_depth": 4, "n_estimators": 3}),
    GridConfig("random forest", "forest(depth=04)", {"max_depth": 4, "n_estimators": 8}),
    GridConfig("random forest", "forest(default depth)", {"n_estimators": 5}),
    GridConfig("random forest", "forest(depth=12)", {"max_depth": 12, "n_estimators": 8}),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forest_depths_score_like_separate_fits(monkeypatch, seed):
    # forests that differ only in depth, one of them by omitting it: one group,
    # grown at depth 12; of its trees at depths 2, 4 and 8, some are the deep
    # trees and some are grown again
    cpus(monkeypatch, ONE_CPU)  # so that the regrowths are counted here
    regrown = []

    def counted(X, y, tree_seed, max_depth, criterion):
        regrown.append(max_depth)
        return grow_tree(X, y, tree_seed, max_depth, criterion)

    monkeypatch.setattr(evaluation, "grow_tree", counted)
    data = random_examples(np.random.default_rng(50 + seed), 45, separable=False)
    rows = cross_validate(*data, DEPTH_GRID, k_folds=3, seed=seed)
    assert rows == table_fitting_every_config(data, DEPTH_GRID, 3, seed)
    assert 0 < len(regrown) < 3 * 3 * 8  # of 3 folds x 3 shallower depths x 8 trees

    # every member, not only the best row, scores as its own fit
    X, y = data
    folds = _stratified_folds(y, 3, np.random.default_rng(seed))
    search = evaluation._Search(X, y, folds, DEPTH_GRID, seed)
    (group,) = evaluation._forest_groups(DEPTH_GRID)
    for fold, (train_idx, test_idx) in enumerate(folds):
        for position, metrics in evaluation._score_group(search, fold, group):
            model = train_config(DEPTH_GRID[position], X[train_idx], y[train_idx], seed=seed)
            predicted = predict_labels(model, X[test_idx])
            assert metrics == evaluation._fold_metrics(predicted, y[test_idx])


def drawing_depths(X, y, tree_seed, max_depth, criterion):
    """The depth of every node at which growing the tree drew candidates, seen from the grower."""
    depths = []
    candidates = training._candidates

    def recorded(n_features, draw):
        if draw is not None:
            depths.append(sys._getframe(1).f_locals["depth"])
        return candidates(n_features, draw)

    training._candidates = recorded
    try:
        tree = grow_tree(X, y, tree_seed, max_depth, criterion)
    finally:
        training._candidates = candidates
    return tree, depths


@settings(deadline=None, max_examples=80)
@given(
    n=st.integers(2, 150),
    data_seed=st.integers(0, 2**32 - 1),
    tree_seed=st.integers(0, 2**32 - 1),
    criterion=st.sampled_from(CRITERIA),
    deepest=st.integers(1, 12),
)
def test_a_tree_that_drew_nothing_from_depth_d_down_is_the_tree_grown_to_d(
    n, data_seed, tree_seed, criterion, deepest
):
    X, y = tied_data(data_seed, n)
    deep, depths = drawing_depths(X, y, tree_seed, deepest, criterion)
    drawn = deepest_draw(deep, deepest)
    assert drawn == max(depths, default=-1)
    for limit in range(drawn + 1, deepest):
        assert grow_tree(X, y, tree_seed, limit, criterion) == deep


@pytest.mark.parametrize("available", [ONE_CPU, THREE_CPUS], ids=["in-process", "pool"])
def test_a_tasks_warnings_are_emitted_again_with_their_origin(monkeypatch, available):
    cpus(monkeypatch, available)
    data = random_examples(np.random.default_rng(12), 30, separable=False)
    with pytest.warns(UserWarning, match="hit the iteration cap") as caught:
        cross_validate(*data, [CAPPED_LOGISTIC, GRID[0]], k_folds=3, seed=0)
    assert {os.path.basename(w.filename) for w in caught} == {"baselines.py"}
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("available", [ONE_CPU, THREE_CPUS], ids=["in-process", "pool"])
def test_a_tasks_exception_reaches_the_caller_with_its_type(monkeypatch, available):
    cpus(monkeypatch, available)
    data = random_examples(np.random.default_rng(13), 30, separable=False)
    grid = [*GRID[:3], GridConfig("perceptron", "perceptron(a)", {})]
    with pytest.raises(ValueError, match="unknown classifier family 'perceptron'"):
        cross_validate(*data, grid, k_folds=3, seed=0)
    assert not multiprocessing.active_children()


def test_a_worker_that_dies_fails_the_search_instead_of_hanging(monkeypatch):
    cpus(monkeypatch, THREE_CPUS)
    caller, original = os.getpid(), evaluation.train_config

    def killed_in_a_worker(*args, **kwargs):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(*args, **kwargs)

    monkeypatch.setattr(evaluation, "train_config", killed_in_a_worker)
    data = random_examples(np.random.default_rng(14), 30, separable=False)
    with pytest.raises(BrokenProcessPool):
        cross_validate(*data, GRID, k_folds=3, seed=0)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_cpu_and_the_pool_give_the_same_rows_and_warnings(monkeypatch, seed):
    # forest prefix groups, a kNN k above the smallest training fold (left
    # out) and a fit that warns: the pool must match the in-process run
    grid = [*PREFIX_GRID, *GRID[4:6], GridConfig("k-nearest neighbours", "knn(c)", {"k": 40}),
            GridConfig("logistic regression", "logistic(one step)", {"max_iter": 1})]
    data = random_examples(np.random.default_rng(40 + seed), 45, separable=False)
    runs = []
    for available in (ONE_CPU, THREE_CPUS):
        cpus(monkeypatch, available)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = cross_validate(*data, grid, k_folds=3, seed=seed)
        assert not multiprocessing.active_children()
        runs.append((rows, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == 3  # the one-step fit warns on every fold


TRAINERS = [
    lambda X, y: train_forest(X, y, n_estimators=7, max_depth=4, seed=5),
    lambda X, y: train_single_tree(X, y, max_depth=3),
    lambda X, y: train_knn(X, y, k=4),
    train_logistic,
    lambda X, y: train_linear_svm(X, y, l2=0.1),
]


@pytest.fixture(scope="module")
def models():
    data = random_examples(np.random.default_rng(4), 50, separable=False)
    return [train(*data) for train in TRAINERS]


vectors = st.builds(
    FeatureVector,
    st.integers(1, 100),
    st.integers(0, 10),
    st.integers(0, 100),
    st.floats(0.0, 1.0),
)


@settings(deadline=None)
@given(fv=vectors)
def test_every_model_obeys_one_contract(models, fv):
    X = np.array([fv.as_row()], dtype=np.float64)
    for model in models:
        f = float(model.bot_fraction(X)[0])
        label = predict(model, fv)
        assert label == (BOT if predict_labels(model, X)[0] == 1 else HUMAN)
        assert label == (BOT if f > 0.5 else HUMAN)  # ties go to human
