import os
import signal
import warnings
from collections import Counter

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
from gitbot.training import SMALL_NODE, _FeatureDraw, _grow_node, predict_labels, train_forest

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
        folds = _stratified_folds(y, k, 0)
        assert len(folds) == k
        tests = np.concatenate([test for _, test in folds])
        assert sorted(tests.tolist()) == list(range(len(y)))
        for train, test in folds:
            assert sorted(train.tolist() + test.tolist()) == list(range(len(y)))
            assert set(y[train]) == {0, 1}
            assert set(y[test]) == {0, 1}

    def test_too_few_per_class_rejected(self):
        with pytest.raises(SingleClassData):
            _stratified_folds(np.array([1, 1, 0, 0, 0, 0]), 3, 0)

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
        folds = _stratified_folds(y, k, seed)
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
        total = sum(counts)
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
    GridConfig("random forest", "forest(a)", {"criterion": "entropy", "n_estimators": 5, "max_depth": 3}),
    GridConfig("random forest", "forest(b)", {"criterion": "entropy", "n_estimators": 5, "max_depth": 1}),
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
    GridConfig("random forest", "forest(entropy,8)", {"criterion": "entropy", "max_depth": 8, "n_estimators": 20}),
    GridConfig("random forest", "forest(entropy,8,small)", {"criterion": "entropy", "max_depth": 8, "n_estimators": 6}),
    GridConfig("decision tree", "tree(a)", {"max_depth": 2}),
    GridConfig("support vector machine", "svm(a)", {"l2": 1e-2}),
]


def table_fitting_every_config(data, grid, k_folds, seed):
    """The best row per family, from one `train_config` fit per (configuration, fold)."""
    X, y = data
    folds = _stratified_folds(y, k_folds, seed)
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
    # from them only in criterion, and two more share another depth: each
    # pair is one grown forest
    data = random_examples(np.random.default_rng(30 + seed), 45, separable=False)
    rows = cross_validate(*data, PREFIX_GRID, k_folds=3, seed=seed)
    assert rows == table_fitting_every_config(data, PREFIX_GRID, 3, seed)


CAPPED_LOGISTIC = GridConfig("logistic regression", "logistic(capped)", {"l2": 1.0, "max_iter": 3})
ONE_CPU, THREE_CPUS = {0}, {0, 1, 2}


def cpus(monkeypatch, available):
    """Make `cross_validate` see `available` as the CPUs it may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(available))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


DEPTH_GRID = [
    GridConfig("random forest", f"forest(depth={depth:02d}{suffix})",
               {"criterion": "entropy", "max_depth": depth, "n_estimators": n})
    for depth, n, suffix in ((2, 8, ""), (4, 3, ",small"), (4, 8, ""), (8, 5, ""), (12, 8, ""))
]


def assert_every_member_scores_as_its_own_fit(X, y, grid, k_folds, seed):
    """Every member of every group, not only each family's best row, on every fold.

    The labels that the member's family in `_FAMILIES` gives, and the
    metrics that its task scores, are those of its own `train_config` fit.
    """
    folds = _stratified_folds(y, k_folds, seed)
    rows = [evaluation._Fold(X[tr], y[tr], X[te], y[te].tolist()) for tr, te in folds]
    search = evaluation._Search(rows, grid, seed)
    checked = 0
    for family, params, members in evaluation._groups(grid):
        labels_of = evaluation._FAMILIES[family][0]
        for fold, (train_idx, test_idx) in enumerate(folds):
            labels = labels_of(search, rows[fold], params, members)
            scored, _ = evaluation._run_task(search, (family, fold, (params, members)))
            for (position, *_), member_labels, (scored_position, metrics) in zip(
                members, labels, scored, strict=True
            ):
                model = train_config(grid[position], X[train_idx], y[train_idx], seed=seed)
                predicted = predict_labels(model, X[test_idx])
                assert np.asarray(member_labels, dtype=np.int64).tolist() == predicted.tolist()
                assert scored_position == position
                assert metrics == evaluation._fold_metrics(predicted, y[test_idx])
                checked += 1
    assert checked == len(grid) * k_folds


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forest_depths_score_like_separate_fits(monkeypatch, seed):
    # forests that differ only in depth and size: one group, grown at depth
    # 12; of its trees at depths 2, 4 and 8, some are the deep trees and
    # some are grown again from the deep growth's record. The 200 rows
    # make training folds of about 134 rows, so nodes search on both
    # sides of SMALL_NODE
    cpus(monkeypatch, ONE_CPU)  # so that the regrown trees are counted here
    regrown = []
    grow_tree_depths = training.grow_tree_depths

    def counted(X, y, seed, tree, limits, criterion):
        trees = grow_tree_depths(X, y, seed, tree, limits, criterion)
        deep = trees[max(limits)]
        regrown.extend(limit for limit, tree in trees.items() if tree is not deep)
        return trees

    monkeypatch.setattr(evaluation, "grow_tree_depths", counted)
    for n in (45, 200):
        regrown.clear()
        data = random_examples(np.random.default_rng(50 + seed), n, separable=False)
        rows = cross_validate(*data, DEPTH_GRID, k_folds=3, seed=seed)
        assert rows == table_fitting_every_config(data, DEPTH_GRID, 3, seed)
        assert 0 < len(regrown) < 3 * 3 * 8  # of 3 folds x 3 shallower depths x 8 trees

        assert_every_member_scores_as_its_own_fit(*data, DEPTH_GRID, 3, seed)


SIZED_GRID = [
    *(GridConfig("decision tree", f"tree(depth={d:02d})", {"max_depth": d}) for d in range(1, 11)),
    GridConfig("decision tree", "tree(depth=08,again)", {"max_depth": 8}),
    *(GridConfig("k-nearest neighbours", f"knn(k={k:02d})", {"k": k}) for k in (1, 2, 3, 5, 8, 11)),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tree_depths_and_knn_ks_score_like_separate_fits(seed):
    # tied feature rows: many equal distances and equal split values. Each
    # family is one group, fitted once per fold, and every member, not only
    # the best row, must score as its own fit
    X, y = tied_data(60 + seed, 60)
    rows = cross_validate(X, y, SIZED_GRID, k_folds=3, seed=seed)
    assert rows == table_fitting_every_config((X, y), SIZED_GRID, 3, seed)
    assert_every_member_scores_as_its_own_fit(X, y, SIZED_GRID, 3, seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_every_default_configuration_scores_like_its_own_fit(seed):
    # all 51: forest prefixes and depths, cut trees, one kNN order, and the
    # logistic and SVM groups whose members differ in l2, on tied rows
    X, y = tied_data(80 + seed, 60)
    grid = evaluation.default_grid()
    assert len(grid) == 51
    assert_every_member_scores_as_its_own_fit(X, y, grid, 3, seed)


# (the parameter the family does not take, a configuration that spells it)
STRAY_PARAMETERS = [
    ("seed", GridConfig("random forest", "forest(seeded)",
                        {"criterion": "entropy", "n_estimators": 5, "max_depth": 3, "seed": 3})),
    ("max_dept", GridConfig("random forest", "forest(typo)",
                            {"criterion": "entropy", "n_estimators": 5, "max_depth": 3, "max_dept": 4})),
    ("max_dept", GridConfig("decision tree", "tree(typo)", {"max_depth": 3, "max_dept": 4})),
    ("max_dept", GridConfig("k-nearest neighbours", "knn(typo)", {"k": 3, "max_dept": 4})),
    ("max_dept", GridConfig("logistic regression", "logistic(typo)", {"l2": 1.0, "max_dept": 4})),
    ("max_dept", GridConfig("support vector machine", "svm(typo)", {"l2": 1.0, "max_dept": 4})),
]


def test_a_parameter_the_trainer_does_not_take_is_rejected(monkeypatch):
    # a misspelled parameter, or a forest's seed, which is the search's, fails
    # at the call that would receive it, in the task, whichever process runs it
    data = random_examples(np.random.default_rng(15), 30)
    for available in (ONE_CPU, THREE_CPUS):
        cpus(monkeypatch, available)
        for stray, config in STRAY_PARAMETERS:
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{stray}'"):
                cross_validate(*data, [*GRID[2:4], config], k_folds=3)
            assert_no_child_left()


def no_fork():
    raise AssertionError("forked")


@pytest.mark.parametrize("config,size", [
    (GridConfig("random forest", "forest(no depth)", {"criterion": "entropy", "n_estimators": 5}),
     "max_depth"),
    (GridConfig("random forest", "forest(no size)", {"criterion": "gini", "max_depth": 3}),
     "n_estimators"),
    (GridConfig("decision tree", "tree(no depth)", {}), "max_depth"),
    (GridConfig("k-nearest neighbours", "knn(no k)", {}), "k"),
    (GridConfig("logistic regression", "logistic(no l2)", {"max_iter": 3}), "l2"),
    (GridConfig("support vector machine", "svm(no l2)", {}), "l2"),
], ids=lambda value: value.name if isinstance(value, GridConfig) else None)
def test_an_omitted_size_is_rejected_before_any_fork(monkeypatch, config, size):
    cpus(monkeypatch, THREE_CPUS)
    monkeypatch.setattr(os, "fork", no_fork)
    data = random_examples(np.random.default_rng(16), 30, separable=False)
    with pytest.raises(KeyError, match=f"^'{size}'$"):
        cross_validate(*data, [*GRID, config], k_folds=3, seed=0)


def test_a_knn_configuration_is_left_out_when_its_k_exceeds_a_training_fold():
    # three bots and three humans in three folds: every training fold holds 4
    X = np.array([[10.0, 0.0, p, 0.1] for p in (1, 2, 3, 40, 50, 60)])
    y = np.array([1, 1, 1, 0, 0, 0])
    five = GridConfig("k-nearest neighbours", "knn(k=05)", {"k": 5})
    rows = cross_validate(X, y, [five, GRID[2]], k_folds=3, seed=0)
    assert [row.config for row in rows] == [GRID[2]]
    four = five._replace(params={"k": 4})
    assert {row.config.family for row in cross_validate(X, y, [four, GRID[2]], k_folds=3)} == {
        "k-nearest neighbours", "decision tree"}


def test_the_default_grid_is_six_groups_that_rebuild_every_configuration():
    grid = evaluation.default_grid()
    groups = evaluation._groups(grid)
    shapes = [(family, params.get("criterion"), len(members)) for family, params, members in groups]
    assert shapes == [
        ("logistic regression", None, 9),
        ("support vector machine", None, 9),
        ("random forest", "entropy", 9),
        ("random forest", "gini", 9),
        ("decision tree", None, 9),
        ("k-nearest neighbours", None, 6),
    ]
    # a member's shared parameters and its sizes are its configuration's parameters
    rebuilt = {}
    for family, params, members in groups:
        names = evaluation._FAMILIES[family][1]
        for position, *sizes in members:
            rebuilt[position] = {**params, **dict(zip(names, sizes, strict=True))}
    assert sorted(rebuilt) == list(range(51))
    assert all(rebuilt[position] == config.params for position, config in enumerate(grid))


def grown_to(X, y, tree_seed, limit, criterion):
    """A forest tree grown directly to `limit`: its bootstrap sample, then `_grow_node`."""
    rng = np.random.default_rng(tree_seed)
    idx = rng.integers(0, len(y), size=len(y))
    return _grow_node(X[idx], y[idx], 0, limit, _FeatureDraw(rng), criterion)


def spawned(seed, n):
    """The first n trees' seeds of a forest with this seed: its `SeedSequence`'s children."""
    return np.random.SeedSequence(seed).spawn(n)


@settings(deadline=None, max_examples=80)
@given(
    n=st.integers(2, 150),
    data_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**64 - 1),
    index=st.integers(0, 60),
    criterion=st.sampled_from(CRITERIA),
    limits=st.sets(st.integers(0, 12), min_size=1),
)
def test_a_tree_resumed_at_a_shallower_limit_is_the_tree_grown_to_it(
    n, data_seed, seed, index, criterion, limits
):
    X, y = tied_data(data_seed, n)
    trees = training.grow_tree_depths(X, y, seed, index, sorted(limits), criterion)
    assert sorted(trees) == sorted(limits)
    tree_seed = spawned(seed, index + 1)[index]
    for limit, tree in trees.items():
        assert tree == grown_to(X, y, tree_seed, limit, criterion)
    if 0 < int(y.sum()) < n:  # a forest needs both classes
        # tree `index` of a forest is keyed by (seed, index), whatever its size
        forest = train_forest(X, y, index + 1, max(limits), seed, criterion)
        assert forest.trees[index] == trees[max(limits)]


def count_work(monkeypatch):
    """The rows of each split search, by path, and the number of draws, from now on."""
    work = {"numpy": [], "python": [], "draws": 0}

    def searched(path, scan):
        def wrapper(*args):
            work[path].append(len(args[-3]))  # y for best_split, the row ids for best_split_small
            return scan(*args)
        return wrapper

    def drawn(draw, n, k):
        work["draws"] += 1
        return choice(draw, n, k)

    choice = _FeatureDraw.choice
    monkeypatch.setattr(training, "best_split", searched("numpy", training.best_split))
    monkeypatch.setattr(training, "best_split_small", searched("python", training.best_split_small))
    monkeypatch.setattr(_FeatureDraw, "choice", drawn)
    return work


def test_trees_resume_on_the_numpy_path_and_in_python(monkeypatch):
    # the shallower trees' own searches, past those of the deep growth
    # alone, run on both sides of SMALL_NODE
    X, y = tied_data(5, 150)
    work = count_work(monkeypatch)
    for tree in range(4):
        training.grow_tree_depths(X, y, 0, tree, [12], "entropy")
    deep = {path: Counter(work[path]) for path in ("numpy", "python")}
    for path in deep:
        work[path].clear()
    all_trees = [training.grow_tree_depths(X, y, 0, tree, list(range(13)), "entropy")
                 for tree in range(4)]
    regrown = {path: Counter(work[path]) - deep[path] for path in deep}
    assert max(regrown["numpy"]) > SMALL_NODE >= max(regrown["python"])
    for tree_seed, trees in zip(spawned(0, 4), all_trees, strict=True):
        for limit, tree in trees.items():
            assert tree == grown_to(X, y, tree_seed, limit, "entropy")


def fresh_searches(monkeypatch, X, y, tree_seed, limit):
    """The (depth, path) of each split search, in preorder, of the tree grown afresh to limit."""
    searches = []
    split = training._split

    def recorded(search, data, n_features, draw, depth, criterion):
        searches.append((depth, "numpy" if search is training.best_split else "python"))
        return split(search, data, n_features, draw, depth, criterion)

    with monkeypatch.context() as patch:
        patch.setattr(training, "_split", recorded)
        grown_to(X, y, tree_seed, limit, "entropy")
    return searches


def test_regrowth_does_no_extra_work(monkeypatch):
    # the searches are D's and, in each shallower tree, those after its
    # first leaf at its limit, where its picks part from D's: a node
    # before that leaf takes D's recorded split. A pick that D drew is
    # read, not drawn again, so no search draws more than once
    X, y = tied_data(5, 150)
    expected = Counter()
    for tree_seed in spawned(0, 4):
        deep = fresh_searches(monkeypatch, X, y, tree_seed, 12)
        expected.update(path for _, path in deep)
        for limit in range(12):
            at_limit = [i for i, (depth, _) in enumerate(deep) if depth == limit]
            if at_limit:  # else the tree at this limit is D's, and nothing is searched
                shallow = fresh_searches(monkeypatch, X, y, tree_seed, limit)
                expected.update(path for _, path in shallow[at_limit[0]:])
    work = count_work(monkeypatch)
    for tree in range(4):
        training.grow_tree_depths(X, y, 0, tree, list(range(13)), "entropy")
    assert (len(work["numpy"]), len(work["python"])) == (expected["numpy"], expected["python"])
    assert work["draws"] <= expected.total()


@pytest.mark.parametrize("available", [ONE_CPU, THREE_CPUS], ids=["in-process", "pool"])
def test_a_tasks_warnings_are_emitted_again_with_their_origin(monkeypatch, available):
    cpus(monkeypatch, available)
    data = random_examples(np.random.default_rng(12), 30, separable=False)
    with pytest.warns(UserWarning, match="hit the iteration cap") as caught:
        cross_validate(*data, [CAPPED_LOGISTIC, GRID[0]], k_folds=3, seed=0)
    assert {os.path.basename(w.filename) for w in caught} == {"baselines.py"}
    assert_no_child_left()


@pytest.mark.parametrize("available", [ONE_CPU, THREE_CPUS], ids=["in-process", "pool"])
def test_a_tasks_exception_reaches_the_caller_with_its_type(monkeypatch, available):
    cpus(monkeypatch, available)
    data = random_examples(np.random.default_rng(13), 30, separable=False)
    bad = {"criterion": "gimi", "n_estimators": 5, "max_depth": 3}
    grid = [*GRID[:3], GridConfig("random forest", "forest(bad)", bad)]
    with pytest.raises(ValueError, match="criterion must be one of"):
        cross_validate(*data, grid, k_folds=3, seed=0)
    assert_no_child_left()


def test_an_unknown_family_is_rejected_before_any_fork(monkeypatch):
    cpus(monkeypatch, THREE_CPUS)
    monkeypatch.setattr(os, "fork", no_fork)
    data = random_examples(np.random.default_rng(13), 30, separable=False)
    grid = [*GRID, GridConfig("perceptron", "perceptron(a)", {})]
    with pytest.raises(ValueError, match="unknown classifier family 'perceptron'"):
        cross_validate(*data, grid, k_folds=3, seed=0)


def test_a_worker_that_dies_fails_the_search_instead_of_hanging(monkeypatch):
    cpus(monkeypatch, THREE_CPUS)
    caller, original = os.getpid(), evaluation._fold_metrics

    def killed_in_a_worker(*args, **kwargs):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(*args, **kwargs)

    # every task calls it, so a worker dies in whichever task it takes; the
    # caller runs tasks too, and might take every task that calls train_config
    monkeypatch.setattr(evaluation, "_fold_metrics", killed_in_a_worker)
    data = random_examples(np.random.default_rng(14), 30, separable=False)
    with pytest.raises(ChildProcessError, match="killed by signal 9"):
        cross_validate(*data, GRID, k_folds=3, seed=0)
    assert_no_child_left()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_cpu_and_the_pool_give_the_same_rows_and_warnings(monkeypatch, seed):
    # forest prefix groups, a kNN k above the smallest training fold (left
    # out) and a fit that warns: the pool must match the in-process run
    grid = [*PREFIX_GRID, *GRID[4:6], GridConfig("k-nearest neighbours", "knn(c)", {"k": 40}),
            GridConfig("logistic regression", "logistic(one step)", {"l2": 1e-3, "max_iter": 1})]
    data = random_examples(np.random.default_rng(40 + seed), 45, separable=False)
    runs = []
    for available in (ONE_CPU, THREE_CPUS):
        cpus(monkeypatch, available)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = cross_validate(*data, grid, k_folds=3, seed=seed)
        assert_no_child_left()
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
    X = np.array([fv], dtype=np.float64)
    for model in models:
        f = float(model.bot_fraction(X)[0])
        label = predict(model, fv)
        assert label == (BOT if predict_labels(model, X)[0] == 1 else HUMAN)
        assert label == (BOT if f > 0.5 else HUMAN)  # ties go to human
