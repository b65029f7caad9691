"""Evaluation protocol: stratified split, grid-search CV, and metrics.

Everything here indexes the arrays (X, y) of `dataset.featurize`:
the split and the folds are index arrays into them, every fit takes
rows of them, and every score compares the labels that `predict_labels`
gives with y.

`cross_validate` has one shape of task, (family, fold, group): a group
is the configurations of one family that differ only in the family's
size parameters, and the family's entry in `_FAMILIES` gives the test
labels of every member. A configuration is read as written: it spells
each parameter that `default_grid` spells for its family. The tasks
run through `parallel.run_tasks`: on every CPU this process may run
on, the caller's among them, or in the caller alone when it may run on
one CPU; everything else here runs in the caller. The workers are
forked, so they read each fold's rows, sliced once before the fork,
the grid and the task list from the memory they inherit; only scores,
warnings and exceptions cross the process boundary. Each fit is
deterministic given its seed and rows, so the scores do not depend on
which process computed them.

Bot is the positive class for the confusion counts. Weighted averages
weight each class row by its true-class support, matching the
classification-report convention.
"""

import warnings
from functools import partial
from operator import and_
from typing import NamedTuple

import numpy as np

from .baselines import cut_tree, train_knn, train_linear_svm, train_logistic, train_single_tree
from .errors import EmptyInput, SingleClassData
from .features import compute_features  # no caller: kept for bench/tracer.py, which wraps it here
from .forest import BOT, HUMAN, ForestModel, _vote, is_bot
from .parallel import run_tasks
from .training import _check_forest, grow_tree_depths, predict_labels, train_forest

FAMILY_FOREST = "random forest"
FAMILY_TREE = "decision tree"
FAMILY_SVM = "support vector machine"
FAMILY_LOGISTIC = "logistic regression"
FAMILY_KNN = "k-nearest neighbours"


class ConfusionCounts(NamedTuple):
    tp: int  # bots classified as bots
    fn: int  # bots classified as humans
    fp: int  # humans classified as bots
    tn: int  # humans classified as humans


class ClassMetrics(NamedTuple):
    precision: float
    recall: float
    f1: float
    support: int


class EvaluationReport(NamedTuple):
    bot: ClassMetrics
    human: ClassMetrics
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    confusion: ConfusionCounts
    model_descriptor: str = ""


def _safe_div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _f1(p: float, r: float) -> float:
    return _safe_div(2.0 * p * r, p + r)


def report_from_counts(counts: ConfusionCounts, model_descriptor: str = "") -> EvaluationReport:
    support_bot = counts.tp + counts.fn
    support_human = counts.fp + counts.tn
    p_bot = _safe_div(counts.tp, counts.tp + counts.fp)
    r_bot = _safe_div(counts.tp, support_bot)
    p_human = _safe_div(counts.tn, counts.tn + counts.fn)
    r_human = _safe_div(counts.tn, support_human)
    bot = ClassMetrics(p_bot, r_bot, _f1(p_bot, r_bot), support_bot)
    human = ClassMetrics(p_human, r_human, _f1(p_human, r_human), support_human)
    total = support_bot + support_human

    def weighted(metric_bot: float, metric_human: float) -> float:
        return _safe_div(support_bot * metric_bot + support_human * metric_human, total)

    return EvaluationReport(
        bot=bot,
        human=human,
        weighted_precision=weighted(bot.precision, human.precision),
        weighted_recall=weighted(bot.recall, human.recall),
        weighted_f1=weighted(bot.f1, human.f1),
        confusion=counts,
        model_descriptor=model_descriptor,
    )


def confusion_counts(predicted, actual) -> ConfusionCounts:
    """Confusion counts of 0/1 labels (1 is bot), as arrays or lists; predicted may be booleans.

    Counted in Python: a fold's few labels cost less as lists than as
    four numpy reductions.
    """
    if isinstance(predicted, np.ndarray):
        predicted = predicted.tolist()
    if isinstance(actual, np.ndarray):
        actual = actual.tolist()
    tp = sum(map(and_, predicted, actual))
    bots, flagged = sum(actual), sum(predicted)
    return ConfusionCounts(tp, bots - tp, flagged - tp, len(actual) - bots - flagged + tp)


def stratified_split(
    y: np.ndarray, train_fraction: float = 0.6, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted train and test indices into y: disjoint, exhaustive, class ratio kept per part.

    Raises SingleClassData unless both classes are present, and
    EmptyInput when train_fraction leaves either part empty.
    """
    rng = np.random.default_rng(seed)
    in_train = np.zeros(len(y), dtype=bool)
    for label_id in (1, 0):  # bot, then human: a fixed order keeps the split deterministic
        idx = np.nonzero(y == label_id)[0]
        if len(idx) == 0:
            raise SingleClassData("both classes must be present")
        in_train[rng.permutation(idx)[: int(train_fraction * len(idx) + 0.5)]] = True
    train_idx, test_idx = np.nonzero(in_train)[0], np.nonzero(~in_train)[0]
    if not len(train_idx) or not len(test_idx):
        empty = "train" if not len(train_idx) else "test"
        raise EmptyInput(f"train fraction {train_fraction} leaves the {empty} part empty")
    return train_idx, test_idx


def _stratified_folds(y: np.ndarray, k: int, seed: int):
    """k disjoint test folds, each with both classes in train and test, as sorted index arrays."""
    rng = np.random.default_rng(seed)
    fold_of = np.zeros(len(y), dtype=np.int64)
    for label_id in (1, 0):  # bot, then human: a fixed order keeps the folds deterministic
        idx = np.nonzero(y == label_id)[0]
        if len(idx) < k:
            raise SingleClassData(f"need at least {k} examples per class")
        fold_of[rng.permutation(idx)] = np.arange(len(idx)) % k
    return [(np.nonzero(fold_of != fold)[0], np.nonzero(fold_of == fold)[0]) for fold in range(k)]


class GridConfig(NamedTuple):
    family: str
    name: str  # canonical descriptor, also the lexicographic tiebreaker
    params: dict


class FamilyResult(NamedTuple):
    config: GridConfig
    p_bot: float
    r_bot: float
    p_human: float
    r_human: float
    precision: float  # support-weighted over both classes
    recall: float
    f1: float


def default_grid() -> list[GridConfig]:
    grid = []
    for criterion in ("entropy", "gini"):
        for n_estimators in (10, 20, 50):
            for max_depth in (4, 8, 12):
                grid.append(
                    GridConfig(
                        family=FAMILY_FOREST,
                        name=f"forest(criterion={criterion},depth={max_depth:02d},estimators={n_estimators:02d})",
                        params={
                            "criterion": criterion,
                            "n_estimators": n_estimators,
                            "max_depth": max_depth,
                        },
                    )
                )
    for max_depth in range(2, 11):
        grid.append(
            GridConfig(
                family=FAMILY_TREE,
                name=f"tree(depth={max_depth:02d})",
                params={"max_depth": max_depth},
            )
        )
    for k in (1, 3, 5, 7, 9, 11):
        grid.append(
            GridConfig(family=FAMILY_KNN, name=f"knn(k={k:02d})", params={"k": k})
        )
    for exponent in range(-4, 5):
        l2 = 10.0**exponent
        grid.append(
            GridConfig(
                family=FAMILY_LOGISTIC,
                name=f"logistic(l2=1e{exponent:+03d})",
                params={"l2": l2},
            )
        )
    for exponent in range(-4, 5):
        l2 = 10.0**exponent
        grid.append(
            GridConfig(
                family=FAMILY_SVM,
                name=f"svm(l2=1e{exponent:+03d})",
                params={"l2": l2},
            )
        )
    return grid


def train_config(config: GridConfig, X: np.ndarray, y: np.ndarray, seed: int = 0):
    if config.family == FAMILY_FOREST:
        return train_forest(X, y, seed=seed, **config.params)
    if config.family == FAMILY_TREE:
        return train_single_tree(X, y, **config.params)
    if config.family == FAMILY_KNN:
        return train_knn(X, y, **config.params)
    if config.family == FAMILY_LOGISTIC:
        return train_logistic(X, y, **config.params)
    if config.family == FAMILY_SVM:
        return train_linear_svm(X, y, **config.params)
    raise ValueError(f"unknown classifier family {config.family!r}")


class _Fold(NamedTuple):
    """One fold's rows, built once before any task runs."""

    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    actual: list[int]  # the test labels


class _Search(NamedTuple):
    """What every task of one `cross_validate` call reads."""

    folds: list[_Fold]
    grid: list[GridConfig]
    seed: int


def _fitted_labels(search: _Search, fold: _Fold, params: dict, members: list[tuple]):
    """Each member's test labels, from its own `train_config` fit."""
    X, y, seed = fold.X_train, fold.y_train, search.seed
    fits = (train_config(search.grid[position], X, y, seed=seed) for position, _ in members)
    return [predict_labels(model, fold.X_test) for model in fits]


def _forest_labels(search: _Search, fold: _Fold, params: dict, members: list[tuple]):
    """Each member's test labels, from one `grow_tree_depths` call per tree of the group.

    The group's N trees, N its largest n_estimators, are trees 0 to
    N - 1 of the search's seed, each grown by
    `training.grow_tree_depths`: at the group's deepest limit D, and
    again at each shallower limit d, taking D's recorded splits up to
    D's first node at depth d that searched; with no search at depth d,
    the tree at d is D's tree. A member is the first n trees at its
    limit: each tree votes once per test row, and member n's bot
    fraction is the sum of the first n trees' integer votes divided by
    n, the float that `bot_fraction` of the n-tree forest computes.
    """
    limits = sorted({depth for _, _, depth in members})
    _check_forest(fold.y_train, min(n for _, n, _ in members), **params)
    rows = fold.X_test.tolist()
    tree_votes: dict[int, list[list[int]]] = {limit: [] for limit in limits}
    for i in range(max(n for _, n, _ in members)):
        trees = grow_tree_depths(fold.X_train, fold.y_train, search.seed, i, limits, **params)
        deep = trees[limits[-1]]
        deep_votes = [_vote(deep, row) for row in rows]
        for limit, tree in trees.items():
            votes = deep_votes if tree is deep else [_vote(tree, row) for row in rows]
            tree_votes[limit].append(votes)
    return [
        [is_bot(votes / n) for votes in map(sum, zip(*tree_votes[depth][:n]))]
        for _, n, depth in members
    ]


def _tree_labels(search: _Search, fold: _Fold, params: dict, members: list[tuple]):
    """Each member's test labels, from one tree.

    The tree is grown once at the group's deepest max_depth, and each
    member's tree is that tree cut at its depth (`baselines.cut_tree`).
    A one-tree forest's bot fraction is its tree's vote.
    """
    depth = max(d for _, d in members)
    deep = train_single_tree(fold.X_train, fold.y_train, max_depth=depth, **params)
    rows = fold.X_test.tolist()
    cut = [cut_tree(deep, depth).trees[0] for _, depth in members]
    return [[_vote(tree, row) for row in rows] for tree in cut]


def _knn_labels(search: _Search, fold: _Fold, params: dict, members: list[tuple]):
    """Each member's test labels, from one neighbour order.

    One model is fitted with the group's largest k, and
    `KnnModel.bot_fractions` reads every member's k from one stable
    order of each test row's neighbours.
    """
    ks = [k for _, k in members]
    model = train_knn(fold.X_train, fold.y_train, k=max(ks), **params)
    return [is_bot(fraction) for fraction in model.bot_fractions(fold.X_test, ks)]


# family -> (the function that gives each group member's test labels, the
# parameters in which the members of a group differ). Each fold's tasks run
# in this order: the families fitted member by member, then the forests, so
# that the short tree and kNN tasks are taken last and the processes finish
# close together.
_FAMILIES = {
    FAMILY_LOGISTIC: (_fitted_labels, ("l2",)),
    FAMILY_SVM: (_fitted_labels, ("l2",)),
    FAMILY_FOREST: (_forest_labels, ("n_estimators", "max_depth")),
    FAMILY_TREE: (_tree_labels, ("max_depth",)),
    FAMILY_KNN: (_knn_labels, ("k",)),
}


def _groups(grid: list[GridConfig]) -> list[tuple[str, dict, list[tuple]]]:
    """The configurations, grouped by family and by every parameter but the family's sizes.

    A group is (family, parameters, members): the parameters its
    configurations share, and each member's (position, *sizes). Nothing
    is filled in from a trainer's defaults, so a grid spells every
    parameter: a family not in `_FAMILIES` raises ValueError and an
    omitted size KeyError naming it, here; a parameter the family does
    not take raises TypeError in the task. The groups come family by
    family in `_FAMILIES` order, and a family's groups in grid order.
    The default grid has six: one per forest criterion, and one for
    each other family.
    """
    groups: dict[tuple, tuple[str, dict, list[tuple]]] = {}
    for position, config in enumerate(grid):
        if config.family not in _FAMILIES:
            raise ValueError(f"unknown classifier family {config.family!r}")
        params = dict(config.params)
        member = (position, *(params.pop(size) for size in _FAMILIES[config.family][1]))
        key = (config.family, *sorted(params.items()))
        groups.setdefault(key, (config.family, params, []))[2].append(member)
    order = list(_FAMILIES)
    return sorted(groups.values(), key=lambda group: order.index(group[0]))


def _fold_metrics(predicted, actual) -> tuple[float, ...]:
    """The metrics of a FamilyResult row on one fold, in its field order."""
    r = report_from_counts(confusion_counts(predicted, actual))
    return (
        r.bot.precision, r.bot.recall, r.human.precision, r.human.recall,
        r.weighted_precision, r.weighted_recall, r.weighted_f1,
    )


def _run_task(search: _Search, task):
    """Run one (family, fold, group) task: each member's (position, metrics), and the warnings.

    A warning is returned as (message, category, filename, lineno), for
    the caller to emit again.
    """
    family, fold, (params, members) = task
    data = search.folds[fold]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        labels = _FAMILIES[family][0](search, data, params, members)
    scored = [(member[0], _fold_metrics(predicted, data.actual))
              for member, predicted in zip(members, labels)]
    return scored, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def cross_validate(
    X: np.ndarray,
    y: np.ndarray,
    grid: list[GridConfig] | None = None,
    k_folds: int = 5,
    seed: int = 0,
) -> list[FamilyResult]:
    """Score every configuration by mean weighted F1 over stratified folds of (X, y).

    The best configuration per family is returned, by F1 descending;
    ties break toward higher precision, then the lexicographically
    smaller name. A kNN configuration whose k exceeds the smallest
    training fold cannot be fitted on every fold and is left out.

    A configuration spells each parameter that `default_grid` spells
    for its family. An unknown family raises ValueError and an omitted
    size KeyError, before any task runs; a parameter the family does
    not take, a forest's seed among them, raises TypeError in the task.

    Every task is one (family, fold, group), and the family's entry in
    `_FAMILIES` gives the test labels of all of the group's members
    (`_groups`), each exactly the labels of a separate `train_config` fit:
    - Forests that differ only in n_estimators and max_depth share one
      growth per tree (`_forest_labels`). Tree i's stream depends only
      on (seed, i), so an n-tree forest is the first n trees of any
      larger one, and a tree grown again at a shallower limit from the
      deepest growth's recorded picks and splits is the tree grown to it
      (`training.grow_tree_depths`).
    - Decision trees draw nothing, so the tree at each max_depth is the
      deepest one cut there (`baselines.cut_tree`).
    - kNN configurations share one stable neighbour order per test row
      (`KnnModel.bot_fractions`).
    - Logistic regression and SVM members, which differ in l2, are each
      fitted alone.

    Each fold's rows are sliced once before any task runs. The tasks
    run through `parallel.run_tasks`: in forked workers and this
    process, one process per CPU in `os.sched_getaffinity`, and with one
    CPU in this process alone. Either way each task fits the
    same rows with the same seed, and its scores are collected in fold
    order, so every mean, and the ranking, is the same float for float.
    Warnings a task raises are recorded there and emitted again here, in
    task order, with their category, message, filename and line; an
    exception a task raises is raised here with its type, and a worker
    that dies raises `ChildProcessError`.
    """
    if grid is None:
        grid = default_grid()
    folds = [
        _Fold(X[train_idx], y[train_idx], X[test_idx], y[test_idx].tolist())
        for train_idx, test_idx in _stratified_folds(y, k_folds, seed)
    ]
    smallest_fold = min(len(fold.y_train) for fold in folds)
    units = []
    for family, params, members in _groups(grid):
        if family == FAMILY_KNN:
            members = [member for member in members if member[1] <= smallest_fold]
        if members:
            units.append((family, (params, members)))
    if not units:
        raise ValueError("grid must not be empty")

    tasks = [(family, fold, group) for fold in range(k_folds) for family, group in units]
    # per configuration, per fold: the metrics of a FamilyResult row, in its
    # field order (tuples, not reports: all configurations' folds are held)
    scores: list[list[tuple[float, ...]]] = [[] for _ in grid]
    registry: dict = {}  # the default filter shows each warning once per call
    search = _Search(folds, grid, seed)
    for scored, caught in run_tasks(partial(_run_task, search), tasks):
        for position, metrics in scored:
            scores[position].append(metrics)
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno, registry=registry)

    ranked = sorted(
        (
            FamilyResult(config, *(float(np.mean(m)) for m in zip(*config_scores)))
            for config, config_scores in zip(grid, scores)
            if config_scores  # a kNN configuration left out has none
        ),
        key=lambda r: (-r.f1, -r.precision, r.config.name),
    )
    # a family's first row in the ranking is its best, and the families
    # come out in the order of their best rows
    best: dict[str, FamilyResult] = {}
    for row in ranked:
        best.setdefault(row.config.family, row)
    return list(best.values())


def evaluate_pretrained(model: ForestModel, X: np.ndarray, y: np.ndarray) -> EvaluationReport:
    """Score a trained model on feature rows X with labels y, as a CV fold is scored.

    X and y come from `dataset.featurize` with the model's feature
    configuration. No rows raises EmptyInput.
    """
    if not len(y):
        raise EmptyInput("the dataset has no corpus to evaluate")
    counts = confusion_counts(predict_labels(model, X), y)
    return report_from_counts(counts, describe_model(model))


def describe_model(model: ForestModel) -> str:
    return (
        f"ForestModel(criterion={model.criterion}, estimators={len(model.trees)}, "
        f"depth={model.max_depth}, seed={model.seed})"
    )


def format_grid_table(rows: list[FamilyResult]) -> str:
    header = (
        f"{'classifier family':<24} {'P(B)':>6} {'R(B)':>6} {'P(H)':>6} {'R(H)':>6} "
        f"{'P':>6} {'R':>6} {'F1':>6}"
    )
    lines = [header]
    for row in rows:
        lines.append(
            f"{row.config.family:<24} {row.p_bot:>6.3f} {row.r_bot:>6.3f} "
            f"{row.p_human:>6.3f} {row.r_human:>6.3f} "
            f"{row.precision:>6.3f} {row.recall:>6.3f} {row.f1:>6.3f}"
        )
    return "\n".join(lines)


def format_report(report: EvaluationReport) -> str:
    lines = []
    if report.model_descriptor:
        lines.append(f"model: {report.model_descriptor}")
    lines.append(
        f"{'':<10} {'precision':>9} {'recall':>9} {'F1':>9} {'support':>9}"
    )
    for label, metrics in ((BOT, report.bot), (HUMAN, report.human)):
        lines.append(
            f"{label:<10} {metrics.precision:>9.2f} {metrics.recall:>9.2f} "
            f"{metrics.f1:>9.2f} {metrics.support:>9d}"
        )
    lines.append(
        f"{'weighted':<10} {report.weighted_precision:>9.2f} "
        f"{report.weighted_recall:>9.2f} {report.weighted_f1:>9.2f} "
        f"{report.bot.support + report.human.support:>9d}"
    )
    c = report.confusion
    lines.append(f"confusion: tp={c.tp} fn={c.fn} fp={c.fp} tn={c.tn}")
    return "\n".join(lines)
