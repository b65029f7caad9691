"""Evaluation protocol: stratified split, grid-search CV, and metrics.

Everything here indexes the arrays (X, y) of `dataset.featurize`:
the split and the folds are index arrays into them, every fit takes
rows of them, and every score compares `predict_labels` with y.

`cross_validate` runs its fits in worker processes, one per CPU this
process may run on, or in the caller when it may run on one CPU;
everything else here runs in the caller. The workers are forked, so
they read X, y, the folds and the grid from the memory they inherit;
only task descriptions, scores and warnings cross the process
boundary. Each fit is deterministic given its seed and rows, so the
scores do not depend on which process computed them.

Bot is the positive class for the confusion counts. Weighted averages
weight each class row by its true-class support, matching the
classification-report convention.
"""

import inspect
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baselines import train_knn, train_linear_svm, train_logistic, train_single_tree
from .errors import EmptyInput, SingleClassData
from .features import compute_features  # no caller: kept for bench/tracer.py, which wraps it here
from .forest import BOT, HUMAN, ForestModel, _vote, is_bot
from .training import deepest_draw, grow_tree, predict_labels, train_forest, tree_seeds

FAMILY_FOREST = "random forest"
FAMILY_TREE = "decision tree"
FAMILY_SVM = "support vector machine"
FAMILY_LOGISTIC = "logistic regression"
FAMILY_KNN = "k-nearest neighbours"


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int  # bots classified as bots
    fn: int  # bots classified as humans
    fp: int  # humans classified as bots
    tn: int  # humans classified as humans

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvaluationReport:
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


def confusion_counts(predicted: np.ndarray, actual: np.ndarray) -> ConfusionCounts:
    """Confusion counts of 0/1 label arrays (1 is bot)."""
    tp = int(np.sum((predicted == 1) & (actual == 1)))
    fn = int(np.sum((predicted == 0) & (actual == 1)))
    fp = int(np.sum((predicted == 1) & (actual == 0)))
    tn = int(np.sum((predicted == 0) & (actual == 0)))
    return ConfusionCounts(tp, fn, fp, tn)


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


def _stratified_folds(y: np.ndarray, k: int, rng: np.random.Generator):
    """k disjoint test folds, each with both classes in train and test, as sorted index arrays."""
    fold_of = np.zeros(len(y), dtype=np.int64)
    for label_id in (1, 0):  # bot, then human: a fixed order keeps the folds deterministic
        idx = np.nonzero(y == label_id)[0]
        if len(idx) < k:
            raise SingleClassData(f"need at least {k} examples per class")
        fold_of[rng.permutation(idx)] = np.arange(len(idx)) % k
    return [(np.nonzero(fold_of != fold)[0], np.nonzero(fold_of == fold)[0]) for fold in range(k)]


@dataclass(frozen=True)
class GridConfig:
    family: str
    name: str  # canonical descriptor, also the lexicographic tiebreaker
    params: dict


@dataclass(frozen=True)
class FamilyResult:
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


def _forest_groups(grid: list[GridConfig]) -> list[tuple[dict, list[tuple[int, int, int]]]]:
    """The forest configurations, grouped by every parameter but n_estimators and max_depth.

    A group is (parameters, members): the parameters its configurations
    share, and each member's (position, n_estimators, max_depth). A
    parameter a configuration omits takes `train_forest`'s default, so
    configurations that spell the same forest differently share a group.
    The default grid has two groups, one per criterion; `_score_group`
    scores each from one set of trees.
    """
    defaults = {
        name: parameter.default
        for name, parameter in inspect.signature(train_forest).parameters.items()
        if parameter.default is not inspect.Parameter.empty and name != "seed"  # the search's seed
    }
    groups: dict[tuple, tuple[dict, list[tuple[int, int, int]]]] = {}
    for position, config in enumerate(grid):
        if config.family == FAMILY_FOREST:
            params = {**defaults, **config.params}
            member = (position, params.pop("n_estimators"), params.pop("max_depth"))
            groups.setdefault(tuple(sorted(params.items())), (params, []))[1].append(member)
    return list(groups.values())


@dataclass(frozen=True)
class _Search:
    """What every task of one `cross_validate` call reads."""

    X: np.ndarray
    y: np.ndarray
    folds: list[tuple[np.ndarray, np.ndarray]]
    grid: list[GridConfig]
    seed: int


def _fold_metrics(predicted, actual: np.ndarray) -> tuple[float, ...]:
    """The metrics of a FamilyResult row on one fold, in its field order."""
    r = report_from_counts(confusion_counts(predicted, actual))
    return (
        r.bot.precision, r.bot.recall, r.human.precision, r.human.recall,
        r.weighted_precision, r.weighted_recall, r.weighted_f1,
    )


def _fit_each(search: _Search, fold: int, positions: list[int]):
    """(position, metrics) of each configuration at `positions`, fitted on the fold."""
    train_idx, test_idx = search.folds[fold]
    X_train, y_train = search.X[train_idx], search.y[train_idx]
    X_test, y_test = search.X[test_idx], search.y[test_idx]
    scored = []
    for position in positions:
        model = train_config(search.grid[position], X_train, y_train, seed=search.seed)
        scored.append((position, _fold_metrics(predict_labels(model, X_test), y_test)))
    return scored


def _score_group(search: _Search, fold: int, group: tuple[dict, list[tuple[int, int, int]]]):
    """(position, metrics) of each member of a forest group, from one set of trees.

    The group's N trees, N its largest n_estimators, are grown once at
    its deepest limit D. At a shallower limit d, tree i is the deep tree
    when no node of it at depth d or below drew candidates
    (`training.deepest_draw`), and is grown again at d from the same
    seed otherwise. A member is the first n trees at its limit: each
    tree votes once per test row, and member n's bot fraction is the
    sum of the first n trees' integer votes divided by n, the float
    that `bot_fraction` of the n-tree forest computes.
    """
    params, members = group
    train_idx, test_idx = search.folds[fold]
    X, y = search.X[train_idx], search.y[train_idx]
    n_trees = max(n for _, n, _ in members)
    deepest = max(depth for _, _, depth in members)
    grown = train_forest(X, y, seed=search.seed, n_estimators=n_trees, max_depth=deepest, **params)
    rows = search.X[test_idx].tolist()

    def votes_of(tree):
        return [_vote(tree, row) for row in rows]

    deep = [(votes_of(tree), deepest_draw(tree, deepest)) for tree in grown.trees]
    seeds = tree_seeds(search.seed, n_trees)
    scored = []
    for limit in sorted({depth for _, _, depth in members}):
        tree_votes = [
            votes if drawn < limit else votes_of(grow_tree(X, y, tree_seed, limit, grown.criterion))
            for (votes, drawn), tree_seed in zip(deep, seeds)
        ]
        votes = [0] * len(rows)
        voted = 0  # trees whose votes are in `votes`
        at_limit = sorted((n, position) for position, n, depth in members if depth == limit)
        for n, position in at_limit:
            for each in tree_votes[voted:n]:
                votes = [v + t for v, t in zip(votes, each)]
            voted = n
            predicted = is_bot(np.array([v / n for v in votes]))
            scored.append((position, _fold_metrics(predicted, search.y[test_idx])))
    return scored


def _run_task(search: _Search, task):
    """Run one (scorer, fold, members) task: its (position, metrics) and its warnings.

    A warning is returned as (message, category, filename, lineno), for
    the caller to emit again.
    """
    score_unit, fold, members = task
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scored = score_unit(search, fold, members)
    return scored, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


_worker_search: _Search | None = None  # set in each pool worker as it starts, never in the caller


def _start_worker(search: _Search):
    global _worker_search
    _worker_search = search


def _run_in_worker(task):
    return _run_task(_worker_search, task)


def _run_tasks(search: _Search, tasks: list) -> list:
    """`_run_task` of every task, in task order: in worker processes, or here on one CPU.

    The workers are forked, so they inherit `search` instead of
    unpickling it. A spawned worker would start an interpreter and
    import numpy again, about 0.2 s, as much as the pool saves on a
    search of the benchmark's size; gitbot starts no threads before
    this, so forking it is safe. A worker's exception is raised here
    with its type; a worker that dies, say killed for memory, raises
    `BrokenProcessPool` here, where `multiprocessing.Pool` would wait
    forever. After an exception the tasks not yet started are dropped;
    every worker is joined before this returns or raises.
    """
    workers = min(len(os.sched_getaffinity(0)), len(tasks))
    if workers <= 1:
        return [_run_task(search, task) for task in tasks]
    executor = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _start_worker, (search,))
    try:
        return list(executor.map(_run_in_worker, tasks))
    finally:
        executor.shutdown(cancel_futures=True)


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

    Forest configurations that differ only in n_estimators and
    max_depth form a group (`_forest_groups`; the default grid has two,
    one per criterion), scored per fold from one set of trees: the
    largest n_estimators, grown at the deepest max_depth. At a shallower
    limit d, a tree is reused when no node of it at depth d or below
    drew candidates, and is grown again at d otherwise. Both steps are
    exact. `train_forest` draws tree i from a stream that depends only
    on (seed, i), so an n-tree forest is the first n trees of any larger
    one. And a tree draws its nodes' candidates in preorder from that
    stream: when no node at depth d or below drew, the grower limited
    to d makes the same draws at the same nodes, and its nodes at depth
    d are the deep tree's pure leaves, so it grows the same tree.

    The work is split into tasks, one per fold and unit. A unit is all
    configurations that are not forests, or one forest group. The tasks
    run in forked worker processes, one per CPU in
    `os.sched_getaffinity`, and with one CPU in this process without a
    pool. Either way each task fits the same rows with the same seed,
    and its scores are collected in fold order, so every mean, and the
    ranking, is the same float for float. Warnings a task raises are
    recorded there and emitted again here, in task order, with their
    category, message, filename and line; an exception a task raises is
    raised here.
    """
    if grid is None:
        grid = default_grid()
    folds = _stratified_folds(y, k_folds, np.random.default_rng(seed))
    smallest_fold = min(len(train_idx) for train_idx, _ in folds)
    grid = [
        config
        for config in grid
        if config.family != FAMILY_KNN or config.params["k"] <= smallest_fold
    ]
    if not grid:
        raise ValueError("grid must not be empty")

    others = [position for position, config in enumerate(grid) if config.family != FAMILY_FOREST]
    units = [(_fit_each, others)] if others else []
    units += [(_score_group, group) for group in _forest_groups(grid)]
    tasks = [(score_unit, fold, members) for fold in range(k_folds) for score_unit, members in units]
    # per configuration, per fold: the metrics of a FamilyResult row, in its
    # field order (tuples, not reports: all configurations' folds are held)
    scores: list[list[tuple[float, ...]]] = [[] for _ in grid]
    registry: dict = {}  # the default filter shows each warning once per call
    for scored, caught in _run_tasks(_Search(X, y, folds, grid, seed), tasks):
        for position, metrics in scored:
            scores[position].append(metrics)
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno, registry=registry)

    ranked = sorted(
        (
            FamilyResult(config, *(float(np.mean(m)) for m in zip(*config_scores)))
            for config, config_scores in zip(grid, scores)
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
