"""Evaluation protocol: stratified split, grid-search CV, and metrics.

Everything here indexes the arrays (X, y) of `dataset.featurize`:
the split and the folds are index arrays into them, every fit takes
rows of them, and every score compares `predict_labels` with y.

Bot is the positive class for the confusion counts. Weighted averages
weight each class row by its true-class support, matching the
classification-report convention.
"""

import inspect
from dataclasses import dataclass, replace

import numpy as np

from .baselines import train_knn, train_linear_svm, train_logistic, train_single_tree
from .errors import EmptyInput, SingleClassData
from .features import compute_features  # no caller: kept for bench/tracer.py, which wraps it here
from .forest import BOT, HUMAN, ForestModel
from .training import predict_labels, train_forest

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


def _forest_groups(grid: list[GridConfig]) -> list[list[tuple[int, int]]]:
    """(position, n_estimators) of the forest configurations, grouped by their other parameters.

    A parameter a configuration omits takes `train_forest`'s default, so
    configurations that spell the same forest differently share a group.
    """
    defaults = {
        name: parameter.default
        for name, parameter in inspect.signature(train_forest).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    }
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for position, config in enumerate(grid):
        if config.family == FAMILY_FOREST:
            params = {**defaults, **config.params}
            n_estimators = params.pop("n_estimators")
            groups.setdefault(tuple(sorted(params.items())), []).append((position, n_estimators))
    return list(groups.values())


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

    Forest configurations that differ only in n_estimators are scored
    from one forest per fold, grown with the largest n_estimators: each
    member is its first n trees. This is exact because `train_forest`
    draws tree i from a stream that depends only on (seed, i), so an
    n-tree forest is the first n trees of any larger one.
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

    # per configuration, per fold: the metrics of a FamilyResult row, in its
    # field order (tuples, not reports: all configurations' folds are held)
    scores: list[list[tuple[float, ...]]] = [[] for _ in grid]
    forest_groups = _forest_groups(grid)
    for train_idx, test_idx in folds:
        X_train, y_train = X[train_idx], y[train_idx]

        def score(position, model):
            predicted = predict_labels(model, X[test_idx])
            r = report_from_counts(confusion_counts(predicted, y[test_idx]))
            scores[position].append((
                r.bot.precision, r.bot.recall, r.human.precision, r.human.recall,
                r.weighted_precision, r.weighted_recall, r.weighted_f1,
            ))

        for position, config in enumerate(grid):
            if config.family != FAMILY_FOREST:
                score(position, train_config(config, X_train, y_train, seed=seed))
        # one grown forest alive at a time; its prefixes are the group's members
        for group in forest_groups:
            largest, _ = max(group, key=lambda member: member[1])
            grown = train_config(grid[largest], X_train, y_train, seed=seed)
            for position, n in group:
                score(position, replace(grown, trees=grown.trees[:n]))

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
