"""Evaluation protocol: stratified split, grid-search CV, and metrics.

Bot is the positive class for the confusion counts. Weighted averages
weight each class row by its true-class support, matching the
classification-report convention.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import train_knn, train_linear_svm, train_logistic, train_single_tree
from .dataset import LabeledDataset
from .errors import EmptyInput, SingleClassData
from .features import compute_features
from .forest import BOT, HUMAN, LABEL_IDS, UNKNOWN, LabeledExample, train_forest

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
    n_unknown: int = 0


def _safe_div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _f1(p: float, r: float) -> float:
    return _safe_div(2.0 * p * r, p + r)


def report_from_counts(
    counts: ConfusionCounts, model_descriptor: str = "", n_unknown: int = 0
) -> EvaluationReport:
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
        n_unknown=n_unknown,
    )


def compute_metrics(
    predictions: list[tuple[str, str]], model_descriptor: str = ""
) -> EvaluationReport:
    """Per-class and weighted metrics from (predicted, actual) pairs."""
    if not predictions:
        raise EmptyInput("no predictions to score")
    tp = fn = fp = tn = 0
    for predicted, actual in predictions:
        if predicted == UNKNOWN or actual == UNKNOWN:
            raise ValueError("unknown predictions must be excluded before scoring")
        if actual == BOT:
            if predicted == BOT:
                tp += 1
            else:
                fn += 1
        elif actual == HUMAN:
            if predicted == BOT:
                fp += 1
            else:
                tn += 1
        else:
            raise ValueError(f"unknown label token {actual!r}")
    return report_from_counts(ConfusionCounts(tp, fn, fp, tn), model_descriptor)


def _class_indices(labels) -> dict[str, np.ndarray]:
    arr = np.asarray(labels)
    classes = {label: np.nonzero(arr == label)[0] for label in (BOT, HUMAN)}
    if any(len(idx) == 0 for idx in classes.values()):
        raise SingleClassData("both classes must be present")
    return classes


def stratified_split(
    dataset: LabeledDataset, train_fraction: float = 0.6, seed: int = 0
) -> tuple[LabeledDataset, LabeledDataset]:
    """Disjoint, exhaustive split preserving the class ratio per part."""
    rng = np.random.default_rng(seed)
    classes = _class_indices(dataset.labels())
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in (BOT, HUMAN):  # fixed order keeps the split deterministic
        idx = classes[label]
        shuffled = rng.permutation(idx)
        n_train = int(train_fraction * len(idx) + 0.5)
        train_idx.extend(shuffled[:n_train].tolist())
        test_idx.extend(shuffled[n_train:].tolist())
    train_idx.sort()
    test_idx.sort()
    return (
        LabeledDataset(
            entries=[dataset.entries[i] for i in train_idx],
            provenance=f"{dataset.provenance} [train {train_fraction:.0%}]",
        ),
        LabeledDataset(
            entries=[dataset.entries[i] for i in test_idx],
            provenance=f"{dataset.provenance} [test {1 - train_fraction:.0%}]",
        ),
    )


def _stratified_folds(y: np.ndarray, k: int, rng: np.random.Generator):
    """k disjoint test folds, each with both classes in train and test."""
    fold_members: list[list[int]] = [[] for _ in range(k)]
    for label_id in (1, 0):
        idx = np.nonzero(y == label_id)[0]
        if len(idx) < k:
            raise SingleClassData(f"need at least {k} examples per class")
        shuffled = rng.permutation(idx)
        for fold in range(k):
            fold_members[fold].extend(shuffled[fold::k].tolist())
    folds = []
    everything = set(range(len(y)))
    for members in fold_members:
        test = sorted(members)
        train = sorted(everything - set(members))
        folds.append((np.array(train), np.array(test)))
    return folds


@dataclass(frozen=True)
class GridConfig:
    family: str
    name: str  # canonical descriptor, also the lexicographic tiebreaker
    params: dict


@dataclass(frozen=True)
class FamilyResult:
    family: str
    config: GridConfig
    p_bot: float
    r_bot: float
    p_human: float
    r_human: float
    precision: float  # support-weighted over both classes
    recall: float
    f1: float


@dataclass(frozen=True)
class GridSearchResult:
    rows: list[FamilyResult] = field(default_factory=list)  # F1 descending

    def best(self) -> FamilyResult:
        return self.rows[0]

    def best_for(self, family: str) -> FamilyResult:
        for row in self.rows:
            if row.family == family:
                return row
        raise KeyError(family)


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


def train_config(config: GridConfig, data: list[LabeledExample], seed: int = 0):
    if config.family == FAMILY_FOREST:
        return train_forest(data, seed=seed, **config.params)
    if config.family == FAMILY_TREE:
        return train_single_tree(data, **config.params)
    if config.family == FAMILY_KNN:
        return train_knn(data, **config.params)
    if config.family == FAMILY_LOGISTIC:
        return train_logistic(data, **config.params)
    if config.family == FAMILY_SVM:
        return train_linear_svm(data, **config.params)
    raise ValueError(f"unknown classifier family {config.family!r}")


def _counts_from_ids(predicted: np.ndarray, actual: np.ndarray) -> ConfusionCounts:
    tp = int(np.sum((predicted == 1) & (actual == 1)))
    fn = int(np.sum((predicted == 0) & (actual == 1)))
    fp = int(np.sum((predicted == 1) & (actual == 0)))
    tn = int(np.sum((predicted == 0) & (actual == 0)))
    return ConfusionCounts(tp, fn, fp, tn)


def cross_validate(
    train: list[LabeledExample],
    grid: list[GridConfig] | None = None,
    k_folds: int = 5,
    seed: int = 0,
) -> GridSearchResult:
    """Score every configuration by mean weighted F1 over stratified folds.

    The best configuration per family is retained; ties break toward
    higher precision, then the lexicographically smaller name.
    """
    if grid is None:
        grid = default_grid()
    if not grid:
        raise ValueError("grid must not be empty")
    X = np.array([ex.features.as_array() for ex in train])
    y = np.array([LABEL_IDS[ex.label] for ex in train])
    folds = _stratified_folds(y, k_folds, np.random.default_rng(seed))

    best_per_family: dict[str, tuple[tuple, FamilyResult]] = {}
    for config in grid:
        reports = []
        for train_idx, test_idx in folds:
            fold_data = [train[i] for i in train_idx]
            model = train_config(config, fold_data, seed=seed)
            predicted = model.predict_labels(X[test_idx])
            reports.append(report_from_counts(_counts_from_ids(predicted, y[test_idx])))

        def mean(metric):
            return float(np.mean([metric(r) for r in reports]))

        row = FamilyResult(
            family=config.family,
            config=config,
            p_bot=mean(lambda r: r.bot.precision),
            r_bot=mean(lambda r: r.bot.recall),
            p_human=mean(lambda r: r.human.precision),
            r_human=mean(lambda r: r.human.recall),
            precision=mean(lambda r: r.weighted_precision),
            recall=mean(lambda r: r.weighted_recall),
            f1=mean(lambda r: r.weighted_f1),
        )
        # sort key: maximize f1, then precision; minimize name
        key = (-row.f1, -row.precision, config.name)
        known = best_per_family.get(config.family)
        if known is None or key < known[0]:
            best_per_family[config.family] = (key, row)

    rows = sorted(
        (row for _, row in best_per_family.values()),
        key=lambda r: (-r.f1, -r.precision, r.config.name),
    )
    return GridSearchResult(rows=rows)


def evaluate_pretrained(model, test: LabeledDataset) -> EvaluationReport:
    """Score a trained model on a labeled dataset.

    Entries whose corpora are too small for the model's feature
    configuration yield unknown predictions; they are excluded from the
    metrics and reported via n_unknown.
    """
    pairs = []
    n_unknown = 0
    for entry in test.entries:
        vector = compute_features(entry.corpus, model.feature_config)
        prediction = model.predict(vector)
        if prediction.label == UNKNOWN:
            n_unknown += 1
            continue
        pairs.append((prediction.label, entry.label))
    if not pairs:
        raise EmptyInput("every test entry was unknown")
    report = compute_metrics(pairs, model_descriptor=describe_model(model))
    return replace(report, n_unknown=n_unknown)


def describe_model(model) -> str:
    name = type(model).__name__
    if hasattr(model, "n_estimators"):
        return (
            f"{name}(criterion={model.criterion}, estimators={model.n_estimators}, "
            f"depth={model.max_depth}, seed={model.seed})"
        )
    return name


def format_grid_table(result: GridSearchResult) -> str:
    header = (
        f"{'classifier family':<24} {'P(B)':>6} {'R(B)':>6} {'P(H)':>6} {'R(H)':>6} "
        f"{'P':>6} {'R':>6} {'F1':>6}"
    )
    lines = [header]
    for row in result.rows:
        lines.append(
            f"{row.family:<24} {row.p_bot:>6.3f} {row.r_bot:>6.3f} "
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
    if report.n_unknown:
        lines.append(f"unknown (excluded): {report.n_unknown}")
    return "\n".join(lines)
