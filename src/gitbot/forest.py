"""The random-forest model and its vote, in pure Python.

A forest is a list of depth-bounded decision trees. Each tree routes a
feature row to one leaf, and the leaf votes bot when its bots outnumber
its humans. Prediction walks each tree once per row, so this module
needs no numpy: `gitbot analyze` loads a model and predicts without the
array library. Growing trees is numpy code and lives in `training`.

Every classifier in the package answers `bot_fraction(X)`, the bot
share of each row in [0, 1]. `predict` below and
`training.predict_labels` derive the label from it for all of them.
A model labels a contributor bot or human, and only one with features:
a corpus too small for features gets no prediction, and `cli` makes
its "unknown" row.
Labeled data reaches the trainers as arrays (X, y), feature rows and
`LABEL_IDS` labels, built once by `dataset.featurize`.
"""

from typing import NamedTuple, Union

from .features import FeatureConfig, FeatureVector

BOT = "bot"
HUMAN = "human"

# integer encoding used throughout: human 0, bot 1 (bot is the positive class)
LABEL_IDS = {HUMAN: 0, BOT: 1}

CRITERIA = ("entropy", "gini")


class Leaf(NamedTuple):
    counts: tuple[int, int]  # (humans, bots)

    def vote(self) -> int:
        # tie goes to human: a false bot label is the costlier mistake
        return 1 if self.counts[1] > self.counts[0] else 0


class Split(NamedTuple):
    feature: int
    threshold: float
    left: "TreeNode"  # taken when x[feature] <= threshold
    right: "TreeNode"


TreeNode = Union[Leaf, Split]


class ForestModel(NamedTuple):
    trees: list[TreeNode]
    max_depth: int
    criterion: str
    seed: int
    feature_config: FeatureConfig = FeatureConfig()

    def bot_fraction(self, X) -> list[float]:
        """Share of the trees voting bot, per row of X (any sequence of feature rows)."""
        n = len(self.trees)
        return [sum(_vote(tree, row) for tree in self.trees) / n for row in X]


def _vote(node: TreeNode, row) -> int:
    while isinstance(node, Split):
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.vote()


def is_bot(fraction):
    """Bot iff the bot fraction exceeds one half; elementwise on an array.

    A tie goes to human: a false bot label is the costlier mistake.
    """
    return fraction > 0.5


def predict(model, features: FeatureVector) -> str:
    """BOT or HUMAN: one contributor's label under any model with `bot_fraction`."""
    return BOT if is_bot(model.bot_fraction([features])[0]) else HUMAN
