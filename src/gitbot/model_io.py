"""Versioned on-disk format for trained forest models.

Models are stored as a human-inspectable JSON document carrying the
format version, hyperparameters, the feature configuration used at
training time, the similarity metric identifier, and every tree. The
writer is deterministic: the same model always produces the same
bytes.
"""

import json
import math
from dataclasses import asdict

from .errors import UnreadableModel
from .features import FeatureConfig
from .forest import ForestModel, Leaf, Split, TreeNode
from .similarity import SIMILARITY_ID

MODEL_FORMAT = "gitbot-model/1"


def _node_to_obj(node: TreeNode):
    if isinstance(node, Leaf):
        return {"counts": list(node.counts)}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_obj(node.left),
        "right": _node_to_obj(node.right),
    }


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _node_from_obj(obj) -> TreeNode:
    if not isinstance(obj, dict):
        raise UnreadableModel("tree node is not an object")
    if "counts" in obj:
        counts = obj["counts"]
        if (
            not isinstance(counts, list)
            or len(counts) != 2
            or not all(_is_int(c) and c >= 0 for c in counts)
            or sum(counts) == 0
        ):
            raise UnreadableModel(f"invalid leaf counts: {counts!r}")
        return Leaf(counts=(counts[0], counts[1]))
    try:
        feature = obj["feature"]
        threshold = obj["threshold"]
        left = _node_from_obj(obj["left"])
        right = _node_from_obj(obj["right"])
    except KeyError as exc:
        raise UnreadableModel(f"tree node missing field {exc}") from exc
    if not _is_int(feature) or not 0 <= feature < 4:
        raise UnreadableModel(f"invalid split feature index: {feature!r}")
    if not (_is_int(threshold) or isinstance(threshold, float)) or not math.isfinite(threshold):
        raise UnreadableModel(f"invalid split threshold: {threshold!r}")
    return Split(feature=feature, threshold=float(threshold), left=left, right=right)


def model_to_json(model: ForestModel) -> str:
    doc = {
        "format": MODEL_FORMAT,
        "similarity": SIMILARITY_ID,
        "criterion": model.criterion,
        "n_estimators": model.n_estimators,
        "max_depth": model.max_depth,
        "seed": model.seed,
        "feature_names": list(model.feature_names),
        "feature_config": asdict(model.feature_config),
        "trees": [_node_to_obj(tree) for tree in model.trees],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_model(model: ForestModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(model_to_json(model))


def model_from_json(text: str) -> ForestModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UnreadableModel(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "format" not in doc:
        raise UnreadableModel("missing format marker")
    if doc["format"] != MODEL_FORMAT:
        raise UnreadableModel(
            f"unsupported format version {doc['format']!r}, expected {MODEL_FORMAT!r}"
        )
    if doc.get("similarity") != SIMILARITY_ID:
        raise UnreadableModel(
            f"model was trained with similarity {doc.get('similarity')!r}, "
            f"this build computes {SIMILARITY_ID!r}"
        )
    try:
        trees = [_node_from_obj(obj) for obj in doc["trees"]]
        config = FeatureConfig(**doc["feature_config"])
        model = ForestModel(
            trees=trees,
            n_estimators=doc["n_estimators"],
            max_depth=doc["max_depth"],
            criterion=doc["criterion"],
            seed=doc["seed"],
            feature_names=tuple(doc["feature_names"]),
            feature_config=config,
        )
    except UnreadableModel:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise UnreadableModel(f"malformed model document: {exc}") from exc
    if len(model.trees) != model.n_estimators:
        raise UnreadableModel(
            f"document declares {model.n_estimators} trees but holds {len(model.trees)}"
        )
    return model


def load_model(path) -> ForestModel:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UnreadableModel(f"cannot read model file: {exc}") from exc
    return model_from_json(text)
