import json
from importlib import resources

import numpy as np
import pytest

from gitbot.errors import UnreadableModel
from gitbot.features import FeatureConfig, FeatureVector
from gitbot.forest import predict, train_forest
from gitbot.model_io import MODEL_FORMAT, load_model, model_to_json, save_model

from .test_forest import random_examples


def first_leaf(node):
    while "counts" not in node:
        node = node["left"]
    return node


@pytest.fixture
def model():
    rng = np.random.default_rng(0)
    return train_forest(random_examples(rng, 80), seed=99,
                        feature_config=FeatureConfig(min_messages=12))


def random_vectors(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        FeatureVector(
            int(rng.integers(1, 101)),
            int(rng.integers(0, 10)),
            int(rng.integers(1, 100)),
            float(rng.random()),
        )
        for _ in range(n)
    ]


class TestRoundTrip:
    def test_predictions_preserved(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        for fv in random_vectors(100):
            assert predict(model, fv) == predict(loaded, fv)
        assert predict(loaded, None).label == "unknown"

    def test_bytes_stable_through_roundtrip(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        assert model_to_json(load_model(path)) == model_to_json(model)

    def test_feature_config_snapshot_restored(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path).feature_config.min_messages == 12

    def test_document_is_valid_json_with_format_marker(self, model):
        doc = json.loads(model_to_json(model))
        assert doc["format"] == MODEL_FORMAT
        assert len(doc["trees"]) == doc["n_estimators"]


class TestUnreadable:
    def test_truncated_file(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text()[: 200], encoding="utf-8")
        with pytest.raises(UnreadableModel):
            load_model(path)

    def test_unknown_version_names_both_versions(self, model, tmp_path):
        path = tmp_path / "model.json"
        doc = json.loads(model_to_json(model))
        doc["format"] = "gitbot-model/99"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(UnreadableModel) as excinfo:
            load_model(path)
        assert "gitbot-model/99" in str(excinfo.value)
        assert MODEL_FORMAT in str(excinfo.value)

    def test_missing_format_marker(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(UnreadableModel):
            load_model(path)

    def test_similarity_mismatch_rejected(self, model, tmp_path):
        path = tmp_path / "model.json"
        doc = json.loads(model_to_json(model))
        doc["similarity"] = "cosine"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(UnreadableModel):
            load_model(path)

    def test_corrupt_leaf_counts(self, model, tmp_path):
        path = tmp_path / "model.json"
        doc = json.loads(model_to_json(model))
        doc["trees"][0] = {"counts": [0, 0]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(UnreadableModel):
            load_model(path)

    def test_tree_count_mismatch(self, model, tmp_path):
        path = tmp_path / "model.json"
        doc = json.loads(model_to_json(model))
        doc["trees"] = doc["trees"][:-1]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(UnreadableModel):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(UnreadableModel):
            load_model(tmp_path / "nope.json")

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda root: root.update(threshold=float("nan")),
            lambda root: root.update(threshold=float("inf")),
            lambda root: root.update(feature=True),
            lambda root: first_leaf(root).update(counts=[True, 3]),
        ],
        ids=["nan-threshold", "inf-threshold", "bool-feature", "bool-leaf-count"],
    )
    def test_invalid_split_or_leaf_in_shipped_model(self, corrupt, tmp_path):
        shipped = resources.files("gitbot").joinpath("data/default_model.json")
        doc = json.loads(shipped.read_text("utf-8"))
        corrupt(doc["trees"][0])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(UnreadableModel):
            load_model(path)
