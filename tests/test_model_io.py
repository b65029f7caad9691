import glob
import json
import os
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gitbot
from gitbot.cli import SHIPPED_MODEL
from gitbot.errors import UnreadableModel
from gitbot.features import FEATURE_NAMES, FeatureConfig, FeatureVector
from gitbot.forest import predict
from gitbot.model_io import MODEL_FORMAT, load_model, model_to_json, save_model
from gitbot.training import train_forest

from .test_forest import forests, random_examples


def first_leaf(node):
    while "counts" not in node:
        node = node["left"]
    return node


@pytest.fixture
def model():
    rng = np.random.default_rng(0)
    return train_forest(*random_examples(rng, 80), seed=99,
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


feature_configs = st.integers(1, 100).flatmap(
    lambda low: st.builds(
        FeatureConfig,
        min_messages=st.just(low),
        max_messages=st.integers(low, 1000),
        distance_threshold=st.floats(0.0, 1.0),
    )
)


@settings(deadline=None)
@given(model=forests, config=feature_configs)
def test_save_load_save_gives_identical_bytes(model, config, tmp_path_factory):
    model = model._replace(feature_config=config)
    first = tmp_path_factory.mktemp("roundtrip") / "first.json"
    second = first.with_name("second.json")
    save_model(model, first)
    loaded = load_model(first)
    save_model(loaded, second)
    assert second.read_bytes() == first.read_bytes()
    assert loaded == model


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

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(UnreadableModel, match="^cannot read model file: 'utf-8' codec"):
            load_model(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc["trees"][0].update(threshold=float("nan")),
            lambda doc: doc["trees"][0].update(threshold=float("inf")),
            lambda doc: doc["trees"][0].update(feature=True),
            lambda doc: doc["trees"][0].update(feature=-1),
            lambda doc: doc["trees"][0].update(feature=len(FEATURE_NAMES)),
            lambda doc: first_leaf(doc["trees"][0]).update(counts=[True, 3]),
            lambda doc: doc["feature_config"].update(max_messages=100.5),
            lambda doc: doc["feature_config"].update(min_messages=True),
            lambda doc: doc["feature_config"].update(distance_threshold="0.5"),
            lambda doc: doc["feature_config"].update(distance_threshold=True),
            lambda doc: doc.update(n_estimators=20.0),
            lambda doc: doc.update(trees=[], n_estimators=0),
            lambda doc: doc.update(max_depth=True),
            lambda doc: doc.update(seed="2020"),
            lambda doc: doc.update(criterion="log_loss"),
            lambda doc: doc.update(feature_names=["gini", "n_patterns", "n_empty", "n_messages"]),
            lambda doc: doc.update(feature_names=["a"]),
            lambda doc: doc.update(feature_names=["n_messages", "n_empty", "n_patterns", 3]),
        ],
        ids=[
            "nan-threshold", "inf-threshold", "bool-feature", "negative-feature",
            "feature-past-the-last", "bool-leaf-count",
            "float-max-messages", "bool-min-messages", "string-distance-threshold",
            "bool-distance-threshold", "float-n-estimators", "no-trees", "bool-max-depth",
            "string-seed", "unknown-criterion", "permuted-feature-names",
            "one-feature-name", "non-string-feature-name",
        ],
    )
    def test_invalid_split_or_leaf_in_shipped_model(self, corrupt, tmp_path):
        shipped = Path(SHIPPED_MODEL)
        doc = json.loads(shipped.read_text("utf-8"))
        corrupt(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(UnreadableModel):
            load_model(path)


def test_build_script_reproduces_shipped_model(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "build_default_model.py"
    output = tmp_path / "default_model.json"
    runpy.run_path(str(script))["main"](output)
    shipped = Path(SHIPPED_MODEL)
    assert output.read_bytes() == shipped.read_bytes()


def test_the_shipped_model_is_package_data():
    # setuptools installs beside the modules the files that these globs match
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as handle:
        globs = tomllib.load(handle)["tool"]["setuptools"]["package-data"]["gitbot"]
    package = os.path.dirname(gitbot.__file__)
    shipped = os.path.relpath(SHIPPED_MODEL, package)
    assert any(shipped in glob.glob(pattern, root_dir=package) for pattern in globs), globs
