"""Tests of the deployable fused-model artifact and the raw-feature path."""

import json

import numpy as np
import pytest

from repro.data import FeatureSchema
from repro.zoo import (
    FUSED_ARTIFACT_FORMAT,
    fused_model_payload,
    load_fused_model,
    save_fused_model,
)


class TestFeatureSchema:
    def test_roundtrip(self, serving_schema):
        restored = FeatureSchema.from_dict(serving_schema.to_dict())
        assert restored == serving_schema
        assert restored.input_dim == serving_schema.input_dim

    def test_features_layout(self, serving_schema, isic_dataset):
        features = serving_schema.features(isic_dataset)
        assert features.shape == (len(isic_dataset), serving_schema.input_dim)
        slices = serving_schema.component_slices()
        np.testing.assert_array_equal(
            features[:, slices["signal"]], isic_dataset.components["signal"]
        )

    def test_validate_features_rejects_wrong_width(self, serving_schema):
        with pytest.raises(ValueError, match="expected features of shape"):
            serving_schema.validate_features(np.zeros((4, serving_schema.input_dim + 1)))

    def test_validate_features_promotes_single_sample(self, serving_schema):
        one = serving_schema.validate_features(np.zeros(serving_schema.input_dim))
        assert one.shape == (1, serving_schema.input_dim)

    def test_validate_groups_and_labels(self, serving_schema):
        groups = serving_schema.validate_groups({"age": [0, 1, 2]}, 3)
        assert groups["age"].tolist() == [0, 1, 2]
        with pytest.raises(ValueError, match="group ids"):
            serving_schema.validate_groups({"age": [0, 99]}, 2)
        with pytest.raises(KeyError):
            serving_schema.validate_groups({"nonsense": [0]}, 1)
        with pytest.raises(ValueError, match="labels"):
            serving_schema.validate_labels([0, 1], 3)


class TestRawFeaturePath:
    def test_bit_identical_to_dataset_path(self, fused_model, serving_schema, isic_split):
        """predict_features on schema features == predict on the dataset, exactly."""
        for partition in (isic_split.val, isic_split.test):
            features = serving_schema.features(partition)
            np.testing.assert_array_equal(
                fused_model.predict_features(features, serving_schema),
                fused_model.predict(partition),
            )

    def test_no_consensus_shortcut_path(self, fused_model, serving_schema, isic_split):
        features = serving_schema.features(isic_split.test)
        np.testing.assert_array_equal(
            fused_model.predict_features(
                features, serving_schema, use_consensus_shortcut=False
            ),
            fused_model.predict(isic_split.test, use_consensus_shortcut=False),
        )

    def test_probabilities_are_consensus_onehot(self, fused_model, serving_schema, isic_split):
        features = serving_schema.features(isic_split.test)
        detailed = fused_model.predict_detailed_features(features, serving_schema)
        assert detailed.probabilities.shape == (
            features.shape[0],
            fused_model.num_classes,
        )
        np.testing.assert_allclose(detailed.probabilities.sum(axis=1), 1.0)
        consensus_rows = detailed.probabilities[detailed.consensus_mask]
        if consensus_rows.size:
            assert set(np.unique(consensus_rows)) <= {0.0, 1.0}
        np.testing.assert_array_equal(
            detailed.probabilities.argmax(axis=1), detailed.predictions
        )

    def test_schema_required(self, fused_model, serving_schema, isic_split):
        features = serving_schema.features(isic_split.test)
        assert fused_model.schema is None
        with pytest.raises(ValueError, match="no feature schema"):
            fused_model.predict_features(features)


class TestFusedModelArtifact:
    def test_export_load_roundtrip_bit_identical(
        self, fused_model, serving_schema, isic_split, tmp_path
    ):
        """export -> load_fused_model -> predict_features is bit-identical to
        the in-memory FusedModel.predict on the same dataset features."""
        path = save_fused_model(
            fused_model, tmp_path / "muffin.json", schema=serving_schema, spec_hash="cafe"
        )
        loaded = load_fused_model(path)
        assert loaded.name == fused_model.name
        assert loaded.schema == serving_schema
        assert loaded.metadata["spec_hash"] == "cafe"
        features = serving_schema.features(isic_split.test)
        np.testing.assert_array_equal(
            loaded.predict_features(features), fused_model.predict(isic_split.test)
        )
        np.testing.assert_array_equal(
            loaded.predict_proba_features(features),
            fused_model.predict_proba_features(features, serving_schema),
        )

    def test_overwrite_guard(self, fused_model, serving_schema, tmp_path):
        path = tmp_path / "muffin.json"
        save_fused_model(fused_model, path, schema=serving_schema)
        with pytest.raises(FileExistsError):
            save_fused_model(fused_model, path, schema=serving_schema)
        save_fused_model(fused_model, path, schema=serving_schema, overwrite=True)

    def test_checksum_detects_tampering(self, fused_model, serving_schema, tmp_path):
        path = save_fused_model(fused_model, tmp_path / "muffin.json", schema=serving_schema)
        payload = json.loads(path.read_text())
        first_tensor = next(iter(payload["head"]["state"]))
        payload["head"]["state"][first_tensor]["values"][0] += 1.0
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="checksum"):
            load_fused_model(path)

    def test_truncated_artifact_rejected(self, fused_model, serving_schema, tmp_path):
        path = save_fused_model(fused_model, tmp_path / "muffin.json", schema=serving_schema)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ValueError):
            load_fused_model(path)

    def test_non_artifact_rejected(self, tmp_path):
        path = tmp_path / "not-an-artifact.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match=FUSED_ARTIFACT_FORMAT):
            load_fused_model(path)

    def test_payload_requires_schema(self, fused_model):
        with pytest.raises(ValueError, match="FeatureSchema"):
            fused_model_payload(fused_model)
