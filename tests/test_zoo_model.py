"""Unit tests for ZooModel."""

import numpy as np
import pytest

from repro import nn
from repro.zoo import ZooModel, get_architecture, train_model, TrainConfig


class TestZooModel:
    def test_construction_from_name(self, isic_dataset):
        model = ZooModel.from_name("R-18", isic_dataset.feature_dim, isic_dataset.num_classes)
        assert model.name == "ResNet-18"
        assert model.num_parameters == 11_181_642
        assert not model.is_trained

    def test_prediction_shapes(self, isic_split):
        test = isic_split.test
        model = ZooModel.from_name("DenseNet121", test.feature_dim, test.num_classes, seed=0)
        logits = model.predict_logits(test)
        proba = model.predict_proba(test)
        predictions = model.predict(test)
        assert logits.shape == (len(test), test.num_classes)
        assert proba.shape == logits.shape
        assert predictions.shape == (len(test),)

    def test_proba_rows_sum_to_one(self, isic_split):
        test = isic_split.test
        model = ZooModel.from_name("ResNet-18", test.feature_dim, test.num_classes, seed=0)
        proba = model.predict_proba(test, indices=np.arange(25))
        np.testing.assert_allclose(proba.sum(axis=1), np.ones(25), atol=1e-9)
        assert (proba >= 0).all()

    @pytest.mark.parametrize("rows", [1, 14, 256])
    def test_tape_free_logits_match_the_tensor_path(self, pool, serving_schema, rows):
        test = pool.split.test
        indices = np.arange(rows)
        for model in pool:
            expected = model.head(nn.Tensor(model.features(test, indices))).data
            assert np.array_equal(model.predict_logits(test, indices), expected)
            features = serving_schema.features(test, indices)
            assert np.array_equal(model.predict_logits_features(features, serving_schema), expected)

    def test_untrained_model_near_chance(self, isic_split):
        test = isic_split.test
        model = ZooModel.from_name("ResNet-18", test.feature_dim, test.num_classes, seed=0)
        evaluation = model.evaluate(test)
        assert evaluation.accuracy < 0.5

    def test_trained_pool_models_beat_chance(self, pool):
        test = pool.split.test
        chance = 1.0 / test.num_classes
        for model in pool:
            assert model.evaluate(test).accuracy > chance + 0.2

    def test_clone_untrained_resets_head(self, pool):
        base = pool.get("ResNet-18")
        clone = base.clone_untrained(seed=1, label="clone")
        assert not clone.is_trained
        assert clone.label == "clone"
        assert clone.spec.name == base.spec.name
        # Same frozen backbone features (architecture-seeded), different head.
        test = pool.split.test
        np.testing.assert_allclose(
            clone.features(test, np.arange(5)), base.features(test, np.arange(5))
        )
        assert not np.allclose(clone.predict_logits(test), base.predict_logits(test))

    def test_head_state_roundtrip(self, isic_split, train_config):
        train = isic_split.train
        model = ZooModel.from_name("MobileNet_V3_Small", train.feature_dim, train.num_classes, seed=0)
        train_model(model, train, config=TrainConfig(epochs=10, batch_size=256))
        state = model.head_state()
        clone = model.clone_untrained(seed=99)
        clone.load_head_state(state)
        np.testing.assert_allclose(
            clone.predict_logits(isic_split.test), model.predict_logits(isic_split.test)
        )
        assert clone.is_trained

    def test_evaluate_attribute_subset(self, pool):
        evaluation = pool.get("ResNet-18").evaluate(pool.split.test, attributes=["age"])
        assert list(evaluation.unfairness) == ["age"]

    def test_repr_mentions_training_state(self, pool):
        assert "trained" in repr(pool.get("ResNet-18"))
