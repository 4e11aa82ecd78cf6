"""Unit tests for the zoo head trainer."""

import contextlib
import io
import itertools
from pathlib import Path

import numpy as np
import pytest

import repro.zoo.training as training_mod
from repro.api import MuffinPipeline, RunSpec
from repro.obs import TraceWriter, active_writer, install, load_spans, uninstall
from repro.zoo import TrainConfig, ZooModel, train_model, train_models
from repro.zoo.training import _train_model_autograd

#: two heads of width 40 and one of width 52 — mixed widths, one shared
ORACLE_POOL = ("ShuffleNet_V2_X1_0", "MobileNet_V3_Small", "ResNet-18")
SMOKE_SPEC = Path(__file__).resolve().parent.parent / "examples" / "specs" / "smoke.json"


@pytest.fixture
def fresh_model(isic_split):
    train = isic_split.train
    return ZooModel.from_name("MobileNet_V3_Large", train.feature_dim, train.num_classes, seed=0)


class TestTrainConfig:
    def test_defaults_follow_paper_recipe(self):
        config = TrainConfig()
        assert config.lr == pytest.approx(0.1)
        assert config.lr_decay == pytest.approx(0.9)
        assert config.lr_decay_every == 20

    def test_invalid_optimizer(self, fresh_model, isic_split):
        with pytest.raises(ValueError):
            train_model(fresh_model, isic_split.train, config=TrainConfig(epochs=1, optimizer="rmsprop"))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"epochs": 0},
            {"epochs": -3},
            {"batch_size": 0},
            {"lr": 0.0},
            {"lr": -0.1},
            {"lr_decay": 0.0},
            {"lr_decay": 1.5},
            {"lr_decay_every": 0},
            {"optimizer": "rmsprop"},
            {"momentum": 1.0},
            {"weight_decay": -1e-4},
            {"label_smoothing": 1.0},
            {"label_smoothing": -0.1},
        ],
        ids=lambda overrides: "-".join(f"{k}={v}" for k, v in overrides.items()),
    )
    def test_invalid_values_raise_at_construction(self, overrides):
        with pytest.raises(ValueError):
            TrainConfig(**overrides)

    def test_boundary_values_are_accepted(self):
        TrainConfig(epochs=1, batch_size=1, lr_decay=1.0, lr_decay_every=1, label_smoothing=0.0)
        # Adam ignores momentum, so SGD's momentum range does not apply
        TrainConfig(optimizer="adam", momentum=1.0)


class TestTrainModel:
    def test_loss_decreases_and_accuracy_improves(self, fresh_model, isic_split):
        result = train_model(
            fresh_model, isic_split.train, isic_split.val, TrainConfig(epochs=20, batch_size=256)
        )
        assert result.losses[-1] < result.losses[0]
        assert result.train_accuracy[-1] > 0.5
        assert len(result.val_accuracy) == 20
        assert fresh_model.is_trained

    def test_lr_schedule_applied(self, fresh_model, isic_split):
        result = train_model(
            fresh_model,
            isic_split.train,
            config=TrainConfig(epochs=25, lr=0.1, lr_decay=0.9, lr_decay_every=20),
        )
        assert result.final_lr == pytest.approx(0.1 * 0.9)

    def test_sample_weights_change_outcome(self, isic_split):
        train = isic_split.train
        model_a = ZooModel.from_name("ResNet-34", train.feature_dim, train.num_classes, seed=0)
        model_b = ZooModel.from_name("ResNet-34", train.feature_dim, train.num_classes, seed=0)
        config = TrainConfig(epochs=10, batch_size=256, seed=0)
        train_model(model_a, train, config=config)
        weights = np.ones(len(train))
        weights[train.unprivileged_mask("site")] = 6.0
        train_model(model_b, train, config=config, sample_weights=weights)
        assert not np.allclose(
            model_a.predict_logits(isic_split.test), model_b.predict_logits(isic_split.test)
        )

    def test_sample_weight_shape_validated(self, fresh_model, isic_split):
        with pytest.raises(ValueError):
            train_model(
                fresh_model,
                isic_split.train,
                config=TrainConfig(epochs=1),
                sample_weights=np.ones(3),
            )

    def test_fair_loss_attribute_used(self, isic_split):
        train = isic_split.train
        model = ZooModel.from_name("DenseNet201", train.feature_dim, train.num_classes, seed=0)
        config = TrainConfig(epochs=10, fair_attribute="age", fairness_weight=2.0)
        result = train_model(model, train, config=config)
        assert model.is_trained
        assert len(result.losses) == 10

    def test_adam_option(self, isic_split):
        train = isic_split.train
        model = ZooModel.from_name("ShuffleNet_V2_X0_5", train.feature_dim, train.num_classes, seed=0)
        result = train_model(model, train, config=TrainConfig(epochs=10, optimizer="adam", lr=0.01))
        assert result.train_accuracy[-1] > 0.4

    def test_train_result_to_dict(self, fresh_model, isic_split):
        result = train_model(fresh_model, isic_split.train, config=TrainConfig(epochs=2))
        payload = result.to_dict()
        assert len(payload["losses"]) == 2


def _oracle_models(split):
    train = split.train
    return [
        ZooModel.from_name(name, train.feature_dim, train.num_classes, seed=index)
        for index, name in enumerate(ORACLE_POOL)
    ]


def _assert_identical(fused_models, fused_results, oracle_models, oracle_results):
    for fused, fused_result, oracle, oracle_result in zip(
        fused_models, fused_results, oracle_models, oracle_results
    ):
        assert np.array_equal(fused.head.linear.weight.data, oracle.head.linear.weight.data)
        assert np.array_equal(fused.head.linear.bias.data, oracle.head.linear.bias.data)
        assert fused_result.losses == oracle_result.losses
        assert fused_result.train_accuracy == oracle_result.train_accuracy
        assert fused_result.val_accuracy == oracle_result.val_accuracy
        assert fused_result.final_lr == oracle_result.final_lr
        assert fused.training_history == oracle.training_history
        assert fused.is_trained and oracle.is_trained


class TestFusedMatchesAutograd:
    """``train_models`` (fused) against ``_train_model_autograd`` with ``==``."""

    @pytest.mark.parametrize(
        "optimizer, label_smoothing, weighted, seed",
        [
            case + (seed,)
            for case, seed in zip(
                itertools.product(("sgd", "adam"), (0.0, 0.1), (False, True)),
                itertools.cycle((4, None, None, 4)),  # each option meets both seeds
            )
        ],
    )
    def test_bit_identical(self, isic_split, optimizer, label_smoothing, weighted, seed):
        train = isic_split.train
        config = TrainConfig(
            epochs=5,
            batch_size=97,
            lr=0.1 if optimizer == "sgd" else 0.01,
            lr_decay=0.8,
            lr_decay_every=2,  # decays after epochs 2 and 4
            optimizer=optimizer,
            label_smoothing=label_smoothing,
            seed=seed,
        )
        assert len(train) % config.batch_size != 0  # a ragged last batch
        weights = None
        if weighted:  # Method D's weighted variant
            weights = np.ones(len(train))
            weights[train.unprivileged_mask("site")] = 6.0

        fused_models = _oracle_models(isic_split)
        fused_results = train_models(fused_models, train, isic_split.val, config, weights)
        oracle_models = _oracle_models(isic_split)
        oracle_results = [
            _train_model_autograd(model, train, isic_split.val, config, weights)
            for model in oracle_models
        ]
        _assert_identical(fused_models, fused_results, oracle_models, oracle_results)
        assert fused_results[0].final_lr == config.lr * 0.8 ** 2

    def test_train_model_without_val_set(self, isic_split):
        config = TrainConfig(epochs=3, batch_size=256, seed=1)
        fused, oracle = _oracle_models(isic_split)[:1], _oracle_models(isic_split)[:1]
        fused_result = train_model(fused[0], isic_split.train, config=config)
        oracle_result = _train_model_autograd(oracle[0], isic_split.train, None, config, None)
        _assert_identical(fused, [fused_result], oracle, [oracle_result])
        assert fused_result.val_accuracy == []

    def test_fair_loss_keeps_the_autograd_loop(self, isic_split, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Method L must not train on the fused kernels")

        monkeypatch.setattr(training_mod, "train_mlp_stacks", refuse)
        config = TrainConfig(epochs=2, batch_size=256, fair_attribute="age", fairness_weight=2.0)
        fused_models = _oracle_models(isic_split)
        fused_results = train_models(fused_models, isic_split.train, isic_split.val, config)
        oracle_models = _oracle_models(isic_split)
        oracle_results = [
            _train_model_autograd(model, isic_split.train, isic_split.val, config, None)
            for model in oracle_models
        ]
        _assert_identical(fused_models, fused_results, oracle_models, oracle_results)

    def test_pipeline_result_hash_matches_the_oracle(self, monkeypatch):
        spec = RunSpec.from_json(SMOKE_SPEC)
        groups = []
        original = training_mod.train_mlp_stacks

        def recording(stacks, *args, **kwargs):
            groups.append(len(stacks))
            return original(stacks, *args, **kwargs)

        monkeypatch.setattr(training_mod, "train_mlp_stacks", recording)
        fused_hash = MuffinPipeline(spec, cache_dir=None).run().result.result_hash()
        assert sorted(groups) == [1, 2]  # widths 40 and 52 of the smoke pool

        oracle_calls = []
        original_oracle = training_mod._train_model_autograd

        def oracle(model, *args, **kwargs):
            oracle_calls.append(model.name)
            return original_oracle(model, *args, **kwargs)

        monkeypatch.setattr(training_mod, "extract_fused_stack", lambda head: None)
        monkeypatch.setattr(training_mod, "_train_model_autograd", oracle)
        oracle_hash = MuffinPipeline(spec, cache_dir=None).run().result.result_hash()
        assert len(oracle_calls) == 3
        assert fused_hash == oracle_hash


class TestZooTrainSpans:
    def test_one_span_per_width_group(self, isic_split):
        config = TrainConfig(epochs=2, batch_size=256, seed=0)
        buffer = io.StringIO()
        install(TraceWriter(buffer))
        try:
            train_models(_oracle_models(isic_split), isic_split.train, isic_split.val, config)
        finally:
            uninstall()
        buffer.seek(0)
        spans = [row for row in load_spans(buffer) if row["name"] == "zoo/train"]
        steps = config.epochs * -(-len(isic_split.train) // config.batch_size)
        assert sorted((row["width"], row["models"]) for row in spans) == [(40, 2), (52, 1)]
        for row in spans:
            assert row["epochs"] == config.epochs
            assert row["steps"] == steps

    def test_nothing_recorded_without_a_writer(self, isic_split, monkeypatch):
        assert active_writer() is None
        yielded = []
        original = training_mod.span

        @contextlib.contextmanager
        def recording(name, **attrs):
            with original(name, **attrs) as span_id:
                yielded.append((name, span_id))
                yield span_id

        monkeypatch.setattr(training_mod, "span", recording)
        train_models(_oracle_models(isic_split), isic_split.train, None, TrainConfig(epochs=1))
        assert yielded == [("zoo/train", None), ("zoo/train", None)]
