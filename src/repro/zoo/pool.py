"""The model pool: a collection of trained off-the-shelf models.

The "muffin body" selects models from this pool (Figure 4, component ①).
``ModelPool`` owns the construction and training of every pool member on a
given dataset split, caches their test-set predictions (the backbones are
frozen, so predictions never change), and exposes the evaluation /
Pareto-point helpers the experiments use.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from ..data.dataset import FairnessDataset
from ..data.splits import DataSplit
from ..fairness.metrics import FairnessEvaluation
from ..fairness.pareto import ParetoPoint, make_point
from ..utils.rng import derive_seeds
from .architectures import default_pool_names, get_architecture
from .model import ZooModel
# ``train_model`` is not called here, but ``perfbench/tracer.py`` wraps
# ``repro.zoo.pool.train_model`` by name, so the name must stay resolvable.
from .training import TrainConfig, TrainResult, train_model, train_models  # noqa: F401


class ModelPool:
    """Builds, trains and serves a pool of off-the-shelf models."""

    def __init__(
        self,
        split: DataSplit,
        architecture_names: Optional[Sequence[str]] = None,
        train_config: Optional[TrainConfig] = None,
        seed: int = 0,
    ) -> None:
        self.split = split
        self.train_config = train_config or TrainConfig()
        self.architecture_names = (
            list(architecture_names) if architecture_names is not None else default_pool_names()
        )
        if not self.architecture_names:
            raise ValueError("the model pool needs at least one architecture")
        self.seed = seed
        self._models: Dict[str, ZooModel] = {}
        self._train_results: Dict[str, TrainResult] = {}
        self._prediction_cache: Dict[str, Dict[str, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self, verbose: bool = False) -> "ModelPool":
        """Instantiate and train every architecture in the pool.

        All heads train in one :func:`~repro.zoo.training.train_models` call,
        which batches them by head width on the fused kernels.
        """
        dataset = self.split.train
        seeds = derive_seeds(self.seed, len(self.architecture_names))
        models = []
        for name, model_seed in zip(self.architecture_names, seeds):
            spec = get_architecture(name)
            models.append(
                ZooModel(
                    spec,
                    feature_dim=dataset.feature_dim,
                    num_classes=dataset.num_classes,
                    seed=model_seed,
                )
            )
            if verbose:
                print(f"[pool] training {spec.name} ({spec.num_parameters:,} parameters)")
        results = train_models(models, self.split.train, self.split.val, self.train_config)
        for model, result in zip(models, results):
            self._train_results[model.name] = result
            self._models[model.name] = model
        return self

    def add_model(self, model: ZooModel, train_result: Optional[TrainResult] = None) -> None:
        """Add an externally trained model (e.g. a baseline-optimized one)."""
        if not model.is_trained:
            raise ValueError("only trained models can join the pool")
        self._models[model.label] = model
        if train_result is not None:
            self._train_results[model.label] = train_result
        self._prediction_cache.pop(model.label, None)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def names(self) -> List[str]:
        return list(self._models)

    def __len__(self) -> int:
        return len(self._models)

    def __iter__(self) -> Iterator[ZooModel]:
        return iter(self._models.values())

    def __contains__(self, name: str) -> bool:
        return name in self._models

    def get(self, name: str) -> ZooModel:
        """Return the pool model named ``name`` (accepts paper aliases)."""
        if name in self._models:
            return self._models[name]
        canonical = get_architecture(name).name
        try:
            return self._models[canonical]
        except KeyError as exc:
            raise KeyError(
                f"model '{name}' is not in the pool; available: {self.names}"
            ) from exc

    def models(self, names: Optional[Sequence[str]] = None) -> List[ZooModel]:
        """Return the selected models (or all of them)."""
        if names is None:
            return list(self._models.values())
        return [self.get(name) for name in names]

    def train_result(self, name: str) -> TrainResult:
        return self._train_results[self.get(name).label]

    # ------------------------------------------------------------------
    # Cached prediction / evaluation
    # ------------------------------------------------------------------
    def _cache_for(self, model: ZooModel) -> Dict[str, np.ndarray]:
        cache = self._prediction_cache.setdefault(model.label, {})
        return cache

    def predict_proba(self, name: str, partition: str = "test") -> np.ndarray:
        """Cached class probabilities of one model on a split partition."""
        model = self.get(name)
        dataset = self.partition(partition)
        cache = self._cache_for(model)
        key = f"proba:{partition}"
        if key not in cache:
            cache[key] = model.predict_proba(dataset)
        return cache[key]

    def predict(self, name: str, partition: str = "test") -> np.ndarray:
        """Cached hard predictions of one model on a split partition."""
        return self.predict_proba(name, partition).argmax(axis=-1)

    def partition(self, name: str) -> FairnessDataset:
        """Return one of the split partitions by name."""
        try:
            return {"train": self.split.train, "val": self.split.val, "test": self.split.test}[name]
        except KeyError as exc:
            raise KeyError("partition must be one of 'train', 'val', 'test'") from exc

    def evaluate(
        self,
        name: str,
        partition: str = "test",
        attributes: Optional[Sequence[str]] = None,
    ) -> FairnessEvaluation:
        """Fairness evaluation of one pool model on a partition."""
        model = self.get(name)
        dataset = self.partition(partition)
        from ..fairness.metrics import evaluate_predictions

        return evaluate_predictions(self.predict(model.label, partition), dataset, attributes)

    def evaluate_all(
        self,
        partition: str = "test",
        attributes: Optional[Sequence[str]] = None,
    ) -> Dict[str, FairnessEvaluation]:
        """Fairness evaluation of every pool model.

        All models are scored in one call of the vectorized
        :class:`~repro.fairness.engine.EvaluationEngine`: their cached hard
        predictions are stacked into a ``(num_models, N)`` matrix and every
        attribute's metrics come out of a handful of array ops —
        bit-identical to evaluating each model separately.
        """
        from ..fairness.engine import EvaluationEngine

        names = self.names
        if not names:
            return {}
        dataset = self.partition(partition)
        engine = EvaluationEngine.for_dataset(dataset, attributes)
        stacked = np.stack([self.predict(name, partition) for name in names])
        batch = engine.evaluate(stacked)
        return {name: batch.evaluation(index) for index, name in enumerate(names)}

    # ------------------------------------------------------------------
    # Pareto helpers (Figures 1, 5 and 7)
    # ------------------------------------------------------------------
    def pareto_points(
        self,
        attributes: Sequence[str],
        partition: str = "test",
        include_accuracy: bool = False,
    ) -> List[ParetoPoint]:
        """Each pool model as a point in unfairness(-and-accuracy) space."""
        points: List[ParetoPoint] = []
        for name, evaluation in self.evaluate_all(partition, attributes).items():
            objectives: Dict[str, float] = {
                f"U({attr})": evaluation.unfairness[attr] for attr in attributes
            }
            maximize: List[str] = []
            if include_accuracy:
                objectives["accuracy"] = evaluation.accuracy
                maximize.append("accuracy")
            points.append(make_point(name, objectives, maximize=maximize))
        return points

    def summary(self, partition: str = "test") -> List[Dict[str, object]]:
        """One row per model: parameters, accuracy and unfairness scores."""
        rows = []
        for name, evaluation in self.evaluate_all(partition).items():
            model = self.get(name)
            row: Dict[str, object] = {
                "model": name,
                "parameters": model.num_parameters,
                "accuracy": evaluation.accuracy,
            }
            for attr, value in evaluation.unfairness.items():
                row[f"U({attr})"] = value
            rows.append(row)
        return rows
