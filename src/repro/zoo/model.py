"""Off-the-shelf model = frozen simulated backbone + trainable softmax head.

A :class:`ZooModel` is the unit Muffin selects from the model pool.  Its
backbone is frozen (matching the paper: "we will freeze the parameters in
the pre-trained off-the-shelf models"), only the classifier head is trained,
and the model exposes the two things the rest of the system needs:

* ``predict_logits`` / ``predict_proba`` / ``predict`` on a dataset, used by
  the fairness metrics and by the muffin head (which consumes the pool
  models' output probabilities);
* ``evaluate`` producing a :class:`~repro.fairness.metrics.FairnessEvaluation`.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Dict, Optional, Sequence

import numpy as np

from .. import nn
from ..data.dataset import FairnessDataset
from ..fairness.metrics import FairnessEvaluation, evaluate_predictions
from ..utils.rng import get_rng
from .architectures import ArchitectureSpec, get_architecture
from .backbone import SimulatedBackbone

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data.schema import FeatureSchema


def softmax_probabilities(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis.

    The single implementation behind every probability output in the library
    (zoo models, the raw-feature serving path, the fused head), so the two
    inference paths cannot drift by a ulp.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class ZooModel:
    """One off-the-shelf model of the pool."""

    def __init__(
        self,
        spec: ArchitectureSpec,
        feature_dim: int,
        num_classes: int,
        seed: Optional[int] = None,
        label: Optional[str] = None,
    ) -> None:
        self.spec = spec
        self.num_classes = num_classes
        self.label = label or spec.name
        # CRC of the architecture name (not ``hash``, which is randomised per
        # process) keeps default-constructed models reproducible everywhere.
        self.seed = seed if seed is not None else zlib.crc32(spec.name.encode("utf-8"))
        rng = get_rng(self.seed)
        self.backbone = SimulatedBackbone(spec, feature_dim, seed=int(rng.integers(0, 2**31)))
        self.head = nn.SoftmaxClassifier(self.backbone.output_dim, num_classes, rng=rng)
        self.training_history: Dict[str, list] = {"loss": [], "accuracy": []}
        self.is_trained = False

    # ------------------------------------------------------------------
    @classmethod
    def from_name(
        cls,
        name: str,
        feature_dim: int,
        num_classes: int,
        seed: Optional[int] = None,
        label: Optional[str] = None,
    ) -> "ZooModel":
        """Build a model from an architecture name or paper alias."""
        return cls(get_architecture(name), feature_dim, num_classes, seed=seed, label=label)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_parameters(self) -> int:
        """Nominal parameter count of the simulated architecture (paper's figure)."""
        return self.spec.num_parameters

    def clone_untrained(self, seed: Optional[int] = None, label: Optional[str] = None) -> "ZooModel":
        """Create a fresh, untrained model with the same architecture.

        Used by the single-attribute baselines, which retrain a model with
        modified data (Method D) or a modified loss (Method L).  The frozen
        pre-trained backbone is shared (it represents the same off-the-shelf
        feature extractor); only the classifier head is re-initialised.
        """
        clone = ZooModel(
            self.spec,
            self.backbone.feature_dim,
            self.num_classes,
            seed=seed,
            label=label or self.label,
        )
        clone.backbone = self.backbone
        return clone

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def features(self, dataset: FairnessDataset, indices: Optional[np.ndarray] = None) -> np.ndarray:
        """Frozen backbone features for ``dataset``."""
        return self.backbone.extract(dataset, indices)

    def _head_logits(self, features: np.ndarray) -> np.ndarray:
        """``features @ W + b`` without the autograd tape.

        The same two numpy ops ``Tensor.matmul`` and ``Tensor.__add__`` run
        for the head's ``Linear``, so the logits are bit-identical to
        ``self.head(nn.Tensor(features)).data``.
        """
        linear = self.head.linear
        features = np.asarray(features, dtype=np.float64)
        return features @ linear.weight.data + linear.bias.data

    def predict_logits(self, dataset: FairnessDataset, indices: Optional[np.ndarray] = None) -> np.ndarray:
        """Raw classification scores ``(N, C)``."""
        return self._head_logits(self.features(dataset, indices))

    def predict_proba(self, dataset: FairnessDataset, indices: Optional[np.ndarray] = None) -> np.ndarray:
        """Class probabilities ``(N, C)`` (softmax of the logits)."""
        return softmax_probabilities(self.predict_logits(dataset, indices))

    def predict(self, dataset: FairnessDataset, indices: Optional[np.ndarray] = None) -> np.ndarray:
        """Hard class predictions ``(N,)``."""
        return self.predict_logits(dataset, indices).argmax(axis=-1)

    # ------------------------------------------------------------------
    # Raw-feature inference (the dataset-free serving path)
    # ------------------------------------------------------------------
    def predict_logits_features(
        self, features: np.ndarray, schema: "FeatureSchema"
    ) -> np.ndarray:
        """Raw classification scores from a stacked component matrix.

        ``features`` follows ``schema`` (see
        :meth:`~repro.data.schema.FeatureSchema.features`); the result is
        bit-identical to :meth:`predict_logits` on the samples the matrix
        was stacked from.
        """
        return self._head_logits(self.backbone.extract_components(features, schema))

    def predict_proba_features(
        self, features: np.ndarray, schema: "FeatureSchema"
    ) -> np.ndarray:
        """Class probabilities from a stacked component matrix."""
        return softmax_probabilities(self.predict_logits_features(features, schema))

    def predict_features(
        self, features: np.ndarray, schema: "FeatureSchema"
    ) -> np.ndarray:
        """Hard class predictions from a stacked component matrix."""
        return self.predict_logits_features(features, schema).argmax(axis=-1)

    def evaluate(
        self,
        dataset: FairnessDataset,
        attributes: Optional[Sequence[str]] = None,
    ) -> FairnessEvaluation:
        """Accuracy + per-attribute unfairness of this model on ``dataset``."""
        return evaluate_predictions(self.predict(dataset), dataset, attributes)

    # ------------------------------------------------------------------
    # Head parameter management
    # ------------------------------------------------------------------
    def head_state(self) -> Dict[str, np.ndarray]:
        """State dict of the trainable head."""
        return self.head.state_dict()

    def load_head_state(self, state: Dict[str, np.ndarray]) -> None:
        """Restore the trainable head from a state dict."""
        self.head.load_state_dict(state)
        self.is_trained = True

    def __repr__(self) -> str:
        status = "trained" if self.is_trained else "untrained"
        return f"ZooModel('{self.label}', params={self.num_parameters:,}, {status})"
