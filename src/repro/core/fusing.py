"""The model-fusing structure: muffin body + muffin head.

* :class:`MuffinBody` — the selected off-the-shelf models, frozen.  Its
  output for a sample is the concatenation of every member's class-
  probability vector.
* :class:`MuffinHead` — the small MLP chosen by the controller.  It maps the
  body output to class logits and is the only trained component.
* :class:`FusedModel` — body + head.  At inference time, samples on which
  every body member agrees keep the consensus prediction (the paper: "the
  proposed technique is not going to change the output if all models reached
  consensus"); the head arbitrates only the disagreements.

An :func:`oracle_union_predictions` helper implements the ideal arbiter of
Figure 3(b): whenever at least one body member is correct the oracle picks a
correct one.  It upper-bounds what any head can achieve and is used by the
disagreement experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import nn
from ..data.dataset import FairnessDataset
from ..data.schema import FeatureSchema
from ..fairness.metrics import FairnessEvaluation, evaluate_predictions
from ..utils.rng import get_rng
from ..zoo.model import ZooModel, softmax_probabilities
from .search_space import FusingCandidate


class MuffinBody:
    """The frozen off-the-shelf models selected for fusion."""

    def __init__(self, models: Sequence[ZooModel]) -> None:
        if not models:
            raise ValueError("the muffin body needs at least one model")
        num_classes = {model.num_classes for model in models}
        if len(num_classes) != 1:
            raise ValueError("all body models must share the same number of classes")
        untrained = [model.label for model in models if not model.is_trained]
        if untrained:
            raise ValueError(f"body models must be trained; untrained: {untrained}")
        self.models: List[ZooModel] = list(models)
        self.num_classes = num_classes.pop()

    # ------------------------------------------------------------------
    @property
    def model_names(self) -> List[str]:
        return [model.label for model in self.models]

    @property
    def output_dim(self) -> int:
        """Dimension of the concatenated probability vector fed to the head."""
        return len(self.models) * self.num_classes

    @property
    def num_parameters(self) -> int:
        """Nominal parameter count of the frozen body (sum of member counts)."""
        return sum(model.num_parameters for model in self.models)

    def __len__(self) -> int:
        return len(self.models)

    # ------------------------------------------------------------------
    def member_probabilities(
        self, dataset: FairnessDataset, indices: Optional[np.ndarray] = None
    ) -> List[np.ndarray]:
        """Per-member class-probability matrices ``(N, C)``."""
        return [model.predict_proba(dataset, indices) for model in self.models]

    def forward(self, dataset: FairnessDataset, indices: Optional[np.ndarray] = None) -> np.ndarray:
        """Concatenated member probabilities ``(N, len(models) * C)``."""
        return np.concatenate(self.member_probabilities(dataset, indices), axis=1)

    def member_probabilities_features(
        self, features: np.ndarray, schema: FeatureSchema
    ) -> List[np.ndarray]:
        """Per-member probabilities from a raw stacked component matrix."""
        return [model.predict_proba_features(features, schema) for model in self.models]

    def forward_features(self, features: np.ndarray, schema: FeatureSchema) -> np.ndarray:
        """Concatenated member probabilities from a raw component matrix."""
        return np.concatenate(self.member_probabilities_features(features, schema), axis=1)

    def consensus(
        self, dataset: FairnessDataset, indices: Optional[np.ndarray] = None
    ) -> Dict[str, np.ndarray]:
        """Member predictions, agreement mask and the agreed-upon labels."""
        member_predictions = np.stack(
            [probs.argmax(axis=-1) for probs in self.member_probabilities(dataset, indices)],
            axis=0,
        )
        agree = np.all(member_predictions == member_predictions[0], axis=0)
        return {
            "member_predictions": member_predictions,
            "agree": agree,
            "consensus_prediction": member_predictions[0],
        }


class MuffinHead(nn.Module):
    """The controller-chosen MLP that arbitrates body disagreements."""

    #: the head's forward is exactly ``self.mlp(x)``, so the fused-kernel
    #: eligibility walk (:func:`repro.nn.fused.extract_fused_stack`) may
    #: unwrap it to the underlying Linear/ReLU stack
    fused_delegate = "mlp"

    def __init__(
        self,
        body_output_dim: int,
        num_classes: int,
        hidden_sizes: Sequence[int],
        activation: str = "relu",
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        rng = get_rng(seed if seed is not None else 0)
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        self.activation = activation
        self.mlp = nn.MLP(
            in_features=body_output_dim,
            hidden_sizes=self.hidden_sizes,
            num_classes=num_classes,
            activation=activation,
            rng=rng,
        )

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        return self.mlp(x)

    def layer_description(self, num_classes: int) -> List[int]:
        """Width list in the paper's Table I notation (hidden widths + output)."""
        return [*self.hidden_sizes, num_classes]

    def __repr__(self) -> str:
        return f"MuffinHead(hidden={list(self.hidden_sizes)}, activation='{self.activation}')"


def consensus_arbitrate_labels(
    member_predictions: np.ndarray, head_predictions: np.ndarray
) -> "FusedPrediction":
    """Consensus-keeping arbitration from precomputed member argmax labels.

    ``member_predictions`` has shape ``(num_models, N)``.  Samples on which
    every body member agrees keep the consensus label, the head decides the
    rest.  Because the body members are frozen, their argmax labels on a
    fixed partition never change — the search computes them once per batch
    (shared by every candidate selecting those members) instead of
    re-deriving them from the concatenated probability matrix per episode.
    """
    member_predictions = np.asarray(member_predictions)
    head_predictions = np.asarray(head_predictions)
    if member_predictions.ndim != 2:
        raise ValueError(
            f"member_predictions must have shape (num_models, N), "
            f"got {member_predictions.shape}"
        )
    if head_predictions.shape != (member_predictions.shape[1],):
        raise ValueError(
            f"head_predictions must have shape ({member_predictions.shape[1]},), "
            f"got {head_predictions.shape}"
        )
    agree = np.all(member_predictions == member_predictions[0], axis=0)
    predictions = np.where(agree, member_predictions[0], head_predictions)
    return FusedPrediction(
        predictions=predictions,
        consensus_mask=agree,
        head_predictions=head_predictions,
        consensus_predictions=member_predictions[0],
    )


def consensus_arbitrate(
    body_outputs: np.ndarray, head_predictions: np.ndarray, num_classes: int
) -> "FusedPrediction":
    """Consensus-keeping arbitration from precomputed body outputs.

    ``body_outputs`` is the concatenated per-member probability matrix
    ``(N, num_models * num_classes)`` (as produced by
    :meth:`MuffinBody.forward` or a :class:`~repro.core.search.BodyOutputCache`);
    ``head_predictions`` the head's argmax labels for the same samples.
    Samples on which every body member agrees keep the consensus label, the
    head decides the rest — the single implementation (via
    :func:`consensus_arbitrate_labels`) shared by
    :meth:`FusedModel.predict_detailed` and the search loop, so the two
    paths cannot drift.
    """
    body_outputs = np.asarray(body_outputs)
    head_predictions = np.asarray(head_predictions)
    if body_outputs.ndim != 2 or body_outputs.shape[1] % num_classes != 0:
        raise ValueError(
            f"body_outputs must have shape (N, num_models * {num_classes}), "
            f"got {body_outputs.shape}"
        )
    num_models = body_outputs.shape[1] // num_classes
    member_predictions = np.stack(
        [
            body_outputs[:, i * num_classes : (i + 1) * num_classes].argmax(axis=-1)
            for i in range(num_models)
        ],
        axis=0,
    )
    return consensus_arbitrate_labels(member_predictions, head_predictions)


@dataclass
class FusedPrediction:
    """Predictions of a fused model plus bookkeeping about the arbitration."""

    predictions: np.ndarray
    consensus_mask: np.ndarray
    head_predictions: np.ndarray
    consensus_predictions: np.ndarray
    #: fused class probabilities ``(N, C)`` — populated by the raw-feature
    #: serving path (consensus rows become one-hot under the shortcut)
    probabilities: Optional[np.ndarray] = None

    @property
    def arbitrated_fraction(self) -> float:
        """Fraction of samples whose label was decided by the muffin head."""
        if self.consensus_mask.size == 0:
            return 0.0
        return float((~self.consensus_mask).mean())


class FusedModel:
    """Muffin body + muffin head, the artefact the search produces."""

    def __init__(
        self,
        body: MuffinBody,
        head: MuffinHead,
        name: str = "Muffin-Net",
        schema: Optional[FeatureSchema] = None,
    ) -> None:
        self.body = body
        self.head = head
        self.name = name
        #: raw-feature layout this model serves on (bound at export/load time)
        self.schema = schema
        #: free-form provenance (artifact path, spec hash) set by the loader
        self.metadata: Dict[str, object] = {}

    def bind_schema(self, schema: FeatureSchema) -> "FusedModel":
        """Attach the serving feature schema (enables ``predict_features``)."""
        self.schema = schema
        return self

    # ------------------------------------------------------------------
    @classmethod
    def from_candidate(
        cls,
        candidate: FusingCandidate,
        models: Sequence[ZooModel],
        seed: Optional[int] = None,
        name: Optional[str] = None,
    ) -> "FusedModel":
        """Instantiate the fused structure described by a search candidate."""
        body = MuffinBody(models)
        head = MuffinHead(
            body_output_dim=body.output_dim,
            num_classes=body.num_classes,
            hidden_sizes=candidate.hidden_sizes,
            activation=candidate.activation,
            seed=seed,
        )
        return cls(body, head, name=name or f"Muffin[{candidate.describe()}]")

    @property
    def num_classes(self) -> int:
        return self.body.num_classes

    @property
    def num_parameters(self) -> int:
        """Nominal total parameters: frozen body + trainable head."""
        return self.body.num_parameters + self.head.num_parameters()

    @property
    def trainable_parameters(self) -> int:
        """Parameters actually trained by Muffin (head only)."""
        return self.head.num_parameters()

    # ------------------------------------------------------------------
    def head_logits(self, dataset: FairnessDataset, indices: Optional[np.ndarray] = None) -> np.ndarray:
        """Head logits computed from the body's concatenated probabilities."""
        body_output = self.body.forward(dataset, indices)
        return self.head(nn.Tensor(body_output)).data

    def predict_detailed(
        self,
        dataset: FairnessDataset,
        indices: Optional[np.ndarray] = None,
        use_consensus_shortcut: bool = True,
    ) -> FusedPrediction:
        """Predict with full arbitration bookkeeping."""
        # One body forward serves both the consensus check and the head, so
        # each frozen member is queried exactly once.
        body_output = self.body.forward(dataset, indices)
        head_predictions = self.head(nn.Tensor(body_output)).data.argmax(axis=-1)
        arbitrated = consensus_arbitrate(body_output, head_predictions, self.num_classes)
        if use_consensus_shortcut:
            return arbitrated
        return FusedPrediction(
            predictions=head_predictions,
            consensus_mask=arbitrated.consensus_mask,
            head_predictions=head_predictions,
            consensus_predictions=arbitrated.consensus_predictions,
        )

    def predict(
        self,
        dataset: FairnessDataset,
        indices: Optional[np.ndarray] = None,
        use_consensus_shortcut: bool = True,
    ) -> np.ndarray:
        """Hard class predictions."""
        return self.predict_detailed(dataset, indices, use_consensus_shortcut).predictions

    # ------------------------------------------------------------------
    # Raw-feature inference (the dataset-free serving path)
    # ------------------------------------------------------------------
    def _resolve_schema(self, schema: Optional[FeatureSchema]) -> FeatureSchema:
        resolved = schema if schema is not None else self.schema
        if resolved is None:
            raise ValueError(
                "no feature schema bound to this fused model; pass schema= or "
                "bind_schema(FeatureSchema.from_dataset(dataset)) first"
            )
        return resolved

    def predict_detailed_features(
        self,
        features: np.ndarray,
        schema: Optional[FeatureSchema] = None,
        use_consensus_shortcut: bool = True,
    ) -> FusedPrediction:
        """Predict from a raw ``(n, input_dim)`` component matrix.

        ``features`` is the stacked component layout described by the bound
        :class:`~repro.data.schema.FeatureSchema` (see
        :meth:`FeatureSchema.features`); predictions are bit-identical to
        :meth:`predict_detailed` on the samples the matrix was stacked from.
        The returned prediction carries fused class probabilities: under the
        consensus shortcut, rows where every member agrees become the one-hot
        consensus label, the head's softmax decides the rest.
        """
        schema = self._resolve_schema(schema)
        features = schema.validate_features(features)
        if schema.num_classes != self.num_classes:
            raise ValueError(
                f"schema has {schema.num_classes} classes but the fused model "
                f"predicts {self.num_classes}"
            )
        body_output = self.body.forward_features(features, schema)
        head_logits = self.head(nn.Tensor(body_output)).data
        head_predictions = head_logits.argmax(axis=-1)
        arbitrated = consensus_arbitrate(body_output, head_predictions, self.num_classes)
        probabilities = softmax_probabilities(head_logits)
        if not use_consensus_shortcut:
            return FusedPrediction(
                predictions=head_predictions,
                consensus_mask=arbitrated.consensus_mask,
                head_predictions=head_predictions,
                consensus_predictions=arbitrated.consensus_predictions,
                probabilities=probabilities,
            )
        mask = arbitrated.consensus_mask
        if mask.any():
            probabilities = probabilities.copy()
            probabilities[mask] = np.eye(self.num_classes, dtype=np.float64)[
                arbitrated.consensus_predictions[mask]
            ]
        arbitrated.probabilities = probabilities
        return arbitrated

    def predict_features(
        self,
        features: np.ndarray,
        schema: Optional[FeatureSchema] = None,
        use_consensus_shortcut: bool = True,
    ) -> np.ndarray:
        """Hard class predictions from a raw component matrix."""
        return self.predict_detailed_features(
            features, schema, use_consensus_shortcut
        ).predictions

    def predict_proba_features(
        self,
        features: np.ndarray,
        schema: Optional[FeatureSchema] = None,
        use_consensus_shortcut: bool = True,
    ) -> np.ndarray:
        """Fused class probabilities ``(n, C)`` from a raw component matrix."""
        return self.predict_detailed_features(
            features, schema, use_consensus_shortcut
        ).probabilities

    def evaluate(
        self,
        dataset: FairnessDataset,
        attributes: Optional[Sequence[str]] = None,
        use_consensus_shortcut: bool = True,
    ) -> FairnessEvaluation:
        """Fairness evaluation of the fused model."""
        predictions = self.predict(dataset, use_consensus_shortcut=use_consensus_shortcut)
        return evaluate_predictions(predictions, dataset, attributes)

    def __repr__(self) -> str:
        return (
            f"FusedModel(name='{self.name}', body={self.body.model_names}, "
            f"head={self.head.layer_description(self.num_classes)})"
        )


def oracle_union_predictions(
    member_predictions: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """The ideal arbiter of Figure 3(b).

    ``member_predictions`` has shape ``(num_models, N)``.  Whenever at least
    one member predicts the true label the oracle returns that label;
    otherwise it returns the first member's prediction.  This bounds the
    accuracy any muffin head could reach on the same body.
    """
    member_predictions = np.asarray(member_predictions)
    labels = np.asarray(labels, dtype=np.int64)
    if member_predictions.ndim != 2 or member_predictions.shape[1] != labels.shape[0]:
        raise ValueError("member_predictions must have shape (num_models, N)")
    any_correct = np.any(member_predictions == labels[None, :], axis=0)
    return np.where(any_correct, labels, member_predictions[0])
