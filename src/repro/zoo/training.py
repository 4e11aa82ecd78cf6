"""Training loop for the classifier heads of zoo models.

The paper trains every competitor "from scratch with the same
hyper-parameters" — SGD, learning rate 0.1 with a 0.9 decay every 20 steps.
The simulated backbones are frozen, so only the softmax head is optimised
here.  The trainer also supports the two single-attribute baselines:

* per-sample weights (cost-sensitive variant of Method D);
* the fair-regularized loss of Method L, which needs the group ids of the
  attribute being optimised.

:func:`train_models` is the one dispatch site.  Every head is a single
``Linear``, so heads of one input width train together on the graph-free
kernels of :mod:`repro.nn.fused`, bit-identical to the autograd tape; only
Method L's fair loss, which has no kernel, keeps the autograd loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import nn
from ..data.dataset import FairnessDataset
from ..nn.fused import extract_fused_stack, train_mlp_stacks
from ..obs import span
from ..utils.rng import get_rng
from .model import ZooModel


@dataclass
class TrainConfig:
    """Hyper-parameters of head training.

    The defaults mirror the paper's recipe scaled down to the numpy
    substrate: the paper uses lr=0.1 decayed by 0.9 every 20 steps, batch 64
    and 500 epochs on a GPU cluster; the synthetic task converges in a few
    dozen epochs.
    """

    epochs: int = 60
    batch_size: int = 128
    lr: float = 0.1
    lr_decay: float = 0.9
    lr_decay_every: int = 20
    momentum: float = 0.9
    weight_decay: float = 1e-4
    optimizer: str = "sgd"
    label_smoothing: float = 0.0
    #: weight of the group-disparity penalty when ``fair_attribute`` is set
    fairness_weight: float = 0.0
    #: attribute whose groups the fair loss regularises (Method L)
    fair_attribute: Optional[str] = None
    seed: int = 0
    verbose: bool = False

    def __post_init__(self) -> None:
        # The checks StepLR, SGD, iter_batches and CrossEntropyLoss make,
        # in one place so neither training path can skip them.
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")
        if self.lr_decay_every < 1:
            raise ValueError("lr_decay_every must be positive")
        if self.optimizer not in {"sgd", "adam"}:
            raise ValueError(
                f"unknown optimizer '{self.optimizer}'; expected 'sgd' or 'adam'"
            )
        if self.optimizer == "sgd":
            if not 0.0 <= self.momentum < 1.0:
                raise ValueError("momentum must be in [0, 1)")
            if self.weight_decay < 0:
                raise ValueError("weight_decay must be non-negative")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")


@dataclass
class TrainResult:
    """Loss / accuracy curves recorded during training."""

    losses: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)
    final_lr: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "losses": list(self.losses),
            "train_accuracy": list(self.train_accuracy),
            "val_accuracy": list(self.val_accuracy),
            "final_lr": self.final_lr,
        }


def _make_optimizer(model: ZooModel, config: TrainConfig) -> nn.Optimizer:
    params = list(model.head.parameters())
    if config.optimizer == "sgd":
        return nn.SGD(
            params,
            lr=config.lr,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
    if config.optimizer == "adam":
        return nn.Adam(params, lr=config.lr, weight_decay=config.weight_decay)
    raise ValueError(f"unknown optimizer '{config.optimizer}'; expected 'sgd' or 'adam'")


def _log_epoch(model: ZooModel, config: TrainConfig, result: TrainResult, epoch: int) -> None:
    """Print one ``verbose`` progress line."""
    val_msg = f", val_acc={result.val_accuracy[epoch]:.4f}" if result.val_accuracy else ""
    print(
        f"[{model.label}] epoch {epoch + 1}/{config.epochs} "
        f"loss={result.losses[epoch]:.4f} "
        f"train_acc={result.train_accuracy[epoch]:.4f}{val_msg}"
    )


def _finish(model: ZooModel, result: TrainResult) -> None:
    model.training_history["loss"].extend(result.losses)
    model.training_history["accuracy"].extend(result.train_accuracy)
    model.is_trained = True


def _train_model_autograd(
    model: ZooModel,
    train_set: FairnessDataset,
    val_set: Optional[FairnessDataset],
    config: TrainConfig,
    sample_weights: Optional[np.ndarray],
) -> TrainResult:
    """The autograd-tape loop: Method L's fair loss and the fused path's oracle."""
    rng = get_rng(config.seed)
    result = TrainResult()

    # The backbone is frozen: extract features once.
    train_features = model.features(train_set)
    val_features = model.features(val_set) if val_set is not None else None

    fair_loss: Optional[nn.FairRegularizedLoss] = None
    fair_groups: Optional[np.ndarray] = None
    if config.fair_attribute is not None:
        fair_loss = nn.FairRegularizedLoss(fairness_weight=config.fairness_weight)
        fair_groups = train_set.group_ids(config.fair_attribute)

    ce_loss = nn.CrossEntropyLoss(label_smoothing=config.label_smoothing)
    optimizer = _make_optimizer(model, config)
    scheduler = nn.StepLR(optimizer, step_size=config.lr_decay_every, gamma=config.lr_decay)

    for epoch in range(config.epochs):
        epoch_losses = []
        for batch, weights in train_set.iter_batches(
            config.batch_size, train_features, shuffle=True, rng=rng, sample_weights=sample_weights
        ):
            logits = model.head(nn.Tensor(batch.features))
            if fair_loss is not None and fair_groups is not None:
                loss = fair_loss(logits, batch.labels, fair_groups[batch.indices])
            else:
                loss = ce_loss(logits, batch.labels, sample_weights=weights)
            model.head.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())

        result.losses.append(float(np.mean(epoch_losses)))
        train_logits = model.head(nn.Tensor(train_features)).data
        result.train_accuracy.append(nn.functional.accuracy(train_logits, train_set.labels))
        if val_features is not None and val_set is not None:
            val_logits = model.head(nn.Tensor(val_features)).data
            result.val_accuracy.append(nn.functional.accuracy(val_logits, val_set.labels))
        result.final_lr = scheduler.step()
        if config.verbose:
            _log_epoch(model, config, result, epoch)

    _finish(model, result)
    return result


def train_models(
    models: Sequence[ZooModel],
    train_set: FairnessDataset,
    val_set: Optional[FairnessDataset] = None,
    config: Optional[TrainConfig] = None,
    sample_weights: Optional[np.ndarray] = None,
) -> List[TrainResult]:
    """Train the classifier heads of ``models`` on ``train_set``.

    Heads are grouped by input width and each group trains on the fused
    kernels (:func:`repro.nn.fused.train_mlp_stacks`) in one batched
    minibatch loop — one ``zoo/train`` span per group.  A group's features
    are extracted just before it trains and dropped right after, so only
    one group's features are alive at a time.  All heads share ``config``,
    hence one seeded shuffle stream, and every result is bit-identical to
    training the model alone on the autograd tape.  Heads trained with
    Method L's fair loss (``config.fair_attribute``) keep the autograd loop.

    Parameters
    ----------
    sample_weights:
        Optional per-sample weights for cost-sensitive training (used by the
        weighted variant of the data-balancing baseline).
    """
    config = config or TrainConfig()
    models = list(models)
    if sample_weights is not None:
        sample_weights = np.asarray(sample_weights, dtype=np.float64)
        if sample_weights.shape != (len(train_set),):
            raise ValueError("sample_weights must have one entry per training sample")

    results: List[Optional[TrainResult]] = [None] * len(models)
    groups: Dict[tuple, List[int]] = {}
    stacks = []
    for index, model in enumerate(models):
        stack = extract_fused_stack(model.head) if config.fair_attribute is None else None
        stacks.append(stack)
        if stack is None:
            results[index] = _train_model_autograd(
                model, train_set, val_set, config, sample_weights
            )
        else:
            groups.setdefault(stack.signature, []).append(index)

    steps = config.epochs * -(-len(train_set) // config.batch_size)
    for indices in groups.values():
        width = stacks[indices[0]].shapes[0][0]
        with span("zoo/train", width=width, models=len(indices), epochs=config.epochs, steps=steps):
            val = None
            if val_set is not None:
                val = ([models[i].features(val_set) for i in indices], val_set.labels)
            curves = train_mlp_stacks(
                [stacks[i] for i in indices],
                [models[i].features(train_set) for i in indices],
                train_set.labels,
                sample_weights,
                train_set.num_classes,
                epochs=config.epochs,
                batch_size=config.batch_size,
                lr=config.lr,
                weight_decay=config.weight_decay,
                optimizer=config.optimizer,
                momentum=config.momentum,
                lr_decay=config.lr_decay,
                lr_decay_every=config.lr_decay_every,
                loss="cross_entropy",
                label_smoothing=config.label_smoothing,
                train_accuracy=True,
                val=val,
                seed=config.seed,
            )
        for head, index in enumerate(indices):
            result = TrainResult(
                losses=curves.losses[head],
                train_accuracy=curves.train_accuracy[head],
                val_accuracy=curves.val_accuracy[head],
                final_lr=curves.final_lr,
            )
            if config.verbose:
                for epoch in range(config.epochs):
                    _log_epoch(models[index], config, result, epoch)
            _finish(models[index], result)
            results[index] = result
    return [result for result in results if result is not None]


def train_model(
    model: ZooModel,
    train_set: FairnessDataset,
    val_set: Optional[FairnessDataset] = None,
    config: Optional[TrainConfig] = None,
    sample_weights: Optional[np.ndarray] = None,
) -> TrainResult:
    """Train the classifier head of ``model`` on ``train_set``.

    The one-model case of :func:`train_models`.

    Parameters
    ----------
    sample_weights:
        Optional per-sample weights for cost-sensitive training (used by the
        weighted variant of the data-balancing baseline).
    """
    return train_models([model], train_set, val_set, config, sample_weights)[0]
