"""Fairness-aware training of the muffin head (Figure 4 component ②).

Only the head MLP is trained; the body models stay frozen.  Training data
is the proxy dataset of :mod:`repro.core.proxy`, the loss is the weighted
MSE of Equation 2 (a weighted cross-entropy variant is also provided for
ablations), and the optimiser defaults to Adam, which converges in a few
dozen epochs on the small head.

Two implementations produce bit-identical results:

* the **autograd reference** — the closure-based tape of
  :mod:`repro.nn.tensor`, kept as the always-correct oracle for any head
  structure;
* the **fused fast path** — the closed-form kernels of
  :mod:`repro.nn.fused`, used automatically for eligible heads (pure MLP
  stacks with one ReLU, tanh, LeakyReLU or sigmoid activation, which is
  every candidate the search space produces).  :func:`train_heads_batched`
  trains all C fused candidate heads in one lockstep minibatch loop
  (:func:`repro.nn.fused.train_mlp_stacks`): a stacked forward/backward
  per signature group, then one loss-kernel call and one optimiser step
  for every head; a single head is its ``C == 1`` case.

``HeadTrainConfig.use_fused`` is the escape hatch: ``False`` forces the
autograd path everywhere (and restores per-candidate dispatch through the
search's executor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import nn
from ..nn.fused import extract_fused_stack, train_mlp_stacks
from ..utils.rng import get_rng
from .backend import DEFAULT_BACKEND, get_backend
from .fusing import FusedModel
from .proxy import ProxyDataset


@dataclass
class HeadTrainConfig:
    """Hyper-parameters for muffin-head training."""

    epochs: int = 40
    batch_size: int = 128
    lr: float = 5e-3
    weight_decay: float = 1e-4
    optimizer: str = "adam"
    #: 'weighted_mse' is Equation 2; 'weighted_ce' is an ablation variant
    loss: str = "weighted_mse"
    seed: int = 0
    verbose: bool = False
    #: dispatch eligible heads (MLP stacks with one ReLU, tanh, LeakyReLU or
    #: sigmoid activation — every head the search space emits) to the
    #: graph-free fused kernels of :mod:`repro.nn.fused`.  Results are
    #: bit-identical to the autograd path; ``False`` forces the closure-based
    #: reference loop (and, in the search, per-candidate dispatch through
    #: the executor).
    use_fused: bool = True
    #: array backend the fused kernels run on (``repro.core.backend.BACKENDS``
    #: name).  The default is bit-identical to the autograd oracle; the
    #: ``numpy-float32`` backend trades bit-identity for float32 GEMMs under
    #: the documented tolerance contract.  The autograd fallback path always
    #: stays the float64 oracle regardless of this setting.
    backend: str = DEFAULT_BACKEND

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if self.loss not in {"weighted_mse", "weighted_ce"}:
            raise ValueError("loss must be 'weighted_mse' or 'weighted_ce'")
        if self.optimizer not in {"adam", "sgd"}:
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        # Resolve aliases eagerly so an unknown backend fails at config time
        # (with did-you-mean suggestions), not mid-search.
        self.backend = get_backend(self.backend).name


@dataclass
class HeadTrainResult:
    """Loss curve and sizes recorded while training a head."""

    losses: List[float] = field(default_factory=list)
    proxy_size: int = 0
    epochs: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {"losses": list(self.losses), "proxy_size": self.proxy_size, "epochs": self.epochs}


def _validate_training_inputs(
    body_outputs: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> None:
    n = labels.shape[0]
    if body_outputs.ndim != 2 or body_outputs.shape[0] != n:
        raise ValueError(
            f"body_outputs must have shape ({n}, d), got {body_outputs.shape}"
        )
    if weights.shape[0] != n:
        raise ValueError(f"sample_weights must have {n} entries, got {weights.shape[0]}")


def _train_head_autograd(
    head: nn.Module,
    body_outputs: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    num_classes: int,
    config: HeadTrainConfig,
) -> HeadTrainResult:
    """The closure-based autograd reference loop (the fused path's oracle)."""
    rng = get_rng(config.seed)
    n = labels.shape[0]

    params = list(head.parameters())
    if config.optimizer == "adam":
        optimizer: nn.Optimizer = nn.Adam(params, lr=config.lr, weight_decay=config.weight_decay)
    else:
        optimizer = nn.SGD(params, lr=config.lr, momentum=0.9, weight_decay=config.weight_decay)

    mse_loss = nn.WeightedMSELoss(num_classes)
    ce_loss = nn.CrossEntropyLoss()

    result = HeadTrainResult(proxy_size=n, epochs=config.epochs)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            logits = head(nn.Tensor(body_outputs[idx]))
            if config.loss == "weighted_mse":
                loss = mse_loss(logits, labels[idx], weights[idx])
            else:
                loss = ce_loss(logits, labels[idx], sample_weights=weights[idx])
            # Zero in place: the gradient buffers allocated on the first
            # backward are reused for the whole run.
            head.zero_grad(set_to_none=False)
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())
        result.losses.append(float(np.mean(epoch_losses)))
        if config.verbose:
            print(f"[muffin-head] epoch {epoch + 1}/{config.epochs} loss={result.losses[-1]:.5f}")
    return result


def train_head_on_outputs(
    head: nn.Module,
    body_outputs: np.ndarray,
    labels: np.ndarray,
    sample_weights: np.ndarray,
    num_classes: int,
    config: Optional[HeadTrainConfig] = None,
) -> HeadTrainResult:
    """Train ``head`` on pre-computed body outputs with the Equation-2 loss.

    This is the executor-safe core of :func:`train_head`: it is a pure
    function of picklable inputs (numpy arrays and a plain config), seeds a
    *local* generator from ``config.seed`` (no shared-RNG mutation), and
    touches no live model or dataset objects — so the search loop can run it
    in worker processes with bit-identical results.

    It is the ``C == 1`` case of :func:`train_heads_batched`, which owns the
    fused-or-oracle decision.
    """
    return train_heads_batched(
        [head], [body_outputs], labels, sample_weights, num_classes, config
    )[0]


def train_heads_batched(
    heads: Sequence[nn.Module],
    body_outputs: Sequence[np.ndarray],
    labels: np.ndarray,
    sample_weights: np.ndarray,
    num_classes: int,
    config: Optional[HeadTrainConfig] = None,
) -> List[HeadTrainResult]:
    """Train ``C`` candidate heads *simultaneously* on one shared proxy.

    ``heads[c]`` is trained on ``body_outputs[c]`` (its own concatenated
    body-probability matrix — candidates select different model subsets, so
    widths may differ) against the shared ``labels``/``sample_weights`` of
    the episode batch's proxy dataset.  Every fused head goes to one
    :func:`repro.nn.fused.train_mlp_stacks` call, which trains all of them
    in one lockstep minibatch loop whatever their signatures (layer shapes
    and activation).

    Results are **bit-identical** to training each head alone on the
    autograd oracle: all heads share ``config`` (hence the same seeded
    shuffle stream), and the batched kernels replicate the autograd op order
    per candidate.  Heads the kernels cannot express (dropout, plugin
    layers) — or every head, when ``config.use_fused`` is ``False`` — train
    on the autograd loop one at a time, after the fused heads.
    """
    config = config or HeadTrainConfig()
    heads = list(heads)
    if len(heads) != len(body_outputs):
        raise ValueError("heads and body_outputs must align one-to-one")
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(sample_weights, dtype=np.float64)
    matrices = [np.asarray(outputs, dtype=np.float64) for outputs in body_outputs]
    for matrix in matrices:
        _validate_training_inputs(matrix, labels, weights)

    stacks = [extract_fused_stack(head) if config.use_fused else None for head in heads]
    fused = [index for index, stack in enumerate(stacks) if stack is not None]
    results: List[Optional[HeadTrainResult]] = [None] * len(heads)
    if fused:
        curves = train_mlp_stacks(
            [stacks[i] for i in fused],
            [matrices[i] for i in fused],
            labels,
            weights,
            num_classes,
            epochs=config.epochs,
            batch_size=config.batch_size,
            lr=config.lr,
            weight_decay=config.weight_decay,
            optimizer=config.optimizer,
            loss=config.loss,
            seed=config.seed,
            backend=config.backend,
        ).losses
        for index, curve in zip(fused, curves):
            results[index] = HeadTrainResult(
                losses=curve, proxy_size=labels.shape[0], epochs=config.epochs
            )
            if config.verbose:
                for epoch, value in enumerate(curve):
                    print(f"[muffin-head] epoch {epoch + 1}/{config.epochs} loss={value:.5f}")
    for index, head in enumerate(heads):
        if results[index] is None:
            results[index] = _train_head_autograd(
                head, matrices[index], labels, weights, num_classes, config
            )
    return results


def train_head(
    fused: FusedModel,
    proxy: ProxyDataset,
    config: Optional[HeadTrainConfig] = None,
    body_outputs: Optional[np.ndarray] = None,
) -> HeadTrainResult:
    """Train the head of ``fused`` on ``proxy`` with the fairness-aware loss.

    ``body_outputs`` may pass pre-computed concatenated body probabilities
    for the proxy samples (the search loop caches them because the body is
    frozen); otherwise they are computed here.
    """
    config = config or HeadTrainConfig()

    if body_outputs is None:
        body_outputs = fused.body.forward(proxy.dataset, proxy.indices)
    body_outputs = np.asarray(body_outputs, dtype=np.float64)
    if body_outputs.shape != (len(proxy), fused.body.output_dim):
        raise ValueError(
            f"body_outputs must have shape ({len(proxy)}, {fused.body.output_dim}), "
            f"got {body_outputs.shape}"
        )

    return train_head_on_outputs(
        fused.head,
        body_outputs,
        proxy.dataset.labels[proxy.indices],
        proxy.sample_weights,
        fused.num_classes,
        config,
    )
