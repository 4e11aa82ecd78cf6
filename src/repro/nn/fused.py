"""Graph-free fused training kernels for muffin-head and zoo-head stacks.

The muffin head is a small MLP — ``Linear`` layers joined by one of the
searched activations (ReLU, tanh, LeakyReLU, sigmoid) — trained with the
Equation-2 weighted-MSE loss (or the weighted cross-entropy ablation).  A
zoo head is a single ``Linear`` trained with (optionally label-smoothed or
weighted) cross-entropy under a step learning-rate schedule.
Pushing every minibatch through the closure-based autograd graph of
:mod:`repro.nn.tensor` pays Python-level overhead per op, per parameter,
per batch, per epoch — for a model whose whole forward/backward is a
handful of GEMMs.  This module hand-derives the closed-form forward and
backward passes and the Adam/SGD update steps as large numpy calls that
are **bit-identical** to the autograd reference: every kernel replicates
the exact float64 expression order the tape-based backward would execute
(same intermediates, same accumulation order, same reductions), so trained
weights and recorded loss curves match the oracle to the last bit — the
property :mod:`tests.test_nn_fused` asserts across randomized
configurations.

All kernels carry a leading candidate axis ``C``: C heads with the same
layer shapes and activation train *simultaneously*, their parameters
packed into one flat contiguous ``(C, P)`` buffer whose per-layer views
are ``(C, in, out)`` weight blocks.  numpy's stacked matmul dispatches the
same per-slice BLAS GEMM a 2-D call would (each candidate's block is a
contiguous 2-D matrix), so the batched path stays bit-identical to
training each head alone while amortising the Python interpreter and the
optimiser bookkeeping across the whole episode batch.  A single head is
simply the ``C == 1`` case.

Eligibility is structural, not nominal: :func:`extract_fused_stack` walks a
module tree and succeeds only for a pure ``Linear (Act Linear)*`` chain
with biases and one activation type throughout (optionally reached through
``Sequential`` / ``MLP`` containers or a module declaring
``fused_delegate``).  Anything else — mixed activations, dropout, custom
layers — returns ``None`` and the caller keeps the autograd path, so the
fast path can never silently change results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..utils.rng import SeedLike, get_rng
from .functional import accuracy
from .modules import MLP, LeakyReLU, Linear, Module, ReLU, Sequential, Sigmoid, Tanh


def _resolve_backend(backend):
    # Deferred import: ``repro.core`` (which owns the backend registry)
    # imports this module through the trainer, so a module-level import
    # would be circular.
    from ..core.backend import get_backend

    return get_backend(backend)

__all__ = [
    "FusedStack",
    "FusedParamBlock",
    "FusedAdam",
    "FusedSGD",
    "StackCurves",
    "extract_fused_stack",
    "train_mlp_stacks",
]


# ----------------------------------------------------------------------
# Activation kernels
# ----------------------------------------------------------------------
# Each kernel maps the pre-activation ``z`` to ``(a, factors)``; the
# backward multiplies the incoming gradient by ``factors`` left to right.
# Both halves copy the module's autograd closure in :mod:`repro.nn.tensor`
# op for op, which is what keeps the fused path bit-identical.
def _relu(z, negative_slope):
    # The mask multiply — not ``np.maximum`` — preserves signed zeros.
    mask = (z > 0).astype(z.dtype)
    return z * mask, (mask,)


def _leaky_relu(z, negative_slope):
    # ``np.where`` widens to float64; cast so float32 blocks stay float32
    # (a no-op on float64 blocks).
    mask = np.where(z > 0, 1.0, negative_slope).astype(z.dtype, copy=False)
    return z * mask, (mask,)


def _sigmoid(z, negative_slope):
    a = 1.0 / (1.0 + np.exp(-z))
    return a, (a, 1.0 - a)


def _tanh(z, negative_slope):
    a = np.tanh(z)
    return a, (1.0 - a ** 2,)


#: activation module type -> (name, kernel); exact types only, so a subclass
#: with a different forward can never take a kernel it does not match
_ACTIVATION_KERNELS = {
    ReLU: ("relu", _relu),
    LeakyReLU: ("leaky_relu", _leaky_relu),
    Sigmoid: ("sigmoid", _sigmoid),
    Tanh: ("tanh", _tanh),
}
_KERNELS_BY_NAME = dict(_ACTIVATION_KERNELS.values())


# ----------------------------------------------------------------------
# Structural eligibility
# ----------------------------------------------------------------------
@dataclass
class FusedStack:
    """The ordered ``Linear`` layers and the activation of one eligible MLP."""

    linears: List[Linear]
    #: hidden activation name; ``None`` for a single ``Linear`` (no hidden layer)
    activation: Optional[str] = None
    #: the LeakyReLU ``negative_slope``; ``None`` for every other activation
    negative_slope: Optional[float] = None

    @property
    def shapes(self) -> Tuple[Tuple[int, int], ...]:
        """Per-layer ``(in_features, out_features)``."""
        return tuple((lin.in_features, lin.out_features) for lin in self.linears)

    @property
    def signature(self) -> tuple:
        """``(shapes, activation, negative_slope)`` — the batching key."""
        return (self.shapes, self.activation, self.negative_slope)

    @property
    def num_parameters(self) -> int:
        return sum(fin * fout + fout for fin, fout in self.shapes)

    def activate(self, z: np.ndarray):
        """The hidden activation kernel: ``z`` -> ``(a, backward factors)``."""
        return _KERNELS_BY_NAME[self.activation](z, self.negative_slope)


def _flatten_layers(module: Module) -> Optional[List[Module]]:
    """Flatten ``module`` into its forward-order layer list, or ``None``.

    Only containers whose forward is provably "apply children in order" are
    unwrapped: ``Sequential``, ``MLP`` and modules that *opt in* by naming
    their single delegate child in a ``fused_delegate`` attribute (e.g.
    ``MuffinHead`` wraps one ``MLP``).  A module we cannot prove is a plain
    chain makes the whole stack ineligible rather than risking a silently
    different forward.
    """
    if isinstance(module, Linear) or type(module) in _ACTIVATION_KERNELS:
        return [module]
    if isinstance(module, MLP):
        return _flatten_layers(module.body)
    if isinstance(module, Sequential):
        collected: List[Module] = []
        for layer in module:
            flat = _flatten_layers(layer)
            if flat is None:
                return None
            collected.extend(flat)
        return collected
    delegate = getattr(module, "fused_delegate", None)
    if isinstance(delegate, str):
        child = getattr(module, delegate, None)
        if isinstance(child, Module):
            return _flatten_layers(child)
    return None


def extract_fused_stack(module: Module) -> Optional[FusedStack]:
    """Return the module's MLP stack if it is fusion-eligible.

    Eligible means the flattened layer sequence is exactly
    ``Linear (Act Linear)*`` with one activation throughout (ReLU, tanh,
    sigmoid, or LeakyReLU with one ``negative_slope``) and every ``Linear``
    has a bias — the shape of every muffin head the search space produces.
    Returns ``None`` (caller keeps the autograd path) for anything else.
    """
    layers = _flatten_layers(module)
    if not layers:
        return None
    linears: List[Linear] = []
    activations = set()
    expect_linear = True
    for layer in layers:
        if expect_linear:
            if not isinstance(layer, Linear) or layer.bias is None:
                return None
            linears.append(layer)
        else:
            if type(layer) not in _ACTIVATION_KERNELS:
                return None
            name = _ACTIVATION_KERNELS[type(layer)][0]
            activations.add((name, getattr(layer, "negative_slope", None)))
        expect_linear = not expect_linear
    if expect_linear or len(activations) > 1:  # ended on an activation, or mixed
        return None
    activation, negative_slope = activations.pop() if activations else (None, None)
    return FusedStack(linears, activation, negative_slope)


# ----------------------------------------------------------------------
# Flat contiguous parameter block
# ----------------------------------------------------------------------
class FusedParamBlock:
    """``C`` same-shape stacks packed into flat ``(C, P)`` buffers.

    ``theta`` holds the parameters, ``grad`` the gradients; both expose
    per-layer views (``(C, in, out)`` weights, ``(C, 1, out)`` biases) into
    the same memory, so the forward/backward kernels read and write the
    exact buffers the flat optimiser updates — no copies per minibatch.
    """

    def __init__(self, stacks: Sequence[FusedStack], dtype=np.float64) -> None:
        if not stacks:
            raise ValueError("FusedParamBlock needs at least one stack")
        shapes = stacks[0].shapes
        for stack in stacks[1:]:
            if stack.signature != stacks[0].signature:
                raise ValueError(
                    f"all stacks must share one signature; got {stack.signature} "
                    f"vs {stacks[0].signature}"
                )
        self.stacks = list(stacks)
        self.shapes = shapes
        self.dtype = np.dtype(dtype)
        self.num_candidates = len(self.stacks)
        self.num_parameters = sum(fin * fout + fout for fin, fout in shapes)

        C, P = self.num_candidates, self.num_parameters
        self.theta = np.empty((C, P), dtype=self.dtype)
        self.grad = np.zeros((C, P), dtype=self.dtype)
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        self.grad_weights: List[np.ndarray] = []
        self.grad_biases: List[np.ndarray] = []
        offset = 0
        for fin, fout in shapes:
            size = fin * fout
            self.weights.append(self.theta[:, offset : offset + size].reshape(C, fin, fout))
            self.grad_weights.append(self.grad[:, offset : offset + size].reshape(C, fin, fout))
            offset += size
            self.biases.append(self.theta[:, offset : offset + fout].reshape(C, 1, fout))
            self.grad_biases.append(self.grad[:, offset : offset + fout].reshape(C, fout))
            offset += fout
        for c, stack in enumerate(self.stacks):
            for layer, linear in enumerate(stack.linears):
                self.weights[layer][c] = linear.weight.data
                self.biases[layer][c, 0] = linear.bias.data

    @property
    def num_layers(self) -> int:
        return len(self.shapes)

    def write_back(self) -> None:
        """Copy the trained flat parameters back into the live modules.

        Module parameters stay float64 whatever the training dtype was: for
        float64 blocks ``astype`` is a plain copy (identical bits to the
        pre-backend ``.copy()``); mixed-precision blocks widen on the way
        out so downstream consumers (state dicts, artifacts, the autograd
        oracle) keep one canonical parameter dtype.
        """
        for c, stack in enumerate(self.stacks):
            for layer, linear in enumerate(stack.linears):
                linear.weight.data = self.weights[layer][c].astype(np.float64)
                linear.bias.data = self.biases[layer][c, 0].astype(np.float64)


# ----------------------------------------------------------------------
# Closed-form forward / backward
# ----------------------------------------------------------------------
def _forward(weights, biases, x: np.ndarray, activate):
    """Batched MLP forward; returns (logits, layer inputs, activation factors).

    Replicates the autograd op order exactly: ``z = a @ W`` then
    ``z = z + b``, then ``a, factors = activate(z)``
    (:meth:`FusedStack.activate`).
    """
    activations = [x]
    factors: List[tuple] = []
    a = x
    last = len(weights) - 1
    for layer in range(last + 1):
        z = np.matmul(a, weights[layer])
        z = z + biases[layer]
        if layer < last:
            a, layer_factors = activate(z)
            factors.append(layer_factors)
            activations.append(a)
        else:
            a = z
    return a, activations, factors


def _backward(weights, grad_weights, grad_biases, g_logits: np.ndarray, activations, factors) -> None:
    """Batched backward from the logits gradient into the flat grad buffer.

    Mirrors the tape: bias gradients are the batch-axis sum, weight
    gradients ``aᵀ @ g``, and the activation gradient ``g @ Wᵀ`` times the
    layer's activation factors, left to right.
    """
    g = g_logits
    for layer in range(len(weights) - 1, -1, -1):
        np.sum(g, axis=1, out=grad_biases[layer])
        np.matmul(activations[layer].swapaxes(1, 2), g, out=grad_weights[layer])
        if layer > 0:
            g = np.matmul(g, weights[layer].swapaxes(1, 2))
            for factor in factors[layer - 1]:
                g = g * factor


def _weighted_mse_value_and_grad(
    logits: np.ndarray, target_dist: np.ndarray, batch_weights: np.ndarray
):
    """Equation-2 weighted-MSE loss values and logits gradient.

    ``logits`` is ``(C, B, K)``; ``target_dist``/``batch_weights`` are the
    shared ``(B, K)`` one-hot targets and ``(B,)`` proxy weights.  Every
    expression below replicates one autograd node (softmax → one-hot diff →
    squared error → per-sample mean → weighted mean) and its backward
    closure in the order the tape would run them.
    """
    B, K = logits.shape[-2], logits.shape[-1]
    mx = logits.max(axis=-1, keepdims=True)
    shifted = logits - mx
    ex = np.exp(shifted)
    s = ex.sum(axis=-1, keepdims=True)
    probs = ex / s
    diff = probs - target_dist
    sq = diff * diff
    per_sample = sq.sum(axis=-1) * (1.0 / K)
    wt = batch_weights / max(batch_weights.mean(), 1e-12)
    losses = (per_sample * wt).sum(axis=-1) * (1.0 / B)

    # Backward, node by node: mean → weighted mul → per-class mean → square
    # → softmax (division then sum accumulation into the exp node).
    g_per_sample = wt * (1.0 / B)
    g_sq = (g_per_sample * (1.0 / K))[..., None]
    t = g_sq * diff
    g_diff = t + t
    g_ex = g_diff / s
    g_s = (((-g_diff) * ex) / (s ** 2)).sum(axis=-1, keepdims=True)
    g_ex = g_ex + g_s
    g_logits = g_ex * ex
    return losses, g_logits


def _cross_entropy_value_and_grad(
    logits: np.ndarray, target_dist: np.ndarray, batch_weights: Optional[np.ndarray]
):
    """Cross-entropy values and logits gradient.

    Matches :func:`repro.nn.functional.cross_entropy`: log-softmax and a
    dot product with ``target_dist`` (the one-hot, or label-smoothed,
    targets), reduced by the plain batch mean when ``batch_weights`` is
    ``None`` and by sum-normalised weights otherwise (the Equation-2
    ablation and Method D's weighted variant).
    """
    if batch_weights is not None:
        norm = batch_weights.sum()
        if norm <= 0:
            raise ValueError("weights must sum to a positive value")
    B = logits.shape[-2]
    mx = logits.max(axis=-1, keepdims=True)
    shifted = logits - mx
    ex = np.exp(shifted)
    s = ex.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(s)
    per_sample = -((target_dist * log_probs).sum(axis=-1))
    if batch_weights is None:
        # ``mean`` is ``sum() * (1/B)`` on the tape; its backward seeds
        # every sample with ``1/B`` before the negation.
        losses = per_sample.sum(axis=-1) * (1.0 / B)
        g_lp = (-(1.0 / B)) * target_dist
    else:
        wn = batch_weights / norm
        losses = (per_sample * wn).sum(axis=-1)
        g_lp = (-wn)[..., None] * target_dist

    # Backward: per-class sum → log-softmax (the shifted node accumulates
    # the direct and the exp-path gradients).
    g_lg = (-g_lp).sum(axis=-1, keepdims=True)
    g_s = g_lg / s
    g_logits = g_lp + g_s * ex
    return losses, g_logits


#: ``weighted_ce`` (the muffin-head ablation) and ``cross_entropy`` (zoo
#: heads) share one kernel; weights are used exactly when they are given
_LOSS_KERNELS = {
    "weighted_mse": _weighted_mse_value_and_grad,
    "weighted_ce": _cross_entropy_value_and_grad,
    "cross_entropy": _cross_entropy_value_and_grad,
}


# ----------------------------------------------------------------------
# Fused optimisers on flat buffers
# ----------------------------------------------------------------------
class FusedAdam:
    """Adam on one flat ``(C, P)`` buffer, bit-identical to :class:`repro.nn.Adam`.

    Every expression keeps the reference op order (``m ← β₁m + (1-β₁)g``
    etc.); moment and scratch buffers are allocated once and reused, so a
    step performs zero allocations.
    """

    def __init__(
        self,
        shape: Tuple[int, ...],
        lr: float,
        betas: Tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        dtype=np.float64,
    ) -> None:
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = np.zeros(shape, dtype=dtype)
        self._v = np.zeros(shape, dtype=dtype)
        self._scratch = np.empty(shape, dtype=dtype)
        self._scratch2 = np.empty(shape, dtype=dtype)

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1 ** self._step
        bias2 = 1.0 - self.beta2 ** self._step
        if self.weight_decay:
            np.multiply(theta, self.weight_decay, out=self._scratch)
            grad = np.add(grad, self._scratch, out=self._scratch)
        self._m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=self._scratch2)
        self._m += self._scratch2
        self._v *= self.beta2
        np.multiply(grad, grad, out=self._scratch2)
        self._scratch2 *= 1.0 - self.beta2
        self._v += self._scratch2
        m_hat = np.divide(self._m, bias1, out=self._scratch2)
        denom = np.divide(self._v, bias2, out=self._scratch)
        np.sqrt(denom, out=denom)
        denom += self.eps
        m_hat *= self.lr
        np.divide(m_hat, denom, out=m_hat)
        theta -= m_hat


class FusedSGD:
    """Momentum SGD on one flat ``(C, P)`` buffer, matching :class:`repro.nn.SGD`."""

    def __init__(
        self,
        shape: Tuple[int, ...],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        dtype=np.float64,
    ) -> None:
        self.lr = float(lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = np.zeros(shape, dtype=dtype)
        self._scratch = np.empty(shape, dtype=dtype)

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        if self.weight_decay:
            np.multiply(theta, self.weight_decay, out=self._scratch)
            grad = np.add(grad, self._scratch, out=self._scratch)
        if self.momentum:
            self._velocity *= self.momentum
            self._velocity += grad
            update = self._velocity
            np.multiply(update, self.lr, out=self._scratch)
            theta -= self._scratch
        else:
            update = np.multiply(grad, self.lr, out=self._scratch)
            theta -= update


# ----------------------------------------------------------------------
# The fused training loop
# ----------------------------------------------------------------------
@dataclass
class StackCurves:
    """Per-epoch curves of one :func:`train_mlp_stacks` call, one row per head."""

    losses: List[List[float]]
    #: rows stay empty unless ``train_accuracy`` was requested
    train_accuracy: List[List[float]]
    #: rows stay empty unless a ``val`` partition was passed
    val_accuracy: List[List[float]]
    #: the rate the step schedule sets after the last epoch (``StepLR.step``)
    final_lr: float = 0.0


def _stack_inputs(stacks, inputs, n: int, dtype, what: str) -> np.ndarray:
    """The per-head ``(n, in)`` matrices as one ``(C, n, in)`` array.

    A single head's matrix is viewed, not copied.
    """
    matrices = []
    for stack, matrix in zip(stacks, inputs):
        matrix = np.asarray(matrix, dtype=dtype)
        expected = (n, stack.shapes[0][0])
        if matrix.shape != expected:
            raise ValueError(f"{what} must have shape {expected}, got {matrix.shape}")
        matrices.append(matrix)
    return matrices[0][None] if len(matrices) == 1 else np.stack(matrices)


def _accuracies(block: FusedParamBlock, X: np.ndarray, labels: np.ndarray, activate) -> List[float]:
    """Per-head top-1 accuracy of one stacked forward over a full partition."""
    logits = _forward(block.weights, block.biases, X, activate)[0]
    return [accuracy(head_logits, labels) for head_logits in logits]


def train_mlp_stacks(
    stacks: Sequence[FusedStack],
    inputs: Sequence[np.ndarray],
    labels: np.ndarray,
    sample_weights: Optional[np.ndarray],
    num_classes: int,
    *,
    epochs: int,
    batch_size: int,
    lr: float,
    weight_decay: float = 0.0,
    optimizer: str = "adam",
    momentum: float = 0.9,
    lr_decay: float = 1.0,
    lr_decay_every: int = 1,
    loss: str = "weighted_mse",
    label_smoothing: float = 0.0,
    train_accuracy: bool = False,
    val: Optional[Tuple[Sequence[np.ndarray], np.ndarray]] = None,
    seed: SeedLike = 0,
    backend=None,
) -> StackCurves:
    """Train ``C`` same-signature stacks simultaneously; returns per-head curves.

    ``inputs[c]`` is head ``c``'s ``(n, in)`` input matrix;
    ``labels``/``sample_weights`` are shared across heads (one proxy dataset
    serves a whole episode batch, one training partition a whole zoo width
    group).  Shuffles come from ``get_rng(seed)`` — the exact stream the
    autograd references draw — so every head sees the reference minibatch
    order and the trained parameters are bit-identical to ``C`` independent
    reference runs.

    The learning rate follows :class:`repro.nn.StepLR`: epoch ``e`` trains
    at ``lr * lr_decay ** (e // lr_decay_every)`` (the defaults keep it
    constant).  ``train_accuracy`` records each head's per-epoch accuracy on
    its training inputs, and ``val`` — ``(per-head inputs, labels)`` — on a
    held-out partition, both from one stacked forward after the epoch.
    ``sample_weights`` may be ``None`` for ``cross_entropy`` (plain batch
    mean); ``weighted_mse`` needs them.

    ``backend`` (a name or :class:`repro.core.backend.ArrayBackend`) picks
    the GEMM dtype.  Under the default ``numpy-float64`` backend every array
    below is the float64 array the pre-backend code built and results stay
    bit-identical; under ``numpy-float32`` the forward/backward/optimiser
    math runs in float32 while the recorded loss curves are accumulated in
    float64 and the trained parameters are widened back to float64 by
    ``write_back`` (tolerance contract: ``repro.core.backend.TOLERANCES``).
    """
    if loss not in _LOSS_KERNELS:
        raise ValueError(f"loss must be one of {sorted(_LOSS_KERNELS)}, got '{loss}'")
    if optimizer not in {"adam", "sgd"}:
        raise ValueError(f"optimizer must be 'adam' or 'sgd', got '{optimizer}'")
    if len(stacks) != len(inputs):
        raise ValueError("stacks and inputs must align one-to-one")
    backend = _resolve_backend(backend)
    dtype = backend.compute_dtype
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    X = _stack_inputs(stacks, inputs, n, dtype, "inputs")  # (C, n, in)
    weights = None
    if sample_weights is not None:
        weights = np.asarray(sample_weights, dtype=dtype)
        if weights.shape != (n,):
            raise ValueError(f"sample_weights must have {n} entries, got {weights.shape}")
    elif loss == "weighted_mse":
        raise ValueError("the weighted_mse loss needs sample_weights")
    if stacks[0].shapes[-1][1] != num_classes:
        raise ValueError(
            f"stack output width {stacks[0].shapes[-1][1]} != num_classes {num_classes}"
        )
    if val is not None:
        val_labels = np.asarray(val[1], dtype=np.int64)
        X_val = _stack_inputs(stacks, val[0], val_labels.shape[0], dtype, "val inputs")

    block = FusedParamBlock(stacks, dtype=dtype)
    targets = backend.one_hot(labels, num_classes)
    if label_smoothing:
        targets = (1.0 - label_smoothing) * targets + label_smoothing / num_classes

    shape = block.theta.shape
    if optimizer == "adam":
        opt = FusedAdam(shape, lr=lr, weight_decay=weight_decay, dtype=dtype)
    else:
        opt = FusedSGD(shape, lr=lr, momentum=momentum, weight_decay=weight_decay, dtype=dtype)
    base_lr = opt.lr
    loss_kernel = _LOSS_KERNELS[loss]

    rng = get_rng(seed)
    num_heads = block.num_candidates
    activate = stacks[0].activate
    layer_weights = block.weights
    layer_biases = block.biases
    grad_weights = block.grad_weights
    grad_biases = block.grad_biases
    theta, grad = block.theta, block.grad
    curves = StackCurves(
        losses=[[] for _ in range(num_heads)],
        train_accuracy=[[] for _ in range(num_heads)],
        val_accuracy=[[] for _ in range(num_heads)],
    )
    for epoch in range(epochs):
        opt.lr = base_lr * (lr_decay ** (epoch // lr_decay_every))
        order = rng.permutation(n)
        # The small targets/weights are permuted once per epoch; the input
        # rows are gathered per step, so no shuffled (C, n, in) copy exists.
        targets_epoch = targets[order]
        weights_epoch = None if weights is None else weights[order]
        batch_losses: List[np.ndarray] = []
        for start in range(0, n, batch_size):
            stop = start + batch_size
            logits, activations, factors = _forward(
                layer_weights, layer_biases, X.take(order[start:stop], axis=1), activate
            )
            losses, g_logits = loss_kernel(
                logits,
                targets_epoch[start:stop],
                None if weights_epoch is None else weights_epoch[start:stop],
            )
            _backward(layer_weights, grad_weights, grad_biases, g_logits, activations, factors)
            opt.step(theta, grad)
            # Loss curves accumulate in float64 whatever the compute dtype
            # (on float64 losses ``astype(copy=False)`` is the identity).
            batch_losses.append(losses.astype(np.float64, copy=False))
        # Per-head loss curves: a contiguous (num_heads, num_batches) matrix
        # keeps np.mean's pairwise summation identical to the reference's
        # mean over a per-head python list of the same floats.
        epoch_matrix = np.ascontiguousarray(np.stack(batch_losses, axis=0).T)
        for head in range(num_heads):
            curves.losses[head].append(float(np.mean(epoch_matrix[head])))
        if train_accuracy:
            for head, value in enumerate(_accuracies(block, X, labels, activate)):
                curves.train_accuracy[head].append(value)
        if val is not None:
            for head, value in enumerate(_accuracies(block, X_val, val_labels, activate)):
                curves.val_accuracy[head].append(value)
    curves.final_lr = base_lr * (lr_decay ** (epochs // lr_decay_every))
    block.write_back()
    return curves
