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
layer shapes and activation (one *signature*) train *simultaneously*, their
parameters packed into a contiguous ``(C, P)`` buffer whose per-layer
views are ``(C, in, out)`` weight blocks.  numpy's stacked matmul
dispatches the same per-slice BLAS GEMM a 2-D call would (each candidate's
block is a contiguous 2-D matrix), so the batched path stays bit-identical
to training each head alone.  :func:`train_mlp_stacks` runs the groups of
different signatures in one lockstep minibatch loop — per-group GEMMs,
but one loss-kernel call and one optimiser step over a single flat buffer
per minibatch — which amortises the Python interpreter and the optimiser
bookkeeping across the whole episode batch.  A single head is simply the
``C == 1`` case.

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    Passing ``theta``/``grad`` — ``(C, P)`` views of the compute dtype —
    packs the block into caller-owned buffers instead of fresh ones (one
    slice each of the flat buffers a lockstep :func:`train_mlp_stacks` loop
    steps as a whole).
    """

    def __init__(
        self,
        stacks: Sequence[FusedStack],
        dtype=np.float64,
        theta: Optional[np.ndarray] = None,
        grad: Optional[np.ndarray] = None,
    ) -> None:
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
        self.theta = np.empty((C, P), dtype=self.dtype) if theta is None else theta
        self.grad = np.zeros((C, P), dtype=self.dtype) if grad is None else grad
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
def _forward(weights, biases, x: np.ndarray, activate, out: Optional[np.ndarray] = None):
    """Batched MLP forward; returns (logits, layer inputs, activation factors).

    Replicates the autograd op order exactly: ``z = a @ W`` then
    ``z = z + b``, then ``a, factors = activate(z)``
    (:meth:`FusedStack.activate`).  ``out`` receives the logits (the last
    bias add writes there directly).
    """
    activations = [x]
    factors: List[tuple] = []
    a = x
    last = len(weights) - 1
    for layer in range(last + 1):
        z = np.matmul(a, weights[layer])
        if layer < last:
            a, layer_factors = activate(z + biases[layer])
            factors.append(layer_factors)
            activations.append(a)
    return np.add(z, biases[last], out=out), activations, factors


def _backward(weights, grad_weights, grad_biases, g_logits: np.ndarray, activations, factors) -> None:
    """Batched backward from the logits gradient into the flat grad buffer.

    Mirrors the tape: bias gradients are the batch-axis sum, weight
    gradients ``aᵀ @ g``, and the activation gradient ``g @ Wᵀ`` times the
    layer's activation factors, left to right.
    """
    g = g_logits
    for layer in range(len(weights) - 1, -1, -1):
        np.add.reduce(g, axis=1, out=grad_biases[layer])
        np.matmul(activations[layer].swapaxes(1, 2), g, out=grad_weights[layer])
        if layer > 0:
            g = np.matmul(g, weights[layer].swapaxes(1, 2))
            for factor in factors[layer - 1]:
                g = g * factor


def _class_max(logits: np.ndarray) -> np.ndarray:
    """``logits.max(axis=-1, keepdims=True)``, reduced over a class-major copy.

    numpy reduces a short last axis row by row; with the class axis in
    front the same maximum is one elementwise pass per class, several times
    faster at the ``(C, b, K)`` shapes of the training loop.  A maximum is
    exact, so the values match.  The one freedom, which zero a ``+0``/``-0``
    tie returns, changes nothing downstream: the shifted logits only reach
    ``exp`` (``exp(±0) == 1``) and ``shifted - log(s)``, where the tie makes
    ``s >= 2``.
    """
    return np.maximum.reduce(np.ascontiguousarray(np.moveaxis(logits, -1, 0)), axis=0)[..., None]


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
    mx = _class_max(logits)
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
    mx = _class_max(logits)
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


def _signature_groups(stacks: Sequence[FusedStack]) -> List[List[int]]:
    """Positions of ``stacks`` grouped by signature, in first-appearance order."""
    groups: Dict[tuple, List[int]] = {}
    for index, stack in enumerate(stacks):
        groups.setdefault(stack.signature, []).append(index)
    return list(groups.values())


@dataclass
class _StackGroup:
    """One signature's heads inside the lockstep loop of :func:`train_mlp_stacks`."""

    #: the heads' positions in the caller's ``stacks``
    heads: List[int]
    #: the group's rows of the ``(C_total, b, K)`` logits and loss buffers
    rows: slice
    block: FusedParamBlock
    activate: Callable
    #: ``(C_g, n, in)`` training inputs and, with ``val``, validation inputs
    X: np.ndarray
    X_val: Optional[np.ndarray]

    def forward(self, x: np.ndarray, out: Optional[np.ndarray] = None):
        return _forward(self.block.weights, self.block.biases, x, self.activate, out)

    def accuracies(self, X: np.ndarray, labels: np.ndarray) -> List[float]:
        """Per-head top-1 accuracy of one stacked forward over a full partition."""
        return [accuracy(head_logits, labels) for head_logits in self.forward(X)[0]]


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
    """Train ``C`` stacks simultaneously in one lockstep loop; returns per-head curves.

    ``inputs[c]`` is head ``c``'s ``(n, in)`` input matrix;
    ``labels``/``sample_weights`` are shared across heads (one proxy dataset
    serves a whole episode batch, one training partition a whole zoo width
    group).  Shuffles come from ``get_rng(seed)`` — the exact stream the
    autograd references draw — so every head sees the reference minibatch
    order and the trained parameters are bit-identical to ``C`` independent
    reference runs.

    Heads may have any signatures.  They are grouped by signature, and every
    minibatch runs each group's forward at that group's exact shapes into
    its rows of one ``(C, b, K)`` logits buffer, **one** loss-kernel call
    over all heads, each group's backward from its rows of the logits
    gradient and **one** optimiser step over a single flat parameter buffer
    that every group's :class:`FusedParamBlock` views a slice of.  This
    stays bit-identical because the optimiser is elementwise, every loss
    reduction runs within one head's row, and the GEMMs stay per group at
    unpadded shapes.  Every head's output width and input shape are checked
    before any training starts.

    The learning rate follows :class:`repro.nn.StepLR`: epoch ``e`` trains
    at ``lr * lr_decay ** (e // lr_decay_every)`` (the defaults keep it
    constant).  ``train_accuracy`` records each head's per-epoch accuracy on
    its training inputs, and ``val`` — ``(per-head inputs, labels)`` — on a
    held-out partition, both from one stacked forward per group after the
    epoch.  ``sample_weights`` may be ``None`` for ``cross_entropy`` (plain
    batch mean); ``weighted_mse`` needs them.  A label outside
    ``[0, num_classes)`` raises ``ValueError``, as it does on the autograd
    path.

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
    if val is not None and len(val[0]) != len(stacks):
        raise ValueError("stacks and val inputs must align one-to-one")
    for stack in stacks:
        if stack.shapes[-1][1] != num_classes:
            raise ValueError(
                f"stack output width {stack.shapes[-1][1]} != num_classes {num_classes}"
            )
    backend = _resolve_backend(backend)
    dtype = backend.compute_dtype
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    weights = None
    if sample_weights is not None:
        weights = np.asarray(sample_weights, dtype=dtype)
        if weights.shape != (n,):
            raise ValueError(f"sample_weights must have {n} entries, got {weights.shape}")
    elif loss == "weighted_mse":
        raise ValueError("the weighted_mse loss needs sample_weights")
    if val is not None:
        val_labels = np.asarray(val[1], dtype=np.int64)
    targets = backend.one_hot(labels, num_classes)
    if label_smoothing:
        targets = (1.0 - label_smoothing) * targets + label_smoothing / num_classes

    # One flat parameter/gradient buffer; each group's block views its slice.
    positions = _signature_groups(stacks)
    size = sum(stack.num_parameters for stack in stacks)
    theta = np.empty(size, dtype=dtype)
    grad = np.zeros(size, dtype=dtype)
    groups: List[_StackGroup] = []
    row = offset = 0
    for heads in positions:
        members = [stacks[i] for i in heads]
        count = len(heads)
        end = offset + count * members[0].num_parameters
        block = FusedParamBlock(
            members,
            dtype,
            theta=theta[offset:end].reshape(count, -1),
            grad=grad[offset:end].reshape(count, -1),
        )
        X = _stack_inputs(members, [inputs[i] for i in heads], n, dtype, "inputs")
        X_val = None
        if val is not None:
            X_val = _stack_inputs(
                members, [val[0][i] for i in heads], val_labels.shape[0], dtype, "val inputs"
            )
        groups.append(
            _StackGroup(heads, slice(row, row + count), block, members[0].activate, X, X_val)
        )
        row += count
        offset = end

    if optimizer == "adam":
        opt = FusedAdam(theta.shape, lr=lr, weight_decay=weight_decay, dtype=dtype)
    else:
        opt = FusedSGD(theta.shape, lr=lr, momentum=momentum, weight_decay=weight_decay, dtype=dtype)
    base_lr = opt.lr
    loss_kernel = _LOSS_KERNELS[loss]

    rng = get_rng(seed)
    num_heads = len(stacks)
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
            batch = order[start:stop]
            logits = np.empty((num_heads, batch.shape[0], num_classes), dtype=dtype)
            tapes = [
                group.forward(group.X.take(batch, axis=1), out=logits[group.rows])[1:]
                for group in groups
            ]
            losses, g_logits = loss_kernel(
                logits,
                targets_epoch[start:stop],
                None if weights_epoch is None else weights_epoch[start:stop],
            )
            for group, (activations, factors) in zip(groups, tapes):
                block = group.block
                _backward(
                    block.weights,
                    block.grad_weights,
                    block.grad_biases,
                    g_logits[group.rows],
                    activations,
                    factors,
                )
            opt.step(theta, grad)
            # Loss curves accumulate in float64 whatever the compute dtype
            # (on float64 losses ``astype(copy=False)`` is the identity).
            batch_losses.append(losses.astype(np.float64, copy=False))
        # Per-head loss curves: a contiguous (num_heads, num_batches) matrix
        # keeps np.mean's pairwise summation identical to the reference's
        # mean over a per-head python list of the same floats.
        epoch_matrix = np.ascontiguousarray(np.stack(batch_losses, axis=0).T)
        for group in groups:
            for row, head in enumerate(group.heads, start=group.rows.start):
                curves.losses[head].append(float(np.mean(epoch_matrix[row])))
            if train_accuracy:
                for head, value in zip(group.heads, group.accuracies(group.X, labels)):
                    curves.train_accuracy[head].append(value)
            if val is not None:
                for head, value in zip(group.heads, group.accuracies(group.X_val, val_labels)):
                    curves.val_accuracy[head].append(value)
    curves.final_lr = base_lr * (lr_decay ** (epochs // lr_decay_every))
    for group in groups:
        group.block.write_back()
    return curves
