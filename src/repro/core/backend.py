"""The precision/backend seam behind the fused hot paths.

PR 3 and PR 5 collapsed the dominant serial costs (batch fairness scoring,
head training) into a handful of large float64 BLAS calls; this module
makes the *dtype* of those calls a pluggable choice without touching the
kernels' op order.  An :class:`ArrayBackend` is a minimal array-API-style
namespace — dot products, GEMM, reductions, argmax, one-hot — plus the two
dtypes that define its precision contract:

* ``compute_dtype`` — the dtype of GEMM operands (parameters, activations,
  body-output matrices, correctness matrices);
* ``accum_dtype`` — the dtype losses and metrics are accumulated in,
  **always float64**: whatever the GEMMs run in, recorded loss curves and
  fairness metrics are reduced in double precision.

Two backends ship:

* ``numpy-float64`` (the default) — ``compute_dtype == accum_dtype ==
  float64``.  Running the fused kernels or the evaluation engine through it
  is **bit-identical** to the pre-backend code: the namespace methods are
  the very numpy functions the kernels called before, applied to the same
  float64 arrays in the same order.  The autograd tape remains the oracle
  this identity is asserted against.
* ``numpy-float32`` — mixed precision: float32 GEMMs, float64 accumulators.
  Results carry a *tolerance contract* instead of bit-identity; the
  per-quantity ``atol``/``rtol`` constants live in :data:`TOLERANCES` (the
  single place they are defined) and :func:`assert_backend_close` applies
  them — or exact equality when the backend is the identity backend.

Backend selection never changes *what* a run computes under the default
backend, and it is an execution-style knob either way, so the ``backend``
spec section is excluded from every stage hash exactly like ``execution``
(see ``repro.api.spec.HASH_MANIFEST``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..nn.functional import one_hot
from ..registry import Registry

__all__ = [
    "ArrayBackend",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "TOLERANCES",
    "get_backend",
    "tolerance_for",
    "assert_backend_close",
]


#: Registry of array backends; entries are :class:`ArrayBackend` instances.
BACKENDS: Registry = Registry("array backend")

#: Name of the bit-identical default backend.
DEFAULT_BACKEND = "numpy-float64"


# ----------------------------------------------------------------------
# The tolerance contract (every constant in one place)
# ----------------------------------------------------------------------
#: Per-quantity ``(rtol, atol)`` bounds a non-identity backend must meet
#: against the float64 oracle.  Rationale: a single float32 GEMM is good to
#: ~1e-6 relative; iterated training (many GEMMs + optimiser steps per
#: epoch) compounds rounding, so trained weights and loss curves get the
#: loosest bounds, one-shot forward quantities sit in the middle, and
#: integer-valued reductions (group correct counts are exact integers
#: < 2^24, representable exactly in float32) are expected (near-)exact.
TOLERANCES: Dict[str, Tuple[float, float]] = {
    "head_weights": (5e-2, 5e-3),   # trained parameters; calibrated on
                                    # one-hidden-layer heads trained ~10
                                    # epochs — longer runs drift chaotically
                                    # in *weight* space (minibatch SGD
                                    # amplifies rounding) while the loss
                                    # curve stays in contract.  Deeper heads
                                    # are not covered: a three-layer
                                    # LeakyReLU head ends 2.8e-2 (abs) off
                                    # float64 after 10 epochs
    "loss_curve": (5e-2, 1e-4),     # per-epoch recorded losses
    "logits": (1e-3, 1e-5),         # one forward pass
    "probabilities": (1e-3, 1e-5),  # softmax / body-output matrices
    "group_counts": (0.0, 1e-6),    # integer-exact correctness reductions
    "metrics": (1e-9, 1e-9),        # accuracy / unfairness / rewards from
                                    # identical predictions (float64 accum)
}


def tolerance_for(quantity: str) -> Tuple[float, float]:
    """The ``(rtol, atol)`` contract of one named quantity."""
    try:
        return TOLERANCES[quantity]
    except KeyError:
        raise KeyError(
            f"no tolerance contract for quantity '{quantity}'; known: "
            f"{sorted(TOLERANCES)}"
        ) from None


# ----------------------------------------------------------------------
# The backend namespace
# ----------------------------------------------------------------------
class ArrayBackend:
    """A named numpy namespace with a fixed GEMM dtype and float64 accumulators.

    The methods are deliberately thin: for the identity backend each one is
    *the same numpy call on the same float64 arrays* the fused kernels and
    the evaluation engine made before the seam existed, so routing through
    the backend cannot move a bit.  The mixed-precision backend changes only
    ``compute_dtype``; accumulating reductions stay float64.
    """

    def __init__(
        self,
        name: str,
        compute_dtype: Union[str, np.dtype],
        accum_dtype: Union[str, np.dtype] = np.float64,
    ) -> None:
        self.name = name
        self.compute_dtype = np.dtype(compute_dtype)
        self.accum_dtype = np.dtype(accum_dtype)
        if self.accum_dtype != np.dtype(np.float64):
            raise ValueError(
                "loss/metric accumulators are float64 by contract; got "
                f"accum_dtype={self.accum_dtype}"
            )

    # -- precision contract --------------------------------------------
    @property
    def is_identity(self) -> bool:
        """True when results are bit-identical to the pre-backend float64 code."""
        return self.compute_dtype == np.dtype(np.float64)

    # -- array construction --------------------------------------------
    def asarray(self, x) -> np.ndarray:
        """``x`` as a compute-dtype array (no copy when already conforming)."""
        return np.asarray(x, dtype=self.compute_dtype)

    def accum_asarray(self, x) -> np.ndarray:
        """``x`` as an accumulator-dtype (float64) array."""
        return np.asarray(x, dtype=self.accum_dtype)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.compute_dtype)

    def empty(self, shape) -> np.ndarray:
        return np.empty(shape, dtype=self.compute_dtype)

    def one_hot(self, labels: np.ndarray, num_classes: int) -> np.ndarray:
        """Dense ``(n, num_classes)`` one-hot matrix in the compute dtype.

        The autograd oracle's encoder (:func:`repro.nn.functional.one_hot`)
        builds it, so both training paths reject a label outside
        ``[0, num_classes)`` with the same ``ValueError``.
        """
        return one_hot(labels, num_classes).astype(self.compute_dtype, copy=False)

    # -- GEMM / dot products -------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.matmul(a, b, out=out)

    def dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.dot(a, b)

    # -- reductions ----------------------------------------------------
    def sum(self, a: np.ndarray, axis=None) -> np.ndarray:
        """Compute-dtype sum (kernel-internal reductions, e.g. softmax)."""
        return np.sum(a, axis=axis)

    def accum_sum(self, a: np.ndarray, axis=None) -> np.ndarray:
        """Float64-accumulated sum (loss/metric reductions).

        On float64 input this is numpy's plain pairwise sum — identical
        bits to ``a.sum(axis)`` — so the identity backend is unaffected.
        """
        return np.sum(a, axis=axis, dtype=self.accum_dtype)

    def mean(self, a: np.ndarray, axis=None) -> np.ndarray:
        """Float64-accumulated mean (loss-curve recording)."""
        return np.mean(a, axis=axis, dtype=self.accum_dtype)

    def argmax(self, a: np.ndarray, axis: int = -1) -> np.ndarray:
        return np.argmax(a, axis=axis)

    def __repr__(self) -> str:
        return (
            f"ArrayBackend(name='{self.name}', compute={self.compute_dtype}, "
            f"accum={self.accum_dtype})"
        )


BACKENDS.register(
    "numpy-float64",
    ArrayBackend("numpy-float64", np.float64),
    aliases=("float64", "fp64", "f64"),
)
BACKENDS.register(
    "numpy-float32",
    ArrayBackend("numpy-float32", np.float32),
    aliases=("float32", "fp32", "f32"),
)


def get_backend(backend: Union[None, str, ArrayBackend] = None) -> ArrayBackend:
    """Resolve ``backend`` (a name, alias, instance or ``None``) to an instance."""
    if backend is None:
        return BACKENDS.get(DEFAULT_BACKEND)
    if isinstance(backend, ArrayBackend):
        return backend
    return BACKENDS.get(backend)


def assert_backend_close(
    backend: Union[None, str, ArrayBackend],
    quantity: str,
    actual,
    desired,
) -> None:
    """Assert ``actual`` matches the float64 oracle under the backend's contract.

    The identity backend demands exact equality (``np.array_equal``, NaNs
    equal); any other backend applies the :data:`TOLERANCES` entry of
    ``quantity`` via ``np.allclose``.  Raises ``AssertionError`` with the
    worst absolute/relative deviation on failure.
    """
    backend = get_backend(backend)
    actual = np.asarray(actual, dtype=np.float64)
    desired = np.asarray(desired, dtype=np.float64)
    if backend.is_identity:
        if not np.array_equal(actual, desired, equal_nan=True):
            worst = float(np.nanmax(np.abs(actual - desired))) if actual.size else 0.0
            raise AssertionError(
                f"identity backend '{backend.name}' produced non-identical "
                f"'{quantity}' (max abs deviation {worst:.3e})"
            )
        return
    rtol, atol = tolerance_for(quantity)
    if not np.allclose(actual, desired, rtol=rtol, atol=atol, equal_nan=True):
        diff = np.abs(actual - desired)
        worst_abs = float(np.nanmax(diff)) if diff.size else 0.0
        scale = np.maximum(np.abs(desired), 1e-300)
        worst_rel = float(np.nanmax(diff / scale)) if diff.size else 0.0
        raise AssertionError(
            f"backend '{backend.name}' violates the '{quantity}' tolerance "
            f"contract (rtol={rtol}, atol={atol}): max abs deviation "
            f"{worst_abs:.3e}, max rel deviation {worst_rel:.3e}"
        )
