"""Benchmark: fused batched head training vs the autograd loop.

The seed implementation trained every muffin head by pushing each minibatch
through the closure-based autograd graph — Python-level overhead per op,
per parameter, per batch, per epoch.  The fused fast path
(:mod:`repro.nn.fused`) hand-derives the forward/backward/update steps and
trains a whole episode batch of candidate heads *simultaneously* on stacked
``(C, in, out)`` parameter blocks.  This benchmark verifies the two
load-bearing claims of that design on a realistic episode batch (the shape
of one controller batch late in a Muffin search, when the controller has
converged on a structure):

* the batched fused trainer returns **bit-identical** final weights and
  loss curves to the per-head autograd loop;
* it is dramatically faster wherever Python overhead (not raw memory
  bandwidth) dominates.

A mixed batch cycling through every activation the search space emits
(``DEFAULT_ACTIVATIONS``), three depths and two body widths then checks
each fused kernel against the oracle bit for bit, all of them trained in
one lockstep loop whose signature groups differ in layer count and width.

Setting ``REPRO_BENCH_IDENTITY_ONLY=1`` (the CI smoke step) skips the
wall-clock assertion while keeping the identity check.  The speedup tiers
degrade on constrained runners: a single-core box only prints the measured
ratio (identity is still asserted), 2-3 cores require 2x, and a genuinely
multi-core runner must show the full 5x (threaded BLAS accelerates the
stacked GEMMs while the interpreted autograd loop stays serial).

A last pass re-runs the fused trainer on the ``numpy-float32`` backend, over
the mixed-activation batch at one shape:
its results must *diverge* from float64 (proving the precision switch is
live) while staying inside the backend's documented ``TOLERANCES``
contract (:mod:`repro.core.backend`).
"""

import os
import time

import numpy as np

from repro.core import DEFAULT_ACTIVATIONS, HeadTrainConfig
from repro.core.backend import assert_backend_close, get_backend
from repro.core.fusing import MuffinHead
from repro.core.trainer import train_head_on_outputs, train_heads_batched

NUM_CANDIDATES = 8  # one episode batch
HIDDEN_SIZES = (16,)
BODY_DIM = 24  # three fused members x eight ISIC classes
NUM_CLASSES = 8
PROXY_SIZE = 2000
EPOCHS = 25
ROUNDS = 3  # best-of-N guards the comparison against scheduler noise
#: ``(hidden sizes, body width)`` of every head in the timed batch
ONE_SHAPE = ((HIDDEN_SIZES, BODY_DIM),)
#: the identity batch also cycles these: one, two and three layers over
#: two body widths (three and two fused members)
MIXED_SHAPES = ((HIDDEN_SIZES, BODY_DIM), ((), 16), ((12, 8), BODY_DIM))


def _workload(shapes=ONE_SHAPE):
    rng = np.random.default_rng(2023)
    labels = rng.integers(0, NUM_CLASSES, PROXY_SIZE)
    weights = rng.random(PROXY_SIZE) + 0.1
    outputs = [
        rng.random((PROXY_SIZE, shapes[index % len(shapes)][1]))
        for index in range(NUM_CANDIDATES)
    ]
    return outputs, labels, weights


def _fresh_heads(activations=("relu",), shapes=ONE_SHAPE):
    """One episode batch of fresh heads cycling through ``activations`` and ``shapes``."""
    heads = []
    for index in range(NUM_CANDIDATES):
        hidden, width = shapes[index % len(shapes)]
        activation = activations[index % len(activations)]
        heads.append(MuffinHead(width, NUM_CLASSES, hidden, activation, seed=index))
    return heads


def _assert_identical(ref_heads, ref_results, fused_heads, fused_results):
    for ref_head, ref_result, fused_head, fused_result in zip(
        ref_heads, ref_results, fused_heads, fused_results
    ):
        assert ref_result.losses == fused_result.losses
        ref_state, fused_state = ref_head.state_dict(), fused_head.state_dict()
        assert set(ref_state) == set(fused_state)
        for key in ref_state:
            assert np.array_equal(ref_state[key], fused_state[key]), key


def test_bench_head_training_identity_and_speed(identity_only):
    outputs, labels, weights = _workload()
    autograd_config = HeadTrainConfig(epochs=EPOCHS, seed=0, use_fused=False)
    fused_config = HeadTrainConfig(epochs=EPOCHS, seed=0, use_fused=True)

    autograd_seconds = float("inf")
    autograd_heads, autograd_results = [], []
    for _ in range(ROUNDS):
        autograd_heads = _fresh_heads()
        start = time.perf_counter()
        autograd_results = [
            train_head_on_outputs(head, matrix, labels, weights, NUM_CLASSES, autograd_config)
            for head, matrix in zip(autograd_heads, outputs)
        ]
        autograd_seconds = min(autograd_seconds, time.perf_counter() - start)

    fused_seconds = float("inf")
    fused_heads, fused_results = [], []
    for _ in range(ROUNDS):
        fused_heads = _fresh_heads()
        start = time.perf_counter()
        fused_results = train_heads_batched(
            fused_heads, outputs, labels, weights, NUM_CLASSES, fused_config
        )
        fused_seconds = min(fused_seconds, time.perf_counter() - start)

    # Identity first: the speedup is worthless if a single bit drifts.
    _assert_identical(autograd_heads, autograd_results, fused_heads, fused_results)

    speedup = autograd_seconds / max(fused_seconds, 1e-9)
    cpus = os.cpu_count() or 1
    print(
        f"\n[bench] {NUM_CANDIDATES} heads x {EPOCHS} epochs x {PROXY_SIZE} proxy "
        f"samples: autograd loop {autograd_seconds:.3f}s, fused batched "
        f"{fused_seconds:.3f}s, speedup x{speedup:.1f} ({cpus} CPUs)"
    )

    if identity_only:
        return  # constrained runner: identity verified, timing skipped
    if cpus < 2:
        # Single-core containers are memory-bandwidth-bound: both paths push
        # the same element count, so the Python-overhead win shrinks.
        # Identity is verified above; just require the fast path to win.
        assert fused_seconds < autograd_seconds, (
            f"fused trainer ({fused_seconds:.3f}s) slower than the autograd "
            f"loop ({autograd_seconds:.3f}s) on a single-core runner"
        )
        return
    if cpus < 4:
        assert speedup >= 2.0, (
            f"fused trainer only x{speedup:.2f} over the autograd loop on "
            f"{cpus} CPUs (expected >= 2x)"
        )
        return
    assert speedup >= 5.0, (
        f"fused trainer only x{speedup:.2f} over the autograd loop on "
        f"{cpus} CPUs (expected >= 5x)"
    )


def test_bench_head_training_identity_every_activation():
    """Every fused activation kernel matches the autograd oracle bit for bit,
    trained in one lockstep loop over groups of different depths and widths."""
    outputs, labels, weights = _workload(MIXED_SHAPES)
    autograd_config = HeadTrainConfig(epochs=EPOCHS, seed=0, use_fused=False)
    fused_config = HeadTrainConfig(epochs=EPOCHS, seed=0, use_fused=True)
    autograd_heads = _fresh_heads(DEFAULT_ACTIVATIONS, MIXED_SHAPES)
    assert {len(head.hidden_sizes) for head in autograd_heads} == {0, 1, 2}
    autograd_results = [
        train_head_on_outputs(head, matrix, labels, weights, NUM_CLASSES, autograd_config)
        for head, matrix in zip(autograd_heads, outputs)
    ]
    fused_heads = _fresh_heads(DEFAULT_ACTIVATIONS, MIXED_SHAPES)
    fused_results = train_heads_batched(
        fused_heads, outputs, labels, weights, NUM_CLASSES, fused_config
    )
    _assert_identical(autograd_heads, autograd_results, fused_heads, fused_results)


#: The ``head_weights`` tolerance is calibrated for ~10-epoch training (see
#: :data:`repro.core.backend.TOLERANCES`): beyond that, minibatch SGD
#: amplifies float32 rounding chaotically in *weight* space while the loss
#: curve (the function-space view) stays in contract.
WEIGHT_CONTRACT_EPOCHS = 10


def _train_fused(backend, epochs):
    outputs, labels, weights = _workload()
    config = HeadTrainConfig(epochs=epochs, seed=0, use_fused=True, backend=backend)
    heads = _fresh_heads(DEFAULT_ACTIVATIONS)
    start = time.perf_counter()
    results = train_heads_batched(heads, outputs, labels, weights, NUM_CLASSES, config)
    return heads, results, time.perf_counter() - start


def test_bench_head_training_float32_backend_tolerance():
    """The mixed-precision backend diverges, but inside its contract."""
    backend = get_backend("numpy-float32")

    # Full benchmark length: the loss curves must stay in contract.
    ref_heads, ref_results, ref_seconds = _train_fused("numpy-float64", EPOCHS)
    f32_heads, f32_results, f32_seconds = _train_fused("numpy-float32", EPOCHS)
    drifted = False
    for ref_head, ref_result, f32_head, f32_result in zip(
        ref_heads, ref_results, f32_heads, f32_results
    ):
        assert_backend_close(
            backend, "loss_curve", np.asarray(f32_result.losses), np.asarray(ref_result.losses)
        )
        ref_state, f32_state = ref_head.state_dict(), f32_head.state_dict()
        drifted = drifted or any(
            not np.array_equal(f32_state[key], ref_state[key]) for key in ref_state
        )
    # Divergence proves float32 GEMMs actually ran (not silently float64).
    assert drifted, "float32 backend produced bit-identical weights — precision switch dead?"

    # Contract-calibrated length: the trained weights must stay in contract.
    ref_heads, _, _ = _train_fused("numpy-float64", WEIGHT_CONTRACT_EPOCHS)
    f32_heads, _, _ = _train_fused("numpy-float32", WEIGHT_CONTRACT_EPOCHS)
    for ref_head, f32_head in zip(ref_heads, f32_heads):
        ref_state, f32_state = ref_head.state_dict(), f32_head.state_dict()
        for key in ref_state:
            assert_backend_close(
                backend,
                "head_weights",
                f32_state[key].astype(np.float64, copy=False),
                ref_state[key],
            )

    print(
        f"\n[bench] fused batched, {NUM_CANDIDATES} heads x {EPOCHS} epochs: "
        f"float64 {ref_seconds:.3f}s, float32 {f32_seconds:.3f}s "
        f"(x{ref_seconds / max(f32_seconds, 1e-9):.2f}); tolerance contract holds"
    )
