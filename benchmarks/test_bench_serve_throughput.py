"""Benchmark: micro-batched serving vs one-request-at-a-time forward passes.

The serving subsystem's load-bearing claims:

* the exported artifact round trip is **bit-identical** — ``export ->
  load_fused_model -> predict_features`` returns exactly the predictions of
  the in-memory fused model on the same dataset samples;
* coalescing a 64-request burst into micro-batches serves **>= 5x** the
  requests/sec of answering each request with its own forward pass (the
  predicted labels are asserted identical first — batching changes
  throughput, never answers).

Set ``REPRO_BENCH_IDENTITY_ONLY=1`` to skip the wall-clock assertion on
heavily shared runners; the identity checks always run.
"""

import time

import numpy as np
import pytest

from repro.core import FusedModel
from repro.core.search_space import FusingCandidate
from repro.data import FeatureSchema, SyntheticISIC2019, split_dataset
from repro.serve import InferenceServer, ServeConfig
from repro.zoo import ModelPool, TrainConfig, load_fused_model, save_fused_model

BURST = 64  # concurrent single-sample requests in the measured burst
ROUNDS = 3  # best-of-N guards against scheduler noise


@pytest.fixture(scope="module")
def serving_setup():
    dataset = SyntheticISIC2019(num_samples=1500, seed=2019)
    split = split_dataset(dataset, seed=1)
    pool = ModelPool(
        split,
        architecture_names=["MobileNet_V3_Small", "ResNet-18", "DenseNet121"],
        train_config=TrainConfig(epochs=10, batch_size=256, lr=0.1, seed=0),
        seed=0,
    ).build()
    candidate = FusingCandidate(
        model_names=tuple(pool.names), hidden_sizes=(16,), activation="relu"
    )
    fused = FusedModel.from_candidate(candidate, pool.models(), seed=7)
    schema = FeatureSchema.from_dataset(dataset)
    fused.bind_schema(schema)
    features = schema.features(split.test)[:BURST]
    return fused, schema, split, features


def test_artifact_roundtrip_bit_identical(serving_setup, tmp_path_factory):
    """export -> load -> predict_features == in-memory predictions, exactly."""
    fused, schema, split, _ = serving_setup
    path = save_fused_model(
        fused, tmp_path_factory.mktemp("artifact") / "muffin.json", spec_hash="bench"
    )
    loaded = load_fused_model(path)
    for partition in (split.val, split.test):
        features = schema.features(partition)
        np.testing.assert_array_equal(
            loaded.predict_features(features), fused.predict(partition)
        )
        np.testing.assert_array_equal(
            loaded.predict_proba_features(features),
            fused.predict_proba_features(features),
        )


def _sequential_burst(fused, features):
    """One forward pass per request (the no-batching reference server)."""
    start = time.perf_counter()
    predictions = [fused.predict_features(features[i : i + 1]) for i in range(BURST)]
    return time.perf_counter() - start, np.concatenate(predictions)


def _batched_burst(fused, features):
    """The same burst through the micro-batching server."""
    server = InferenceServer(
        fused, ServeConfig(max_batch=BURST, log_every=0)
    )
    # Starting the shard threads is a one-off cost no served burst pays.
    server.start()
    start = time.perf_counter()
    pending = [server.submit(features[i : i + 1]) for i in range(BURST)]
    for request in pending:
        assert request.done.wait(timeout=60)
    elapsed = time.perf_counter() - start
    predictions = np.concatenate([request.response.predictions for request in pending])
    batches = server.batches_served
    server.stop()
    return elapsed, predictions, batches


def test_microbatched_burst_is_5x_faster(serving_setup, identity_only):
    fused, _, _, features = serving_setup
    reference = fused.predict_features(features)

    sequential_time = float("inf")
    batched_time = float("inf")
    for _ in range(ROUNDS):
        elapsed, sequential_predictions = _sequential_burst(fused, features)
        sequential_time = min(sequential_time, elapsed)
        # Identity first: per-request answers equal the one-at-a-time path.
        np.testing.assert_array_equal(sequential_predictions, reference)

        elapsed, batched_predictions, batches = _batched_burst(fused, features)
        batched_time = min(batched_time, elapsed)
        np.testing.assert_array_equal(batched_predictions, reference)
        assert batches < BURST  # the burst actually coalesced

    sequential_rps = BURST / sequential_time
    batched_rps = BURST / batched_time
    speedup = batched_rps / sequential_rps
    print(
        f"\n[serve-throughput] sequential: {sequential_rps:,.0f} req/s, "
        f"micro-batched: {batched_rps:,.0f} req/s, speedup: {speedup:.1f}x"
    )
    if identity_only:
        pytest.skip("REPRO_BENCH_IDENTITY_ONLY=1: wall-clock assertion skipped")
    assert speedup >= 5.0, (
        f"micro-batching delivered only {speedup:.1f}x the sequential "
        f"requests/sec (expected >= 5x)"
    )
