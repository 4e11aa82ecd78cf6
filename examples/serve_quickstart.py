"""Serve a searched Muffin-Net: export -> micro-batched serving -> live stats.

The full deployment loop of the serving subsystem:

1. run (or resume) a declarative pipeline spec — its ``export`` stage bundles
   the finalised Muffin-Net into a deployable artifact;
2. reload the artifact with :func:`repro.zoo.load_fused_model` (the frozen
   backbones are rebuilt from seeds, the head weights restored, the serving
   feature schema bound — predictions are bit-identical to the in-memory
   model);
3. start the micro-batching :class:`repro.serve.InferenceServer` and fire a
   burst of concurrent labelled requests through the in-process
   :class:`repro.serve.ServeClient`;
4. read back the windowed fairness statistics the live monitor computed on
   that traffic;
5. scrape ``GET /metrics`` off the HTTP frontend and check the telemetry
   layer agrees with the server's own counters (request totals, a
   well-formed Prometheus latency histogram);
6. demonstrate **admission control**: fill a deliberately tiny bounded
   queue and show the typed, immediate ``ServerOverloaded`` rejection (the
   HTTP frontend maps it to 429 + ``Retry-After``) — then recovery, the
   shed request succeeding on retry once the backlog drains;
7. with ``--chaos``: kill one shard mid-burst under a deterministic
   :class:`repro.serve.FaultPlan` and prove zero accepted requests are
   lost, every answer stays bit-identical, no request outlives its
   deadline, and ``/metrics`` records the supervisor's restart.

Run with::

    python examples/serve_quickstart.py
    python examples/serve_quickstart.py --spec examples/specs/smoke.json --cache-dir .ci-cache
    python examples/serve_quickstart.py --chaos --spec examples/specs/smoke.json --cache-dir .ci-cache

The script asserts every response matches the direct forward pass and that
the monitor saw the labelled traffic — the CI serving smoke runs it as-is,
and the CI chaos smoke runs it with ``--chaos``.
"""

import argparse
import threading
import time
from pathlib import Path
from urllib.request import urlopen

import numpy as np

from repro.api import MuffinPipeline, RunSpec
from repro.obs import METRICS
from repro.serve import (
    FaultPlan,
    InferenceServer,
    ServeClient,
    ServeConfig,
    ServeHTTPServer,
    ServerOverloaded,
)
from repro.zoo import load_fused_model

DEFAULT_SPEC = Path(__file__).parent / "specs" / "quickstart.json"
REQUESTS = 50
ROWS_PER_REQUEST = 4
CHAOS_REQUESTS = 32
CHAOS_DEADLINE_MS = 20_000.0


def check_metrics_exposition(text: str, expected_requests: int) -> None:
    """Assert the Prometheus exposition is well-formed and counts match."""
    lines = text.splitlines()
    values = {}
    for line in lines:
        if line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        values[name] = float(value)

    # the request counter equals the requests the burst actually sent
    assert values['repro_serve_requests_total{outcome="ok"}'] == expected_requests

    # the latency histogram is well-formed: HELP/TYPE present, cumulative
    # bucket counts monotone, +Inf bucket equals _count
    assert "# TYPE repro_serve_request_latency_ms histogram" in lines
    assert any(
        line.startswith("# HELP repro_serve_request_latency_ms ") for line in lines
    )
    buckets = [
        (name, count)
        for name, count in values.items()
        if name.startswith("repro_serve_request_latency_ms_bucket")
    ]
    counts = [count for _, count in buckets]
    assert counts == sorted(counts), "bucket counts must be cumulative"
    assert buckets[-1][0].endswith('le="+Inf"}')
    assert counts[-1] == values["repro_serve_request_latency_ms_count"]
    assert values["repro_serve_request_latency_ms_count"] == expected_requests
    assert values["repro_serve_request_latency_ms_sum"] >= 0.0


def demo_overload_and_recovery(fused, features) -> None:
    """Admission control: typed immediate rejection, then recovery."""
    server = InferenceServer(
        fused, ServeConfig(max_batch=8, queue_depth=4, log_every=0, retry_after_s=0.5)
    )
    # fill the only queue before the workers start: every slot taken
    sample = features[:1]
    accepted = [server.submit(sample) for _ in range(4)]
    began = time.perf_counter()
    try:
        server.submit(sample)
        raise AssertionError("the 5th request must be shed, not queued")
    except ServerOverloaded as exc:
        shed_ms = (time.perf_counter() - began) * 1000.0
        assert shed_ms < 50.0, f"rejection took {shed_ms:.1f}ms (must be <50ms)"
        print(
            f"\noverload: request shed in {shed_ms:.2f}ms with "
            f"Retry-After {exc.retry_after}s ({exc})"
        )
    server.start()  # capacity comes back: the accepted backlog drains...
    for request in accepted:
        assert request.done.wait(timeout=30) and request.error is None
    retry = server.submit(sample)  # ...and the shed request succeeds on retry
    assert retry.done.wait(timeout=30) and retry.error is None
    server.stop()
    print("recovery: backlog drained and the shed request succeeded on retry")


def demo_chaos_shard_kill(fused, features, direct) -> None:
    """Deterministic mid-burst shard kill: zero losses, visible restart."""
    plan = FaultPlan(
        [{"kind": "crash_shard", "shard": 0, "at_batch": 1}], seed=2023
    )
    config = ServeConfig(
        max_batch=8,
        log_every=0,
        num_shards=2,
        queue_depth=64,
        fault_plan=plan,
        restart_backoff_ms=20.0,
        supervise_interval_ms=10.0,
    )
    server = InferenceServer(fused, config, verbose=True)
    pending = [
        server.submit(features[i : i + 1], deadline_ms=CHAOS_DEADLINE_MS)
        for i in range(CHAOS_REQUESTS)
    ]
    burst_start = time.perf_counter()
    server.start()
    for i, request in enumerate(pending):
        # no request may hang past its deadline — wait at most the deadline
        # (plus slack for a loaded runner) before declaring it hung
        assert request.done.wait(timeout=CHAOS_DEADLINE_MS / 1000.0 + 10.0), (
            f"request {i} hung past its deadline"
        )
        assert request.error is None, f"request {i} lost: {request.error!r}"
        assert np.array_equal(request.response.predictions, direct[i : i + 1]), (
            f"request {i}: answer changed after the shard kill"
        )
    elapsed = time.perf_counter() - burst_start
    stats = server.stats()
    assert stats["restarts"] >= 1, "the planned shard kill never fired"
    with ServeHTTPServer(server, host="127.0.0.1", port=0) as httpd:
        host, port = httpd.address
        with urlopen(f"http://{host}:{port}/metrics", timeout=10) as response:
            exposition = response.read().decode("utf-8")
    restart_lines = [
        line
        for line in exposition.splitlines()
        if line.startswith("repro_serve_shard_restarts_total") and not line.startswith("#")
    ]
    assert restart_lines and any(
        float(line.rsplit(" ", 1)[1]) >= 1 for line in restart_lines
    ), "/metrics must show the shard restart counter"
    server.stop()
    print(
        f"\nchaos: shard 0 killed mid-burst; all {CHAOS_REQUESTS} accepted "
        f"requests answered bit-identically in {elapsed * 1000:.0f}ms "
        f"(redispatched={stats['redispatched']}, restarts={stats['restarts']})"
    )
    print(f"  /metrics: {restart_lines[0]}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", default=str(DEFAULT_SPEC))
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="kill one shard mid-burst under a deterministic fault plan and "
        "assert zero accepted requests are lost",
    )
    args = parser.parse_args()

    # 1. Run (or resume) the pipeline; the export stage bundles the model.
    spec = RunSpec.from_json(args.spec)
    cache_dir = args.cache_dir or MuffinPipeline.default_cache_dir(spec)
    outcome = MuffinPipeline(spec, cache_dir=cache_dir, verbose=True).run()
    artifact_path = outcome.artifact_path
    print(f"\nexported serving artifact: {artifact_path}")

    # 2. Reload it as a standalone model and verify the round trip.
    fused = load_fused_model(artifact_path)
    test = outcome.split.test
    features = fused.schema.features(test)
    direct = fused.predict_features(features)
    assert np.array_equal(direct, outcome.muffin.fused.predict(test)), (
        "artifact round trip must be bit-identical to the in-memory model"
    )
    print(f"round trip verified: {len(direct)} test predictions bit-identical")

    # 3. Serve a concurrent labelled burst through the micro-batcher.
    # Telemetry is off by default; flip it on so /metrics has data.
    METRICS.enable()
    groups = {name: test.group_ids(name) for name in test.attributes.names}
    config = ServeConfig(max_batch=64, log_every=50)
    with InferenceServer(fused, config, verbose=True) as server:
        client = ServeClient(server)
        errors = []
        barrier = threading.Barrier(REQUESTS)

        def fire(i: int) -> None:
            rows = slice(i * ROWS_PER_REQUEST, (i + 1) * ROWS_PER_REQUEST)
            barrier.wait()
            try:
                response = client.predict(
                    features[rows],
                    groups={name: ids[rows] for name, ids in groups.items()},
                    labels=test.labels[rows],
                )
                if not np.array_equal(response.predictions, direct[rows]):
                    raise AssertionError(f"request {i}: batched answer != direct answer")
            except Exception as exc:  # surfaced after the join below
                errors.append(exc)

        threads = [threading.Thread(target=fire, args=(i,)) for i in range(REQUESTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

        # 4. Inspect the live statistics.
        stats = server.stats()

        # 5. Scrape GET /metrics off the HTTP frontend and cross-check the
        # telemetry layer against the server's own counters.
        with ServeHTTPServer(server, host="127.0.0.1", port=0) as httpd:
            host, port = httpd.address
            with urlopen(f"http://{host}:{port}/metrics", timeout=10) as response:
                content_type = response.headers.get("Content-Type", "")
                exposition = response.read().decode("utf-8")
        assert content_type.startswith("text/plain"), content_type
        check_metrics_exposition(exposition, expected_requests=REQUESTS)
        print(f"\nGET /metrics: telemetry agrees with {REQUESTS} requests served")

    assert not server.is_running, "server must shut down cleanly"
    assert stats["requests"] == REQUESTS
    assert stats["batches"] < REQUESTS, "concurrent requests must coalesce"
    window = stats["fairness"]["window"]
    assert window["size"] == REQUESTS * ROWS_PER_REQUEST
    assert 0.0 <= window["accuracy"] <= 1.0

    print(
        f"\nserved {stats['requests']} requests ({stats['samples']} samples) in "
        f"{stats['batches']} micro-batches (mean batch {stats['mean_batch_size']})"
    )
    print(f"windowed accuracy over live traffic: {window['accuracy']:.4f}")
    for attribute, value in window["unfairness_score"].items():
        gap = window["accuracy_gap"][attribute]
        print(f"  U({attribute}) = {value:.4f}   accuracy gap = {gap:.4f}")
    # 6. Admission control: overload is a typed, immediate rejection —
    # and the shed request succeeds on retry once capacity returns.
    demo_overload_and_recovery(fused, features)

    # 7. Chaos: kill a shard mid-burst and prove nothing is lost.
    if args.chaos:
        demo_chaos_shard_kill(fused, features, direct)

    print("\nserve this artifact over HTTP with:")
    print(f"  python -m repro serve {artifact_path} --port 8000")


if __name__ == "__main__":
    main()
