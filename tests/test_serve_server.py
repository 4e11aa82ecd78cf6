"""Tests of the micro-batching inference server and the live fairness monitor."""

import io
import json
import queue
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import FusedModel
from repro.obs import TraceWriter, install, load_spans, uninstall
from repro.serve import (
    FairnessMonitor,
    InferenceServer,
    ServeClient,
    ServeConfig,
    ServeHTTPServer,
)
from repro.serve import supervisor
from repro.serve.supervisor import _SHUTDOWN, PendingRequest, Shard


@pytest.fixture(scope="module")
def bound_model(fused_model, serving_schema):
    """Schema-bound view of the shared fused model (body/head shared)."""
    return FusedModel(
        fused_model.body, fused_model.head, name=fused_model.name, schema=serving_schema
    )


@pytest.fixture(scope="module")
def serving_features(serving_schema, isic_split):
    return serving_schema.features(isic_split.test)


@pytest.fixture(scope="module")
def direct_predictions(bound_model, serving_features):
    return bound_model.predict_features(serving_features)


class ListQueue:
    """Queue stub: a blocking ``get`` fails the test, ``get_nowait`` pops."""

    def __init__(self, items):
        self.items = list(items)

    def get(self, *args, **kwargs):
        raise AssertionError("the batcher blocked waiting for more requests")

    def get_nowait(self):
        if not self.items:
            raise queue.Empty
        return self.items.pop(0)


def make_server(bound_model, **overrides) -> InferenceServer:
    config = ServeConfig(
        **{"max_batch": 32, "log_every": 0, **overrides}
    )
    return InferenceServer(bound_model, config)


class TestMicroBatcher:
    def test_sequential_requests_match_direct_predictions(
        self, bound_model, serving_features, direct_predictions
    ):
        with make_server(bound_model) as server:
            client = ServeClient(server)
            for start in range(0, 50, 10):
                rows = slice(start, start + 10)
                response = client.predict(serving_features[rows])
                np.testing.assert_array_equal(
                    response.predictions, direct_predictions[rows]
                )
        assert server.requests_served == 5

    def test_partial_batch_is_served_at_once(
        self, bound_model, serving_features, direct_predictions
    ):
        """Fewer rows than max_batch are answered without waiting for more."""
        with make_server(bound_model, max_batch=64) as server:
            response = ServeClient(server).predict(serving_features[:3])
            np.testing.assert_array_equal(response.predictions, direct_predictions[:3])
            assert response.batch_rows == 3
        assert server.batches_served == 1

    def test_collect_batch_takes_what_is_queued_and_never_waits(
        self, bound_model, serving_features
    ):
        """The work-conserving rule, driven without threads or a clock."""
        server = make_server(bound_model, max_batch=4)

        def request(rows):
            return PendingRequest(
                features=serving_features[:rows], groups={}, labels=None, enqueued_at=0.0
            )

        def collect(first, queued):
            stub = ListQueue(queued)
            shard = Shard(server.pool, 0, 0, bound_model, stub)
            batch, exiting = shard._collect_batch(first)
            return batch, exiting, stub.items

        def same(left, right):
            return len(left) == len(right) and all(a is b for a, b in zip(left, right))

        ones = [request(1) for _ in range(6)]
        # exactly what is queued, up to max_batch rows; the rest stays queued
        batch, exiting, left = collect(ones[0], ones[1:])
        assert same(batch, ones[:4]) and same(left, ones[4:]) and not exiting
        # fewer queued than max_batch: dispatched as they are
        batch, exiting, left = collect(ones[0], ones[1:3])
        assert same(batch, ones[:3]) and left == [] and not exiting
        batch, exiting, left = collect(ones[0], [])
        assert same(batch, ones[:1]) and not exiting
        # a request that crosses max_batch is still taken, then the batch ends
        two, three = request(2), request(3)
        batch, exiting, left = collect(ones[0], [two, three, ones[1]])
        assert same(batch, [ones[0], two, three]) and same(left, [ones[1]])
        # an oversized request is taken, and served alone
        big = request(9)
        batch, exiting, left = collect(big, ones[1:3])
        assert same(batch, [big]) and same(left, ones[1:3]) and not exiting
        # the shutdown sentinel ends the batch and tells the loop to exit
        batch, exiting, left = collect(ones[0], [ones[1], _SHUTDOWN, ones[2]])
        assert same(batch, ones[:2]) and exiting and same(left, [ones[2]])

    def test_burst_coalesces_into_fewer_batches(
        self, bound_model, serving_features, direct_predictions
    ):
        """A pre-submitted burst drains in max_batch chunks, preserving order."""
        server = make_server(bound_model, max_batch=16)
        pending = [
            server.submit(serving_features[i : i + 1]) for i in range(32)
        ]  # queued before the worker starts: a cold burst
        server.start()
        for i, request in enumerate(pending):
            assert request.done.wait(timeout=30)
            np.testing.assert_array_equal(
                request.response.predictions, direct_predictions[i : i + 1]
            )
        assert server.batches_served == 2  # 32 single-row requests / max_batch=16
        assert server.stats()["mean_batch_size"] == 16.0
        server.stop()

    def test_concurrent_clients_get_their_own_rows(
        self, bound_model, serving_features, direct_predictions
    ):
        with make_server(bound_model) as server:
            client = ServeClient(server)
            results = {}
            barrier = threading.Barrier(10)

            def call(i):
                rows = slice(i * 7, i * 7 + 7)
                barrier.wait()
                results[i] = client.predict(serving_features[rows])

            threads = [threading.Thread(target=call, args=(i,)) for i in range(10)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for i in range(10):
                np.testing.assert_array_equal(
                    results[i].predictions, direct_predictions[i * 7 : i * 7 + 7]
                )
        assert server.requests_served == 10
        assert server.batches_served <= 10

    def test_oversized_request_processed_alone(
        self, bound_model, serving_features, direct_predictions
    ):
        with make_server(bound_model, max_batch=8) as server:
            response = ServeClient(server).predict(serving_features[:20])
            np.testing.assert_array_equal(response.predictions, direct_predictions[:20])
            assert response.batch_rows == 20

    def test_submit_after_stop_rejected(self, bound_model, serving_features):
        server = make_server(bound_model).start()
        server.stop()
        with pytest.raises(RuntimeError, match="shutting down"):
            server.submit(serving_features[:1])

    def test_invalid_features_rejected_at_submit(self, bound_model):
        with make_server(bound_model) as server:
            with pytest.raises(ValueError, match="expected features"):
                server.submit(np.zeros((2, 3)))


class TestBatchSpan:
    def test_each_served_batch_writes_one_span(self, bound_model, serving_features):
        sizes = [1, 3, 2, 5, 1, 12, 4]
        stream = io.StringIO()
        install(TraceWriter(stream))
        try:
            server = make_server(bound_model, max_batch=8)
            pending, offset = [], 0
            for size in sizes:  # a cold burst: the batches are deterministic
                pending.append(server.submit(serving_features[offset : offset + size]))
                offset += size
            server.start()
            for request in pending:
                assert request.done.wait(timeout=30)
                assert request.error is None
            server.stop()
        finally:
            uninstall()
        spans = [
            row
            for row in load_spans(io.StringIO(stream.getvalue()))
            if row["name"] == "serve/batch"
        ]
        assert len(spans) == server.batches_served == 3
        assert sum(row["rows"] for row in spans) == offset
        assert [row["rows"] for row in spans] == [11, 13, 4]
        assert [row["requests"] for row in spans] == [4, 2, 1]
        assert [row["batch_id"] for row in spans] == [0, 1, 2]
        assert all(row["shard"] == 0 and row["wait_ms"] >= 0.0 for row in spans)

    def test_no_writer_means_no_span(
        self, bound_model, serving_features, direct_predictions, monkeypatch
    ):
        def no_span(*args, **kwargs):
            raise AssertionError("span() entered with no trace writer installed")

        monkeypatch.setattr(supervisor, "span", no_span)
        with make_server(bound_model) as server:
            response = ServeClient(server).predict(serving_features[:3])
        np.testing.assert_array_equal(response.predictions, direct_predictions[:3])


class TestFairnessMonitor:
    def test_windowed_metrics_match_offline_engine(
        self, bound_model, serving_schema, serving_features, isic_split
    ):
        """The live window reproduces the offline evaluation on the same samples."""
        from repro.fairness import evaluate_predictions

        test = isic_split.test
        n = 200
        groups = {a: test.group_ids(a)[:n] for a in test.attributes.names}
        with make_server(bound_model, monitor_window=4096) as server:
            client = ServeClient(server)
            for start in range(0, n, 25):
                rows = slice(start, start + 25)
                client.predict(
                    serving_features[rows],
                    groups={a: ids[rows] for a, ids in groups.items()},
                    labels=test.labels[rows],
                )
            stats = server.stats()
        window = stats["fairness"]["window"]
        assert window["size"] == n
        offline = evaluate_predictions(
            bound_model.predict_features(serving_features[:n]), test.subset(np.arange(n))
        )
        assert window["accuracy"] == pytest.approx(offline.accuracy)
        for attribute, value in offline.unfairness.items():
            assert window["unfairness_score"][attribute] == pytest.approx(value)
            assert window["accuracy_gap"][attribute] == pytest.approx(
                offline.gaps[attribute]
            )

    def test_group_counts_accumulate(self, serving_schema):
        monitor = FairnessMonitor(serving_schema, window=16)
        monitor.observe(np.array([0, 1]), groups={"age": np.array([0, 5])})
        monitor.observe(np.array([1]), groups={"age": np.array([0])})
        snapshot = monitor.snapshot()
        assert snapshot["total_samples"] == 3
        assert snapshot["group_counts"]["age"]["0-20"] == 2
        assert snapshot["group_counts"]["age"]["unknown"] == 1
        # No labels -> no fairness window yet.
        assert snapshot["labelled_samples"] == 0
        assert snapshot["window"] is None

    def test_window_slides(self, serving_schema):
        monitor = FairnessMonitor(serving_schema, window=8)
        names = serving_schema.attribute_names
        for _ in range(4):
            monitor.observe(
                np.zeros(4, dtype=np.int64),
                groups={a: np.zeros(4, dtype=np.int64) for a in names},
                labels=np.zeros(4, dtype=np.int64),
            )
        snapshot = monitor.snapshot()
        assert snapshot["labelled_samples"] == 16
        assert snapshot["window"]["size"] == 8  # capped by the sliding window

    def test_periodic_log_rows(self, serving_schema):
        monitor = FairnessMonitor(serving_schema, window=32, log_every=10)
        names = serving_schema.attribute_names
        for _ in range(3):
            monitor.observe(
                np.zeros(6, dtype=np.int64),
                groups={a: np.zeros(6, dtype=np.int64) for a in names},
                labels=np.zeros(6, dtype=np.int64),
            )
            monitor.maybe_log()
        rows = monitor.logger.rows
        assert rows and rows[0]["event"] == "fairness-window"
        assert all(f"U({a})" in rows[0] for a in names)


class TestHTTPFrontend:
    @pytest.fixture()
    def httpd(self, bound_model):
        frontend = ServeHTTPServer(make_server(bound_model), port=0)
        with frontend:
            yield frontend

    def _post(self, httpd, payload):
        host, port = httpd.address
        request = urllib.request.Request(
            f"http://{host}:{port}/predict",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            return json.loads(response.read())

    def _get(self, httpd, path):
        host, port = httpd.address
        with urllib.request.urlopen(f"http://{host}:{port}{path}") as response:
            return json.loads(response.read())

    def test_predict_roundtrip(self, httpd, serving_features, direct_predictions):
        body = self._post(httpd, {"features": serving_features[:4].tolist()})
        assert body["predictions"] == direct_predictions[:4].tolist()
        assert len(body["probabilities"]) == 4
        assert len(body["consensus"]) == 4

    def test_single_sample_flat_list(self, httpd, serving_features, direct_predictions):
        body = self._post(httpd, {"features": serving_features[0].tolist()})
        assert body["predictions"] == [int(direct_predictions[0])]

    def test_labelled_request_feeds_monitor(
        self, httpd, serving_features, isic_split
    ):
        test = isic_split.test
        payload = {
            "features": serving_features[:6].tolist(),
            "groups": {a: test.group_ids(a)[:6].tolist() for a in test.attributes.names},
            "labels": test.labels[:6].tolist(),
        }
        self._post(httpd, payload)
        stats = self._get(httpd, "/stats")
        assert stats["fairness"]["labelled_samples"] == 6
        assert stats["fairness"]["window"]["size"] == 6

    def test_health_and_stats(self, httpd):
        health = self._get(httpd, "/healthz")
        assert health["status"] == "ok"
        stats = self._get(httpd, "/stats")
        assert stats["running"] is True
        assert stats["config"]["max_batch"] == 32

    def test_bad_request_is_400(self, httpd):
        host, port = httpd.address
        request = urllib.request.Request(
            f"http://{host}:{port}/predict",
            data=json.dumps({"features": [[1.0, 2.0]]}).encode("utf-8"),
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400

    def test_failed_forward_returns_500(self, httpd, serving_features, monkeypatch):
        class Boom:
            name = "boom"
            metadata = {}

            def predict_detailed_features(self, *args, **kwargs):
                raise MemoryError("synthetic forward failure")

        # the shard's worker loop forwards through its own replica reference
        monkeypatch.setattr(httpd.inference.shards[0], "model", Boom())
        with pytest.raises(urllib.error.HTTPError) as err:
            self._post(httpd, {"features": serving_features[:1].tolist()})
        assert err.value.code == 500
        assert "synthetic forward failure" in json.loads(err.value.read())["error"]

    def test_unknown_path_is_404(self, httpd):
        host, port = httpd.address
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"http://{host}:{port}/nonsense")
        assert err.value.code == 404
