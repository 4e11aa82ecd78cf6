"""Tests of the selector-loop HTTP frontend: one thread for every
connection, non-blocking reads and writes, per-connection deadlines and
the graceful stop.

The requests here go over raw sockets where the test needs to hold a
connection open half-sent, read slowly or hang up early.  No test asserts
on wall-clock time; ``wait_until`` only bounds how long a test waits for a
state it then asserts.
"""

import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import FusedModel
from repro.serve import InferenceServer, ServeConfig, ServeHTTPServer
from repro.serve.http import MAX_HEADER_BYTES


@pytest.fixture(scope="module")
def bound_model(fused_model, serving_schema):
    """Schema-bound view of the shared fused model (body/head shared)."""
    return FusedModel(
        fused_model.body, fused_model.head, name=fused_model.name, schema=serving_schema
    )


@pytest.fixture(scope="module")
def serving_features(serving_schema, isic_split):
    return serving_schema.features(isic_split.test)


def make_server(bound_model, **overrides) -> InferenceServer:
    config = ServeConfig(
        **{"max_batch": 32, "log_every": 0, "restart_after_ms": 60000.0, **overrides}
    )
    return InferenceServer(bound_model, config)


def wait_until(predicate, timeout=30.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class GatedModel:
    """Stands in for a shard's replica: every forward waits on ``gate``."""

    def __init__(self, model, gate: threading.Event) -> None:
        self.model = model
        self.gate = gate
        self.name = model.name
        self.metadata = model.metadata

    def predict_detailed_features(self, features):
        assert self.gate.wait(timeout=30), "the test never opened the gate"
        return self.model.predict_detailed_features(features)


def post_bytes(payload, content_length=None) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    length = len(body) if content_length is None else content_length
    head = (
        "POST /predict HTTP/1.0\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {length}\r\n\r\n"
    )
    return head.encode("ascii") + body


def send(httpd, raw: bytes, rcvbuf=None) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    if rcvbuf is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.settimeout(30)
    sock.connect(httpd.address)
    sock.sendall(raw)
    return sock


def read_reply(sock: socket.socket):
    """Read to EOF; returns (status, lower-cased headers, body bytes)."""
    chunks = []
    try:
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        sock.close()
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("iso-8859-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(lines[0].split()[1]), headers, body


def exchange(httpd, raw: bytes):
    return read_reply(send(httpd, raw))


@pytest.fixture()
def gated(bound_model):
    """A started 1-shard frontend whose forwards wait on the returned gate."""
    gate = threading.Event()
    gate.set()
    server = make_server(bound_model)
    httpd = ServeHTTPServer(server, port=0).start_background()
    server.shards[0].model = GatedModel(server.shards[0].model, gate)
    try:
        yield httpd, gate
    finally:
        gate.set()
        httpd.stop()


class TestSelectorLoop:
    def test_in_flight_requests_start_no_thread(self, gated, serving_features):
        httpd, gate = gated
        server = httpd.inference
        status, _, _ = exchange(httpd, post_bytes({"features": serving_features[:1].tolist()}))
        assert status == 200
        baseline = threading.active_count()
        gate.clear()
        sockets = [
            send(httpd, post_bytes({"features": serving_features[i : i + 1].tolist()}))
            for i in range(16)
        ]
        assert wait_until(lambda: server.pool.totals()["admitted"] == 17)
        assert threading.active_count() <= baseline
        gate.set()
        replies = [read_reply(sock) for sock in sockets]
        assert [status for status, _, _ in replies] == [200] * 16
        expected = server.model.predict_features(serving_features[:16])
        for i, (_, _, body) in enumerate(replies):
            assert json.loads(body)["predictions"] == [int(expected[i])]

    def test_settles_from_many_threads_each_wake_the_loop(
        self, bound_model, serving_features
    ):
        """Two shards settle into the loop's deque while eight clients
        connect; with a short switch interval, a lost wake-up or a dropped
        (connection, request) pair would leave a request unanswered."""
        server = make_server(bound_model, num_shards=2, max_batch=4)
        expected = bound_model.predict_features(serving_features[:64]).tolist()
        answers = [None] * 64

        def client(k):
            for i in range(k, 64, 8):
                raw = post_bytes({"features": serving_features[i : i + 1].tolist()})
                status, _, body = exchange(httpd, raw)
                answers[i] = (status, json.loads(body).get("predictions"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServeHTTPServer(server, port=0, request_timeout=20.0) as httpd:
                clients = [threading.Thread(target=client, args=(k,)) for k in range(8)]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in clients)
                assert server.requests_served == 64
        finally:
            sys.setswitchinterval(interval)
        assert answers == [(200, [label]) for label in expected]

    def test_stalled_half_header_does_not_block_others(
        self, gated, serving_features
    ):
        httpd, _ = gated
        stalled = send(httpd, b"POST /predict HTTP/1.0\r\nContent-Le")
        try:
            status, _, body = exchange(
                httpd, post_bytes({"features": serving_features[:2].tolist()})
            )
            assert status == 200
            assert len(json.loads(body)["predictions"]) == 2
        finally:
            stalled.close()

    def test_client_gone_before_settle_does_not_break_the_loop(
        self, gated, serving_features
    ):
        httpd, gate = gated
        server = httpd.inference
        gate.clear()
        sock = send(httpd, post_bytes({"features": serving_features[:1].tolist()}))
        assert wait_until(lambda: server.pool.totals()["admitted"] == 1)
        sock.close()
        gate.set()
        assert wait_until(lambda: server.requests_served == 1)
        status, _, body = exchange(
            httpd, post_bytes({"features": serving_features[1:2].tolist()})
        )
        assert status == 200
        assert server.requests_served == 2

    def test_large_reply_to_slow_reader_arrives_whole(
        self, gated, bound_model, serving_features
    ):
        httpd, _ = gated
        features = np.resize(serving_features, (2048, serving_features.shape[1]))
        slow = send(httpd, post_bytes({"features": features.tolist()}), rcvbuf=4096)
        # the big reply waits on a reader that is not reading; another
        # client is still answered meanwhile
        assert wait_until(lambda: httpd.inference.requests_served == 1, timeout=120)
        status, _, _ = exchange(
            httpd, post_bytes({"features": serving_features[:1].tolist()})
        )
        assert status == 200
        status, headers, body = read_reply(slow)
        assert status == 200
        assert int(headers["content-length"]) == len(body) > 128 * 1024
        reply = json.loads(body)
        detailed = bound_model.predict_detailed_features(features)
        assert reply["predictions"] == bound_model.predict_features(features).tolist()
        np.testing.assert_array_equal(
            np.asarray(reply["probabilities"]), detailed.probabilities
        )

    def test_request_timeout_answers_503(self, bound_model, serving_features):
        gate = threading.Event()
        server = make_server(bound_model)
        httpd = ServeHTTPServer(server, port=0, request_timeout=0.2).start_background()
        server.shards[0].model = GatedModel(server.shards[0].model, gate)
        try:
            status, _, body = exchange(
                httpd, post_bytes({"features": serving_features[:1].tolist()})
            )
            assert status == 503
            assert "timed out after 0.2s" in json.loads(body)["error"]
            gate.set()  # the late settle is a no-op for the closed connection
            assert wait_until(lambda: server.requests_served == 1)
        finally:
            gate.set()
            httpd.stop()

    def test_oversized_header_block_is_431(self, gated):
        httpd, _ = gated
        filler = "".join(
            f"X-Filler-{i}: {'a' * 1000}\r\n" for i in range(MAX_HEADER_BYTES // 1000 + 2)
        )
        raw = f"GET /healthz HTTP/1.0\r\n{filler}\r\n".encode("ascii")
        status, _, body = exchange(httpd, raw)
        assert status == 431
        assert "header block" in json.loads(body)["error"]

    @pytest.mark.parametrize("length", ["abc", "-5", "99999999999999999999", "1.5"])
    def test_malformed_content_length_is_400(self, gated, length):
        httpd, _ = gated
        raw = post_bytes({"features": [[0.0]]}, content_length=length)
        status, _, body = exchange(httpd, raw)
        assert status == 400
        assert "error" in json.loads(body)

    def test_too_deeply_nested_body_is_400(self, gated):
        httpd, _ = gated
        body = b"[" * 100_000
        head = f"POST /predict HTTP/1.0\r\nContent-Length: {len(body)}\r\n\r\n"
        status, _, reply = exchange(httpd, head.encode("ascii") + body)
        assert status == 400
        assert "recursion" in json.loads(reply)["error"]

    def test_bad_request_line_is_400_and_unknown_method_501(self, gated):
        httpd, _ = gated
        assert exchange(httpd, b"NONSENSE\r\n\r\n")[0] == 400
        assert exchange(httpd, b"DELETE /predict HTTP/1.0\r\n\r\n")[0] == 501

    def test_request_admitted_before_stop_gets_its_200(
        self, bound_model, serving_features
    ):
        gate = threading.Event()
        server = make_server(bound_model)
        httpd = ServeHTTPServer(server, port=0).start_background()
        server.shards[0].model = GatedModel(server.shards[0].model, gate)
        sock = send(httpd, post_bytes({"features": serving_features[:3].tolist()}))
        assert wait_until(lambda: server.pool.totals()["admitted"] == 1)
        stopper = threading.Thread(target=httpd.stop)
        stopper.start()
        try:
            assert wait_until(lambda: server.pool._draining)
            gate.set()
            status, _, body = read_reply(sock)
            assert status == 200
            assert json.loads(body)["predictions"] == (
                bound_model.predict_features(serving_features[:3]).tolist()
            )
        finally:
            gate.set()
            stopper.join(timeout=30)
        assert not stopper.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(httpd.address, timeout=5).close()

    def test_metrics_and_verbose_access_log(self, bound_model, capsys):
        with ServeHTTPServer(make_server(bound_model), port=0, verbose=True) as httpd:
            host, port = httpd.address
            with urllib.request.urlopen(f"http://{host}:{port}/metrics", timeout=30) as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith("text/plain")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"http://{host}:{port}/stats?x=1", timeout=30)
            assert err.value.code == 404
            err.value.close()
        log = capsys.readouterr().err
        assert '"GET /metrics HTTP/1.1" 200 -' in log
        assert '"GET /stats?x=1 HTTP/1.1" 404 -' in log
