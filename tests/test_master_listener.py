"""Tests of the master's client listener: one selector loop on one thread
serves every connection, and no connection can hold up another.

Raw sockets stand in for clients that connect and stay silent, send half a
frame, break the framing or pipeline two requests.  A client that waits on
another connection would run into its own socket timeout, so no test
asserts on wall-clock time.
"""

import json
import socket
import struct
import threading
import time

import pytest

from repro.api import RunSpec
from repro.master import MasterClient, MasterConfig, MasterServer
from repro.master import scheduler as scheduler_mod
from repro.master.protocol import MAX_MESSAGE_BYTES, recv_message, send_message

#: the name of the thread the master used to start for every connection
PER_CONNECTION_THREAD = "muffin-master-client"


@pytest.fixture()
def server(tmp_path):
    """A started master whose database holds one finished run to poll."""
    master = MasterServer(MasterConfig(db_root=tmp_path / "db", executor=None, verbose=False))
    rid = master.db.submit(RunSpec.from_dict({"name": "listener-test"}))
    master.db.set_status(rid, "running")
    master.db.set_status(rid, "done", result_hash="feedface")
    master.start()
    master.rid = rid
    yield master
    master.stop()


def _connect(server) -> socket.socket:
    return socket.create_connection((server.host, server.port), timeout=5.0)


def _frame(message) -> bytes:
    body = json.dumps(message).encode("utf-8")
    return struct.pack(">I", len(body)) + body


def _client(server) -> MasterClient:
    return MasterClient(server.host, server.port, timeout=5.0, retries=0)


def _per_connection_threads():
    return [t for t in threading.enumerate() if t.name == PER_CONNECTION_THREAD]


class _ThreadWatch:
    """Collects the per-connection threads alive at any moment of a block."""

    def __enter__(self):
        self.seen = set()
        self._done = threading.Event()
        self._sampler = threading.Thread(target=self._sample, daemon=True)
        self._sampler.start()
        return self

    def _sample(self) -> None:
        while not self._done.is_set():
            self.seen.update(id(t) for t in _per_connection_threads())
            time.sleep(0.0005)

    def __exit__(self, *exc_info) -> None:
        self._done.set()
        self._sampler.join(timeout=5.0)


class TestListener:
    def test_silent_and_half_sent_clients_do_not_delay_status(self, server):
        silent = _connect(server)
        half = _connect(server)
        try:
            half.sendall(struct.pack(">I", 100) + b'{"type":')
            status = _client(server).status(server.rid)
            assert status["status"] == "done"
            assert status["result_hash"] == "feedface"
            assert _per_connection_threads() == []
        finally:
            silent.close()
            half.close()

    def test_bad_frames_close_only_their_own_connection(self, server):
        good = _connect(server)
        try:
            send_message(good, {"type": "ping"})
            assert recv_message(good)["type"] == "pong"
            oversized = _connect(server)
            garbage = _connect(server)
            oversized.sendall(struct.pack(">I", MAX_MESSAGE_BYTES + 1))
            garbage.sendall(struct.pack(">I", 5) + b"nope!")
            for sock in (oversized, garbage):
                assert sock.recv(1) == b""  # closed by the master
                sock.close()
            send_message(good, {"type": "status", "rid": server.rid})
            assert recv_message(good)["run"]["status"] == "done"
            assert _per_connection_threads() == []
        finally:
            good.close()

    def test_too_deeply_nested_frame_closes_only_its_own_connection(self, server):
        nested = _connect(server)
        try:
            nested.sendall(struct.pack(">I", 100_000) + b"[" * 100_000)
            assert nested.recv(1) == b""  # closed by the master
        finally:
            nested.close()
        assert _client(server).ping()["type"] == "pong"

    def test_two_requests_on_one_connection_are_both_answered(self, server):
        sock = _connect(server)
        try:
            sock.sendall(_frame({"type": "ping"}) + _frame({"type": "status", "rid": server.rid}))
            assert recv_message(sock)["type"] == "pong"
            assert recv_message(sock)["run"]["rid"] == server.rid
            send_message(sock, {"type": "status", "rid": 999})
            assert recv_message(sock) == {"type": "error", "error": "unknown run 999"}
            assert _per_connection_threads() == []
        finally:
            sock.close()

    def test_concurrent_status_calls_all_answer(self, server):
        answers, errors = [], []

        def poll() -> None:
            try:
                client = _client(server)
                for _ in range(4):
                    answers.append(client.status(server.rid)["status"])
            except Exception as exc:  # reported below, with the others
                errors.append(exc)

        threads = [threading.Thread(target=poll) for _ in range(8)]
        with _ThreadWatch() as watch:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert answers == ["done"] * 32
        assert watch.seen == set()

    def test_polls_start_no_thread(self, server):
        client = _client(server)
        with _ThreadWatch() as watch:
            for _ in range(100):
                assert client.status(server.rid)["status"] == "done"
        assert watch.seen == set()

    def test_idle_connection_is_closed_at_its_deadline(self, server, monkeypatch):
        monkeypatch.setattr(scheduler_mod, "_IDLE_S", 0.3)
        idle = _connect(server)
        try:
            assert idle.recv(1) == b""  # closed within the socket's 5 s timeout
        finally:
            idle.close()
        assert _client(server).ping()["type"] == "pong"

    def test_stop_closes_open_connections_and_joins_the_loop(self, server):
        silent = _connect(server)
        try:
            assert _client(server).ping()["type"] == "pong"  # silent is accepted by now
            server.stop()
            assert silent.recv(1) == b""
            assert not [t for t in threading.enumerate() if t.name == "muffin-master-listener"]
        finally:
            silent.close()
