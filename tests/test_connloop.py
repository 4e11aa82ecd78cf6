"""Tests of the shared connection loop, driven by a tiny line-echo protocol.

Each line a client sends comes back; ``later`` is answered from another
thread through ``ConnLoop.post``, ``big`` gets a reply too large for the
socket buffers, and ``boom`` makes the handler raise.  No test asserts on
wall-clock time; ``wait_until`` only bounds how long a test waits for a
state it then asserts, and a loop that failed to wake up would run into the
clients' socket timeout.
"""

import queue
import socket
import sys
import threading
import time

import pytest

from repro.utils.connloop import ConnLoop

BIG = 16 * 1024 * 1024


def wait_until(predicate, timeout=30.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class Echo:
    """The protocol: one reply per line; ``later`` lines wait on ``pending``."""

    def __init__(self, timeout: float = 60.0) -> None:
        self.timeout = timeout
        self.pending: "queue.Queue" = queue.Queue(maxsize=16)
        self.expired = []
        self.loop = ConnLoop("127.0.0.1", 0, 16, self.on_input, self.on_deadline)

    def on_input(self, conn) -> None:
        if conn.deadline is None:  # just accepted
            self.loop.set_deadline(conn, conn.active + self.timeout)
        while True:
            end = conn.inbuf.find(b"\n")
            if end < 0:
                return
            line = bytes(conn.inbuf[:end])
            del conn.inbuf[: end + 1]
            if line == b"boom":
                raise RuntimeError("handler bug")
            if line == b"later":
                conn.waiting = True
                self.pending.put(conn)
                return
            reply = b"x" * BIG if line == b"big" else line
            self.loop.send(conn, reply + b"\n")

    def on_deadline(self, conn) -> None:
        self.expired.append(conn)
        self.loop.drop(conn)

    def answer(self, conn, text: bytes) -> None:
        self.loop.send(conn, text + b"\n")


@pytest.fixture()
def echo():
    server = Echo()
    server.loop.start("connloop-test")
    yield server
    server.loop.stop()
    server.loop.join()
    server.loop.close()


def connect(server, rcvbuf=None) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    if rcvbuf is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.settimeout(10.0)
    sock.connect(server.loop.address)
    return sock


def read(sock: socket.socket, size: int) -> bytes:
    """Read ``size`` bytes, or fewer if the server closes first."""
    data = bytearray()
    while len(data) < size:
        chunk = sock.recv(size - len(data))
        if not chunk:
            break
        data += chunk
    return bytes(data)


def closed_by_server(sock: socket.socket) -> bool:
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


def test_echo_answers_several_lines_on_one_connection(echo):
    sock = connect(echo)
    try:
        sock.sendall(b"one\ntwo\n")
        assert read(sock, 8) == b"one\ntwo\n"
        sock.sendall(b"three\n")
        assert read(sock, 6) == b"three\n"
    finally:
        sock.close()


def test_slow_reader_does_not_stall_another_connection(echo):
    slow = connect(echo, rcvbuf=4096)
    fast = connect(echo)
    try:
        slow.sendall(b"big\n")  # far more than the socket buffers hold
        fast.sendall(b"ping\n")
        assert read(fast, 5) == b"ping\n"
        assert read(slow, BIG + 1) == b"x" * BIG + b"\n"
    finally:
        slow.close()
        fast.close()


def test_reply_posted_from_another_thread_wakes_the_loop(echo):
    sock = connect(echo)
    try:
        sock.sendall(b"later\n")
        conn = echo.pending.get(timeout=10.0)
        poster = threading.Thread(target=echo.loop.post, args=(conn, echo.answer, b"done"))
        poster.start()
        poster.join()
        # the loop has no deadline due for a minute: only the wake-up lets
        # it write the reply before this socket's timeout
        assert read(sock, 5) == b"done\n"
        sock.sendall(b"again\n")
        assert read(sock, 6) == b"again\n"
    finally:
        sock.close()


def test_replies_posted_by_many_threads_all_arrive(echo):
    """Eight threads post at once under a 10 µs switch interval; a lost
    wake-up or a dropped post would leave a client unanswered."""
    socks = [connect(echo) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for sock in socks:
            sock.sendall(b"later\n")
        conns = [echo.pending.get(timeout=10.0) for _ in socks]
        posters = [
            threading.Thread(target=echo.loop.post, args=(conn, echo.answer, b"%03d" % i))
            for i, conn in enumerate(conns)
        ]
        for thread in posters:
            thread.start()
        for thread in posters:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in posters)
        replies = sorted(read(sock, 4) for sock in socks)
        assert replies == [b"%03d\n" % i for i in range(8)]
    finally:
        sys.setswitchinterval(interval)
        for sock in socks:
            sock.close()


def test_passed_deadline_closes_its_connection():
    server = Echo(timeout=0.2)
    server.loop.start("connloop-test")
    try:
        idle = connect(server)
        try:
            assert closed_by_server(idle)
            assert wait_until(lambda: len(server.expired) == 1)
        finally:
            idle.close()
        fresh = connect(server)
        try:
            fresh.sendall(b"ping\n")
            assert read(fresh, 5) == b"ping\n"
        finally:
            fresh.close()
    finally:
        server.loop.stop()
        server.loop.join()
        server.loop.close()


def test_handler_exception_closes_only_its_connection(echo, capfd):
    bystander = connect(echo)
    buggy = connect(echo)
    try:
        bystander.sendall(b"before\n")
        assert read(bystander, 7) == b"before\n"
        buggy.sendall(b"boom\n")
        assert closed_by_server(buggy)
        bystander.sendall(b"after\n")
        assert read(bystander, 6) == b"after\n"
    finally:
        bystander.close()
        buggy.close()
    fresh = connect(echo)
    try:
        fresh.sendall(b"ping\n")
        assert read(fresh, 5) == b"ping\n"
    finally:
        fresh.close()
    assert "RuntimeError: handler bug" in capfd.readouterr().err


def test_stop_closes_readers_writes_pending_replies_and_joins():
    server = Echo()
    server.loop.start("connloop-test")
    reader = connect(server)  # sends nothing
    waiter = connect(server)
    try:
        waiter.sendall(b"later\n")
        # accepted in connection order: once the waiter's line is in, the
        # silent reader is open on the loop too
        conn = server.pending.get(timeout=10.0)
        server.loop.stop()
        assert closed_by_server(reader)
        server.loop.post(conn, server.answer, b"owed")
        assert read(waiter, 5) == b"owed\n"
        assert closed_by_server(waiter)
        server.loop.join()
        assert not [t for t in threading.enumerate() if t.name == "connloop-test"]
        server.loop.close()
        with pytest.raises(OSError):
            socket.create_connection(server.loop.address, timeout=5.0).close()
    finally:
        reader.close()
        waiter.close()
