"""Stdlib HTTP/JSON frontend over the micro-batching inference server.

No web framework and no thread per connection: one thread runs a
:mod:`selectors` loop over the listening socket and every open connection.
The loop accepts without blocking, reads each request into a buffer kept
per connection, parses the request line, the headers and the
``Content-Length`` body, and submits ``POST /predict`` to the
:class:`~repro.serve.server.InferenceServer` with a settle hook.  The
shard thread that settles the request runs the hook: it queues the
connection for the loop and wakes it through a socketpair.  The loop then
encodes the answer and writes it with non-blocking partial writes, so one
slow reader never stalls another connection.  Concurrent HTTP requests
coalesce into the same micro-batches as in-process callers.  Every reply
is HTTP/1.0 and closes its connection.  Endpoints:

``POST /predict``
    ``{"features": [[...]], "groups": {"age": [...]}, "labels": [...]}`` →
    ``{"predictions": [...], "probabilities": [...], "consensus": [...]}``.
    ``features`` may be one sample (a flat list) or a matrix; ``groups`` and
    ``labels`` are optional and feed the live fairness monitor.

``GET /stats``
    Full server + windowed-fairness statistics.

``GET /metrics``
    Prometheus text exposition (version 0.0.4) of the process-wide
    :data:`repro.obs.METRICS` registry — request counters, latency and
    micro-batch-size histograms, queue-depth gauges.

``GET /healthz``
    Liveness probe with the model name, artifact spec hash and per-shard
    health states.

Typed serving failures map to distinct HTTP statuses so callers can tell
*retry later* apart from *give up*: ``ServerOverloaded`` → **429** with a
``Retry-After`` header, ``ServerClosed`` → **503**, ``DeadlineExceeded`` →
**504**, a failed forward pass (``InferenceFailed``) → **500** with the
underlying cause in the error detail.  A request that is not answered
within ``request_timeout`` seconds of its connection being accepted gets
**503**; a malformed request gets **400**, and a header block over
:data:`MAX_HEADER_BYTES` gets **431**.
"""

from __future__ import annotations

import heapq
import itertools
import json
import selectors
import socket
import sys
import threading
import time
import traceback
from collections import deque
from http import HTTPStatus
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..obs import METRICS
from .errors import (
    DeadlineExceeded,
    InferenceFailed,
    ServeError,
    ServerClosed,
    ServerOverloaded,
)
from .server import InferenceServer
from .supervisor import PendingRequest

#: request body size guard (16 MiB) — a JSON feature matrix beyond this is
#: almost certainly a client bug, not a workload
MAX_BODY_BYTES = 16 * 1024 * 1024
#: bound of the request line plus headers, as ``http.server`` reads them
MAX_HEADER_BYTES = 64 * 1024
#: bytes read per ``recv`` call
_RECV_BYTES = 64 * 1024
#: listen backlog: the loop accepts every queued connection per wake-up
_BACKLOG = 128
#: after an early error reply (the request was not read to its end), how
#: long the connection keeps discarding input before it closes; closing
#: with unread input would reset the connection and could lose the reply
_LINGER_S = 2.0

_JSON = "application/json"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

# connection states
_READING, _WAITING, _WRITING, _LINGERING = range(4)


class _Connection:
    """One accepted socket and where its request/response stands."""

    __slots__ = (
        "sock", "peer", "state", "events", "deadline", "inbuf", "scanned",
        "body_at", "length", "requestline", "request", "out", "sent",
        "consumed", "closed",
    )

    def __init__(self, sock: socket.socket, peer: str) -> None:
        self.sock = sock
        self.peer = peer
        self.state = _READING
        self.events = 0  # selector events currently registered (0: none)
        self.deadline = 0.0
        self.inbuf = bytearray()
        self.scanned = 0  # inbuf prefix already searched for the head end
        self.body_at = -1  # offset of the body once the head is parsed
        self.length = 0  # Content-Length of the body
        self.requestline = ""
        self.request: Optional[PendingRequest] = None
        self.out = memoryview(b"")
        self.sent = 0
        self.consumed = False  # the whole request was read before the reply
        self.closed = False


class _BadRequest(Exception):
    """A request the loop answers with an error status before submitting."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _error_reply(
    exc: BaseException,
) -> Tuple[int, Dict[str, object], Sequence[Tuple[str, str]]]:
    """The (status, payload, headers) answering a failed request."""
    if isinstance(exc, (ValueError, KeyError, TypeError)):
        return 400, {"error": str(exc)}, ()
    if isinstance(exc, ServerOverloaded):
        # Admission control shed the request before queuing: tell the
        # caller when capacity is expected back.
        return (
            429,
            {"error": str(exc), "retry_after_s": exc.retry_after},
            (("Retry-After", f"{max(1, round(exc.retry_after))}"),),
        )
    if isinstance(exc, ServerClosed):
        return 503, {"error": str(exc)}, ()
    if isinstance(exc, DeadlineExceeded):
        return 504, {"error": str(exc)}, ()
    # A failed batch forward (InferenceFailed chaining the shard-side
    # error) still gets a JSON error response, not a dropped connection.
    cause = exc.__cause__
    detail = f"{exc}: {cause}" if cause is not None else str(exc)
    return 500, {"error": detail}, ()


class ServeHTTPServer:
    """HTTP frontend bound to one :class:`InferenceServer`.

    ``serve_forever`` runs the selector loop on the calling thread; any
    number of connections share it.  ``shutdown`` (from another thread)
    stops accepting, lets the loop answer every admitted request, and
    returns once the loop has exited.
    """

    def __init__(
        self,
        inference: InferenceServer,
        host: str = "127.0.0.1",
        port: int = 8000,
        request_timeout: float = 30.0,
        verbose: bool = False,
    ) -> None:
        self.inference = inference
        self.request_timeout = request_timeout
        self.verbose = verbose
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen(_BACKLOG)
        except OSError:
            self._listener.close()
            raise
        self._listener.setblocking(False)
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        self._selector.register(self._wake_r, selectors.EVENT_READ, self._wake_r)
        self._address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._accepting = True
        #: (connection, request) pairs settled by shard threads; deque
        #: append/popleft are atomic, so the hook takes no lock
        self._settled: Deque[Tuple[_Connection, PendingRequest]] = deque()
        #: open connections (insertion-ordered set)
        self._conns: Dict[_Connection, None] = {}
        #: (deadline, tie-break, connection); stale entries are skipped
        self._deadlines: List[Tuple[float, int, _Connection]] = []
        self._tiebreak = itertools.count()
        self._stop_requested = False
        self._loop_done = threading.Event()
        self._loop_done.set()
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._address

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Run the selector loop until :meth:`shutdown` is called."""
        self._loop_done.clear()
        try:
            while True:
                timeout = self._expire(time.perf_counter())
                if self._stop_requested:
                    self._stop_accepting()
                    if not self._conns:
                        break
                for key, mask in self._selector.select(timeout):
                    conn = key.data
                    if conn is None:
                        self._accept()
                    elif conn is self._wake_r:
                        self._drain_wake()
                    elif mask & selectors.EVENT_READ:
                        self._guarded(self._on_readable, conn)
                    else:
                        self._guarded(self._flush, conn)
                while self._settled:
                    conn, request = self._settled.popleft()
                    self._guarded(self._answer, conn, request)
        finally:
            self._stop_requested = False
            self._loop_done.set()

    def shutdown(self) -> None:
        """Stop the loop (from another thread) and wait until it has exited.

        The loop stops accepting, closes connections whose request it has
        not read yet, and writes the answer of every admitted request
        before it exits (each is still bounded by ``request_timeout``).
        """
        self._stop_requested = True
        self._wake()
        self._loop_done.wait()

    def server_close(self) -> None:
        """Close the listening socket and every connection still open."""
        for conn in list(self._conns):
            self._close(conn)
        self._selector.close()
        self._listener.close()
        self._wake_r.close()
        self._wake_w.close()

    def start_background(self) -> "ServeHTTPServer":
        """Serve on a daemon thread (tests / embedding); returns self."""
        self.inference.start()
        self._thread = threading.Thread(
            target=self.serve_forever, name="muffin-serve-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Graceful stop: stop accepting, drain the inference server while
        the loop writes the answers, then stop the loop and close."""
        self._stop_requested = True
        self._wake()
        self.inference.stop()
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.server_close()

    def __enter__(self) -> "ServeHTTPServer":
        return self.start_background()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Loop plumbing
    # ------------------------------------------------------------------
    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except BlockingIOError:
            pass  # wake-ups already pending: the loop drains the deque anyway
        except OSError:
            pass  # closed by server_close: no loop is left to wake

    def _drain_wake(self) -> None:
        try:
            self._wake_r.recv(4096)
        except BlockingIOError:
            pass

    def _guarded(self, handler, conn: _Connection, *args: object) -> None:
        """Run one connection's handler; a bug in it costs that connection,
        never the loop."""
        try:
            handler(conn, *args)
        except Exception as exc:
            traceback.print_exc()
            if conn.state == _READING or conn.state == _WAITING:
                conn.request = None
                self._send_json(conn, {"error": f"internal error: {exc}"}, status=500)
            else:
                self._close(conn)

    def _on_settle(self, conn: _Connection, request: PendingRequest) -> None:
        """Settle hook, on the settling thread: hand the answer to the loop."""
        self._settled.append((conn, request))
        self._wake()

    def _stop_accepting(self) -> None:
        if not self._accepting:
            return
        self._accepting = False
        self._selector.unregister(self._listener)
        for conn in list(self._conns):
            if conn.state == _READING or conn.state == _LINGERING:
                self._close(conn)

    def _watch(self, conn: _Connection, events: int) -> None:
        if events == conn.events:
            return
        if conn.events == 0:
            self._selector.register(conn.sock, events, conn)
        elif events == 0:
            self._selector.unregister(conn.sock)
        else:
            self._selector.modify(conn.sock, events, conn)
        conn.events = events

    def _set_deadline(self, conn: _Connection, deadline: float) -> None:
        conn.deadline = deadline
        heapq.heappush(self._deadlines, (deadline, next(self._tiebreak), conn))

    def _expire(self, now: float) -> Optional[float]:
        """Handle every passed deadline; return seconds to the next one."""
        heap = self._deadlines
        while heap:
            deadline, _, conn = heap[0]
            if conn.closed or conn.deadline != deadline:
                heapq.heappop(heap)  # stale: closed or re-armed
                continue
            if deadline > now:
                return deadline - now
            heapq.heappop(heap)
            if conn.state == _WAITING:
                conn.request = None  # a later settle is a no-op here
                self._set_deadline(conn, now + self.request_timeout)  # for the write
                self._send_json(
                    conn,
                    {
                        "error": f"inference request timed out after "
                        f"{self.request_timeout}s "
                        f"(queue_depth={self.inference.pool.queue_depth()})"
                    },
                    status=503,
                )
            else:
                self._close(conn)  # stalled reader or writer, or done lingering
        return None

    def _close(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        if conn.events:
            self._selector.unregister(conn.sock)
            conn.events = 0
        conn.sock.close()
        del self._conns[conn]

    def _accept(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except BlockingIOError:
                return
            except OSError as exc:  # e.g. out of file descriptors
                print(f"serve-http: accept failed: {exc}", file=sys.stderr)
                return
            sock.setblocking(False)
            conn = _Connection(sock, peer[0])
            self._conns[conn] = None
            self._set_deadline(conn, time.perf_counter() + self.request_timeout)
            self._watch(conn, selectors.EVENT_READ)

    # ------------------------------------------------------------------
    # Reading and dispatch
    # ------------------------------------------------------------------
    def _on_readable(self, conn: _Connection) -> None:
        try:
            chunk = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)
            return
        if not chunk:
            self._close(conn)  # peer gone, or done after an early reply
            return
        if conn.state == _LINGERING:
            return  # discarded
        conn.inbuf += chunk
        try:
            self._parse(conn)
        except _BadRequest as exc:
            self._send_json(conn, {"error": str(exc)}, status=exc.status)

    def _parse(self, conn: _Connection) -> None:
        buf = conn.inbuf
        if conn.body_at < 0:
            head_end = buf.find(b"\r\n\r\n", max(0, conn.scanned - 3))
            if head_end < 0 or head_end > MAX_HEADER_BYTES:
                if len(buf) > MAX_HEADER_BYTES:
                    raise _BadRequest(
                        431, f"request header block exceeds {MAX_HEADER_BYTES} bytes"
                    )
                conn.scanned = len(buf)
                return
            conn.body_at = head_end + 4
            method, path, headers = self._parse_head(conn, bytes(buf[:head_end]))
            if method == "GET":
                conn.consumed = len(buf) == conn.body_at
                self._get(conn, path)
                return
            if path != "/predict":
                raise _BadRequest(404, f"unknown path '{path}'")
            raw_length = headers.get("content-length", "0")
            try:
                conn.length = int(raw_length)
            except ValueError:
                raise _BadRequest(
                    400, f"Content-Length must be an integer, got {raw_length!r}"
                ) from None
            if conn.length <= 0 or conn.length > MAX_BODY_BYTES:
                raise _BadRequest(400, f"request body must be 1..{MAX_BODY_BYTES} bytes")
        end = conn.body_at + conn.length
        if len(buf) < end:
            return
        conn.consumed = True
        self._predict(conn, bytes(buf[conn.body_at : end]))

    def _parse_head(
        self, conn: _Connection, head: bytes
    ) -> Tuple[str, str, Dict[str, str]]:
        lines = head.decode("iso-8859-1").split("\r\n")
        conn.requestline = lines[0]
        words = conn.requestline.split()
        if len(words) != 3 or not words[2].startswith("HTTP/"):
            raise _BadRequest(400, f"bad request line {conn.requestline!r}")
        method, path = words[0], words[1]
        if method not in ("GET", "POST"):
            raise _BadRequest(501, f"unsupported method {method!r}")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if not sep:
                raise _BadRequest(400, f"malformed header line {line!r}")
            # the first occurrence wins, as with email.message.Message.get
            headers.setdefault(name.strip().lower(), value.strip())
        return method, path, headers

    def _get(self, conn: _Connection, path: str) -> None:
        inference = self.inference
        if path in ("/healthz", "/health"):
            self._send_json(
                conn,
                {
                    "status": "ok" if inference.is_running else "stopped",
                    "model": inference.model.name,
                    "spec_hash": inference.model.metadata.get("spec_hash"),
                    "shards": [
                        {"slot": s["slot"], "state": s["state"]}
                        for s in inference.pool.shard_stats()
                    ],
                },
            )
        elif path == "/stats":
            self._send_json(conn, inference.stats())
        elif path == "/metrics":
            self._send(conn, 200, METRICS.render_prometheus().encode("utf-8"), _PROMETHEUS)
        else:
            self._send_json(conn, {"error": f"unknown path '{path}'"}, status=404)

    def _predict(self, conn: _Connection, body: bytes) -> None:
        try:
            payload = json.loads(body)
            if not isinstance(payload, dict) or "features" not in payload:
                raise ValueError("request body must be an object with 'features'")
            deadline_ms = payload.get("deadline_ms")
            if deadline_ms is not None and not isinstance(deadline_ms, (int, float)):
                raise ValueError("deadline_ms must be a number (milliseconds)")
            conn.state = _WAITING
            self._watch(conn, 0)
            # the hook is stored before admission, so even a request that
            # settles before submit() returns reaches the loop
            conn.request = self.inference.submit(
                payload["features"],
                groups=payload.get("groups"),
                labels=payload.get("labels"),
                deadline_ms=deadline_ms,
                on_settle=lambda request: self._on_settle(conn, request),
            )
        except (ValueError, KeyError, TypeError, ServeError) as exc:
            status, reply, headers = _error_reply(exc)
            self._send_json(conn, reply, status=status, headers=headers)

    def _answer(self, conn: _Connection, request: PendingRequest) -> None:
        """Reply to a settled request (loop thread)."""
        if conn.closed or conn.request is not request:
            return  # timed out already (or the connection is gone)
        conn.request = None
        error = request.error
        if error is None:
            assert request.response is not None
            body = request.response.to_dict()
            body["model"] = self.inference.model.name
            self._send_json(conn, body)
            return
        if not isinstance(error, ServeError):
            wrapped = InferenceFailed("inference request failed")
            wrapped.__cause__ = error
            error = wrapped
        status, reply, headers = _error_reply(error)
        self._send_json(conn, reply, status=status, headers=headers)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _send_json(
        self,
        conn: _Connection,
        payload: Dict[str, object],
        status: int = 200,
        headers: Sequence[Tuple[str, str]] = (),
    ) -> None:
        self._send(conn, status, json.dumps(payload).encode("utf-8"), _JSON, headers)

    def _send(
        self,
        conn: _Connection,
        status: int,
        body: bytes,
        content_type: str,
        headers: Sequence[Tuple[str, str]] = (),
    ) -> None:
        lines = [
            f"HTTP/1.0 {status} {HTTPStatus(status).phrase}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        lines.extend(f"{name}: {value}" for name, value in headers)
        lines.append("\r\n")
        conn.out = memoryview("\r\n".join(lines).encode("iso-8859-1") + body)
        conn.sent = 0
        conn.state = _WRITING
        if self.verbose:
            stamp = time.strftime("%d/%b/%Y %H:%M:%S")
            sys.stderr.write(
                f'{conn.peer} - - [{stamp}] "{conn.requestline}" {status} -\n'
            )
        self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        """Write what the socket takes now; finish once all is sent."""
        try:
            conn.sent += conn.sock.send(conn.out[conn.sent :])
        except BlockingIOError:
            pass
        except OSError:
            self._close(conn)  # the client went away
            return
        if conn.sent < len(conn.out):
            self._watch(conn, selectors.EVENT_WRITE)
            return
        if conn.consumed:
            self._close(conn)
            return
        # Early reply: the client may still be sending.  Half-close so it
        # sees the end of the reply, and discard its input until it closes.
        conn.state = _LINGERING
        try:
            conn.sock.shutdown(socket.SHUT_WR)
        except OSError:
            self._close(conn)
            return
        self._set_deadline(conn, time.perf_counter() + _LINGER_S)
        self._watch(conn, selectors.EVENT_READ)


def serve_forever(
    inference: InferenceServer,
    host: str = "127.0.0.1",
    port: int = 8000,
    verbose: bool = True,
) -> None:
    """Blocking CLI entry: serve until interrupted, then shut down cleanly.

    The selector loop runs on a background thread while the main thread
    waits on a :class:`~repro.utils.signals.GracefulShutdown` event; the
    signal handler only sets the event.  On the first signal the loop stops
    accepting, the inference server drains, and the loop writes the answer
    of every admitted request before it exits.  A second signal
    force-exits.
    """
    from ..utils.signals import GracefulShutdown

    httpd = ServeHTTPServer(inference, host=host, port=port, verbose=verbose)
    httpd.start_background()
    bound_host, bound_port = httpd.address
    print(
        f"serving '{inference.model.name}' on http://{bound_host}:{bound_port} "
        f"(max_batch={inference.config.max_batch}) — Ctrl-C to stop"
    )
    try:
        with GracefulShutdown(note="finishing open requests") as shutdown:
            shutdown.stop_event.wait()
    except KeyboardInterrupt:
        pass  # signal handlers unavailable (embedded use): plain Ctrl-C
    finally:
        print("\nshutting down...")
        httpd.stop()
