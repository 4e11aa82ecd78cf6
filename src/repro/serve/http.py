"""Stdlib HTTP/JSON frontend over the micro-batching inference server.

No web framework and no thread per connection: the connection loop of
:mod:`repro.utils.connloop` serves every connection on one thread, with a
read and a write buffer per connection and non-blocking partial writes, so
one slow reader never stalls another connection.  This module is the HTTP
protocol on top of it: it parses the request line, the headers and the
``Content-Length`` body from a connection's buffer, and submits
``POST /predict`` to the :class:`~repro.serve.server.InferenceServer` with a
settle hook.  The shard thread that settles the request runs the hook,
which posts the answer to the loop; the loop encodes and writes it.
Concurrent HTTP requests coalesce into the same micro-batches as in-process
callers.  Every reply is HTTP/1.0 and closes its connection.  Endpoints:

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
**503**; a malformed request (a body nested too deeply to decode included)
gets **400**, and a header block over :data:`MAX_HEADER_BYTES` gets **431**.
"""

from __future__ import annotations

import json
import sys
import time
from http import HTTPStatus
from typing import Dict, Sequence, Tuple

from ..obs import METRICS
from ..utils.connloop import Connection, ConnLoop
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
#: listen backlog: the loop accepts every queued connection per wake-up
_BACKLOG = 128

_JSON = "application/json"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"


class _Request:
    """Where one connection's request stands (its ``Connection.state``)."""

    __slots__ = ("scanned", "length", "requestline")

    def __init__(self) -> None:
        self.scanned = 0  # inbuf prefix already searched for the head end
        self.length = -1  # Content-Length of the body once the head is read
        self.requestline = ""


class _BadRequest(Exception):
    """A request the loop answers with an error status before submitting."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _error_reply(
    exc: BaseException,
) -> Tuple[int, Dict[str, object], Sequence[Tuple[str, str]]]:
    """The (status, payload, headers) answering a failed request."""
    if isinstance(exc, (ValueError, KeyError, TypeError, RecursionError)):
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

    ``serve_forever`` runs the connection loop on the calling thread; any
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
        self._loop = ConnLoop(host, port, _BACKLOG, self._on_input, self._on_deadline)

    @property
    def address(self) -> Tuple[str, int]:
        return self._loop.address

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Run the connection loop until :meth:`shutdown` is called."""
        self._loop.run()

    def shutdown(self) -> None:
        """Stop the loop (from another thread) and wait until it has exited.

        The loop stops accepting, closes connections whose request it has
        not read yet, and writes the answer of every admitted request
        before it exits (each is still bounded by ``request_timeout``).
        """
        self._loop.stop()
        self._loop.join()

    def server_close(self) -> None:
        """Close the listening socket once the loop has exited."""
        self._loop.close()

    def start_background(self) -> "ServeHTTPServer":
        """Serve on a daemon thread (tests / embedding); returns self."""
        self.inference.start()
        self._loop.start("muffin-serve-http")
        return self

    def stop(self) -> None:
        """Graceful stop: stop accepting, drain the inference server while
        the loop writes the answers, then stop the loop and close."""
        self._loop.stop()
        self.inference.stop()
        self.shutdown()
        self.server_close()

    def __enter__(self) -> "ServeHTTPServer":
        return self.start_background()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Loop callbacks
    # ------------------------------------------------------------------
    def _on_input(self, conn: Connection) -> None:
        request = conn.state
        if request is None:  # just accepted
            conn.state = _Request()
            self._loop.set_deadline(conn, conn.active + self.request_timeout)
            return
        try:
            self._parse(conn, request)
        except _BadRequest as exc:
            self._send_json(conn, {"error": str(exc)}, status=exc.status)

    def _on_deadline(self, conn: Connection) -> None:
        if not conn.waiting:
            self._loop.drop(conn)  # stalled reader or writer
            return
        # the request stays admitted; its late settle finds conn not waiting
        self._loop.set_deadline(conn, time.perf_counter() + self.request_timeout)
        self._send_json(
            conn,
            {
                "error": f"inference request timed out after "
                f"{self.request_timeout}s "
                f"(queue_depth={self.inference.pool.queue_depth()})"
            },
            status=503,
        )

    # ------------------------------------------------------------------
    # Reading and dispatch
    # ------------------------------------------------------------------
    def _parse(self, conn: Connection, request: _Request) -> None:
        buf = conn.inbuf
        if request.length < 0:
            head_end = buf.find(b"\r\n\r\n", max(0, request.scanned - 3))
            if head_end < 0 or head_end > MAX_HEADER_BYTES:
                if len(buf) > MAX_HEADER_BYTES:
                    raise _BadRequest(
                        431, f"request header block exceeds {MAX_HEADER_BYTES} bytes"
                    )
                request.scanned = len(buf)
                return
            method, path, headers = self._parse_head(request, bytes(buf[:head_end]))
            if method == "GET":
                del buf[: head_end + 4]
                self._get(conn, path)
                return
            if path != "/predict":
                raise _BadRequest(404, f"unknown path '{path}'")
            raw_length = headers.get("content-length", "0")
            try:
                length = int(raw_length)
            except ValueError:
                raise _BadRequest(
                    400, f"Content-Length must be an integer, got {raw_length!r}"
                ) from None
            if length <= 0 or length > MAX_BODY_BYTES:
                raise _BadRequest(400, f"request body must be 1..{MAX_BODY_BYTES} bytes")
            request.length = length
            del buf[: head_end + 4]
        if len(buf) < request.length:
            return
        body = bytes(buf[: request.length])
        del buf[: request.length]
        self._predict(conn, body)

    def _parse_head(
        self, request: _Request, head: bytes
    ) -> Tuple[str, str, Dict[str, str]]:
        lines = head.decode("iso-8859-1").split("\r\n")
        request.requestline = lines[0]
        words = request.requestline.split()
        if len(words) != 3 or not words[2].startswith("HTTP/"):
            raise _BadRequest(400, f"bad request line {request.requestline!r}")
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

    def _get(self, conn: Connection, path: str) -> None:
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

    def _predict(self, conn: Connection, body: bytes) -> None:
        try:
            payload = json.loads(body)
            if not isinstance(payload, dict) or "features" not in payload:
                raise ValueError("request body must be an object with 'features'")
            deadline_ms = payload.get("deadline_ms")
            if deadline_ms is not None and not isinstance(deadline_ms, (int, float)):
                raise ValueError("deadline_ms must be a number (milliseconds)")
            conn.waiting = True
            # the hook is stored before admission, so even a request that
            # settles before submit() returns reaches the loop
            self.inference.submit(
                payload["features"],
                groups=payload.get("groups"),
                labels=payload.get("labels"),
                deadline_ms=deadline_ms,
                on_settle=lambda request: self._loop.post(conn, self._answer, request),
            )
        except (ValueError, KeyError, TypeError, RecursionError, ServeError) as exc:
            status, reply, headers = _error_reply(exc)
            self._send_json(conn, reply, status=status, headers=headers)

    def _answer(self, conn: Connection, request: PendingRequest) -> None:
        """Reply to a settled request (loop thread)."""
        if not conn.waiting:
            return  # timed out already
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
        conn: Connection,
        payload: Dict[str, object],
        status: int = 200,
        headers: Sequence[Tuple[str, str]] = (),
    ) -> None:
        self._send(conn, status, json.dumps(payload).encode("utf-8"), _JSON, headers)

    def _send(
        self,
        conn: Connection,
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
        if self.verbose:
            stamp = time.strftime("%d/%b/%Y %H:%M:%S")
            sys.stderr.write(
                f'{conn.peer} - - [{stamp}] "{conn.state.requestline}" {status} -\n'
            )
        self._loop.send(conn, "\r\n".join(lines).encode("iso-8859-1") + body, last=True)


def serve_forever(
    inference: InferenceServer,
    host: str = "127.0.0.1",
    port: int = 8000,
    verbose: bool = True,
) -> None:
    """Blocking CLI entry: serve until interrupted, then shut down cleanly.

    The connection loop runs on a background thread while the main thread
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
