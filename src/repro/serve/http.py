"""Stdlib HTTP/JSON frontend over the micro-batching inference server.

No web framework — a :class:`http.server.ThreadingHTTPServer` whose handler
threads block on the in-process :class:`~repro.serve.server.ServeClient`,
so concurrent HTTP requests coalesce into the same micro-batches as
in-process callers.  Endpoints:

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
underlying cause in the error detail.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Sequence, Tuple

from ..obs import METRICS
from .errors import DeadlineExceeded, ServerClosed, ServerOverloaded
from .server import InferenceServer, ServeClient

#: request body size guard (16 MiB) — a JSON feature matrix beyond this is
#: almost certainly a client bug, not a workload
MAX_BODY_BYTES = 16 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    server: "ServeHTTPServer"

    # ------------------------------------------------------------------
    def _send_json(
        self,
        payload: Dict[str, object],
        status: int = 200,
        headers: Sequence[Tuple[str, str]] = (),
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, text: str, content_type: str, status: int = 200) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        inference = self.server.inference
        if self.path in ("/healthz", "/health"):
            self._send_json(
                {
                    "status": "ok" if inference.is_running else "stopped",
                    "model": inference.model.name,
                    "spec_hash": inference.model.metadata.get("spec_hash"),
                    "shards": [
                        {"slot": s["slot"], "state": s["state"]}
                        for s in inference.pool.shard_stats()
                    ],
                }
            )
        elif self.path == "/stats":
            self._send_json(inference.stats())
        elif self.path == "/metrics":
            self._send_text(
                METRICS.render_prometheus(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            self._send_json({"error": f"unknown path '{self.path}'"}, status=404)

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler naming)
        if self.path != "/predict":
            self._send_json({"error": f"unknown path '{self.path}'"}, status=404)
            return
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0 or length > MAX_BODY_BYTES:
            self._send_json(
                {"error": f"request body must be 1..{MAX_BODY_BYTES} bytes"},
                status=400,
            )
            return
        try:
            payload = json.loads(self.rfile.read(length))
            if not isinstance(payload, dict) or "features" not in payload:
                raise ValueError("request body must be an object with 'features'")
            deadline_ms = payload.get("deadline_ms")
            if deadline_ms is not None and not isinstance(deadline_ms, (int, float)):
                raise ValueError("deadline_ms must be a number (milliseconds)")
            response = self.server.client.predict(
                payload["features"],
                groups=payload.get("groups"),
                labels=payload.get("labels"),
                timeout=self.server.request_timeout,
                deadline_ms=deadline_ms,
            )
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            self._send_json({"error": str(exc)}, status=400)
            return
        except ServerOverloaded as exc:
            # Admission control shed the request before queuing: tell the
            # caller when capacity is expected back.
            self._send_json(
                {"error": str(exc), "retry_after_s": exc.retry_after},
                status=429,
                headers=(("Retry-After", f"{max(1, round(exc.retry_after))}"),),
            )
            return
        except ServerClosed as exc:
            self._send_json({"error": str(exc)}, status=503)
            return
        except DeadlineExceeded as exc:
            self._send_json({"error": str(exc)}, status=504)
            return
        except TimeoutError as exc:
            self._send_json({"error": str(exc)}, status=503)
            return
        except RuntimeError as exc:
            # A failed batch forward (ServeClient raises InferenceFailed
            # chaining it) must still produce a JSON error response, not a
            # dropped connection.
            cause = exc.__cause__
            detail = f"{exc}: {cause}" if cause is not None else str(exc)
            self._send_json({"error": detail}, status=500)
            return
        body = response.to_dict()
        body["model"] = self.server.inference.model.name
        self._send_json(body)


class ServeHTTPServer(ThreadingHTTPServer):
    """HTTP frontend bound to one :class:`InferenceServer`."""

    daemon_threads = True

    def __init__(
        self,
        inference: InferenceServer,
        host: str = "127.0.0.1",
        port: int = 8000,
        request_timeout: float = 30.0,
        verbose: bool = False,
    ) -> None:
        super().__init__((host, port), _Handler)
        self.inference = inference
        self.client = ServeClient(inference)
        self.request_timeout = request_timeout
        self.verbose = verbose
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    # ------------------------------------------------------------------
    def start_background(self) -> "ServeHTTPServer":
        """Serve on a daemon thread (tests / embedding); returns self."""
        self.inference.start()
        self._thread = threading.Thread(
            target=self.serve_forever, name="muffin-serve-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.inference.stop()

    def __enter__(self) -> "ServeHTTPServer":
        return self.start_background()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve_forever(
    inference: InferenceServer,
    host: str = "127.0.0.1",
    port: int = 8000,
    verbose: bool = True,
) -> None:
    """Blocking CLI entry: serve until interrupted, then shut down cleanly.

    The HTTP loop runs on a background thread while the main thread waits on
    a :class:`~repro.utils.signals.GracefulShutdown` event — calling
    ``httpd.shutdown()`` from inside a signal handler running on the serving
    thread would deadlock, so the handler only sets the event.  Open
    requests drain, the monitor's final window stays queryable until the
    server closes, and a second signal force-exits.
    """
    from ..utils.signals import GracefulShutdown

    httpd = ServeHTTPServer(inference, host=host, port=port, verbose=verbose)
    inference.start()
    bound_host, bound_port = httpd.address
    print(
        f"serving '{inference.model.name}' on http://{bound_host}:{bound_port} "
        f"(max_batch={inference.config.max_batch}) — Ctrl-C to stop"
    )
    thread = threading.Thread(
        target=httpd.serve_forever, name="muffin-serve-http", daemon=True
    )
    thread.start()
    try:
        with GracefulShutdown(note="finishing open requests") as shutdown:
            shutdown.stop_event.wait()
    except KeyboardInterrupt:
        pass  # signal handlers unavailable (embedded use): plain Ctrl-C
    finally:
        print("\nshutting down...")
        httpd.shutdown()
        thread.join(timeout=10.0)
        httpd.server_close()
        inference.stop()
