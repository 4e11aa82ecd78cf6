"""``serve-http``: ``python -m repro serve`` as a subprocess, closed loop.

The server (2 shards, metrics registry on) serves the same kind of
artifact as ``serve-open``.  Two client threads, each one connection at a
time (the frontend speaks HTTP/1.0, so every request connects anew), send
1-row labelled ``POST /predict`` requests back to back.  Closed loop on
purpose: an open loop on this frontend overflows the listen backlog and
then measures the kernel's SYN retransmits, not the program.
"""

from __future__ import annotations

import json
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

import common

CONNECTIONS = 2
#: warm-up windows (s) repeat until the request rate moves less than DRIFT
WARM_WINDOW_S, WARM_MAX_WINDOWS, DRIFT = 1.0, 8, 0.03
_SERVING = re.compile(r"on http://([\d.]+):(\d+)")


def launch_server(artifact) -> Tuple[subprocess.Popen, str, int]:
    proc = subprocess.Popen(
        [sys.executable, str(common.HERE / "serve_main.py"), str(artifact),
         "--shards", "2", "--port", "0", "--quiet"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=common.child_env(),
        text=True,
    )
    for line in proc.stdout:
        match = _SERVING.search(line)
        if match:
            return proc, match.group(1), int(match.group(2))
    proc.wait()
    raise common.BenchError(f"server exited ({proc.returncode}) before serving")


def stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def http(host: str, port: int, raw: bytes) -> Tuple[float, bytes]:
    """One HTTP/1.0 exchange; returns (connect seconds, full response)."""
    start = time.perf_counter()
    sock = socket.create_connection((host, port), timeout=30)
    connected = time.perf_counter() - start
    try:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        sock.close()
    return connected, b"".join(chunks)


def split_response(data: bytes) -> Tuple[int, bytes]:
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


def get(host: str, port: int, path: str) -> Tuple[int, bytes]:
    _, data = http(host, port, f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode())
    return split_response(data)


class ServeHttpWorkload:
    name = "serve-http"
    #: op latency is set by timers and queues, not by the host's speed
    cpu_bound = False
    payloads = 256

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        self.workdir = workdir
        self.proc = None
        self.sent = 0

    def prepare(self) -> None:
        self.path, fused, features, groups, labels = common.export_artifact(self.workdir)
        self.reference = fused.predict_features(features)
        rng = np.random.default_rng([self.seed, 11])
        self.requests = []
        for offset in rng.integers(0, features.shape[0], self.payloads):
            offset = int(offset)
            body = json.dumps(
                {
                    "features": features[offset : offset + 1].tolist(),
                    "groups": {k: v[offset : offset + 1].tolist() for k, v in groups.items()},
                    "labels": labels[offset : offset + 1].tolist(),
                }
            ).encode()
            head = (
                "POST /predict HTTP/1.0\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            ).encode()
            self.requests.append((offset, head + body))
        self.proc, self.host, self.port = launch_server(self.path)

    def cold_start(self) -> float:
        """Launch -> bound, healthy and first answer returned."""
        start = time.perf_counter()
        proc, host, port = launch_server(self.path)
        try:
            status, _ = get(host, port, "/healthz")
            _, data = http(host, port, self.requests[0][1])
            if status != 200 or split_response(data)[0] != 200:
                raise common.BenchError("cold-started server did not answer")
            return time.perf_counter() - start
        finally:
            stop_server(proc)

    def _drive(self, seconds: float):
        """Closed loop on CONNECTIONS threads; returns raw samples."""
        samples: List[tuple] = []
        lock = threading.Lock()
        stop_at = time.perf_counter() + seconds

        def client(k: int) -> None:
            mine, i = [], k
            while time.perf_counter() < stop_at:
                offset, raw = self.requests[i % len(self.requests)]
                i += CONNECTIONS
                start = time.perf_counter()
                try:
                    connect, data = http(self.host, self.port, raw)
                except OSError:  # refused, reset or timed out: a failed op
                    connect, data = 0.0, b""
                mine.append((offset, start, connect, time.perf_counter(), data))
            with lock:
                samples.extend(mine)

        threads = [threading.Thread(target=client, args=(k,)) for k in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.sent += len(samples)
        return samples

    def warm_up(self) -> None:
        previous = None
        for _ in range(WARM_MAX_WINDOWS):
            rate = len(self._drive(WARM_WINDOW_S)) / WARM_WINDOW_S
            if previous is not None and abs(rate - previous) <= DRIFT * previous:
                return
            previous = rate

    def measure(self, seconds: float, tracer=None) -> Dict[str, object]:
        begin = time.perf_counter()
        samples = self._drive(seconds)
        rtt, server, connect, batches, ends = [], [], [], {}, []
        failed = 0
        for offset, start, conn, end, data in samples:
            try:
                status, body = split_response(data)
                answer = json.loads(body)
                ok = status == 200 and answer["predictions"] == self.reference[
                    offset : offset + 1
                ].tolist()
            except (ValueError, IndexError, KeyError):
                ok = False
            if not ok:
                failed += 1
                continue
            rtt.append((end - start) * 1000.0)
            ends.append(end)
            server.append(float(answer["latency_ms"]))
            connect.append(conn * 1000.0)
            batches[(answer["shard"], answer["batch_id"])] = answer["batch_rows"]
        return {
            "latencies_ms": rtt,
            "attempted": len(samples),
            "failed": failed,
            "figures": {
                "serve.http.throughput_per_s": common.binned_rate(ends, begin, begin + seconds)
            },
            "peak_rss_mb": common.peak_rss_mb(self.proc.pid),
            "server_ms": server,
            "connect_ms": connect,
            "batches": batches,
        }

    def verify(self) -> int:
        """``/metrics`` must count exactly the requests this run sent."""
        status, body = get(self.host, self.port, "/metrics")
        match = re.search(rb'^repro_serve_requests_total\{outcome="ok"\} (\S+)$', body, re.M)
        counted = float(match.group(1)) if status == 200 and match else -1.0
        if counted != self.sent:
            print(f"# /metrics counted {counted:g} requests, sent {self.sent}")
            return 1
        return 0

    def layers(self, tracer, traced, plain) -> Dict[str, float]:
        rtt, server = traced["latencies_ms"], traced["server_ms"]
        return {
            "serve.http.server_ms": common.mean(server),
            "serve.http.overhead_ms": common.mean([r - s for r, s in zip(rtt, server)]),
            "serve.http.connect_ms": common.mean(traced["connect_ms"]),
            "serve.batch_rows_mean": common.mean(list(traced["batches"].values())),
            "serve.batches": float(len(traced["batches"])),
        }

    def close(self) -> None:
        if self.proc is not None:
            stop_server(self.proc)
