"""Length-prefixed JSON message framing for the master/worker sockets.

Every connection in the distributed-search subsystem — client to master,
master to worker — speaks the same trivially debuggable wire format: a
4-byte big-endian payload length followed by a UTF-8 JSON object.  Control
fields (message type, task ids, heartbeats, statuses) are plain JSON;
numpy-bearing payloads (an :class:`~repro.core.EvaluationTask`, an
:class:`~repro.core.EvaluationOutcome`) ride inside the JSON envelope as a
base64-encoded pickle produced by :func:`encode_payload`, which preserves
dtypes and float64 bit patterns exactly — the bit-identity guarantee of the
``distributed`` executor rests on this round trip being lossless.

Payloads are only ever exchanged between a master and the worker
subprocesses *it spawned itself* on a loopback socket guarded by a random
session token (see :mod:`repro.master.worker`), so the pickle surface is
not exposed to untrusted peers.
"""

from __future__ import annotations

import base64
import json
import pickle
import socket
import struct
from typing import Any, Dict, Optional, Union

#: frame-size guard: a single message beyond this is a protocol bug, not a
#: workload (the largest legitimate payloads are episode-batch task arrays)
MAX_MESSAGE_BYTES = 512 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """A malformed, oversized or truncated wire message."""


def encode_payload(obj: Any) -> str:
    """Encode an arbitrary picklable object for embedding in a JSON message."""
    return base64.b64encode(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)).decode("ascii")


def decode_payload(text: str) -> Any:
    """Inverse of :func:`encode_payload`."""
    try:
        return pickle.loads(base64.b64decode(text.encode("ascii")))
    except Exception as exc:  # corrupt base64 / pickle
        raise ProtocolError(f"cannot decode message payload: {exc}") from exc


def encode_message(message: Dict[str, Any]) -> bytes:
    """One length-prefixed frame carrying ``message``."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"refusing to send a {len(body)}-byte message (limit {MAX_MESSAGE_BYTES})"
        )
    return _LENGTH.pack(len(body)) + body


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Write one length-prefixed JSON message to ``sock``."""
    sock.sendall(encode_message(message))


def _recv_exactly(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on a clean EOF before any byte."""
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining}/{count} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one framed message; ``None`` when the peer closed the connection."""
    header = _recv_exactly(sock, _LENGTH.size)
    if header is None:
        return None
    body = _recv_exactly(sock, _body_length(header))
    if body is None:
        raise ProtocolError("connection closed between frame header and body")
    return _decode_body(body)


def pop_message(buffer: bytearray) -> Optional[Dict[str, Any]]:
    """Take the first whole frame off ``buffer`` and return its message.

    For a non-blocking reader that accumulates a connection's input in
    ``buffer``: returns ``None`` (and leaves the buffer alone) until a
    whole frame has arrived, and raises :class:`ProtocolError` for an
    oversized announcement or a malformed body, like :func:`recv_message`.
    """
    if len(buffer) < _LENGTH.size:
        return None
    end = _LENGTH.size + _body_length(buffer)
    if len(buffer) < end:
        return None
    body = bytes(buffer[_LENGTH.size : end])
    del buffer[:end]
    return _decode_body(body)


def _body_length(header: Union[bytes, bytearray]) -> int:
    """The body length a frame header announces, checked against the limit."""
    (length,) = _LENGTH.unpack_from(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"peer announced a {length}-byte message (limit {MAX_MESSAGE_BYTES})")
    return length


def _decode_body(body: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nested too deeply for the decoder
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"expected a JSON object frame, got {type(message).__name__}")
    return message


def connect(host: str, port: int, timeout: Optional[float] = 10.0) -> socket.socket:
    """Open a TCP connection to a master or executor listener."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(timeout)
    return sock
