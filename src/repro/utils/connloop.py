"""One :mod:`selectors` loop serving every connection of a TCP listener.

The HTTP frontend (:mod:`repro.serve.http`) and the master's client
listener (:mod:`repro.master.scheduler`) both run on it.  One thread accepts
without blocking, keeps a read and a write buffer per connection, writes
with non-blocking partial writes (so one slow reader never stalls another)
and keeps the deadlines in one heap.  A protocol supplies two callbacks, run
on the loop thread: ``on_input(conn)`` runs when the connection is accepted
(``conn.inbuf`` empty) and whenever bytes arrive; it consumes what it can
parse from ``conn.inbuf`` and answers through :meth:`ConnLoop.send`.
``on_deadline(conn)`` runs once the deadline set with
:meth:`ConnLoop.set_deadline` passes.  Other threads hand a reply in
through :meth:`ConnLoop.post`, which wakes the loop through a socketpair.
"""

from __future__ import annotations

import heapq
import itertools
import selectors
import socket
import sys
import threading
import time
import traceback
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

#: bytes read per ``recv`` call
_RECV_BYTES = 64 * 1024
#: after a last reply sent before its request was read to the end, how long
#: the connection keeps discarding input before it closes; closing with
#: unread input would reset the connection and could lose the reply
_LINGER_S = 2.0

Handler = Callable[..., None]


class Connection:
    """One accepted socket, its buffers and where it stands in the loop."""

    __slots__ = (
        "sock", "peer", "inbuf", "out", "active", "deadline", "events",
        "waiting", "closing", "lingering", "closed", "state",
    )

    def __init__(self, sock: socket.socket, peer: str) -> None:
        self.sock = sock
        self.peer = peer
        self.inbuf = bytearray()  # input the protocol has not consumed yet
        self.out = bytearray()  # replies not yet written
        self.active = time.perf_counter()  # when the last byte moved
        self.deadline: Optional[float] = None
        self.events = 0  # selector events currently registered (0: none)
        #: set by the protocol while a reply is due from another thread:
        #: nothing is read meanwhile; :meth:`ConnLoop.send` clears it
        self.waiting = False
        self.closing = False  # end the connection once ``out`` is written
        self.lingering = False
        self.closed = False
        self.state: object = None  # the protocol's own per-connection state


class ConnLoop:
    """A listening socket and the loop serving its connections.

    :meth:`run` serves on the calling thread, :meth:`start` on a thread
    named by the caller.  :meth:`stop` (any thread) stops accepting and
    closes the connections waiting for input; the loop exits once every
    reply still due is written.
    """

    def __init__(
        self, host: str, port: int, backlog: int, on_input: Handler, on_deadline: Handler
    ) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, port))
            listener.listen(backlog)
        except OSError:
            listener.close()
            raise
        listener.setblocking(False)
        self._listener = listener
        self.address: Tuple[str, int] = listener.getsockname()[:2]
        self._on_input = on_input
        self._on_deadline = on_deadline
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, None)
        self._selector.register(self._wake_r, selectors.EVENT_READ, self._wake_r)
        #: (connection, handler, args) posted by other threads; deque
        #: append/popleft are atomic, so posting takes no lock
        self._posted: Deque[Tuple[Connection, Handler, tuple]] = deque()
        self._conns: Dict[Connection, None] = {}  # open connections, in order
        #: (deadline, tie-break, connection); stale entries are skipped
        self._deadlines: List[Tuple[float, int, Connection]] = []
        self._tiebreak = itertools.count()
        self._listening = True
        self._stopping = False
        self._done = threading.Event()
        self._done.set()
        self._thread: Optional[threading.Thread] = None

    def run(self) -> None:
        """Serve until :meth:`stop` and every reply due is written."""
        self._done.clear()
        try:
            while True:
                timeout = self._expire(time.perf_counter())
                if self._stopping:
                    self._stop_accepting()
                    if not self._conns:
                        return
                for key, mask in self._selector.select(timeout):
                    conn = key.data
                    if conn is None:
                        self._accept()
                    elif conn is self._wake_r:
                        self._drain_wake()
                    elif mask & selectors.EVENT_READ:
                        self._on_readable(conn)
                    else:
                        self._flush(conn)
                while self._posted:
                    conn, handler, args = self._posted.popleft()
                    if not conn.closed:
                        self._dispatch(conn, handler, *args)
        finally:
            self._done.set()

    def start(self, name: str) -> None:
        self._done.clear()
        self._thread = threading.Thread(target=self.run, name=name, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stopping = True
        self._wake()

    def join(self) -> None:
        self._done.wait()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def close(self) -> None:
        """Close the listener and the wake-up pair once the loop has exited."""
        self._selector.close()
        self._listener.close()
        self._wake_r.close()
        self._wake_w.close()

    def send(self, conn: Connection, data: bytes = b"", last: bool = False) -> None:
        """Queue ``data`` (loop thread); with ``last``, ``conn`` ends once
        all its output is written."""
        conn.out += data
        conn.waiting = False
        conn.closing = conn.closing or last

    def post(self, conn: Connection, handler: Handler, *args: object) -> None:
        """Run ``handler(conn, *args)`` on the loop thread unless ``conn``
        has closed by then (callable from any thread)."""
        self._posted.append((conn, handler, args))
        self._wake()

    def set_deadline(self, conn: Connection, when: float) -> None:
        """Replace ``conn``'s deadline (a ``time.perf_counter()`` value)."""
        conn.deadline = when
        heapq.heappush(self._deadlines, (when, next(self._tiebreak), conn))

    def drop(self, conn: Connection) -> None:
        """Close ``conn`` now, discarding what it has not written."""
        if conn.closed:
            return
        conn.closed = True
        if conn.events:
            self._selector.unregister(conn.sock)
        conn.sock.close()
        del self._conns[conn]

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except BlockingIOError:
            pass  # wake-ups already pending: the loop drains the queue anyway
        except OSError:
            pass  # closed by close(): no loop is left to wake

    def _drain_wake(self) -> None:
        try:
            self._wake_r.recv(4096)
        except BlockingIOError:
            pass

    def _dispatch(self, conn: Connection, handler: Handler, *args: object) -> None:
        """Run one connection's handler, then write what it queued."""
        try:
            handler(conn, *args)
        except Exception as exc:
            traceback.print_exception(type(exc), exc, exc.__traceback__)
            self.drop(conn)  # a bug in a handler costs its connection only
            return
        if not conn.closed:
            self._flush(conn)

    def _stop_accepting(self) -> None:
        if not self._listening:
            return
        self._listening = False
        self._selector.unregister(self._listener)
        for conn in list(self._conns):
            if conn.events == selectors.EVENT_READ:
                self.drop(conn)  # waiting for input, or lingering

    def _watch(self, conn: Connection, events: int) -> None:
        if events == conn.events:
            return
        if conn.events == 0:
            self._selector.register(conn.sock, events, conn)
        elif events == 0:
            self._selector.unregister(conn.sock)
        else:
            self._selector.modify(conn.sock, events, conn)
        conn.events = events

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
            if conn.lingering:
                self.drop(conn)
            else:
                self._dispatch(conn, self._on_deadline)
        return None

    def _accept(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except BlockingIOError:
                return
            except OSError as exc:  # e.g. out of file descriptors
                name = threading.current_thread().name
                print(f"{name}: accept failed: {exc}", file=sys.stderr)
                return
            sock.setblocking(False)
            conn = Connection(sock, peer[0])
            self._conns[conn] = None
            self._dispatch(conn, self._on_input)

    def _on_readable(self, conn: Connection) -> None:
        try:
            chunk = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""  # reset by the peer
        if not chunk:
            self.drop(conn)  # peer gone, or done after a lingering reply
            return
        conn.active = time.perf_counter()
        if not conn.lingering:  # a lingering connection's input is discarded
            conn.inbuf += chunk
            self._dispatch(conn, self._on_input)

    def _flush(self, conn: Connection) -> None:
        """Write what the socket takes now, then watch for what comes next."""
        if conn.out:
            try:
                sent = conn.sock.send(conn.out)
            except BlockingIOError:
                sent = 0
            except OSError:
                self.drop(conn)  # the peer went away
                return
            if sent:
                del conn.out[:sent]
                conn.active = time.perf_counter()
        if conn.out:
            self._watch(conn, selectors.EVENT_WRITE)
        elif conn.closing:
            self._finish(conn)
        elif conn.waiting:
            self._watch(conn, 0)
        elif self._stopping:
            self.drop(conn)  # no new request is read once stopping
        else:
            self._watch(conn, selectors.EVENT_READ)

    def _finish(self, conn: Connection) -> None:
        """End ``conn`` after its last reply.  Unread input means the peer
        may still be sending: half-close so it sees the end of the reply,
        then discard its input until it closes or the linger ends."""
        if not conn.inbuf:
            self.drop(conn)
            return
        try:
            conn.sock.shutdown(socket.SHUT_WR)
        except OSError:
            self.drop(conn)
            return
        conn.lingering = True
        self.set_deadline(conn, time.perf_counter() + _LINGER_S)
        self._watch(conn, selectors.EVENT_READ)
