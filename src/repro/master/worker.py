"""Worker subprocesses and the supervised ``distributed`` executor.

The worker side (``python -m repro.master.worker``) is deliberately dumb:
connect back to the executor that spawned it, authenticate with the session
token, then loop — receive a task frame, resolve the named module-level
function, run it on the decoded payload, send the result back.  A daemon
thread heartbeats over the same socket the whole time (numpy kernels
release the GIL, so heartbeats keep flowing while a task computes), which
is what lets the master side tell "busy" from "hung".

The master side, :class:`DistributedExecutor`, plugs into the
:data:`repro.core.EXECUTORS` registry so ``SearchConfig.executor =
"distributed"`` (or ``--executor distributed``) farms episode-batch
evaluations out to supervised subprocesses with **no structural change** to
:class:`~repro.core.MuffinSearch`:

* workers are spawned lazily on the first multi-task ``map`` and reused
  across batches;
* a watchdog kills workers whose heartbeat goes silent, and any worker
  death (crash, SIGKILL, hang) requeues its in-flight task onto a healthy
  worker — bounded by ``task_retries`` re-dispatches per task, after which
  an :class:`~repro.core.execution.ExecutorWorkerError` names the failed
  task;
* results always return in submission order, and every task is a pure
  function of its payload, so retries and worker churn can never change
  what a seeded search computes — only how long it takes.
"""

from __future__ import annotations

import os
import secrets
import select
import socket
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

from ..core.execution import ExecutorWorkerError, default_max_workers
from ..obs import DEFAULT_SECONDS_BUCKETS, METRICS, span
from ..utils.logging import RunLogger
from .protocol import ProtocolError, decode_payload, encode_payload, recv_message, send_message

T = TypeVar("T")
R = TypeVar("R")

#: Shares the executor metric family of :mod:`repro.core.execution`
#: (declarations are get-or-create, so identical schemas unify); the queue
#: wait is this executor's own (dispatch to first frame on a worker).
_TASKS_TOTAL = METRICS.counter(
    "repro_executor_tasks_total",
    "Tasks dispatched through executor.map, by executor.",
    labelnames=("executor",),
)
_MAP_SECONDS = METRICS.histogram(
    "repro_executor_map_seconds",
    "Wall time of one executor.map batch.",
    labelnames=("executor",),
)
_QUEUE_WAIT_SECONDS = METRICS.histogram(
    "repro_executor_queue_wait_seconds",
    "Time a task waited between submission and execution start.",
    labelnames=("executor",),
    buckets=DEFAULT_SECONDS_BUCKETS,
)
_SUPERVISION_TOTAL = METRICS.counter(
    "repro_distributed_supervision_total",
    "Supervision interventions of the distributed executor, by event "
    "(worker-restarted / task-requeued / heartbeat-missed).",
    labelnames=("event",),
)
_TASK_SHIP_BYTES = METRICS.counter(
    "repro_distributed_task_bytes_total",
    "Encoded task-frame bytes shipped to distributed workers.",
)


# ----------------------------------------------------------------------
# Worker subprocess side
# ----------------------------------------------------------------------
def _resolve_function(spec: str) -> Callable:
    """Resolve a ``module:qualname`` task-function reference."""
    import importlib

    module_name, _, qualname = spec.partition(":")
    if not module_name or not qualname:
        raise ProtocolError(f"malformed function reference '{spec}'")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise ProtocolError(f"'{spec}' is not callable")
    return obj


def _heartbeat_loop(
    sock: socket.socket, send_lock: threading.Lock, interval: float, stop: threading.Event
) -> None:
    # ``send_lock`` serialises socket writes with the main loop; holding it
    # across send_message is the lock's declared purpose (RL6 IO-lock idiom).
    while not stop.wait(interval):
        try:
            with send_lock:
                send_message(sock, {"type": "heartbeat", "pid": os.getpid()})
        except OSError:
            return  # connection gone; the main loop is exiting too


def worker_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of one worker subprocess (``python -m repro.master.worker``)."""
    import argparse

    parser = argparse.ArgumentParser(prog="python -m repro.master.worker")
    parser.add_argument("--connect", required=True, metavar="HOST:PORT")
    parser.add_argument("--token", required=True)
    parser.add_argument("--heartbeat-seconds", type=float, default=0.5)
    args = parser.parse_args(list(argv) if argv is not None else None)

    host, _, port = args.connect.rpartition(":")
    sock = socket.create_connection((host, int(port)), timeout=30.0)
    sock.settimeout(None)
    send_lock = threading.Lock()
    with send_lock:
        send_message(
            sock, {"type": "hello", "role": "worker", "token": args.token, "pid": os.getpid()}
        )
    welcome = recv_message(sock)
    if welcome is None or welcome.get("type") != "welcome":
        return 1

    stop = threading.Event()
    threading.Thread(
        target=_heartbeat_loop,
        args=(sock, send_lock, max(args.heartbeat_seconds, 0.05), stop),
        name="muffin-worker-heartbeat",
        daemon=True,
    ).start()
    try:
        while True:
            message = recv_message(sock)
            if message is None or message.get("type") == "shutdown":
                return 0
            if message.get("type") != "task":
                continue
            task_id = message.get("task_id")
            try:
                fn = _resolve_function(message["fn"])
                result = fn(decode_payload(message["payload"]))
                reply = {"type": "result", "task_id": task_id, "payload": encode_payload(result)}
            except BaseException as exc:  # report, don't die: the master decides what's fatal
                reply = {
                    "type": "task-error",
                    "task_id": task_id,
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                }
            with send_lock:
                send_message(sock, reply)
    except (OSError, ProtocolError):
        return 1
    finally:
        stop.set()
        try:
            sock.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Self-test task functions (module-level so every executor can import them)
# ----------------------------------------------------------------------
def echo_task(payload: object) -> object:
    """Identity task used by the protocol self-tests and the quickstart."""
    return payload


def slow_echo_task(payload: Dict[str, object]) -> Dict[str, object]:
    """Echo after ``payload['sleep']`` seconds (worker-supervision tests)."""
    time.sleep(float(payload.get("sleep", 0.0)))
    return payload


def failing_task(payload: object) -> object:
    """Deterministically raise (error-propagation tests)."""
    raise ValueError(f"failing_task failed on purpose: {payload!r}")


def die_task(payload: object) -> object:
    """Kill the worker process abruptly (crash-supervision tests)."""
    os._exit(3)


# ----------------------------------------------------------------------
# Master side: the supervised executor
# ----------------------------------------------------------------------
@dataclass
class _WorkerHandle:
    """One spawned worker subprocess and its control connection."""

    process: subprocess.Popen
    conn: socket.socket
    pid: int
    last_heartbeat: float = field(default_factory=time.monotonic)
    #: index of the task this worker is computing (None = idle)
    task_index: Optional[int] = None

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


class DistributedExecutor:
    """Order-preserving ``map`` over watchdog-supervised worker subprocesses.

    Registered as ``'distributed'`` in :data:`repro.core.EXECUTORS`.  Task
    functions must be module-level (resolved by ``module:qualname`` in the
    worker); task payloads and results cross the wire via the lossless
    codec of :mod:`repro.master.protocol`, so seeded searches stay
    bit-identical to the ``serial`` executor.

    Not thread-safe: one ``map`` at a time.
    """

    name = "distributed"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        task_retries: int = 2,
        heartbeat_seconds: float = 0.5,
        heartbeat_timeout: Optional[float] = None,
        spawn_timeout: float = 60.0,
        logger: Optional[RunLogger] = None,
    ) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive (or None for auto)")
        if task_retries < 0:
            raise ValueError("task_retries must be non-negative")
        if heartbeat_seconds <= 0:
            raise ValueError("heartbeat_seconds must be positive")
        self.max_workers = max_workers or default_max_workers()
        self.task_retries = int(task_retries)
        self.heartbeat_seconds = float(heartbeat_seconds)
        # Workers heartbeat even while computing, so the timeout only needs
        # to absorb scheduling jitter — but a busy machine can stall a fresh
        # worker's interpreter start-up, hence the generous floor.
        self.heartbeat_timeout = (
            float(heartbeat_timeout)
            if heartbeat_timeout is not None
            else max(20 * heartbeat_seconds, 10.0)
        )
        self.spawn_timeout = float(spawn_timeout)
        self.logger = logger or RunLogger(name="muffin-distributed", verbose=False)
        self._listener: Optional[socket.socket] = None
        self._token = secrets.token_hex(16)
        self._workers: List[_WorkerHandle] = []
        self.worker_restarts = 0
        self.tasks_requeued = 0

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _ensure_listener(self) -> socket.socket:
        if self._listener is None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(("127.0.0.1", 0))
            listener.listen(self.max_workers + 4)
            self._listener = listener
        return self._listener

    def _spawn_worker(self) -> _WorkerHandle:
        listener = self._ensure_listener()
        port = listener.getsockname()[1]
        env = os.environ.copy()
        # Workers must import repro even when it is not installed (tests,
        # fresh checkouts): prepend this package's src directory.
        src_dir = str(Path(__file__).resolve().parent.parent.parent)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
        # ``-c`` instead of ``-m repro.master.worker``: runpy would import
        # the package (whose __init__ imports .worker) before executing the
        # module as __main__, double-importing it with a warning.
        process = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "from repro.master.worker import worker_main; raise SystemExit(worker_main())",
                "--connect",
                f"127.0.0.1:{port}",
                "--token",
                self._token,
                "--heartbeat-seconds",
                str(self.heartbeat_seconds),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + self.spawn_timeout
        while True:
            listener.settimeout(max(deadline - time.monotonic(), 0.1))
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                process.kill()
                process.wait()
                raise ExecutorWorkerError(
                    f"distributed worker (pid {process.pid}) did not connect within "
                    f"{self.spawn_timeout:.0f}s"
                )
            conn.settimeout(self.spawn_timeout)
            try:
                hello = recv_message(conn)
            except ProtocolError:
                conn.close()
                continue
            if hello is None or hello.get("type") != "hello" or hello.get("token") != self._token:
                conn.close()
                continue
            send_message(conn, {"type": "welcome"})
            conn.setblocking(False)
            return _WorkerHandle(
                process=process, conn=conn, pid=int(hello.get("pid", process.pid))
            )

    def _ensure_workers(self) -> None:
        while len(self._workers) < self.max_workers:
            self._workers.append(self._spawn_worker())

    def _replace_worker(self, worker: _WorkerHandle, reason: str) -> None:
        self.logger.event("worker-restarted", pid=worker.pid, reason=reason)
        _SUPERVISION_TOTAL.inc(event="worker-restarted")
        index = self._workers.index(worker)
        worker.close()
        self.worker_restarts += 1
        self._workers[index] = self._spawn_worker()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        with span("executor/map", executor=self.name, tasks=len(items)):
            start = time.perf_counter()
            results = self._map_supervised(fn, items)
            _TASKS_TOTAL.inc(len(items), executor=self.name)
            _MAP_SECONDS.observe(time.perf_counter() - start, executor=self.name)
            return results

    def _map_supervised(self, fn: Callable[[T], R], items: List[T]) -> List[R]:
        if len(items) <= 1 or self.max_workers == 1:
            return [fn(item) for item in items]
        fn_ref = f"{fn.__module__}:{fn.__qualname__}"
        self._ensure_workers()

        results: List[Optional[R]] = [None] * len(items)
        done = [False] * len(items)
        attempts = [0] * len(items)
        pending: List[int] = list(range(len(items)))
        remaining = len(items)
        # Queue wait = submission (map entry, or re-entry after a requeue)
        # to dispatch onto a worker; one clock, master-side only.
        enqueued_at = [time.perf_counter()] * len(items)

        def dispatch(worker: _WorkerHandle, index: int) -> None:
            attempts[index] += 1
            worker.task_index = index
            _QUEUE_WAIT_SECONDS.observe(
                time.perf_counter() - enqueued_at[index], executor=self.name
            )
            payload = encode_payload(items[index])
            _TASK_SHIP_BYTES.inc(len(payload))
            worker.conn.setblocking(True)
            try:
                send_message(
                    worker.conn,
                    {
                        "type": "task",
                        "task_id": index,
                        "fn": fn_ref,
                        "payload": payload,
                    },
                )
            finally:
                try:
                    worker.conn.setblocking(False)
                except OSError:
                    pass

        def requeue(worker: _WorkerHandle, reason: str) -> None:
            """Put a dead worker's in-flight task back on the queue (bounded)."""
            index = worker.task_index
            worker.task_index = None
            if index is None or done[index]:
                return
            self.tasks_requeued += 1
            self.logger.event("task-requeued", task=index, reason=reason)
            _SUPERVISION_TOTAL.inc(event="task-requeued")
            enqueued_at[index] = time.perf_counter()
            if attempts[index] > self.task_retries:
                raise ExecutorWorkerError(
                    f"distributed task {index} of {len(items)} was lost {attempts[index]} "
                    f"times (last worker {reason}); giving up after task_retries="
                    f"{self.task_retries} — rerun with --executor serial to debug"
                )
            pending.insert(0, index)

        def worker_died(worker: _WorkerHandle, reason: str) -> None:
            requeue(worker, reason)  # may raise after exhausted retries
            self._replace_worker(worker, reason)

        try:
            while remaining > 0:
                for worker in self._workers:
                    if not pending:
                        break
                    if worker.task_index is None:
                        index = pending.pop(0)
                        try:
                            dispatch(worker, index)
                        except OSError:
                            worker_died(worker, "connection lost on dispatch")

                readable, _, _ = select.select(
                    [worker.conn for worker in self._workers], [], [], 0.2
                )
                now = time.monotonic()
                for worker in list(self._workers):
                    if worker.conn in readable:
                        try:
                            worker.conn.setblocking(True)
                            message = recv_message(worker.conn)
                        except (ProtocolError, OSError):
                            message = None
                        finally:
                            try:
                                worker.conn.setblocking(False)
                            except OSError:
                                pass
                        if message is None:  # crash / SIGKILL / garbage on the wire
                            worker_died(worker, "connection lost")
                            continue
                        worker.last_heartbeat = now
                        kind = message.get("type")
                        if kind == "task-error":
                            index = int(message.get("task_id", -1))
                            worker.task_index = None
                            raise ExecutorWorkerError(
                                f"distributed task {index} of {len(items)} raised "
                                f"{message.get('error')} in worker pid {worker.pid}; "
                                f"remote traceback:\n{message.get('traceback', '')}"
                            )
                        if kind == "result":
                            index = int(message["task_id"])
                            results[index] = decode_payload(message["payload"])
                            if not done[index]:
                                done[index] = True
                                remaining -= 1
                            worker.task_index = None
                        continue  # heartbeats just refresh last_heartbeat
                    # Watchdog: only busy workers are expected to be talking.
                    if worker.task_index is not None:
                        dead = worker.process.poll() is not None
                        silent = now - worker.last_heartbeat > self.heartbeat_timeout
                        if dead or silent:
                            if silent and not dead:
                                self.logger.event(
                                    "heartbeat-missed",
                                    pid=worker.pid,
                                    silent_seconds=round(now - worker.last_heartbeat, 1),
                                )
                                _SUPERVISION_TOTAL.inc(event="heartbeat-missed")
                            worker_died(worker, "exited" if dead else "heartbeat missed")
        except BaseException:
            # A task error or exhausted retries leaves tasks in flight on
            # other workers; drop every busy or dead worker so a stale
            # result from this map can never bleed into the next one.
            alive = []
            for worker in self._workers:
                if worker.task_index is not None or worker.process.poll() is not None:
                    worker.close()
                else:
                    alive.append(worker)
            self._workers = alive
            raise
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        for worker in self._workers:
            try:
                worker.conn.setblocking(True)
                send_message(worker.conn, {"type": "shutdown"})
            except OSError:
                pass
            worker.close()
        self._workers = []
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def __enter__(self) -> "DistributedExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


if __name__ == "__main__":
    raise SystemExit(worker_main())
