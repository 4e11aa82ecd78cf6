"""The priority run queue and the master daemon that drives it.

A :class:`MasterServer` owns one :class:`~repro.master.db.RunDatabase` and
executes submitted runs one at a time in priority order, with the
``distributed`` executor by default.  Under the default fused head training
a run's search trains its heads in process and hands no task to a worker;
only a ``use_fused=False`` run farms its episode-batch evaluations out to
supervised worker subprocesses.  Clients (``python -m repro submit/status/
watch/cancel``) talk to it over the length-prefixed JSON protocol of
:mod:`repro.master.protocol`; the control channel is **pure JSON** — a
client can submit specs and query statuses but never ships pickled code to
the master.  The connection loop of :mod:`repro.utils.connloop` serves every
client connection on one thread, with non-blocking reads and writes, so a
silent or slow client delays no one and a status poll starts no thread;
this module supplies only the frame codec calls and the request handler.

Crash story, end to end:

* a worker dies → the :class:`~repro.master.worker.DistributedExecutor`
  requeues its batch and restarts it (bounded retries);
* the master dies mid-run → on the next start-up
  :meth:`~repro.master.db.RunDatabase.requeue_running` puts the in-flight
  run back on the queue and its episode journal resumes the search from the
  last completed batch, bit-identical to an uninterrupted run;
* the operator hits Ctrl-C → the run loop drains the in-flight batch
  (:class:`~repro.core.SearchInterrupted` fires *between* batches, after
  the journal fsync), requeues the run as ``pending`` and exits.
"""

from __future__ import annotations

import dataclasses
import heapq
import os
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Union

from ..analysis.runtime import register_shared_state, touch_shared_state
from ..api.pipeline import MuffinPipeline
from ..api.spec import RunSpec, SpecError
from ..core.search import SearchInterrupted
from ..obs import METRICS
from ..utils.connloop import Connection, ConnLoop
from ..utils.logging import RunLogger
from ..utils.serialization import save_json
from .db import TERMINAL_STATUSES, EpisodeJournal, RunDatabase
from .protocol import ProtocolError, encode_message, pop_message

PathLike = Union[str, Path]

#: name of the endpoint file the master writes inside its database root so
#: clients can discover the host/port from ``--db`` alone
ENDPOINT_FILE = "master.json"

#: a client connection that moves no byte for this long is closed
_IDLE_S = 30.0

#: Run-lifecycle events, labelled exactly like the RunLogger event names
#: (run-submitted / run-claimed / run-requeued / run-finished / run-failed /
#: run-cancelled), so log rows and metrics cross-reference one-to-one.
_RUN_EVENTS_TOTAL = METRICS.counter(
    "repro_master_runs_total",
    "Run-lifecycle events processed by the master, by event.",
    labelnames=("event",),
)
_QUEUE_DEPTH = METRICS.gauge(
    "repro_master_queue_depth",
    "Pending runs waiting on the master's priority queue.",
)


class RunScheduler:
    """Thread-safe priority queue of pending RIDs with cancellation.

    Claim order is priority descending, then RID ascending (FIFO within a
    priority level).  Cancellation is two-phase: a queued run is dequeued
    outright; the currently executing run is flagged, and the run loop's
    ``should_stop`` hook turns the flag into a
    :class:`~repro.core.SearchInterrupted` at the next batch boundary.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._heap: List[tuple] = []  # (-priority, rid)
        self._queued: Set[int] = set()
        self._cancelled: Set[int] = set()
        self._active: Optional[int] = None
        # REPRO_TSAN contract: every queue mutation holds _lock (directly or
        # through the _available condition wrapping it).
        register_shared_state("run-queue", self, lock=self._lock)

    def submit(self, rid: int, priority: int = 0) -> None:
        with self._available:
            if rid in self._queued:
                return
            touch_shared_state("run-queue", self)
            heapq.heappush(self._heap, (-int(priority), int(rid)))
            self._queued.add(int(rid))
            self._available.notify()

    def claim(self, timeout: Optional[float] = None) -> Optional[int]:
        """Pop the highest-priority pending RID (blocking up to ``timeout``)."""
        with self._available:
            if not self._heap:
                self._available.wait(timeout)
            if not self._heap:
                return None
            touch_shared_state("run-queue", self)
            _, rid = heapq.heappop(self._heap)
            self._queued.discard(rid)
            self._active = rid
            return rid

    def release(self, rid: int) -> None:
        """Mark ``rid`` as no longer executing (done, failed or requeued)."""
        with self._lock:
            touch_shared_state("run-queue", self)
            if self._active == rid:
                self._active = None
            self._cancelled.discard(rid)

    def cancel(self, rid: int) -> str:
        """Cancel ``rid``: ``'dequeued'`` | ``'flagged'`` | ``'unknown'``."""
        rid = int(rid)
        with self._available:
            touch_shared_state("run-queue", self)
            if rid in self._queued:
                self._heap = [entry for entry in self._heap if entry[1] != rid]
                heapq.heapify(self._heap)
                self._queued.discard(rid)
                return "dequeued"
            if self._active == rid:
                self._cancelled.add(rid)
                return "flagged"
            return "unknown"

    def is_cancelled(self, rid: int) -> bool:
        with self._lock:
            return int(rid) in self._cancelled

    def pending(self) -> List[int]:
        """Queued RIDs in claim order (does not include the active run)."""
        with self._lock:
            return [rid for _, rid in sorted(self._heap)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)


@dataclass
class MasterConfig:
    """Configuration of one :class:`MasterServer`."""

    #: root of the persistent run database (specs, statuses, journals)
    db_root: PathLike = ".repro_master"
    host: str = "127.0.0.1"
    #: 0 = let the OS pick a free port (written to the endpoint file)
    port: int = 0
    #: executor override applied to every executed run (``None`` keeps the
    #: spec's own ``execution.executor``)
    executor: Optional[str] = "distributed"
    max_workers: Optional[int] = None
    #: how long the run loop waits for work before re-checking shutdown
    poll_seconds: float = 0.2
    verbose: bool = True

    def __post_init__(self) -> None:
        self.db_root = Path(self.db_root)
        if self.max_workers is not None and int(self.max_workers) <= 0:
            raise ValueError("max_workers must be positive (or None for auto)")


class MasterServer:
    """The master daemon: run database + scheduler + client listener."""

    def __init__(self, config: Optional[MasterConfig] = None) -> None:
        self.config = config or MasterConfig()
        self.db = RunDatabase(self.config.db_root)
        self.scheduler = RunScheduler()
        self.logger = RunLogger(name="muffin-master", verbose=self.config.verbose)
        self._loop: Optional[ConnLoop] = None
        self._runs: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._started = False
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def endpoint_path(self) -> Path:
        return Path(self.config.db_root) / ENDPOINT_FILE

    def start(self) -> None:
        """Recover the database, bind the listener and start the loops."""
        if self._started:
            return
        for rid in self.db.requeue_running():
            self._run_event("run-requeued", rid=rid, reason="master restart")
        for entry in self.db.pending_runs():
            self.scheduler.submit(int(entry["rid"]), int(entry.get("priority", 0)))
        self._loop = ConnLoop(
            self.config.host, self.config.port, 16, self._on_input, self._on_deadline
        )
        self.host, self.port = self._loop.address
        save_json(
            {"host": self.host, "port": self.port, "pid": os.getpid(), "started_at": time.time()},
            self.endpoint_path,
        )
        self._stopping.clear()
        self._loop.start("muffin-master-listener")
        self._runs = threading.Thread(target=self._run_loop, name="muffin-master-runs", daemon=True)
        self._runs.start()
        self._started = True
        self.logger.event(
            "master-started", host=self.host, port=self.port, queued=len(self.scheduler)
        )

    def stop(self) -> None:
        """Graceful shutdown: drain the in-flight batch, requeue, exit."""
        if not self._started:
            return
        self._stopping.set()
        self._loop.stop()
        self._runs.join(timeout=60.0)
        self._loop.join()
        self._loop.close()
        try:
            self.endpoint_path.unlink()
        except FileNotFoundError:
            pass
        self._started = False
        self.logger.event("master-stopped")

    def serve_forever(self, stop_event: Optional[threading.Event] = None) -> None:
        """Run until ``stop_event`` is set (or forever)."""
        self.start()
        try:
            if stop_event is None:
                while not self._stopping.wait(1.0):
                    pass
            else:
                stop_event.wait()
        finally:
            self.stop()

    def __enter__(self) -> "MasterServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Submission / queries (used by the listener AND callable in-process)
    # ------------------------------------------------------------------
    def _run_event(self, event: str, **fields) -> None:
        """Log one run-lifecycle event and mirror it into the metrics layer."""
        self.logger.event(event, **fields)
        _RUN_EVENTS_TOTAL.inc(event=event)
        _QUEUE_DEPTH.set(len(self.scheduler))

    def submit(self, spec: RunSpec, priority: int = 0) -> int:
        rid = self.db.submit(spec, priority=priority)
        self.scheduler.submit(rid, priority)
        self._run_event("run-submitted", rid=rid, name=spec.name, priority=priority)
        return rid

    def run_status(self, rid: int) -> Dict[str, object]:
        """One run's status document plus live journal progress."""
        payload = dict(self.db.status(rid))
        payload["journal"] = EpisodeJournal.progress(self.db.journal_path(rid))
        result = self.db.result(rid)
        if result is not None:
            payload["result"] = result
        return payload

    def cancel(self, rid: int) -> Dict[str, object]:
        outcome = self.scheduler.cancel(rid)
        if outcome == "dequeued":
            self.db.set_status(rid, "cancelled", cancelled_at=time.time())
        elif outcome == "unknown":
            # Not queued, not active: either already terminal or a bad RID.
            try:
                status = str(self.db.status(rid).get("status"))
            except KeyError:
                return {"rid": int(rid), "outcome": "unknown"}
            if status == "pending":
                # Pending on disk but missing from the queue (e.g. submitted
                # while a previous master owned the db); cancel it directly.
                self.db.set_status(rid, "cancelled", cancelled_at=time.time())
                outcome = "dequeued"
            else:
                outcome = f"already-{status}" if status in TERMINAL_STATUSES else outcome
        self._run_event("run-cancelled", rid=int(rid), outcome=outcome)
        return {"rid": int(rid), "outcome": outcome}

    # ------------------------------------------------------------------
    # Run execution
    # ------------------------------------------------------------------
    def _execution_spec(self, spec: RunSpec, rid: int):
        """The spec's execution section with the master's overrides applied.

        ``execution`` is excluded from every stage hash, so pointing the run
        at its journal and the distributed executor cannot change what the
        search computes — only how (and how durably) it computes it.
        """
        overrides: Dict[str, object] = {"journal": str(self.db.journal_path(rid))}
        if self.config.executor is not None:
            overrides["executor"] = self.config.executor
        if self.config.max_workers is not None:
            overrides["max_workers"] = int(self.config.max_workers)
        return dataclasses.replace(spec.execution, **overrides)

    def _execute_run(self, rid: int) -> None:
        try:
            spec = self.db.spec(rid)
        except (KeyError, SpecError) as exc:
            self.db.set_status(rid, "failed", error=str(exc), finished_at=time.time())
            self._run_event("run-failed", rid=rid, error=str(exc))
            return
        self.db.set_status(rid, "running", started_at=time.time())
        self._run_event("run-claimed", rid=rid, name=spec.name)
        run_spec = dataclasses.replace(spec, execution=self._execution_spec(spec, rid))

        def should_stop() -> bool:
            return self._stopping.is_set() or self.scheduler.is_cancelled(rid)

        try:
            pipeline = MuffinPipeline(
                run_spec,
                cache_dir=self.db.run_dir(rid) / "cache",
                verbose=False,
                should_stop=should_stop,
            )
            outcome = pipeline.run()
        except SearchInterrupted:
            if self.scheduler.is_cancelled(rid):
                self.db.set_status(rid, "cancelled", cancelled_at=time.time())
                self._run_event("run-cancelled", rid=rid, outcome="interrupted")
            else:  # master shutting down: the journal makes the requeue cheap
                self.db.set_status(rid, "pending", requeued=True)
                self._run_event("run-requeued", rid=rid, reason="shutdown")
            return
        except Exception as exc:
            self.db.set_status(
                rid,
                "failed",
                error=f"{type(exc).__name__}: {exc}",
                traceback=traceback.format_exc(),
                finished_at=time.time(),
            )
            self._run_event("run-failed", rid=rid, error=f"{type(exc).__name__}: {exc}")
            return
        finally:
            self.scheduler.release(rid)
        result_hash = outcome.result.result_hash()
        self.db.store_result(
            rid,
            {
                "rid": rid,
                "result_hash": result_hash,
                "summary": outcome.summary(),
                "episodes": len(outcome.result),
            },
        )
        self.db.set_status(rid, "done", finished_at=time.time(), result_hash=result_hash)
        self._run_event("run-finished", rid=rid, result_hash=result_hash)

    def _run_loop(self) -> None:
        while not self._stopping.is_set():
            rid = self.scheduler.claim(timeout=self.config.poll_seconds)
            if rid is None:
                continue
            if self._stopping.is_set():
                # Claimed during shutdown: leave it pending for the next master.
                self.scheduler.release(rid)
                return
            try:
                self._execute_run(rid)
            except Exception as exc:  # _execute_run is defensive; belt and braces
                self._run_event("run-failed", rid=rid, error=f"{type(exc).__name__}: {exc}")
                self.scheduler.release(rid)

    # ------------------------------------------------------------------
    # Client protocol
    # ------------------------------------------------------------------
    def _on_input(self, conn: Connection) -> None:
        """Answer every whole frame ``conn`` has sent, in order."""
        if conn.deadline is None:  # just accepted
            self._loop.set_deadline(conn, conn.active + _IDLE_S)
        try:
            while True:
                request = pop_message(conn.inbuf)
                if request is None:
                    return
                self._loop.send(conn, self._respond(request))
        except ProtocolError:
            # Oversized or malformed frame: this connection ends once the
            # answers to its earlier requests are written; the others go on.
            self._loop.send(conn, last=True)

    def _on_deadline(self, conn: Connection) -> None:
        """Close ``conn`` once it has moved no byte for ``_IDLE_S``."""
        idle_until = conn.active + _IDLE_S
        if idle_until > time.perf_counter():
            self._loop.set_deadline(conn, idle_until)
        else:
            self._loop.drop(conn)

    def _respond(self, request: Dict[str, object]) -> bytes:
        """The encoded answer to one request; a failure answers as an error."""
        try:
            return encode_message(self._handle_request(request))
        except Exception as exc:
            return encode_message({"type": "error", "error": f"{type(exc).__name__}: {exc}"})

    def _handle_request(self, request: Dict[str, object]) -> Dict[str, object]:
        kind = request.get("type")
        if kind == "ping":
            return {
                "type": "pong",
                "pid": os.getpid(),
                "queued": len(self.scheduler),
                "db": str(self.config.db_root),
            }
        if kind == "submit":
            spec_payload = request.get("spec")
            if not isinstance(spec_payload, dict):
                return {"type": "error", "error": "submit requires a 'spec' object"}
            try:
                spec = RunSpec.from_dict(spec_payload)
            except SpecError as exc:
                return {"type": "error", "error": str(exc)}
            rid = self.submit(spec, priority=int(request.get("priority", 0)))
            return {"type": "ok", "rid": rid}
        if kind == "status":
            rid = request.get("rid")
            if rid is None:
                return {"type": "ok", "runs": self.db.list_runs()}
            try:
                return {"type": "ok", "run": self.run_status(int(rid))}
            except KeyError:
                return {"type": "error", "error": f"unknown run {rid}"}
        if kind == "cancel":
            rid = request.get("rid")
            if rid is None:
                return {"type": "error", "error": "cancel requires a 'rid'"}
            return {"type": "ok", **self.cancel(int(rid))}
        return {"type": "error", "error": f"unknown request type {kind!r}"}
