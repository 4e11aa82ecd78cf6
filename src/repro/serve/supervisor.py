"""Supervised shard pool: replicated micro-batchers behind one admission gate.

This is the fault-tolerance core of the serving tier.  A :class:`ShardPool`
runs ``num_shards`` independent micro-batcher shards, each with its own
:class:`~repro.core.fusing.FusedModel` replica (replicas are exact copies
of one artifact, so every shard answers bit-identically), its own *bounded*
request queue and its own worker thread.  Around them:

* **admission control** — ``submit`` dispatches to the least-loaded live
  shard; when every queue is at its bound the request is rejected
  *immediately* with :class:`~repro.serve.errors.ServerOverloaded` (never
  queued-and-hoped), and a draining/stopped pool rejects with
  :class:`~repro.serve.errors.ServerClosed`;
* **deadlines** — a request may carry one; expired requests are shed from
  the batch *before* the forward pass spends compute on them;
* **a per-shard health state machine** ``starting → healthy → suspect →
  restarting → stopped`` driven by heartbeats the batch loop writes every
  iteration.  A silent shard turns ``suspect``, then is force-restarted
  (its stuck thread abandoned, its in-flight futures failed — never hung);
  a crashed shard has its in-flight requests re-dispatched to a healthy
  shard (bounded by ``max_redispatch``) and is restarted with exponential
  backoff; repeated crashes open a circuit breaker that stops the slot;
* **graceful drain** — ``stop(timeout)`` stops admitting, lets every
  accepted request finish (bit-identically), then stops the shards; any
  request still unanswered when the timeout expires is *failed*, not hung.

All of it is observable: shard-state gauges, restart/shed/re-dispatch
counters and the usual latency/batch histograms feed ``GET /metrics``, and
state transitions land as structured :class:`~repro.utils.logging.RunLogger`
events.  Failures are injectable deterministically through a
:class:`~repro.serve.faults.FaultPlan`.
"""

from __future__ import annotations

import _thread
import contextlib
import copy
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.runtime import register_shared_state, touch_shared_state
from ..obs import (
    DEFAULT_LATENCY_BUCKETS_MS,
    DEFAULT_SIZE_BUCKETS,
    METRICS,
    active_writer,
    span,
)
from ..utils.logging import RunLogger
from .errors import (
    DeadlineExceeded,
    InferenceFailed,
    ServerClosed,
    ServerOverloaded,
)
from .faults import FaultPlan, InjectedCrash

_REQUESTS_TOTAL = METRICS.counter(
    "repro_serve_requests_total",
    "Requests answered by the micro-batching server, by outcome.",
    labelnames=("outcome",),
)
_REQUEST_LATENCY_MS = METRICS.histogram(
    "repro_serve_request_latency_ms",
    "End-to-end request latency (enqueue to response), milliseconds.",
    buckets=DEFAULT_LATENCY_BUCKETS_MS,
)
_BATCH_ROWS = METRICS.histogram(
    "repro_serve_batch_rows",
    "Sample rows coalesced into one micro-batch forward pass.",
    buckets=DEFAULT_SIZE_BUCKETS,
)
_QUEUE_DEPTH = METRICS.gauge(
    "repro_serve_queue_depth",
    "Requests waiting in the micro-batcher queues after the last batch.",
)
_SHARD_STATE = METRICS.gauge(
    "repro_serve_shard_state",
    "Shard health state (0=starting 1=healthy 2=suspect 3=restarting 4=stopped).",
    labelnames=("shard",),
)
_SHARD_RESTARTS = METRICS.counter(
    "repro_serve_shard_restarts_total",
    "Shard restarts performed by the supervisor, by cause.",
    labelnames=("cause",),
)
_SHED_TOTAL = METRICS.counter(
    "repro_serve_shed_total",
    "Requests shed before a forward pass, by reason.",
    labelnames=("reason",),
)
_REDISPATCH_TOTAL = METRICS.counter(
    "repro_serve_redispatch_total",
    "In-flight requests re-dispatched after a shard crash.",
)


class ShardState:
    """The per-shard health states (string constants, gauge-encoded 0-4)."""

    STARTING = "starting"
    HEALTHY = "healthy"
    SUSPECT = "suspect"
    RESTARTING = "restarting"
    STOPPED = "stopped"

    CODES = {STARTING: 0, HEALTHY: 1, SUSPECT: 2, RESTARTING: 3, STOPPED: 4}


@dataclass
class InferenceResponse:
    """What the server returns for one request."""

    predictions: np.ndarray
    consensus_mask: np.ndarray
    probabilities: Optional[np.ndarray] = None
    batch_id: int = -1
    batch_rows: int = 0
    latency_ms: float = 0.0
    shard: int = 0

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "predictions": self.predictions.tolist(),
            "consensus": self.consensus_mask.tolist(),
            "batch_id": self.batch_id,
            "batch_rows": self.batch_rows,
            "latency_ms": round(self.latency_ms, 3),
            "shard": self.shard,
        }
        if self.probabilities is not None:
            payload["probabilities"] = self.probabilities.tolist()
        return payload


class Completion:
    """One-shot completion signal with ``threading.Event``'s ``set``,
    ``is_set`` and ``wait``, minus the ``Condition`` an ``Event`` builds.

    Every admitted request carries one, and building a ``threading.Event``
    was about a quarter of what admitting a one-row request cost.  The gate is a
    raw lock taken at construction: ``set`` releases it once, and each
    waiter passes through it (acquire, then release for the next one).
    ``set`` is not re-entrant — :class:`PendingRequest` calls it under its
    settle lock — and a completion cannot be cleared.
    """

    __slots__ = ("_flag", "_gate")

    def __init__(self) -> None:
        self._flag = False
        self._gate = _thread.allocate_lock()
        self._gate.acquire()

    def is_set(self) -> bool:
        return self._flag

    def set(self) -> None:
        if not self._flag:
            self._flag = True
            self._gate.release()

    def wait(self, timeout: Optional[float] = None) -> bool:
        if self._flag:
            return True
        if timeout is None:
            passed = self._gate.acquire()
        else:
            passed = self._gate.acquire(timeout=max(timeout, 0.0))
        if passed:
            self._gate.release()
        return self._flag


@dataclass
class PendingRequest:
    """One queued request plus its completion signal.

    ``finish``/``fail`` settle the request exactly once (first writer wins)
    — a force-restarted shard's abandoned thread may complete a request the
    supervisor already failed, and that late answer must be a no-op.
    """

    features: np.ndarray
    groups: Dict[str, np.ndarray]
    labels: Optional[np.ndarray]
    enqueued_at: float
    deadline_at: Optional[float] = None
    admission_index: int = -1
    redispatches: int = 0
    done: Completion = field(default_factory=Completion)
    response: Optional[InferenceResponse] = None
    error: Optional[BaseException] = None
    _settle_lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def rows(self) -> int:
        return int(self.features.shape[0])

    def expired(self, now: float) -> bool:
        return self.deadline_at is not None and now > self.deadline_at

    def finish(
        self,
        response: InferenceResponse,
        on_win: Optional[Callable[[], None]] = None,
    ) -> bool:
        with self._settle_lock:
            if self.done.is_set():
                return False
            self.response = response
            # runs before done.set() so a waiter woken by the settle can
            # never observe counters that have not absorbed this request
            if on_win is not None:
                on_win()
            self.done.set()
            return True

    def fail(self, error: BaseException) -> bool:
        with self._settle_lock:
            if self.done.is_set():
                return False
            self.error = error
            self.done.set()
            return True


#: queue sentinel that wakes a shard worker up for shutdown
_SHUTDOWN = object()
#: stands in for the ``serve/batch`` span when no trace writer is installed
_UNTRACED = contextlib.nullcontext()


class Shard:
    """One micro-batcher generation: a replica, a thread, heartbeats.

    A ``Shard`` is immutable in role: it belongs to one pool *slot* and one
    *generation* — the supervisor never mutates a live shard, it replaces
    it.  Every field the worker thread writes (heartbeat, counters,
    in-flight list) is single-writer by that thread; the supervisor and
    stats readers only read them.
    """

    def __init__(
        self,
        pool: "ShardPool",
        slot: int,
        generation: int,
        model,
        request_queue: "queue.Queue",
        batches_attempted: int = 0,
    ) -> None:
        self.pool = pool
        self.slot = slot
        self.generation = generation
        self.model = model
        self.queue = request_queue
        self.state = ShardState.STARTING  # written by the supervisor, under pool lock
        self.abandoned = threading.Event()
        #: set by a hang-restart only: the replacement shard copies this
        #: shard's counters at spawn time, so the zombie thread (which may
        #: still be finishing a batch) must stop mutating them — otherwise
        #: its late increments are silently lost from pool totals and the
        #: fault-plan batch index could replay or skip.
        self.frozen = threading.Event()
        self.thread = threading.Thread(
            target=self._run,
            name=f"muffin-shard-{slot}.g{generation}",
            daemon=True,
        )
        # -- single-writer fields (the shard thread) ---------------------
        self.heartbeat_at = time.perf_counter()
        self.inflight: Tuple[PendingRequest, ...] = ()
        #: cumulative across this slot's generations (fault-plan triggers)
        self.batches_attempted = batches_attempted
        self.batches_served = 0
        self.requests_served = 0
        self.samples_served = 0
        self.errors = 0
        self.shed_deadline = 0
        register_shared_state(f"serve-shard-{slot}.g{generation}", self)

    def start(self) -> None:
        self.thread.start()

    # ------------------------------------------------------------------
    # The worker loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        config = self.pool.config
        idle_wait = max(config.heartbeat_interval_ms, 1.0) / 1000.0
        exiting = False
        while not exiting and not self.abandoned.is_set():
            touch_shared_state(f"serve-shard-{self.slot}.g{self.generation}", self)
            self.heartbeat_at = time.perf_counter()
            try:
                item = self.queue.get(timeout=idle_wait)
            except queue.Empty:
                continue
            if item is _SHUTDOWN:
                break
            batch, exiting = self._collect_batch(item)
            batch = self._shed_expired(batch)
            if batch:
                try:
                    self._process_batch(batch)
                except BaseException as exc:
                    # A crash mid-batch: record it, hand the unsettled
                    # requests back to the pool (re-dispatch or fail fast —
                    # never hang them) and die; the supervisor spawns the
                    # replacement once its backoff elapses.
                    unsettled = tuple(r for r in batch if not r.done.is_set())
                    self.inflight = ()
                    self.pool._shard_crashed(self, exc, unsettled)
                    return
            self.pool.monitor_maybe_log()
        self.heartbeat_at = time.perf_counter()

    def _collect_batch(
        self, first: PendingRequest
    ) -> Tuple[List[PendingRequest], bool]:
        """Take ``first`` plus whatever is already queued, up to ``max_batch``
        rows.

        Work-conserving: the batcher never waits for more requests.  Under
        load batches still form, because requests pile up while the previous
        forward runs.  A request that crosses ``max_batch`` is still taken
        (an oversized one is served alone); ``_SHUTDOWN`` ends the batch and
        tells the loop to exit after serving it.
        """
        max_batch = self.pool.config.max_batch
        batch = [first]
        rows = first.rows
        while rows < max_batch:
            try:
                item = self.queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                return batch, True
            batch.append(item)
            rows += item.rows
        return batch, False

    def _shed_expired(self, batch: List[PendingRequest]) -> List[PendingRequest]:
        """Fail requests whose deadline passed; compute is for the living."""
        now = time.perf_counter()
        live: List[PendingRequest] = []
        for request in batch:
            if request.expired(now):
                if request.fail(
                    DeadlineExceeded(
                        f"request deadline expired {1000 * (now - request.deadline_at):.1f}ms "
                        "ago while queued; dropped before the forward pass"
                    )
                ):
                    if not self.frozen.is_set():
                        self.shed_deadline += 1
                    _SHED_TOTAL.inc(reason="deadline")
                    _REQUESTS_TOTAL.inc(outcome="deadline")
            else:
                live.append(request)
        return live

    def _process_batch(self, batch: List[PendingRequest]) -> None:
        touch_shared_state(f"serve-shard-{self.slot}.g{self.generation}", self)
        self.inflight = tuple(batch)
        batch_index = self.batches_attempted
        if not self.frozen.is_set():
            self.batches_attempted += 1
        if active_writer() is None:
            batch_span = _UNTRACED  # tracing off: no attribute is computed
        else:
            batch_span = span(
                "serve/batch",
                shard=self.slot,
                batch_id=batch_index,
                requests=len(batch),
                rows=sum(request.rows for request in batch),
                # how long the oldest request in the batch sat in the queue
                wait_ms=(time.perf_counter() - min(r.enqueued_at for r in batch))
                * 1000.0,
            )
        with batch_span:
            plan = self.pool.plan
            if plan is not None:
                delay = plan.delay_seconds(self.slot, batch_index)
                if delay > 0:
                    time.sleep(delay)
                plan.check_batch(self.slot, batch_index)  # may raise InjectedCrash
            self._forward(batch, batch_index)
        self.inflight = ()

    def _forward(self, batch: List[PendingRequest], batch_id: int) -> None:
        """One stacked forward; on failure, bisect to isolate the poison.

        ``Exception`` from the forward (a poisoned request, an OOM on this
        batch shape, ...) is *isolated*: the batch is split and retried so
        only the offending request(s) fail, each with
        :class:`InferenceFailed` chaining the original error.  An
        :class:`InjectedCrash` (and any other ``BaseException``) propagates
        and kills the shard — that is the supervisor's problem.
        """
        try:
            self._forward_stacked(batch, batch_id)
        except Exception as exc:
            if len(batch) == 1:
                if not self.frozen.is_set():
                    self.errors += 1
                _REQUESTS_TOTAL.inc(outcome="error")
                failure = InferenceFailed("forward pass failed for this request")
                failure.__cause__ = exc
                batch[0].fail(failure)
                return
            middle = len(batch) // 2
            self._forward(batch[:middle], batch_id)
            self._forward(batch[middle:], batch_id)

    def _forward_stacked(self, batch: List[PendingRequest], batch_id: int) -> None:
        pool = self.pool
        plan = pool.plan
        if plan is not None:
            for request in batch:
                plan.check_request(request.admission_index)
        features = [request.features for request in batch]
        stacked = features[0] if len(features) == 1 else np.concatenate(features, axis=0)
        # For the float64 backend this cast is a no-op (bit-identical); for
        # float32 it halves the batch before the member forwards.
        stacked = pool.backend.asarray(stacked)
        detailed = self.model.predict_detailed_features(stacked)
        now = time.perf_counter()
        offset = 0
        return_probabilities = pool.config.return_probabilities
        # batch-level counters land before any waiter is woken: a caller
        # unblocked by the last finish() must already see this batch
        batch_rows = int(stacked.shape[0])
        if not self.frozen.is_set():
            self.batches_served += 1
            self.requests_served += len(batch)
            self.samples_served += batch_rows
        _BATCH_ROWS.observe(float(batch_rows))
        for request in batch:
            end = offset + request.rows
            rows = slice(offset, end)
            offset = end
            response = InferenceResponse(
                predictions=detailed.predictions[rows],
                consensus_mask=detailed.consensus_mask[rows],
                probabilities=(
                    detailed.probabilities[rows] if return_probabilities else None
                ),
                batch_id=batch_id,
                batch_rows=batch_rows,
                latency_ms=(now - request.enqueued_at) * 1000.0,
                shard=self.slot,
            )

            def record(response=response, request=request) -> None:
                _REQUEST_LATENCY_MS.observe(response.latency_ms)
                _REQUESTS_TOTAL.inc(outcome="ok")
                pool.monitor_observe(
                    response.predictions, request.groups, request.labels
                )

            request.finish(response, on_win=record)
        _QUEUE_DEPTH.set(float(pool.queue_depth()))


class ShardPool:
    """N supervised micro-batcher shards behind one admission gate."""

    def __init__(
        self,
        model,
        config,
        backend,
        logger: Optional[RunLogger] = None,
        monitor=None,
    ) -> None:
        self.model = model
        self.config = config
        self.backend = backend
        self.logger = logger or RunLogger(name="serve-pool", verbose=False)
        self.monitor = monitor
        self.plan: Optional[FaultPlan] = config.fault_plan
        self._lock = threading.Lock()
        self._started = False
        self._draining = False
        self._stopped = False
        self._admitted = 0
        self._shed_overload = 0
        self._shed_closed = 0
        self._redispatched = 0
        num_shards = config.num_shards
        #: bounded per-slot queues — these outlive shard generations, so a
        #: restarting slot keeps (and eventually serves) its accepted backlog
        self._queues: List["queue.Queue"] = [
            queue.Queue(maxsize=config.queue_depth) for _ in range(num_shards)
        ]
        self._shards: List[Shard] = [
            Shard(self, slot, 0, self._replica(slot), self._queues[slot])
            for slot in range(num_shards)
        ]
        #: per-slot crash history: breaker-window restart counts, pending
        #: restart times/causes, and when the slot last restarted (for decay)
        self._restart_counts: List[int] = [0] * num_shards
        self._restart_due: List[Optional[float]] = [None] * num_shards
        self._restart_cause: List[str] = ["crash"] * num_shards
        self._last_restart_at: List[float] = [0.0] * num_shards
        self._restarts_total = 0
        self._generations: List[int] = [0] * num_shards
        self._supervisor_wake = threading.Event()
        #: set while no supervisor loop is running (join surrogate — the
        #: supervisor is spawned raw so start() never blocks on bootstrap)
        self._supervisor_done = threading.Event()
        self._supervisor_done.set()
        # REPRO_TSAN contract: lifecycle flags, slot tables and admission
        # counters mutate only under the pool lock.
        register_shared_state("serve-pool", self, lock=self._lock)

    # ------------------------------------------------------------------
    # Replicas
    # ------------------------------------------------------------------
    def _replica(self, slot: int):
        """Slot 0 serves the caller's model; later slots get deep copies.

        A deep copy duplicates the float weight arrays bit-for-bit, so every
        replica answers exactly like the artifact it came from — sharding
        changes capacity and blast radius, never answers.
        """
        if slot == 0:
            return self.model
        return copy.deepcopy(self.model)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        with self._lock:
            if self._stopped:
                raise ServerClosed("a stopped shard pool cannot be restarted")
            if self._started:
                return
            touch_shared_state("serve-pool", self)
            self._started = True
            for shard in self._shards:
                shard.start()
            self._supervisor_wake.clear()
            self._supervisor_done.clear()
            # raw spawn: threading.Thread.start() blocks until the new
            # thread is scheduled (~0.5ms under load), which would tax every
            # server start; the done-event below replaces join()
            _thread.start_new_thread(self._supervisor_main, ())

    def drain(self, timeout: Optional[float] = 30.0) -> None:
        """Stop admitting, finish every accepted request, then stop shards.

        Within ``timeout`` seconds, every request accepted before the drain
        either completes (bit-identically — it just runs through a normal
        micro-batch) or, if the timeout expires first, is failed with
        :class:`ServerClosed`; nothing is ever left hanging.
        """
        with self._lock:
            if self._stopped:
                return
            touch_shared_state("serve-pool", self)
            self._draining = True
            started = self._started
        deadline = None if timeout is None else time.monotonic() + timeout
        if started:
            while self._work_outstanding():
                if deadline is not None and time.monotonic() >= deadline:
                    break
                time.sleep(0.002)
        self._shutdown(deadline)

    stop = drain

    def _work_outstanding(self) -> bool:
        if any(q.qsize() > 0 for q in self._queues):
            return True
        with self._lock:
            shards = list(self._shards)
            restarting = any(due is not None for due in self._restart_due)
        return restarting or any(shard.inflight for shard in shards)

    def _shutdown(self, deadline: Optional[float]) -> None:
        with self._lock:
            if self._stopped:
                return
            touch_shared_state("serve-pool", self)
            self._stopped = True
            shards = list(self._shards)
            for slot in range(len(self._shards)):
                self._restart_due[slot] = None
        self._supervisor_wake.set()
        self._supervisor_done.wait(timeout=5.0)
        for shard in shards:
            shard.abandoned.set()
            try:
                shard.queue.put_nowait(_SHUTDOWN)
            except queue.Full:
                pass  # the abandoned flag still stops the worker at its next wake
        for shard in shards:
            if shard.thread.is_alive():
                remaining = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                shard.thread.join(timeout=remaining)
        # Zero hung futures: whatever is still queued or in flight fails now.
        closed = ServerClosed("the inference server is shutting down")
        for shard in shards:
            for request in shard.inflight:
                request.fail(closed)
        for q in self._queues:
            while True:
                try:
                    item = q.get_nowait()
                except queue.Empty:
                    break
                if item is not _SHUTDOWN:
                    item.fail(closed)
        with self._lock:
            for slot, shard in enumerate(self._shards):
                self._set_state(shard, ShardState.STOPPED)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _enqueue_least_loaded(
        self, shards: List[Shard], request: PendingRequest
    ) -> bool:
        """Queue on the shortest of the shards' slot queues; False when all
        are full (lock held).

        Queues are looked up by slot in ``self._queues`` — never through
        ``shard.queue``: a hang-restart swaps the slot's queue while the old
        ``Shard`` object lingers in RESTARTING until its backoff elapses,
        and admitting through that stale reference would strand the request
        on a queue nothing ever drains.  The single-queue fast path skips
        the depth reads entirely — ``put_nowait`` itself is the bound check.
        """
        queues = [self._queues[shard.slot] for shard in shards]
        if len(queues) > 1:
            queues.sort(key=lambda q: q.qsize())
        for slot_queue in queues:
            try:
                slot_queue.put_nowait(request)
            except queue.Full:
                continue
            return True
        return False

    def submit(self, request: PendingRequest) -> PendingRequest:
        """Admit a request onto the least-loaded admissible shard queue.

        Healthy and still-starting shards are preferred; a suspect shard —
        or a restarting slot, whose queue survives the restart — only
        accepts work when nothing healthier has room, so a wobbling shard
        degrades capacity instead of availability.
        """
        config = self.config
        with self._lock:
            if self._stopped or self._draining:
                self._shed_closed += 1
                _SHED_TOTAL.inc(reason="closed")
                raise ServerClosed("the inference server is shutting down")
            preferred: List[Shard] = []
            fallback: List[Shard] = []
            for shard in self._shards:
                state = shard.state
                if state == ShardState.HEALTHY or state == ShardState.STARTING:
                    preferred.append(shard)
                elif state == ShardState.SUSPECT or state == ShardState.RESTARTING:
                    fallback.append(shard)
            if not preferred and not fallback:
                self._shed_closed += 1
                _SHED_TOTAL.inc(reason="closed")
                raise ServerClosed(
                    "no live shard: every shard slot is stopped "
                    "(circuit breaker open after repeated crashes)"
                )
            if request.deadline_at is not None and request.expired(
                time.perf_counter()
            ):
                _SHED_TOTAL.inc(reason="deadline")
                raise DeadlineExceeded("request deadline expired before admission")
            touch_shared_state("serve-pool", self)
            request.admission_index = self._admitted
            if self._enqueue_least_loaded(
                preferred, request
            ) or self._enqueue_least_loaded(fallback, request):
                self._admitted += 1
                return request
            self._shed_overload += 1
            _SHED_TOTAL.inc(reason="overload")
            raise ServerOverloaded(
                f"all {len(preferred) + len(fallback)} shard queue(s) at their "
                f"bound ({config.queue_depth} requests); request rejected "
                "without queuing",
                retry_after=config.retry_after_s,
            )

    # ------------------------------------------------------------------
    # Crash handling and re-dispatch
    # ------------------------------------------------------------------
    def _shard_crashed(
        self,
        shard: Shard,
        exc: BaseException,
        unsettled: Sequence[PendingRequest],
    ) -> None:
        """Called on the dying shard's thread, as its last act.

        The crash is recorded (state, restart counters, the scheduled
        replacement) under the pool lock *before* any request moves, so a
        caller woken by a re-dispatched request already sees the restart
        in ``stats()``.  A shard the supervisor already replaced or
        abandoned records nothing.
        """
        self.logger.event(
            "shard-crashed",
            shard=shard.slot,
            generation=shard.generation,
            error=f"{type(exc).__name__}: {exc}",
            inflight=len(unsettled),
        )
        with self._lock:
            if (
                not self._stopped
                and self._shards[shard.slot] is shard
                and shard.state not in (ShardState.RESTARTING, ShardState.STOPPED)
            ):
                touch_shared_state("serve-pool", self)
                self._begin_restart(
                    shard.slot, shard, time.perf_counter(), cause="crash"
                )
        for request in unsettled:
            request.redispatches += 1
            if request.redispatches > self.config.max_redispatch:
                request.fail(
                    InferenceFailed(
                        f"shard {shard.slot} crashed and the re-dispatch budget "
                        f"({self.config.max_redispatch}) is exhausted"
                    )
                )
                _REQUESTS_TOTAL.inc(outcome="error")
                continue
            self._redispatch(shard, request, exc)
        self._supervisor_wake.set()

    def _redispatch(
        self, crashed: Shard, request: PendingRequest, exc: BaseException
    ) -> None:
        """Move one in-flight request off a crashed shard; fail it fast if
        nowhere (not even its own restarting slot's queue) can take it."""
        with self._lock:
            if self._stopped:
                request.fail(ServerClosed("the inference server is shutting down"))
                return
            # authoritative slot queues only (shard.queue may be a swapped-out
            # zombie queue after a hang-restart)
            target_queues = [
                self._queues[s.slot]
                for s in self._shards
                if s is not crashed
                and s.state in (ShardState.HEALTHY, ShardState.STARTING)
            ]
            target_queues.sort(key=lambda q: q.qsize())
            # own slot last: its queue survives the restart, so the request
            # is served by the replacement shard after the backoff — unless
            # the breaker stopped the slot, when nothing will drain it
            breaker_open = crashed.state == ShardState.STOPPED
            if not breaker_open:
                target_queues.append(self._queues[crashed.slot])
            for target_queue in target_queues:
                try:
                    target_queue.put_nowait(request)
                except queue.Full:
                    continue
                touch_shared_state("serve-pool", self)
                self._redispatched += 1
                _REDISPATCH_TOTAL.inc()
                return
        if breaker_open:
            request.fail(
                ServerClosed(
                    f"shard {crashed.slot} crashed and its circuit breaker is "
                    "open; no other shard could take the request"
                )
            )
        else:
            request.fail(
                InferenceFailed(
                    f"shard {crashed.slot} crashed mid-batch and every other queue "
                    "is at its bound"
                )
            )
        _REQUESTS_TOTAL.inc(outcome="error")

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _supervisor_main(self) -> None:
        threading.current_thread().name = "muffin-serve-supervisor"
        try:
            self._supervise_loop()
        finally:
            self._supervisor_done.set()

    def _supervise_loop(self) -> None:
        interval = max(self.config.supervise_interval_ms, 1.0) / 1000.0
        while True:
            self._supervisor_wake.wait(timeout=interval)
            self._supervisor_wake.clear()
            with self._lock:
                if self._stopped:
                    return
                now = time.perf_counter()
                restarts: List[Tuple[int, str]] = []
                for slot, shard in enumerate(self._shards):
                    due = self._restart_due[slot]
                    if due is not None:
                        if now >= due:
                            restarts.append((slot, self._restart_cause[slot]))
                        continue
                    if shard.state == ShardState.STOPPED or not self._started:
                        continue
                    if not shard.thread.is_alive():
                        # a crash records itself on the dying thread; this
                        # only catches a worker that died without reporting
                        self._begin_restart(slot, shard, now, cause="crash")
                        continue
                    silent = now - shard.heartbeat_at
                    if silent > self.config.restart_after_ms / 1000.0:
                        self._force_restart(slot, shard, now)
                    elif silent > self.config.suspect_after_ms / 1000.0:
                        if shard.state in (ShardState.HEALTHY, ShardState.STARTING):
                            self._set_state(shard, ShardState.SUSPECT)
                    elif shard.state in (ShardState.SUSPECT, ShardState.STARTING):
                        self._set_state(shard, ShardState.HEALTHY)
                    if (
                        shard.state == ShardState.HEALTHY
                        and self._restart_counts[slot]
                        and now - self._last_restart_at[slot]
                        > self.config.breaker_reset_ms / 1000.0
                    ):
                        # The breaker measures crash *frequency*, not lifetime
                        # total: a slot healthy this long is forgiven its past
                        # crashes, so sparse transient failures over a long
                        # uptime can never permanently stop it.
                        self.logger.event(
                            "shard-breaker-reset",
                            shard=slot,
                            forgiven=self._restart_counts[slot],
                        )
                        self._restart_counts[slot] = 0
                for slot, cause in restarts:
                    self._spawn_replacement(slot, cause)

    def _begin_restart(self, slot: int, shard: Shard, now: float, cause: str) -> None:
        """Schedule a replacement for a crashed/dead shard (lock held)."""
        self._set_state(shard, ShardState.RESTARTING)
        count = self._restart_counts[slot]
        if count >= self.config.max_restarts:
            self._open_breaker(slot, shard)
            return
        backoff = min(
            self.config.restart_backoff_ms * (self.config.restart_backoff_factor ** count),
            self.config.restart_backoff_max_ms,
        )
        self._restart_counts[slot] = count + 1
        self._restarts_total += 1
        self._restart_due[slot] = now + backoff / 1000.0
        self._restart_cause[slot] = cause
        self._last_restart_at[slot] = now
        _SHARD_RESTARTS.inc(cause=cause)
        self.logger.event(
            "shard-restart-scheduled",
            shard=slot,
            cause=cause,
            backoff_ms=round(backoff, 1),
            restarts=self._restart_counts[slot],
        )

    def _force_restart(self, slot: int, shard: Shard, now: float) -> None:
        """Abandon a silent (hung) shard: fail its in-flight futures, give
        the slot a fresh queue with the old backlog, schedule a replacement
        (lock held)."""
        # freeze counters first: the replacement copies them at spawn time,
        # and the zombie thread may still be finishing a batch
        shard.frozen.set()
        shard.abandoned.set()
        hung = InferenceFailed(
            f"shard {slot} unresponsive for "
            f">{self.config.restart_after_ms:.0f}ms; its worker was abandoned"
        )
        for request in shard.inflight:
            if request.fail(hung):
                _REQUESTS_TOTAL.inc(outcome="error")
        # The abandoned thread may still be blocked inside the old queue's
        # get(); hand the slot a fresh queue so the replacement (not the
        # zombie) owns the backlog from here on.
        fresh: "queue.Queue" = queue.Queue(maxsize=self.config.queue_depth)
        while True:
            try:
                item = shard.queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                continue
            try:
                fresh.put_nowait(item)
            except queue.Full:
                item.fail(ServerOverloaded("queue truncated during shard restart"))
        self._queues[slot] = fresh
        self._begin_restart(slot, shard, now, cause="hang")

    def _open_breaker(self, slot: int, shard: Shard) -> None:
        """Too many crashes: stop the slot for good (lock held)."""
        self._set_state(shard, ShardState.STOPPED)
        self._restart_due[slot] = None
        self.logger.event(
            "shard-breaker-open",
            shard=slot,
            restarts=self._restart_counts[slot],
        )
        closed = ServerClosed(
            f"shard {slot} crashed {self._restart_counts[slot] + 1} times; "
            "circuit breaker open"
        )
        while True:
            try:
                item = self._queues[slot].get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN:
                item.fail(closed)

    def _spawn_replacement(self, slot: int, cause: str) -> None:
        """Start the next generation for a slot (lock held, backoff elapsed)."""
        self._restart_due[slot] = None
        old = self._shards[slot]
        old.abandoned.set()
        self._generations[slot] += 1
        replacement = Shard(
            self,
            slot,
            self._generations[slot],
            old.model,
            self._queues[slot],
            batches_attempted=old.batches_attempted,
        )
        # carry the served counters forward so pool totals survive restarts
        replacement.batches_served = old.batches_served
        replacement.requests_served = old.requests_served
        replacement.samples_served = old.samples_served
        replacement.errors = old.errors
        replacement.shed_deadline = old.shed_deadline
        self._shards[slot] = replacement
        self._set_state(replacement, ShardState.STARTING)
        replacement.start()
        self.logger.event(
            "shard-restarted",
            shard=slot,
            generation=self._generations[slot],
            cause=cause,
        )

    def _set_state(self, shard: Shard, state: str) -> None:
        if shard.state != state:
            shard.state = state
            self.logger.event(
                "shard-state",
                shard=shard.slot,
                generation=shard.generation,
                state=state,
            )
        _SHARD_STATE.set(float(ShardState.CODES[state]), shard=str(shard.slot))

    # ------------------------------------------------------------------
    # Monitor fan-in (shared across shard threads; monitor is lock-safe)
    # ------------------------------------------------------------------
    def monitor_observe(self, predictions, groups, labels) -> None:
        if self.monitor is not None:
            self.monitor.observe(predictions, groups, labels)

    def monitor_maybe_log(self) -> None:
        if self.monitor is not None:
            self.monitor.maybe_log()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        return sum(q.qsize() for q in self._queues)

    @property
    def is_running(self) -> bool:
        with self._lock:
            return (
                self._started
                and not self._stopped
                and any(s.thread.is_alive() for s in self._shards)
            )

    @property
    def shards(self) -> List[Shard]:
        with self._lock:
            return list(self._shards)

    def totals(self) -> Dict[str, int]:
        with self._lock:
            shards = list(self._shards)
            shed_overload = self._shed_overload
            shed_closed = self._shed_closed
            redispatched = self._redispatched
            admitted = self._admitted
            restarts = self._restarts_total
        return {
            "admitted": admitted,
            "requests": sum(s.requests_served for s in shards),
            "samples": sum(s.samples_served for s in shards),
            "batches": sum(s.batches_served for s in shards),
            "errors": sum(s.errors for s in shards),
            "shed_overload": shed_overload,
            "shed_deadline": sum(s.shed_deadline for s in shards),
            "shed_closed": shed_closed,
            "redispatched": redispatched,
            "restarts": restarts,
        }

    def shard_stats(self) -> List[Dict[str, object]]:
        with self._lock:
            shards = list(self._shards)
            queues = list(self._queues)
            counts = list(self._restart_counts)
        return [
            {
                "slot": shard.slot,
                "generation": shard.generation,
                "state": shard.state,
                "queue_depth": queues[shard.slot].qsize(),
                "batches": shard.batches_served,
                "requests": shard.requests_served,
                "restarts": counts[shard.slot],
            }
            for shard in shards
        ]
