"""Micro-batching inference server for deployable Muffin-Net artifacts.

The serving hot path is the fused forward pass, and its cost is dominated by
per-call overhead (python dispatch, per-member composition, small GEMMs) —
so the server coalesces concurrent requests into **micro-batches**:

* every request enters a *bounded* per-shard FIFO queue (admission control
  rejects with :class:`~repro.serve.errors.ServerOverloaded` when every
  queue is at its bound — the server never queues-and-hopes);
* each shard's worker thread pops the first request and takes whatever
  else is already queued, up to ``max_batch`` sample rows — it never waits
  for more, so a lone request is served at once and batches form under load
  from the requests that pile up while the previous forward runs;
* the collected feature matrices are stacked into one
  :meth:`~repro.core.fusing.FusedModel.predict_detailed_features` forward
  pass, and the results are sliced back to the individual requests in
  submission order.

Because the forward pass is deterministic and row-independent, a batched
response carries the same predicted labels as a one-request-at-a-time
forward pass — batching changes throughput, never answers.  The same holds
across shards: every shard serves a bit-identical replica of one artifact,
so ``num_shards`` changes capacity and blast radius, never answers.

Fault tolerance lives in :mod:`repro.serve.supervisor` (the
:class:`~repro.serve.supervisor.ShardPool`: health state machine,
restarts with backoff, re-dispatch, graceful drain) — this module is the
user-facing facade: :class:`ServeConfig`, :class:`InferenceServer` and the
in-process :class:`ServeClient` the tests and the CI smoke use;
:mod:`repro.serve.http` layers a stdlib HTTP/JSON frontend on top of the
same server object.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Union

import numpy as np

from ..core.backend import DEFAULT_BACKEND, get_backend
from ..core.fusing import FusedModel
from ..utils.logging import RunLogger
from ..zoo.persistence import load_fused_model
from .errors import InferenceFailed, ServeError
from .faults import FaultPlan, resolve_fault_plan
from .monitor import FairnessMonitor
from .supervisor import InferenceResponse, PendingRequest, Shard, ShardPool

PathLike = Union[str, Path]

__all__ = [
    "ServeConfig",
    "InferenceResponse",
    "InferenceServer",
    "ServeClient",
]


@dataclass
class ServeConfig:
    """Knobs of the micro-batching inference server."""

    #: maximum sample rows coalesced into one forward pass
    max_batch: int = 64
    #: sliding-window size of the online fairness monitor (labelled samples)
    monitor_window: int = 512
    #: emit one structured fairness log row per this many labelled samples
    #: (0 disables periodic logging)
    log_every: int = 100
    #: return per-class probabilities with every response
    return_probabilities: bool = True
    #: registered array backend the stacked feature batch is cast through
    #: ('numpy-float64' is bit-identical to pre-backend serving;
    #: 'numpy-float32' halves the feature batch under the tolerance contract)
    backend: str = DEFAULT_BACKEND
    #: independent micro-batcher shards, each over its own bit-identical
    #: model replica
    num_shards: int = 1
    #: bound of each shard's request queue — this IS the admission-control
    #: threshold: when every queue holds this many requests, submit()
    #: rejects immediately with ServerOverloaded
    queue_depth: int = 128
    #: deadline applied to requests that do not carry their own (ms; None
    #: means requests without an explicit deadline never expire)
    default_deadline_ms: Optional[float] = None
    #: how long an idle shard waits between heartbeats (ms)
    heartbeat_interval_ms: float = 25.0
    #: supervisor sweep period (ms)
    supervise_interval_ms: float = 50.0
    #: a shard silent for longer than this turns 'suspect' (ms)
    suspect_after_ms: float = 500.0
    #: a shard silent for longer than this is force-restarted (ms)
    restart_after_ms: float = 5000.0
    #: restart backoff: first delay, growth factor, cap (ms)
    restart_backoff_ms: float = 50.0
    restart_backoff_factor: float = 2.0
    restart_backoff_max_ms: float = 2000.0
    #: circuit breaker: a slot that crashed this many times stays stopped
    max_restarts: int = 5
    #: a slot that has stayed healthy this long has its crash count forgiven
    #: — the breaker measures crash frequency, not lifetime total (ms)
    breaker_reset_ms: float = 30000.0
    #: how many times an in-flight request may be re-dispatched after shard
    #: crashes before it is failed fast with InferenceFailed
    max_redispatch: int = 2
    #: Retry-After hint (seconds) attached to ServerOverloaded rejections
    retry_after_s: float = 1.0
    #: deterministic fault-injection plan (FaultPlan, dict, JSON string or
    #: path to a .json file); None serves faithfully
    fault_plan: Union[None, FaultPlan, Dict[str, object], str] = None

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if self.monitor_window <= 0:
            raise ValueError("monitor_window must be positive")
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if self.queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be positive (or None)")
        if self.max_restarts < 0 or self.max_redispatch < 0:
            raise ValueError("max_restarts and max_redispatch must be non-negative")
        if self.restart_backoff_factor < 1.0:
            raise ValueError("restart_backoff_factor must be >= 1")
        if self.breaker_reset_ms <= 0:
            raise ValueError("breaker_reset_ms must be positive")
        # Resolve aliases eagerly so an unknown backend fails at config time,
        # and parse the fault plan so a malformed one fails here, not mid-serve.
        self.backend = get_backend(self.backend).name
        self.fault_plan = resolve_fault_plan(self.fault_plan)


class InferenceServer:
    """Long-running micro-batched serving facade around one fused model.

    The heavy lifting — sharding, health supervision, admission control,
    deadlines, drain — happens in the :class:`ShardPool` this facade owns;
    this class keeps the schema validation, the stable public surface
    (``submit``/``start``/``stop``/``stats``) and the single-shard
    ergonomics the rest of the repo builds on.
    """

    def __init__(
        self,
        model: Union[FusedModel, PathLike],
        config: Optional[ServeConfig] = None,
        verbose: bool = False,
    ) -> None:
        if not isinstance(model, FusedModel):
            model = load_fused_model(model)
        if model.schema is None:
            raise ValueError(
                "the fused model has no feature schema bound; load it from an "
                "artifact or call bind_schema() before serving"
            )
        self.model = model
        self.schema = model.schema
        self.config = config or ServeConfig()
        self.logger = RunLogger(name=f"serve:{model.name}", verbose=verbose)
        self.monitor = FairnessMonitor(
            self.schema,
            window=self.config.monitor_window,
            log_every=self.config.log_every,
            logger=self.logger,
        )
        self._backend = get_backend(self.config.backend)
        self.pool = ShardPool(
            model,
            self.config,
            backend=self._backend,
            logger=self.logger,
            monitor=self.monitor,
        )
        self.started_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "InferenceServer":
        """Start the shard workers and their supervisor (idempotent)."""
        self.pool.start()
        if self.started_at is None:
            # perf_counter, not time.time(): uptime is a duration, and the
            # wall clock can step backwards (NTP) mid-run.
            self.started_at = time.perf_counter()
        return self

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Graceful drain: stop admitting, finish every accepted request
        (bit-identically), then stop the shards.  Requests still unanswered
        when ``timeout`` expires are failed with ``ServerClosed`` — never
        left hanging."""
        self.pool.drain(timeout=timeout)

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def is_running(self) -> bool:
        return self.pool.is_running

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------
    def submit(
        self,
        features: np.ndarray,
        groups: Optional[Mapping[str, np.ndarray]] = None,
        labels: Optional[np.ndarray] = None,
        deadline_ms: Optional[float] = None,
        on_settle: Optional[Callable[[PendingRequest], None]] = None,
    ) -> PendingRequest:
        """Validate and enqueue one request; returns its pending handle.

        Requests may be enqueued before :meth:`start` — a cold burst is
        drained in ``max_batch`` chunks as soon as the workers come up.
        Raises :class:`~repro.serve.errors.ServerClosed` on a draining or
        stopped server and :class:`~repro.serve.errors.ServerOverloaded`
        (immediately, without queuing) when every shard queue is at its
        bound.  ``deadline_ms`` (or ``config.default_deadline_ms``) bounds
        how long the request may wait: expired requests are shed before
        their forward pass with :class:`~repro.serve.errors.DeadlineExceeded`.

        ``on_settle`` is called with the request exactly once, when it
        settles (answer or error), on whichever thread settles it — a shard
        worker, the supervisor or the thread running :meth:`stop` — after
        ``request.done`` is set.  It must be quick and must not raise or
        block; the HTTP frontend uses it to wake its selector loop.  It is
        stored before admission, so a request that settles at once still
        calls it; a request rejected at admission raises and never calls it.
        """
        matrix = self.schema.validate_features(features)
        n = matrix.shape[0]
        now = time.perf_counter()
        budget_ms = deadline_ms if deadline_ms is not None else self.config.default_deadline_ms
        if budget_ms is not None and budget_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        request = PendingRequest(
            features=matrix,
            groups=self.schema.validate_groups(groups, n),
            labels=self.schema.validate_labels(labels, n),
            enqueued_at=now,
            deadline_at=None if budget_ms is None else now + budget_ms / 1000.0,
            on_settle=on_settle,
        )
        return self.pool.submit(request)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shards(self) -> List[Shard]:
        """Live shard objects (tests reach replica models through this)."""
        return self.pool.shards

    @property
    def requests_served(self) -> int:
        return self.pool.totals()["requests"]

    @property
    def samples_served(self) -> int:
        return self.pool.totals()["samples"]

    @property
    def batches_served(self) -> int:
        return self.pool.totals()["batches"]

    @property
    def errors(self) -> int:
        return self.pool.totals()["errors"]

    def stats(self) -> Dict[str, object]:
        """Structured server + monitor statistics (the ``/stats`` payload)."""
        totals = self.pool.totals()
        served = totals["batches"]
        return {
            "model": self.model.name,
            "spec_hash": self.model.metadata.get("spec_hash"),
            "running": self.is_running,
            "uptime_s": (
                round(time.perf_counter() - self.started_at, 3)
                if self.started_at is not None
                else 0.0
            ),
            "requests": totals["requests"],
            "samples": totals["samples"],
            "batches": served,
            "errors": totals["errors"],
            "mean_batch_size": (
                round(totals["requests"] / served, 3) if served else 0.0
            ),
            "queue_depth": self.pool.queue_depth(),
            "shed": {
                "overload": totals["shed_overload"],
                "deadline": totals["shed_deadline"],
                "closed": totals["shed_closed"],
            },
            "redispatched": totals["redispatched"],
            "restarts": totals["restarts"],
            "shards": self.pool.shard_stats(),
            "config": {
                "max_batch": self.config.max_batch,
                "backend": self.config.backend,
                "num_shards": self.config.num_shards,
                "queue_depth": self.config.queue_depth,
            },
            "fairness": self.monitor.snapshot(),
        }


class ServeClient:
    """In-process client: submit a request and block for its response."""

    def __init__(self, server: InferenceServer) -> None:
        self.server = server

    def predict(
        self,
        features: np.ndarray,
        groups: Optional[Mapping[str, np.ndarray]] = None,
        labels: Optional[np.ndarray] = None,
        timeout: Optional[float] = 30.0,
        deadline_ms: Optional[float] = None,
    ) -> InferenceResponse:
        """Round-trip one request through the micro-batcher.

        Admission failures (:class:`ServerClosed`, :class:`ServerOverloaded`)
        and shed deadlines (:class:`DeadlineExceeded`) raise their typed
        error directly; a failed forward pass raises
        :class:`InferenceFailed` chaining the shard-side exception.
        """
        request = self.server.submit(
            features, groups=groups, labels=labels, deadline_ms=deadline_ms
        )
        if not request.done.wait(timeout=timeout):
            raise TimeoutError(
                f"inference request timed out after {timeout}s "
                f"(queue_depth={self.server.pool.queue_depth()})"
            )
        if request.error is not None:
            if isinstance(request.error, ServeError):
                raise request.error
            raise InferenceFailed("inference request failed") from request.error
        assert request.response is not None
        return request.response

    def stats(self) -> Dict[str, object]:
        return self.server.stats()
