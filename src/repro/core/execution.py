"""Pluggable executors for the candidate-evaluation hot path.

Episodes inside one controller batch are independent until the REINFORCE
update (Equation 4), so the search evaluates a whole ``episode_batch`` of
candidates through one of these executors:

* ``serial`` — evaluate in the calling thread (the default, and the
  reference behaviour the distributed executor must reproduce bit-exactly);
* ``distributed`` — the master's supervised worker subprocesses
  (:class:`~repro.master.worker.DistributedExecutor`), with heartbeats,
  task retries and crash recovery.

Both only see per-candidate work under ``HeadTrainConfig.use_fused=False``
(the autograd oracle): with the fused kernels every head of a batch trains
together on the calling thread.

Every executor's ``map`` returns results **in submission order**, which is
what keeps seeded searches bit-identical across executors: the tasks are
pure functions of their picklable inputs, so only the ordering could differ.

Plugins can register additional executors (e.g. a cluster dispatcher) in
:data:`EXECUTORS` and select them from ``SearchConfig.executor`` or an
``ExecutionSpec``.
"""

from __future__ import annotations

import inspect
import os
import time
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from ..obs import METRICS, span
from ..registry import Registry

T = TypeVar("T")
R = TypeVar("R")

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

#: Registry of executor factories.  Each entry is a callable
#: ``(max_workers: Optional[int]) -> executor`` where the returned object
#: implements ``map`` (order-preserving) and ``shutdown``.
EXECUTORS: Registry = Registry("executor")


class ExecutorWorkerError(RuntimeError):
    """A worker process died (or kept dying) while evaluating a task.

    The message names the failed task and points at the ``serial``
    executor, which runs the same task in the calling process for a real
    traceback.
    """


def default_max_workers() -> int:
    """Worker count used when a config leaves ``max_workers`` unset."""
    return os.cpu_count() or 1


class SerialExecutor:
    """Evaluate tasks inline, in the calling thread (the reference executor)."""

    name = "serial"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        # ``max_workers`` is accepted for interface uniformity; serial
        # execution always uses exactly the calling thread.
        self.max_workers = 1

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        with span("executor/map", executor=self.name, tasks=len(items)):
            start = time.perf_counter()
            results = [fn(item) for item in items]
            _TASKS_TOTAL.inc(len(items), executor=self.name)
            _MAP_SECONDS.observe(time.perf_counter() - start, executor=self.name)
            return results

    def shutdown(self) -> None:
        pass

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


def build_executor(name: str, max_workers: Optional[int] = None, **options):
    """Instantiate a registered executor by name.

    Extra keyword ``options`` are forwarded only when the factory accepts
    them, so distributed-only knobs (``task_retries``, ``heartbeat_seconds``,
    ``logger``, ...) can ride along in a config without breaking the
    serial executor.
    """
    factory = EXECUTORS.get(name)
    if options:
        try:
            parameters = inspect.signature(factory).parameters
        except (TypeError, ValueError):
            parameters = {}
        accepts_kwargs = any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
        )
        if not accepts_kwargs:
            options = {key: value for key, value in options.items() if key in parameters}
    return factory(max_workers=max_workers, **options)


def executor_names() -> Sequence[str]:
    """The registered executor names (for CLI choices and error messages)."""
    return EXECUTORS.names()


def _distributed_factory(max_workers: Optional[int] = None, **options):
    """Late-bound factory: breaks the core → master import cycle."""
    from ..master.worker import DistributedExecutor

    return DistributedExecutor(max_workers=max_workers, **options)


EXECUTORS.register("serial", SerialExecutor, aliases=("sync", "inline"))
EXECUTORS.register("distributed", _distributed_factory, aliases=("workers", "supervised"))
