"""In-memory span recorder installed around the program's public functions.

The benchmark never reads the program's own timers.  A traced run wraps
public functions and methods from the outside (``install``), records one
span per call (name, start, end, parent, op id, thread) in memory, and
restores every original on ``uninstall``.  A layer's self time is its
spans' duration minus the part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "thread", "count")

    def __init__(self, sid, name, start, parent, op, thread, count):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.thread = thread
        self.count = count


class Tracer:
    """Records spans for wrapped calls; one instance per traced phase."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: op id stamped on every span; the workload sets it before each op
        self.op = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        #: objects a wrapper saw, by span name (e.g. body caches for stats())
        self.seen: Dict[str, Dict[int, object]] = defaultdict(dict)

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, count: int = 1) -> Span:
        stack = self._stack()
        with self._lock:
            span = Span(
                len(self.spans),
                name,
                time.perf_counter(),
                stack[-1].sid if stack else None,
                self.op,
                threading.get_ident(),
                count,
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, count: int = 1):
        span = self.begin(name, count)
        try:
            yield span
        finally:
            self.end(span)

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        count: Optional[Callable[..., int]] = None,
        remember_self: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper (undone by uninstall).

        ``functools.wraps`` keeps ``__module__``/``__qualname__``, so a
        function shipped to a worker process by import path still resolves
        to the original there.
        """
        original = getattr(owner, attr)
        had_own = attr in getattr(owner, "__dict__", {})
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if remember_self and args:
                tracer.seen[name][id(args[0])] = args[0]
            span = tracer.begin(name, count(*args, **kwargs) if count else 1)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(span)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, had_own))

    def wrap_factory(self, owner: object, attr: str, name: str) -> None:
        """Wrap the callables ``owner.attr(...)`` returns (registry lookups)."""
        original = getattr(owner, attr)
        had_own = attr in getattr(owner, "__dict__", {})
        tracer = self

        @functools.wraps(original)
        def lookup(*args, **kwargs):
            produced = original(*args, **kwargs)

            @functools.wraps(produced)
            def call(*a, **k):
                with tracer.span(name):
                    return produced(*a, **k)

            return call

        setattr(owner, attr, lookup)
        self._patches.append((owner, attr, original, had_own))

    def uninstall(self) -> None:
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        return {s.sid: (s.end - s.start) - child_time[s.sid] for s in self.spans}

    def layer_totals(self, ops: Optional[set] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: summed self seconds, calls and counted items."""
        selfs = self.self_times()
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "calls": 0, "count": 0}
        )
        for span in self.spans:
            if ops is not None and span.op not in ops:
                continue
            entry = totals[span.name]
            entry["self_s"] += selfs[span.sid]
            entry["calls"] += 1
            entry["count"] += span.count
        return dict(totals)

    def spans_named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({k: getattr(span, k) for k in Span.__slots__}) + "\n")


def install_standard(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are measured at."""
    import repro.api.pipeline as pipeline_mod
    import repro.core.search as search_mod
    import repro.zoo.pool as pool_mod
    from repro.core.controller import RandomController, RNNController
    from repro.core.fusing import FusedModel, MuffinBody
    from repro.core.reward import MultiFairnessReward
    from repro.data import DATASETS
    from repro.fairness.engine import EvaluationEngine
    from repro.master.client import MasterClient
    from repro.master.worker import DistributedExecutor
    from repro.serve.monitor import FairnessMonitor
    from repro.serve.server import InferenceServer

    tracer.wrap(pipeline_mod.MuffinPipeline, "run", "api.pipeline.run")
    tracer.wrap_factory(DATASETS, "get", "data.build")
    tracer.wrap(pipeline_mod, "split_dataset", "data.build")
    tracer.wrap(pool_mod, "train_model", "zoo.train_model")
    tracer.wrap(
        search_mod, "evaluate_task_batch", "core.search.fused", count=lambda tasks: len(tasks)
    )
    tracer.wrap(search_mod, "evaluate_task", "core.search.autograd")
    for method in ("probabilities", "concatenated", "member_labels"):
        tracer.wrap(
            search_mod.BodyOutputCache, method, "core.search.body_cache", remember_self=True
        )
    tracer.wrap(EvaluationEngine, "evaluate", "fairness.engine")
    tracer.wrap(EvaluationEngine, "rewards", "fairness.engine")
    tracer.wrap(MultiFairnessReward, "compute_batch", "core.reward")
    for cls in (RNNController, RandomController):
        for method in ("sample", "sample_batch", "update"):
            tracer.wrap(cls, method, "core.controller")
    tracer.wrap(search_mod.MuffinSearch, "finalize", "api.pipeline.finalize")
    for fn in ("save_pool", "save_json", "fused_model_payload"):
        tracer.wrap(pipeline_mod, fn, "zoo.persistence.write")
    tracer.wrap(MasterClient, "submit", "master.submit")
    tracer.wrap(MasterClient, "status", "master.poll")
    tracer.wrap(DistributedExecutor, "map", "core.execution.map")
    tracer.wrap(InferenceServer, "submit", "serve.submit")
    tracer.wrap(
        FusedModel,
        "predict_detailed_features",
        "core.fusing.forward",
        count=lambda self, features, *a, **k: int(features.shape[0]),
    )
    tracer.wrap(MuffinBody, "member_probabilities_features", "core.fusing.members")
    tracer.wrap(FairnessMonitor, "observe", "serve.monitor")
