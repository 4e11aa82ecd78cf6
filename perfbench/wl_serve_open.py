"""``serve-open``: open-loop traffic against an in-process InferenceServer.

Two shards, otherwise ``ServeConfig`` defaults, serving an artifact
exported before timing from a fixed smoke-sized spec (``--seed`` picks the
request rows).  One generator thread submits 1-row labelled requests on a
fixed schedule (every 20th arrival is a 256-row request); one collector
thread waits on them in submission order and records when each settles.
Latency is timed from when a request was due, so generator stalls count
against the server.
"""

from __future__ import annotations

import queue
import sys
import threading
import time
from bisect import bisect_right
from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

import common

#: arrival rates (req/s); LADDER[0] is the light rate ``lo``, LADDER[1] the
#: heavy fixed rate ``hi``, the rest only probe ``serve.max_rate_ok_per_s``.
#: ``hi`` stays well below the knee: at 1000 req/s, with a fifth of the CPU
#: stolen by other guests, the generator fell 143 ms behind and the queues
#: overflowed.
LADDER = (250, 500, 1000, 2000)
#: small-request p90 limit (ms) a ladder rate must meet
LIMIT_MS = 25.0
BULK_EVERY = 20
BULK_ROWS = 256
#: requests kept in flight to measure capacity; below the two shards'
#: summed queue bound (256), so admission control never refuses
OUTSTANDING = 192
#: a probe step stops (and fails) once this many requests are unanswered,
#: before admission control would have to refuse any
MAX_OUTSTANDING = 128
#: share of the measured seconds per phase
SHARE_LO, SHARE_HI, SHARE_STEP, SHARE_SATURATE = 0.35, 0.15, 0.075, 0.35

#: columns of a phase's record array (one row per admitted request)
COLUMNS = ("due", "start", "submitted", "observed", "rows", "ok", "enqueued_at",
           "latency_ms", "shard", "batch_id", "batch_rows")
C = {name: i for i, name in enumerate(COLUMNS)}


class Phase:
    """One phase's requests as plain numbers (no request objects kept alive)."""

    def __init__(self, records: np.ndarray, refused: int, aborted: bool) -> None:
        self.records = records
        self.refused = refused
        self.aborted = aborted

    def column(self, name: str, bulk: Optional[bool] = None) -> np.ndarray:
        records = self.records
        if bulk is not None:
            records = records[(records[:, C["rows"]] == BULK_ROWS) == bulk]
        return records[:, C[name]]

    def latencies(self, bulk: bool) -> np.ndarray:
        return (self.column("observed", bulk) - self.column("due", bulk)) * 1000.0

    @property
    def failed(self) -> int:
        return int((self.records[:, C["ok"]] == 0).sum()) + self.refused

    @property
    def attempted(self) -> int:
        return len(self.records) + self.refused


class ServeOpenWorkload:
    name = "serve-open"
    #: op latency is set by timers and queues, not by the host's speed
    cpu_bound = False
    payloads = 512

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        self.workdir = workdir
        self.server = None
        self.arrivals = 0

    def prepare(self) -> None:
        from repro.serve import InferenceServer, ServeConfig

        self.path, fused, features, groups, labels = common.export_artifact(self.workdir)
        # Reference answers, computed before timing.
        self.reference = fused.predict_features(features)
        rng = np.random.default_rng([self.seed, 7])
        n = features.shape[0]

        def payload(offset: int, rows: int):
            cut = slice(offset, offset + rows)
            return (features[cut], {k: v[cut] for k, v in groups.items()}, labels[cut],
                    offset, rows)

        self.small = [payload(int(o), 1) for o in rng.integers(0, n, self.payloads)]
        self.bulk = [
            payload(int(o), BULK_ROWS) for o in rng.integers(0, n - BULK_ROWS + 1, 64)
        ]
        self.server = InferenceServer(self.path, ServeConfig(num_shards=2)).start()

    def cold_start(self) -> float:
        return common.timed_cold_start(
            [sys.executable, str(common.HERE / "coldstart.py"), "serve", str(self.path)]
        )

    # ------------------------------------------------------------------
    def _payload(self, k: int):
        if k % BULK_EVERY == BULK_EVERY - 1:
            return self.bulk[k % len(self.bulk)]
        return self.small[k % len(self.small)]

    def _settle(self, records: np.ndarray, answers: list, j: int, request) -> None:
        """Record request ``j``'s settle time and response fields."""
        request.done.wait(timeout=30.0)
        records[j, C["observed"]] = time.perf_counter()
        records[j, C["enqueued_at"]] = request.enqueued_at
        response = request.response
        if response is not None and request.error is None:
            records[j, C["latency_ms"]] = response.latency_ms
            records[j, C["shard"]] = response.shard
            records[j, C["batch_id"]] = response.batch_id
            records[j, C["batch_rows"]] = response.batch_rows
            answers[j] = response.predictions

    def _check(self, records: np.ndarray, answers: list, offsets: list) -> None:
        """Compare every answer with the reference, after the phase."""
        for j, answer in enumerate(answers):
            rows = int(records[j, C["rows"]])
            records[j, C["ok"]] = float(
                answer is not None
                and np.array_equal(answer, self.reference[offsets[j] : offsets[j] + rows])
            )

    def _phase(self, rate: float, seconds: float, probe: bool = False) -> Phase:
        """Drive ``rate`` req/s for ``seconds``, then check every answer.

        Records are preallocated for the planned count and request objects
        are dropped once settled, so the benchmark's own memory does not
        depend on how the phase went.
        """
        from repro.serve.errors import ServerOverloaded

        count = max(1, int(rate * seconds))
        records = np.full((count, len(COLUMNS)), np.nan)
        answers: list = [None] * count
        offsets: list = [0] * count
        pending: "queue.SimpleQueue" = queue.SimpleQueue()
        settled = [0]

        def collect() -> None:
            while True:
                item = pending.get()
                if item is None:
                    return
                self._settle(records, answers, *item)
                settled[0] += 1

        collector = threading.Thread(target=collect, name="collector", daemon=True)
        collector.start()
        submitted, refused, aborted = 0, 0, False
        begin = time.perf_counter() + 0.002
        for j in range(count):
            due = begin + j / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            features, groups, labels, offset, rows = self._payload(self.arrivals)
            self.arrivals += 1
            start = time.perf_counter()
            try:
                request = self.server.submit(features, groups=groups, labels=labels)
            except ServerOverloaded:
                refused += 1
                continue
            n = submitted
            submitted += 1
            records[n, C["due"]], records[n, C["start"]] = due, start
            records[n, C["submitted"]], records[n, C["rows"]] = time.perf_counter(), rows
            offsets[n] = offset
            pending.put((n, request))
            del request
            if probe and submitted - settled[0] > MAX_OUTSTANDING:
                aborted = True
                break
        pending.put(None)
        collector.join()
        records, answers = records[:submitted], answers[:submitted]
        self._check(records, answers, offsets)
        return Phase(records, refused, aborted)

    def _saturate(self, seconds: float) -> Tuple[float, int, int]:
        """Keep OUTSTANDING small requests in flight.

        Returns (median completions per second over half-second bins,
        attempted, failed).
        """
        window: "deque" = deque()
        k = failed = 0
        done_at: List[float] = []
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            now = time.perf_counter()
            while now < deadline and len(window) < OUTSTANDING:
                features, groups, labels, offset, rows = self.small[k % len(self.small)]
                k += 1
                window.append(
                    (offset, self.server.submit(features, groups=groups, labels=labels))
                )
            if not window:
                break
            offset, request = window.popleft()
            request.done.wait(timeout=30.0)
            observed = time.perf_counter()
            response = request.response
            if response is None or not np.array_equal(
                response.predictions, self.reference[offset : offset + 1]
            ):
                failed += 1
            done_at.append(observed)
        return common.binned_rate(done_at, start, deadline, width=0.5), k, failed

    def warm_up(self) -> None:
        self._phase(LADDER[0], 1.0)
        self._phase(LADDER[1], 1.0)

    def measure(self, seconds: float, tracer=None) -> Dict[str, object]:
        common.reset_peak_rss()
        lo = self._phase(LADDER[0], SHARE_LO * seconds)
        hi = self._phase(LADDER[1], SHARE_HI * seconds)
        # Every ladder step runs, whatever the outcome, so each run does the
        # same work; the result is the highest rate before the first miss.
        steps = [lo, hi] + [
            self._phase(rate, SHARE_STEP * seconds, probe=True) for rate in LADDER[2:]
        ]
        max_ok = 0.0
        for rate, step in zip(LADDER, steps):
            small = step.latencies(bulk=False)
            if step.aborted or step.refused or not len(small) or common.pct(small, 90) > LIMIT_MS:
                break
            max_ok = float(rate)
        rate, saturate_attempted, saturate_failed = self._saturate(SHARE_SATURATE * seconds)
        light_heavy = Phase(np.concatenate([lo.records, hi.records]), 0, False)
        return {
            "latencies_ms": list(lo.latencies(bulk=False)),
            "attempted": sum(p.attempted for p in steps) + saturate_attempted,
            "failed": sum(p.failed for p in steps) + saturate_failed,
            "peak_rss_mb": common.peak_rss_mb(),
            "figures": {
                "serve.p50_ms_hi": common.pct(hi.latencies(bulk=False), 50),
                "serve.p90_ms_hi": common.pct(hi.latencies(bulk=False), 90),
                "serve.bulk_p50_ms": common.pct(light_heavy.latencies(bulk=True), 50),
                "serve.max_rate_ok_per_s": max_ok,
                "serve.capacity_per_s": rate,
                "serve.refused": float(sum(p.refused for p in steps)),
                "serve.gen_late_p99_ms": common.pct(
                    (light_heavy.column("start") - light_heavy.column("due")) * 1000.0, 99
                ),
            },
            "split": light_heavy,
        }

    def verify(self) -> int:
        return 0  # every answer is compared with the reference after its phase

    def layers(self, tracer, traced, plain) -> Dict[str, float]:
        return request_split(tracer, traced["split"])

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()


def request_split(tracer, phase: Phase) -> Dict[str, float]:
    """Split small requests into submit, queue wait, forward and settle."""
    forwards = sorted(tracer.spans_named("core.fusing.forward"), key=lambda s: s.end)
    ends = [s.end for s in forwards]
    submit, wait, forward, settle = [], [], [], []
    batches = {}
    for row in phase.records:
        if not row[C["ok"]]:
            continue
        batch_rows = int(row[C["batch_rows"]])
        batches[(row[C["shard"]], row[C["batch_id"]])] = batch_rows
        if row[C["rows"]] != 1:
            continue
        forward_end = row[C["enqueued_at"]] + row[C["latency_ms"]] / 1000.0
        index = bisect_right(ends, forward_end) - 1
        while index >= 0 and forwards[index].count != batch_rows:
            index -= 1
        if index < 0:
            continue
        span_ms = (forwards[index].end - forwards[index].start) * 1000.0
        submit.append((row[C["submitted"]] - row[C["start"]]) * 1000.0)
        wait.append(row[C["latency_ms"]] - span_ms)
        forward.append(span_ms)
        settle.append((row[C["observed"]] - forward_end) * 1000.0)
    members = tracer.spans_named("core.fusing.members")
    monitor = tracer.spans_named("serve.monitor")
    return {
        "serve.submit_ms": common.mean(submit),
        "serve.queue_wait_ms": common.mean(wait),
        "core.fusing.forward_ms": common.mean(forward),
        "core.fusing.members_ms": common.mean([(s.end - s.start) * 1000.0 for s in members]),
        "serve.monitor_ms": common.mean([(s.end - s.start) * 1000.0 for s in monitor]),
        "serve.settle_ms": common.mean(settle),
        "serve.batch_rows_mean": common.mean(list(batches.values())),
        "serve.batches": float(len(batches)),
    }
