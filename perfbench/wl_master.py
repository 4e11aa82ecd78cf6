"""``master``: submit -> done through an in-process MasterServer.

Default ``MasterConfig`` (distributed executor, one worker subprocess per
core) behind a socket ``MasterClient``; closed loop with one caller that
submits a smoke-sized seeded spec, polls until the run is terminal, then
submits the next.  Same search work as ``pipeline`` plus the run database,
episode journals and worker processes.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List

import common
from wl_pipeline import pipeline_layers

#: distinct specs per run, cycled; each costs an in-process reference run
#: before timing, and enough of them keep one spec's luck out of the median
SPECS = 8
#: the caller's status poll period; kept small against ``master.run_ms``
POLL_S = 0.02


class MasterWorkload:
    name = "master"
    #: op latency tracks the host's speed (see ``common.HostSpeed``)
    cpu_bound = True

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        self.workdir = workdir
        self.server = None
        self.client = None
        self.specs = []
        self.expected: List[str] = []

    def prepare(self) -> None:
        from repro.api import MuffinPipeline, RunSpec
        from repro.master import MasterClient, MasterConfig, MasterServer

        self.specs = [RunSpec.from_dict(common.smoke_spec(self.seed, i)) for i in range(SPECS)]
        # References: the same specs run in process, before timing.
        self.expected = [MuffinPipeline(spec).run().result.result_hash() for spec in self.specs]
        self.server = MasterServer(
            MasterConfig(db_root=self.workdir / "master-db", verbose=False)
        )
        self.server.start()
        self.client = MasterClient(self.server.host, self.server.port)

    def cold_start(self) -> float:
        db = self.workdir / f"coldstart-db-{time.monotonic_ns()}"
        return common.timed_cold_start(
            [sys.executable, str(common.HERE / "coldstart.py"), "master", str(db)]
        )

    def _op(self, index: int):
        """Submit spec ``index % SPECS``; returns (status doc, wall, seen wall time)."""
        spec = self.specs[index % SPECS]
        start = time.perf_counter()
        rid = self.client.submit(spec)
        while True:
            status = self.client.status(rid)
            if status.get("status") in ("done", "failed", "cancelled"):
                break
            time.sleep(POLL_S)
        return status, time.perf_counter() - start, time.time()

    def warm_up(self) -> None:
        self._op(0)

    def measure(self, seconds: float, tracer=None, host=None) -> Dict[str, object]:
        """Closed loop for ``seconds``; with ``host`` (a ``HostSpeed``), each
        op's host-speed factor is taken just before it, into ``factors``."""
        latencies: List[float] = []
        op_ids: List[int] = []
        docs: List[dict] = []
        failed = 0
        rates: List[float] = []
        factors: List[float] = []
        common.reset_peak_rss()
        with common.ChildPeakSampler() as workers:
            deadline = time.perf_counter() + seconds
            index = -1  # every call walks the same spec order (see pipeline)
            while time.perf_counter() < deadline:
                index += 1
                if tracer is not None:
                    tracer.op = index
                factor = host.factor() if host is not None else 1.0
                status, wall, seen = self._op(index)
                expected = self.expected[index % SPECS]
                if status.get("status") != "done" or status.get("result_hash") != expected:
                    print(
                        f"# run {status.get('rid')} {status.get('status')}: "
                        f"hash {status.get('result_hash')} != {expected}"
                    )
                    failed += 1
                    continue
                latencies.append(wall * 1000.0)
                factors.append(factor)
                op_ids.append(index)
                docs.append(dict(status, seen_at=seen))
                rates.append(int(self.specs[index % SPECS].search.episodes) / wall)
        return {
            "latencies_ms": latencies,
            "factors": factors,
            "attempted": len(latencies) + failed,
            "failed": failed,
            "figures": {"core.search.candidates_per_s": common.pct(rates, 50)},
            "peak_rss_mb": common.peak_rss_mb() + workers.peak_mb,
            "ops": op_ids,
            "docs": docs,
        }

    def verify(self) -> int:
        return 0  # every op is checked against its reference hash as it completes

    def layers(self, tracer, traced, plain) -> Dict[str, float]:
        ops = set(traced["ops"])
        metrics = pipeline_layers(tracer, ops)
        n = max(len(ops), 1)
        totals = tracer.layer_totals(ops)
        docs = traced["docs"]
        metrics.update(
            {
                "master.submit_ms": totals.get("master.submit", {}).get("self_s", 0.0)
                * 1000.0 / n,
                "master.queue_wait_ms": common.mean(
                    [(d["started_at"] - d["submitted_at"]) * 1000.0 for d in docs]
                ),
                "master.run_ms": common.mean(
                    [(d["finished_at"] - d["started_at"]) * 1000.0 for d in docs]
                ),
                "master.observe_lag_ms": common.mean(
                    [(d["seen_at"] - d["finished_at"]) * 1000.0 for d in docs]
                ),
                "core.execution.map_ms": totals.get("core.execution.map", {}).get("self_s", 0.0)
                * 1000.0 / n,
            }
        )
        return metrics

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
