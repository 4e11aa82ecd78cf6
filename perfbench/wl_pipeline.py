"""``pipeline``: spec -> report, in process, one caller, closed loop.

Op: ``MuffinPipeline(spec, cache_dir=<fresh dir>).run()`` on a seeded list
of distinct quickstart-shaped specs.  Zoo and head training do most of the
work; serving does none.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from typing import Dict, List

import common


class PipelineWorkload:
    name = "pipeline"
    #: op latency tracks the host's speed (see ``common.HostSpeed``)
    cpu_bound = True

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        self.workdir = workdir
        #: (spec index, result hash) of every op, in order
        self.hashes: List[tuple] = []

    def prepare(self) -> None:
        from repro.api import RunSpec  # noqa: F401  (import before timing)

    def _run(self, index: int):
        """One op on spec ``index``; returns (result, wall seconds)."""
        from repro.api import MuffinPipeline, RunSpec

        spec = RunSpec.from_dict(common.pipeline_spec(self.seed, index))
        cache = tempfile.mkdtemp(dir=self.workdir)
        try:
            start = time.perf_counter()
            result = MuffinPipeline(spec, cache_dir=cache).run()
            wall = time.perf_counter() - start
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return result, wall

    def cold_start(self) -> float:
        path = self.workdir / "coldstart-spec.json"
        path.write_text(json.dumps(common.pipeline_spec(self.seed, 10_000)))
        return common.timed_cold_start(
            [sys.executable, str(common.HERE / "coldstart.py"), "pipeline", str(path),
             str(self.workdir)]
        )

    def warm_up(self) -> None:
        self._run(10**6)

    def measure(self, seconds: float, tracer=None, host=None) -> Dict[str, object]:
        """Closed loop for ``seconds``; with ``host`` (a ``HostSpeed``), each
        op's host-speed factor is taken just before it, into ``factors``."""
        latencies: List[float] = []
        op_ids: List[int] = []
        rates: List[float] = []
        factors: List[float] = []
        failed = 0
        common.reset_peak_rss()
        deadline = time.perf_counter() + seconds
        # Every call walks the same spec list, so a traced half reruns the
        # plain half's specs and the two p50s compare like with like.
        index = -1
        while time.perf_counter() < deadline:
            index += 1
            if tracer is not None:
                tracer.op = index
            factor = host.factor() if host is not None else 1.0
            try:
                result, wall = self._run(index)
            except Exception as exc:  # a failed op is counted, the run goes on
                print(f"# op {index} failed: {type(exc).__name__}: {exc}")
                failed += 1
                continue
            latencies.append(wall * 1000.0)
            factors.append(factor)
            op_ids.append(index)
            rates.append(len(result.result.records) / wall)
            self.hashes.append((index, result.result.result_hash()))
        return {
            "latencies_ms": latencies,
            "factors": factors,
            "attempted": len(latencies) + failed,
            "failed": failed,
            "figures": {"core.search.candidates_per_s": common.pct(rates, 50)},
            "peak_rss_mb": common.peak_rss_mb(),
            "ops": op_ids,
        }

    def verify(self) -> int:
        """Re-run the first spec; it, and every spec run twice, must repeat its hash."""
        if not self.hashes:
            return 0
        index, _ = self.hashes[0]
        result, _ = self._run(index)
        runs = self.hashes + [(index, result.result.result_hash())]
        failed = 0
        for spec in sorted({i for i, _ in runs}):
            hashes = [h for i, h in runs if i == spec]
            if len(set(hashes)) > 1:
                print(f"# spec {spec} gave different hashes: {hashes}")
                failed += len(hashes) - 1
        return failed

    def layers(self, tracer, traced: Dict[str, object], plain: Dict[str, object]):
        return pipeline_layers(tracer, set(traced["ops"]))

    def close(self) -> None:
        pass


def pipeline_layers(tracer, ops) -> Dict[str, float]:
    """Per-op means of the search-side layers (shared with ``master``)."""
    n = max(len(ops), 1)
    totals = tracer.layer_totals(ops)

    def ms(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0) * 1000.0 / n

    def count(name: str) -> float:
        return totals.get(name, {}).get("count", 0) / n

    fused, autograd = count("core.search.fused"), count("core.search.autograd")
    root = [s for s in tracer.spans_named("api.pipeline.run") if s.op in ops]
    wall = sum(s.end - s.start for s in root)
    return {
        "data.build_ms": ms("data.build"),
        "zoo.train_model_ms": ms("zoo.train_model"),
        "zoo.train_model_calls": totals.get("zoo.train_model", {}).get("calls", 0) / n,
        "core.search.fused_ms": ms("core.search.fused"),
        "core.search.fused_heads": fused,
        "core.search.autograd_ms": ms("core.search.autograd"),
        "core.search.autograd_heads": autograd,
        "core.search.fused_share": fused / (fused + autograd) if fused + autograd else 0.0,
        "core.search.fused_share_base": fused + autograd,
        "core.search.body_cache_ms": ms("core.search.body_cache"),
        "core.search.body_cache_hit_ratio": _hit_ratio(tracer),
        "fairness.engine_ms": ms("fairness.engine"),
        "core.reward_ms": ms("core.reward"),
        "core.controller_ms": ms("core.controller"),
        "api.pipeline.finalize_ms": ms("api.pipeline.finalize"),
        "zoo.persistence.write_ms": ms("zoo.persistence.write"),
        "api.pipeline.unattributed_ms": ms("api.pipeline.run"),
        "api.pipeline.unattributed_share": (
            totals.get("api.pipeline.run", {}).get("self_s", 0.0) / wall if wall else 0.0
        ),
    }


def _hit_ratio(tracer) -> float:
    hits = lookups = 0
    for cache in tracer.seen.get("core.search.body_cache", {}).values():
        stats = cache.stats()
        hits += stats["hits"] + stats["concat_hits"]
        lookups += stats["hits"] + stats["concat_hits"] + stats["misses"] + stats["concat_misses"]
    return hits / lookups if lookups else 0.0

