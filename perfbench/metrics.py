"""The benchmark's metric table: names, units, directions and bounds.

``BENCHMARK.json`` at the repository root lists the same names; the
benchmark's self test checks that the two agree.
"""

#: (name, unit, better, bound) — printed by every workload with --trace 0
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit, better, workloads that reach it) — printed with --trace 1;
#: a workload that never reaches a layer prints 0 for it
PER_LAYER = (
    ("data.build_ms", "ms", "lower", "pipeline master"),
    ("zoo.train_model_ms", "ms", "lower", "pipeline master"),
    ("zoo.train_model_calls", "count", "lower", "pipeline master"),
    ("core.search.fused_ms", "ms", "lower", "pipeline master"),
    ("core.search.fused_heads", "count", "higher", "pipeline master"),
    ("core.search.autograd_ms", "ms", "lower", "pipeline master"),
    ("core.search.autograd_heads", "count", "lower", "pipeline master"),
    ("core.search.fused_share", "ratio", "higher", "pipeline master"),
    ("core.search.fused_share_base", "count", "higher", "pipeline master"),
    ("core.search.candidates_per_s", "1/s", "higher", "pipeline master"),
    ("core.search.body_cache_ms", "ms", "lower", "pipeline master"),
    ("core.search.body_cache_hit_ratio", "ratio", "higher", "pipeline master"),
    ("fairness.engine_ms", "ms", "lower", "pipeline master"),
    ("core.reward_ms", "ms", "lower", "pipeline master"),
    ("core.controller_ms", "ms", "lower", "pipeline master"),
    ("api.pipeline.finalize_ms", "ms", "lower", "pipeline master"),
    ("zoo.persistence.write_ms", "ms", "lower", "pipeline master"),
    ("api.pipeline.unattributed_ms", "ms", "lower", "pipeline master"),
    ("api.pipeline.unattributed_share", "ratio", "lower", "pipeline master"),
    ("master.submit_ms", "ms", "lower", "master"),
    ("master.queue_wait_ms", "ms", "lower", "master"),
    ("master.run_ms", "ms", "lower", "master"),
    ("core.execution.map_ms", "ms", "lower", "master"),
    ("master.observe_lag_ms", "ms", "lower", "master"),
    ("serve.submit_ms", "ms", "lower", "serve-open"),
    ("serve.queue_wait_ms", "ms", "lower", "serve-open"),
    ("core.fusing.forward_ms", "ms", "lower", "serve-open"),
    ("core.fusing.members_ms", "ms", "lower", "serve-open"),
    ("serve.monitor_ms", "ms", "lower", "serve-open"),
    ("serve.settle_ms", "ms", "lower", "serve-open"),
    ("serve.batch_rows_mean", "rows", "higher", "serve-open serve-http"),
    ("serve.batches", "count", "lower", "serve-open serve-http"),
    ("serve.refused", "count", "lower", "serve-open"),
    ("serve.gen_late_p99_ms", "ms", "lower", "serve-open"),
    ("serve.p50_ms_hi", "ms", "lower", "serve-open"),
    ("serve.p90_ms_hi", "ms", "lower", "serve-open"),
    ("serve.bulk_p50_ms", "ms", "lower", "serve-open"),
    ("serve.max_rate_ok_per_s", "1/s", "higher", "serve-open"),
    ("serve.capacity_per_s", "1/s", "higher", "serve-open"),
    ("serve.http.throughput_per_s", "1/s", "higher", "serve-http"),
    ("serve.http.server_ms", "ms", "lower", "serve-http"),
    ("serve.http.overhead_ms", "ms", "lower", "serve-http"),
    ("serve.http.connect_ms", "ms", "lower", "serve-http"),
    ("trace.overhead_ms", "ms", "lower", "pipeline master serve-open serve-http"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
