"""The metrics half of repro.obs: instruments, rendering, discipline."""

from __future__ import annotations

import math

import pytest

from repro.obs import (
    METRICS,
    DEFAULT_LATENCY_BUCKETS_MS,
    LabelCardinalityError,
    MetricsError,
    MetricsRegistry,
)
from repro.registry import UnknownComponentError


@pytest.fixture
def registry():
    return MetricsRegistry(enabled=True)


# ----------------------------------------------------------------------
# Counters and gauges
# ----------------------------------------------------------------------
class TestCounter:
    def test_inc_accumulates_per_label_set(self, registry):
        counter = registry.counter("jobs_total", "Jobs.", labelnames=("status",))
        counter.inc(status="ok")
        counter.inc(2.0, status="ok")
        counter.inc(status="failed")
        assert counter.value(status="ok") == 3.0
        assert counter.value(status="failed") == 1.0

    def test_unobserved_series_reads_zero(self, registry):
        counter = registry.counter("jobs_total", "Jobs.", labelnames=("status",))
        assert counter.value(status="never-seen") == 0.0

    def test_negative_increment_is_rejected(self, registry):
        counter = registry.counter("jobs_total")
        with pytest.raises(MetricsError, match="cannot decrease"):
            counter.inc(-1.0)

    def test_label_set_mismatch_is_rejected(self, registry):
        counter = registry.counter("jobs_total", labelnames=("status",))
        with pytest.raises(MetricsError, match="declares labels"):
            counter.inc(outcome="ok")


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("depth")
        gauge.set(5.0)
        gauge.inc(2.0)
        gauge.dec(4.0)
        assert gauge.value() == 3.0


# ----------------------------------------------------------------------
# Histogram edge cases (satellite: empty / single / boundary / cardinality)
# ----------------------------------------------------------------------
class TestHistogramEdgeCases:
    def test_empty_histogram_quantiles_are_none(self, registry):
        hist = registry.histogram("latency", buckets=(1.0, 5.0, 10.0))
        assert hist.summary() == {
            "count": 0,
            "sum": 0.0,
            "p50": None,
            "p95": None,
            "p99": None,
        }

    def test_single_observation(self, registry):
        hist = registry.histogram("latency", buckets=(1.0, 5.0, 10.0))
        hist.observe(3.0)
        summary = hist.summary()
        assert summary["count"] == 1
        assert summary["sum"] == 3.0
        # the lone observation sits in (1, 5]; every quantile lands there
        for q in ("p50", "p95", "p99"):
            assert 1.0 < summary[q] <= 5.0

    def test_bucket_boundary_is_upper_inclusive(self, registry):
        hist = registry.histogram("latency", buckets=(1.0, 5.0, 10.0))
        hist.observe(5.0)  # le semantics: lands in the 5.0 bucket, not 10.0
        labels, payload = hist.series()[0]
        assert payload["buckets"] == [0, 1, 0, 0]

    def test_overflow_lands_in_inf_bucket(self, registry):
        hist = registry.histogram("latency", buckets=(1.0, 5.0, 10.0))
        hist.observe(1e9)
        labels, payload = hist.series()[0]
        assert payload["buckets"] == [0, 0, 0, 1]
        # the +Inf bucket has no finite upper bound: report the last one
        assert hist.summary()["p50"] == 10.0

    def test_quantile_interpolation_is_deterministic(self, registry):
        hist = registry.histogram("latency", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 1.0, 4.0, 9.0, 20.0):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 5
        # rank 2.5 of 5 falls in the (1, 5] bucket: 1 + (2.5-2)/1 * 4 = 3.0
        assert summary["p50"] == pytest.approx(3.0)

    def test_label_cardinality_guard(self, registry):
        hist = registry.histogram("latency", labelnames=("who",))
        hist.max_label_sets = 2
        hist.observe(1.0, who="a")
        hist.observe(1.0, who="b")
        with pytest.raises(LabelCardinalityError) as excinfo:
            hist.observe(1.0, who="c")
        message = str(excinfo.value)
        assert "label-cardinality ceiling of 2" in message
        assert "span attributes" in message

    def test_bucket_bounds_must_increase(self, registry):
        with pytest.raises(MetricsError, match="strictly increasing"):
            registry.histogram("bad", buckets=(5.0, 1.0))
        with pytest.raises(MetricsError, match="at least one bucket"):
            registry.histogram("empty", buckets=())


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_declaration_is_get_or_create(self, registry):
        first = registry.counter("jobs_total", labelnames=("status",))
        second = registry.counter("jobs_total", labelnames=("status",))
        assert first is second

    def test_kind_mismatch_is_rejected(self, registry):
        registry.counter("jobs_total")
        with pytest.raises(MetricsError, match="already registered as counter"):
            registry.gauge("jobs_total")

    def test_label_schema_mismatch_is_rejected(self, registry):
        registry.counter("jobs_total", labelnames=("status",))
        with pytest.raises(MetricsError, match="already registered with labels"):
            registry.counter("jobs_total", labelnames=("outcome",))

    def test_bucket_mismatch_is_rejected(self, registry):
        registry.histogram("latency", buckets=(1.0, 2.0))
        with pytest.raises(MetricsError, match="already registered with buckets"):
            registry.histogram("latency", buckets=(1.0, 3.0))

    def test_unknown_metric_gets_did_you_mean(self, registry):
        registry.counter("repro_serve_requests_total")
        with pytest.raises(UnknownComponentError, match="did you mean"):
            registry.get("repro_serve_request_total")

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("jobs_total")
        hist = registry.histogram("latency", buckets=(1.0,))
        counter.inc()
        hist.observe(0.5)
        assert counter.value() == 0.0
        assert hist.summary()["count"] == 0
        assert counter.series() == []

    def test_reset_clears_series_but_keeps_declarations(self, registry):
        counter = registry.counter("jobs_total")
        counter.inc()
        registry.reset()
        assert counter.value() == 0.0
        assert "jobs_total" in registry


# ----------------------------------------------------------------------
# Exposition
# ----------------------------------------------------------------------
class TestExposition:
    def _populated(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter(
            "requests_total", "Requests served.", labelnames=("outcome",)
        )
        counter.inc(3, outcome="ok")
        counter.inc(1, outcome="error")
        hist = registry.histogram(
            "latency_ms", "Latency.", buckets=(1.0, 5.0, 10.0)
        )
        for value in (0.5, 4.0, 12.0):
            hist.observe(value)
        return registry

    def test_prometheus_text_structure(self):
        text = self._populated().render_prometheus()
        lines = text.splitlines()
        assert "# HELP requests_total Requests served." in lines
        assert "# TYPE requests_total counter" in lines
        assert 'requests_total{outcome="ok"} 3.0' in lines
        assert 'requests_total{outcome="error"} 1.0' in lines
        assert "# TYPE latency_ms histogram" in lines
        assert 'latency_ms_bucket{le="1.0"} 1' in lines
        assert 'latency_ms_bucket{le="5.0"} 2' in lines
        assert 'latency_ms_bucket{le="10.0"} 2' in lines
        assert 'latency_ms_bucket{le="+Inf"} 3' in lines
        assert "latency_ms_sum 16.5" in lines
        assert "latency_ms_count 3" in lines
        assert text.endswith("\n")

    def test_prometheus_buckets_are_cumulative_and_monotone(self):
        text = self._populated().render_prometheus()
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("latency_ms_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 3  # +Inf equals _count

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("odd_total", labelnames=("path",))
        counter.inc(path='a"b\\c\nd')
        text = registry.render_prometheus()
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_json_rendering(self):
        document = self._populated().render_json()
        assert document["requests_total"]["type"] == "counter"
        series = document["requests_total"]["series"]
        assert {"labels": {"outcome": "ok"}, "value": 3.0} in series
        hist = document["latency_ms"]["series"][0]
        assert hist["count"] == 3
        assert hist["buckets"]["+Inf"] == 3

    def test_empty_registry_renders_empty(self):
        registry = MetricsRegistry()
        assert registry.render_prometheus() == ""
        assert registry.render_json() == {}


# ----------------------------------------------------------------------
# The process-wide registry the instrumented modules declare against
# ----------------------------------------------------------------------
class TestProcessWideRegistry:
    def test_instrumented_modules_share_metric_families(self):
        # importing the layers declares their instruments on METRICS;
        # execution.py and master/worker.py redeclare the same executor
        # family, which get-or-create must unify rather than duplicate
        import repro.core.execution  # noqa: F401
        import repro.master.worker  # noqa: F401
        import repro.serve.server  # noqa: F401
        import repro.api.pipeline  # noqa: F401

        names = METRICS.names()
        for expected in (
            "repro_executor_tasks_total",
            "repro_executor_map_seconds",
            "repro_executor_queue_wait_seconds",
            "repro_pipeline_stages_total",
            "repro_pipeline_stage_seconds",
            "repro_serve_requests_total",
            "repro_serve_request_latency_ms",
            "repro_serve_batch_rows",
            "repro_serve_queue_depth",
            "repro_master_runs_total",
            "repro_master_queue_depth",
            "repro_distributed_supervision_total",
            "repro_distributed_task_bytes_total",
            "repro_search_batches_total",
            "repro_search_episodes_total",
        ):
            assert expected in names
        assert names.count("repro_executor_tasks_total") == 1

    def test_global_registry_is_disabled_by_default(self):
        assert METRICS.enabled is False

    def test_serve_latency_buckets_are_the_deterministic_defaults(self):
        hist = METRICS.get("repro_serve_request_latency_ms")
        assert hist.buckets == DEFAULT_LATENCY_BUCKETS_MS
        assert all(
            b > 0 and not math.isinf(b) and not math.isnan(b) for b in hist.buckets
        )
