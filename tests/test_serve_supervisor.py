"""Tests of the fault-tolerant shard pool: supervision, admission control,
deadlines, deterministic fault injection and graceful drain.

Everything here runs REPRO_TSAN-clean (the CI concurrency-check step
includes this file) — the pool, the shard generations and the monitor all
declare their shared-state contracts.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import FusedModel
from repro.serve import (
    DeadlineExceeded,
    FaultEvent,
    FaultPlan,
    InferenceFailed,
    InferenceResponse,
    InferenceServer,
    InjectedCrash,
    PoisonedRequest,
    ServeClient,
    ServeConfig,
    ServeHTTPServer,
    ServerClosed,
    ServerOverloaded,
    ShardState,
)
from repro.serve.faults import resolve_fault_plan
from repro.serve.supervisor import Completion, PendingRequest


@pytest.fixture(scope="module")
def bound_model(fused_model, serving_schema):
    """Schema-bound view of the shared fused model (body/head shared)."""
    return FusedModel(
        fused_model.body, fused_model.head, name=fused_model.name, schema=serving_schema
    )


@pytest.fixture(scope="module")
def serving_features(serving_schema, isic_split):
    return serving_schema.features(isic_split.test)


@pytest.fixture(scope="module")
def direct_predictions(bound_model, serving_features):
    return bound_model.predict_features(serving_features)


def make_server(bound_model, **overrides) -> InferenceServer:
    config = ServeConfig(
        **{"max_batch": 32, "log_every": 0, **overrides}
    )
    return InferenceServer(bound_model, config)


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ----------------------------------------------------------------------
# Request settlement
# ----------------------------------------------------------------------
class TestCompletion:
    """The one-shot signal every request settles through."""

    def test_set_releases_every_waiter(self):
        done = Completion()
        results = []
        waiters = [
            threading.Thread(target=lambda: results.append(done.wait(timeout=10)))
            for _ in range(4)
        ]
        for waiter in waiters:
            waiter.start()
        assert not done.is_set()
        done.set()
        done.set()  # idempotent
        for waiter in waiters:
            waiter.join(timeout=10)
        assert results == [True] * 4
        assert done.is_set() and done.wait() and done.wait(timeout=0)

    def test_unset_wait_times_out(self):
        done = Completion()
        assert done.wait(timeout=0) is False
        assert done.wait(timeout=-1) is False  # non-positive: never blocks
        start = time.perf_counter()
        assert done.wait(timeout=0.05) is False
        assert time.perf_counter() - start >= 0.04

    def test_pending_request_settles_once(self, serving_features):
        request = PendingRequest(
            features=serving_features[:1], groups={}, labels=None, enqueued_at=0.0
        )
        assert isinstance(request.done, Completion)
        assert request.fail(ServerClosed("closed"))
        assert not request.fail(ServerClosed("again"))
        assert request.done.wait(timeout=1)
        assert isinstance(request.error, ServerClosed) and request.response is None


class TestSettleHook:
    """``on_settle`` fires once per settled request, after the settle."""

    @staticmethod
    def _request(features, hook):
        return PendingRequest(
            features=features, groups={}, labels=None, enqueued_at=0.0, on_settle=hook
        )

    @staticmethod
    def _response():
        return InferenceResponse(
            predictions=np.zeros(1, dtype=np.int64),
            consensus_mask=np.ones(1, dtype=bool),
        )

    def test_finish_calls_the_hook_once(self, serving_features):
        calls = []
        request = self._request(serving_features[:1], calls.append)
        assert request.finish(self._response())
        assert calls == [request]
        assert not request.finish(self._response())
        assert not request.fail(ServerClosed("late"))
        assert calls == [request]

    def test_fail_calls_the_hook_once_and_a_late_finish_does_not(
        self, serving_features
    ):
        calls = []
        request = self._request(serving_features[:1], calls.append)
        assert request.fail(ServerClosed("closed"))
        # an abandoned shard's late answer loses and stays silent
        assert not request.finish(self._response())
        assert calls == [request]
        assert isinstance(request.error, ServerClosed) and request.response is None

    def test_hook_runs_settled_and_outside_the_settle_lock(self, serving_features):
        seen = []

        def hook(request):
            free = request._settle_lock.acquire(blocking=False)
            if free:
                request._settle_lock.release()
            seen.append((free, request.done.is_set()))

        self._request(serving_features[:1], hook).finish(self._response())
        self._request(serving_features[:1], hook).fail(ServerClosed("closed"))
        assert seen == [(True, True), (True, True)]

    def test_redispatched_request_calls_the_hook_once(
        self, bound_model, serving_features, direct_predictions
    ):
        plan = FaultPlan([FaultEvent(kind="crash_shard", shard=0, at_batch=0)])
        server = make_server(
            bound_model,
            num_shards=2,
            fault_plan=plan,
            restart_backoff_ms=10.0,
            supervise_interval_ms=5.0,
        )
        calls = []
        pending = [
            server.submit(serving_features[i : i + 1], on_settle=calls.append)
            for i in range(16)
        ]
        server.start()
        try:
            for i, request in enumerate(pending):
                assert request.done.wait(timeout=30), f"request {i} hung"
                assert request.error is None
                np.testing.assert_array_equal(
                    request.response.predictions, direct_predictions[i : i + 1]
                )
            # the hook runs just after done is set, on the settling thread
            assert wait_until(lambda: len(calls) == len(pending))
            assert sorted(map(id, calls)) == sorted(map(id, pending))
            assert any(request.redispatches for request in pending)
        finally:
            server.stop()


# ----------------------------------------------------------------------
# Sharding preserves answers
# ----------------------------------------------------------------------
class TestShardedIdentity:
    def test_two_shards_answer_bit_identically(
        self, bound_model, serving_features, direct_predictions
    ):
        """The acceptance bar: sharding changes capacity, never answers."""
        with make_server(bound_model, num_shards=2) as server:
            client = ServeClient(server)
            for start in range(0, 60, 6):
                rows = slice(start, start + 6)
                response = client.predict(serving_features[rows])
                np.testing.assert_array_equal(
                    response.predictions, direct_predictions[rows]
                )
                np.testing.assert_array_equal(
                    response.probabilities,
                    bound_model.predict_detailed_features(
                        serving_features[rows]
                    ).probabilities,
                )
        assert server.requests_served == 10

    def test_replicas_are_copies_not_aliases(self, bound_model):
        with make_server(bound_model, num_shards=3) as server:
            shards = server.shards
            assert len(shards) == 3
            assert shards[0].model is bound_model  # slot 0 serves the original
            assert shards[1].model is not bound_model
            assert shards[2].model is not shards[1].model

    def test_concurrent_burst_spreads_over_shards(
        self, bound_model, serving_features, direct_predictions
    ):
        server = make_server(bound_model, num_shards=2)
        pending = [server.submit(serving_features[i : i + 1]) for i in range(24)]
        server.start()
        for i, request in enumerate(pending):
            assert request.done.wait(timeout=30)
            assert request.error is None
            np.testing.assert_array_equal(
                request.response.predictions, direct_predictions[i : i + 1]
            )
        server.stop()
        # least-loaded dispatch on a cold burst alternates the two queues
        per_shard = [s["requests"] for s in server.stats()["shards"]]
        assert sum(per_shard) == 24
        assert all(count > 0 for count in per_shard)


# ----------------------------------------------------------------------
# Typed admission errors
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_submit_after_stop_raises_server_closed(
        self, bound_model, serving_features
    ):
        server = make_server(bound_model).start()
        server.stop()
        with pytest.raises(ServerClosed, match="shutting down"):
            server.submit(serving_features[:1])

    def test_overload_rejects_immediately_with_retry_after(
        self, bound_model, serving_features
    ):
        # not started: nothing drains, so the bounded queue fills at once
        server = make_server(bound_model, queue_depth=4, retry_after_s=2.5)
        for i in range(4):
            server.submit(serving_features[i : i + 1])
        began = time.perf_counter()
        with pytest.raises(ServerOverloaded) as err:
            server.submit(serving_features[:1])
        elapsed_ms = (time.perf_counter() - began) * 1000.0
        assert elapsed_ms < 50.0  # shed synchronously, never queued-and-hoped
        assert err.value.retry_after == 2.5
        assert server.stats()["shed"]["overload"] == 1
        server.start()  # the four accepted requests still complete
        server.stop()
        assert server.requests_served == 4

    def test_healthy_traffic_survives_an_overload_burst(
        self, bound_model, serving_features, direct_predictions
    ):
        with make_server(bound_model, queue_depth=8) as server:
            client = ServeClient(server)
            outcomes = {"ok": 0, "shed": 0}
            for i in range(40):
                try:
                    response = client.predict(serving_features[i : i + 1])
                except ServerOverloaded:
                    outcomes["shed"] += 1
                else:
                    outcomes["ok"] += 1
                    np.testing.assert_array_equal(
                        response.predictions, direct_predictions[i : i + 1]
                    )
            assert outcomes["ok"] == 40  # synchronous callers never overrun depth 8

    def test_deadline_expired_before_admission(self, bound_model, serving_features):
        server = make_server(bound_model)
        with pytest.raises(ValueError, match="deadline_ms must be positive"):
            server.submit(serving_features[:1], deadline_ms=-1.0)

    def test_expired_requests_are_shed_before_forward(
        self, bound_model, serving_features
    ):
        # queue a tight-deadline request on a *stopped* server, wait past the
        # deadline, then start: the batcher must shed it, not serve it late
        server = make_server(bound_model)
        doomed = server.submit(serving_features[:1], deadline_ms=10.0)
        healthy = server.submit(serving_features[1:2])
        time.sleep(0.05)
        server.start()
        assert doomed.done.wait(timeout=10)
        assert isinstance(doomed.error, DeadlineExceeded)
        assert healthy.done.wait(timeout=10)
        assert healthy.error is None
        server.stop()
        assert server.stats()["shed"]["deadline"] == 1

    def test_default_deadline_from_config(self, bound_model, serving_features):
        server = make_server(bound_model, default_deadline_ms=10.0)
        doomed = server.submit(serving_features[:1])
        assert doomed.deadline_at is not None
        time.sleep(0.05)
        server.start()
        assert doomed.done.wait(timeout=10)
        assert isinstance(doomed.error, DeadlineExceeded)
        server.stop()


# ----------------------------------------------------------------------
# Fault injection: crash, poison, delay
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_crash_mid_batch_redispatches_to_healthy_shard(
        self, bound_model, serving_features, direct_predictions
    ):
        """The headline acceptance criterion: a shard dies mid-batch, every
        accepted request still completes bit-identically, zero hung futures."""
        plan = FaultPlan([FaultEvent(kind="crash_shard", shard=0, at_batch=0)])
        server = make_server(
            bound_model,
            num_shards=2,
            fault_plan=plan,
            restart_backoff_ms=10.0,
            supervise_interval_ms=5.0,
        )
        pending = [server.submit(serving_features[i : i + 1]) for i in range(16)]
        server.start()
        for i, request in enumerate(pending):
            assert request.done.wait(timeout=30), f"request {i} hung"
            assert request.error is None, f"request {i} failed: {request.error!r}"
            np.testing.assert_array_equal(
                request.response.predictions, direct_predictions[i : i + 1]
            )
        stats = server.stats()
        assert stats["restarts"] >= 1
        assert stats["redispatched"] >= 1
        # the crashed slot came back as generation 1+
        assert wait_until(
            lambda: any(s["generation"] >= 1 for s in server.stats()["shards"])
        )
        server.stop()

    def test_restart_is_counted_before_any_request_is_redispatched(
        self, bound_model, serving_features, direct_predictions
    ):
        """Regression: the crash used to be counted by the supervisor thread
        after the dying shard had re-dispatched its requests, so a caller
        woken by one could still read ``restarts == 0``."""
        plan = FaultPlan([FaultEvent(kind="crash_shard", shard=0, at_batch=1)])
        server = make_server(
            bound_model,
            num_shards=2,
            max_batch=8,
            queue_depth=64,
            fault_plan=plan,
            restart_backoff_ms=20.0,
            supervise_interval_ms=10.0,
        )
        pool = server.pool
        original_redispatch = pool._redispatch
        at_redispatch, at_settle = [], []

        def redispatch(crashed, request, exc):
            at_redispatch.append(server.stats()["restarts"])
            original_finish = request.finish

            def finish(response, on_win=None):
                at_settle.append(server.stats()["restarts"])
                return original_finish(response, on_win=on_win)

            request.finish = finish
            original_redispatch(crashed, request, exc)

        pool._redispatch = redispatch
        pending = [server.submit(serving_features[i : i + 1]) for i in range(32)]
        server.start()
        for i, request in enumerate(pending):
            assert request.done.wait(timeout=30), f"request {i} hung"
            assert request.error is None, f"request {i} failed: {request.error!r}"
            np.testing.assert_array_equal(
                request.response.predictions, direct_predictions[i : i + 1]
            )
        server.stop()
        assert at_redispatch and at_settle
        assert at_redispatch == [1] * len(at_redispatch)
        assert at_settle == [1] * len(at_settle)

    def test_single_shard_crash_restarts_and_serves_backlog(
        self, bound_model, serving_features, direct_predictions
    ):
        """With nowhere to re-dispatch, the slot's own queue survives the
        restart and the replacement generation serves the backlog."""
        plan = FaultPlan([FaultEvent(kind="crash_shard", shard=0, at_batch=0)])
        server = make_server(
            bound_model,
            num_shards=1,
            fault_plan=plan,
            restart_backoff_ms=10.0,
            supervise_interval_ms=5.0,
        )
        pending = [server.submit(serving_features[i : i + 1]) for i in range(8)]
        server.start()
        for i, request in enumerate(pending):
            assert request.done.wait(timeout=30), f"request {i} hung"
            assert request.error is None
            np.testing.assert_array_equal(
                request.response.predictions, direct_predictions[i : i + 1]
            )
        assert server.stats()["restarts"] == 1
        server.stop()

    def test_redispatch_budget_fails_fast_with_typed_error(
        self, bound_model, serving_features
    ):
        plan = FaultPlan([FaultEvent(kind="crash_shard", shard=0, at_batch=0)])
        server = make_server(
            bound_model,
            num_shards=1,
            fault_plan=plan,
            max_redispatch=0,
            restart_backoff_ms=10.0,
            supervise_interval_ms=5.0,
        )
        request = server.submit(serving_features[:1])
        server.start()
        assert request.done.wait(timeout=30)
        assert isinstance(request.error, InferenceFailed)
        assert "re-dispatch budget" in str(request.error)
        server.stop()

    def test_poisoned_request_is_isolated_by_bisection(
        self, bound_model, serving_features, direct_predictions
    ):
        plan = FaultPlan([FaultEvent(kind="poison_request", at_request=3)])
        server = make_server(bound_model, fault_plan=plan)
        pending = [server.submit(serving_features[i : i + 1]) for i in range(8)]
        server.start()
        for i, request in enumerate(pending):
            assert request.done.wait(timeout=30)
            if i == 3:
                # the typed-error contract: isolated forward failures surface
                # as InferenceFailed chaining the original exception
                assert isinstance(request.error, InferenceFailed)
                assert isinstance(request.error.__cause__, PoisonedRequest)
            else:
                assert request.error is None, f"request {i}: {request.error!r}"
                np.testing.assert_array_equal(
                    request.response.predictions, direct_predictions[i : i + 1]
                )
        server.stop()
        assert server.errors == 1
        assert server.stats()["restarts"] == 0  # a poison is not a crash

    def test_delay_fault_drives_the_suspect_transition(
        self, bound_model, serving_features
    ):
        plan = FaultPlan(
            [FaultEvent(kind="delay_forward", shard=0, at_batch=0, ms=400.0)]
        )
        server = make_server(
            bound_model,
            fault_plan=plan,
            heartbeat_interval_ms=10.0,
            supervise_interval_ms=10.0,
            suspect_after_ms=100.0,
            restart_after_ms=30000.0,
        )
        seen_states = set()

        def record():
            for shard in server.stats()["shards"]:
                seen_states.add(shard["state"])
            return ShardState.SUSPECT in seen_states

        server.start()
        request = server.submit(serving_features[:1])
        assert wait_until(record, timeout=5.0, interval=0.02)
        assert request.done.wait(timeout=30)
        assert request.error is None
        # and it recovers: the next heartbeat flips it back to healthy
        assert wait_until(
            lambda: server.stats()["shards"][0]["state"] == ShardState.HEALTHY
        )
        server.stop()

    def test_hung_shard_is_force_restarted(self, bound_model, serving_features):
        plan = FaultPlan(
            [FaultEvent(kind="delay_forward", shard=0, at_batch=0, ms=2000.0)]
        )
        server = make_server(
            bound_model,
            fault_plan=plan,
            heartbeat_interval_ms=10.0,
            supervise_interval_ms=10.0,
            suspect_after_ms=50.0,
            restart_after_ms=150.0,
            restart_backoff_ms=10.0,
        )
        server.start()
        stuck = server.submit(serving_features[:1])
        assert stuck.done.wait(timeout=10)
        assert isinstance(stuck.error, InferenceFailed)
        assert "unresponsive" in str(stuck.error)
        # the replacement generation serves fresh traffic (batch index moved
        # past the planned delay, so no further fault fires)
        assert wait_until(
            lambda: server.stats()["shards"][0]["generation"] >= 1, timeout=10.0
        )
        fresh = server.submit(serving_features[1:2])
        assert fresh.done.wait(timeout=30)
        assert fresh.error is None
        server.stop()

    def test_admission_during_hang_restart_backoff_is_served(
        self, bound_model, serving_features, direct_predictions
    ):
        # Regression: a hang-restart swaps the slot's queue while the old
        # shard object lingers in RESTARTING until its backoff elapses.  A
        # request admitted in that window must land on the fresh queue the
        # replacement will own — on the abandoned zombie's queue it would
        # hang forever (worst with num_shards=1, where there is no fallback).
        plan = FaultPlan(
            [FaultEvent(kind="delay_forward", shard=0, at_batch=0, ms=2000.0)]
        )
        server = make_server(
            bound_model,
            num_shards=1,
            fault_plan=plan,
            heartbeat_interval_ms=10.0,
            supervise_interval_ms=10.0,
            suspect_after_ms=50.0,
            restart_after_ms=150.0,
            restart_backoff_ms=750.0,
        )
        events = []
        original_event = server.pool.logger.event

        def recording_event(name, **fields):
            events.append((name, fields))
            original_event(name, **fields)

        server.pool.logger.event = recording_event
        server.start()
        stuck = server.submit(serving_features[:1])
        assert stuck.done.wait(timeout=10)  # failed by the force-restart
        assert isinstance(stuck.error, InferenceFailed)
        assert wait_until(
            lambda: server.stats()["shards"][0]["state"] == ShardState.RESTARTING,
            timeout=10.0,
        )
        during_backoff = server.submit(serving_features[1:2])
        assert during_backoff.done.wait(
            timeout=30
        ), "request admitted during the restart backoff window hung"
        assert during_backoff.error is None
        np.testing.assert_array_equal(
            during_backoff.response.predictions, direct_predictions[1:2]
        )
        assert server.stats()["restarts"] == 1
        # the structured log attributes the restart to the hang, not a crash
        restarted = [fields for name, fields in events if name == "shard-restarted"]
        assert restarted and restarted[0]["cause"] == "hang"
        server.stop()

    def test_breaker_forgives_a_slot_after_healthy_uptime(
        self, bound_model, serving_features
    ):
        # the circuit breaker measures crash frequency, not lifetime total:
        # a slot that stays healthy for breaker_reset_ms gets its crash
        # count back, while the pool-level cumulative restart total survives
        plan = FaultPlan([FaultEvent(kind="crash_shard", shard=0, at_batch=0)])
        server = make_server(
            bound_model,
            num_shards=1,
            fault_plan=plan,
            restart_backoff_ms=10.0,
            supervise_interval_ms=10.0,
            heartbeat_interval_ms=10.0,
            breaker_reset_ms=150.0,
        )
        request = server.submit(serving_features[:1])
        server.start()
        assert request.done.wait(timeout=30)
        assert request.error is None  # re-dispatched to the replacement
        assert server.stats()["restarts"] == 1
        assert wait_until(
            lambda: server.stats()["shards"][0]["restarts"] == 0, timeout=10.0
        ), "healthy uptime never reset the slot's breaker window"
        assert server.stats()["restarts"] == 1  # cumulative total is untouched
        server.stop()

    def test_circuit_breaker_stops_a_crash_looping_slot(
        self, bound_model, serving_features
    ):
        # crash every generation's first batch; with max_restarts=1 the slot
        # crashes, restarts once, crashes again and the breaker opens
        plan = FaultPlan(
            [
                FaultEvent(kind="crash_shard", shard=0, at_batch=0),
                FaultEvent(kind="crash_shard", shard=0, at_batch=1),
            ]
        )
        server = make_server(
            bound_model,
            num_shards=1,
            fault_plan=plan,
            max_redispatch=5,
            max_restarts=1,
            restart_backoff_ms=5.0,
            supervise_interval_ms=5.0,
        )
        request = server.submit(serving_features[:1])
        server.start()
        assert request.done.wait(timeout=30)
        assert request.error is not None  # failed fast, not hung
        assert wait_until(
            lambda: server.stats()["shards"][0]["state"] == ShardState.STOPPED
        )
        with pytest.raises(ServerClosed, match="circuit breaker"):
            server.submit(serving_features[:1])
        server.stop()

    def test_fault_plan_round_trips_through_json(self):
        plan = FaultPlan(
            [
                FaultEvent(kind="crash_shard", shard=1, at_batch=7),
                FaultEvent(kind="delay_forward", at_batch=2, ms=15.0, jitter=0.5),
                FaultEvent(kind="poison_request", at_request=42),
            ],
            seed=2023,
        )
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.to_dict() == plan.to_dict()
        assert clone.poisons(42) and not clone.poisons(41)
        # jittered delay is a pure function of (seed, shard, batch)
        assert clone.delay_seconds(0, 2) == plan.delay_seconds(0, 2)
        assert 0.0075 <= clone.delay_seconds(0, 2) <= 0.0225
        with pytest.raises(InjectedCrash, match="crash_shard"):
            clone.check_batch(1, 7)

    def test_config_resolves_plan_from_dict_and_rejects_garbage(self):
        config = ServeConfig(
            fault_plan={"seed": 1, "events": [{"kind": "poison_request", "at_request": 0}]}
        )
        assert isinstance(config.fault_plan, FaultPlan)
        assert resolve_fault_plan(None) is None
        with pytest.raises(ValueError, match="unknown fault kind"):
            ServeConfig(fault_plan={"events": [{"kind": "set_on_fire"}]})


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
class TestGracefulDrain:
    def test_drain_completes_every_accepted_request_bit_identically(
        self, bound_model, serving_features, direct_predictions
    ):
        server = make_server(bound_model, num_shards=2)
        pending = [server.submit(serving_features[i : i + 1]) for i in range(20)]
        server.start()
        server.stop()  # drain: nothing accepted may be lost
        for i, request in enumerate(pending):
            assert request.done.is_set(), f"request {i} not settled after drain"
            assert request.error is None, f"request {i} failed: {request.error!r}"
            np.testing.assert_array_equal(
                request.response.predictions, direct_predictions[i : i + 1]
            )
        assert server.requests_served == 20

    def test_post_drain_submit_rejected_fast(self, bound_model, serving_features):
        server = make_server(bound_model).start()
        server.stop()
        began = time.perf_counter()
        with pytest.raises(ServerClosed):
            server.submit(serving_features[:1])
        assert (time.perf_counter() - began) * 1000.0 < 50.0

    def test_stop_timeout_is_honored_and_nothing_hangs(
        self, bound_model, serving_features
    ):
        # a 5s injected stall outlives stop(timeout=0.3): stop must return
        # promptly and fail (not hang) whatever could not drain
        plan = FaultPlan(
            [FaultEvent(kind="delay_forward", shard=0, at_batch=0, ms=5000.0)]
        )
        server = make_server(
            bound_model, fault_plan=plan, restart_after_ms=60000.0
        ).start()
        stuck = server.submit(serving_features[:1])
        queued = server.submit(serving_features[1:2])
        time.sleep(0.05)  # let the worker pick the first request up
        began = time.monotonic()
        server.stop(timeout=0.3)
        assert time.monotonic() - began < 3.0
        assert stuck.done.is_set() and queued.done.is_set()  # zero hung futures
        assert isinstance(stuck.error, ServerClosed)
        assert isinstance(queued.error, ServerClosed)

    def test_stop_is_idempotent_and_unstarted_stop_is_safe(self, bound_model):
        server = make_server(bound_model)
        server.stop()
        server.stop()
        with pytest.raises(ServerClosed):
            server.start()


# ----------------------------------------------------------------------
# HTTP status mapping
# ----------------------------------------------------------------------
class TestHTTPErrorMapping:
    def _post(self, httpd, payload):
        host, port = httpd.address
        request = urllib.request.Request(
            f"http://{host}:{port}/predict",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())

    def test_overload_maps_to_429_with_retry_after(
        self, bound_model, serving_features
    ):
        server = make_server(bound_model, queue_depth=1, retry_after_s=3.0)
        httpd = ServeHTTPServer(server, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        # fill the only queue slot while the batcher is parked, then ask again
        server.submit(serving_features[:1])
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                self._post(httpd, {"features": serving_features[1:2].tolist()})
            assert err.value.code == 429
            assert err.value.headers["Retry-After"] == "3"
            body = json.loads(err.value.read())
            assert "rejected without queuing" in body["error"]
            assert body["retry_after_s"] == 3.0
        finally:
            httpd.shutdown()
            httpd.server_close()
            server.stop(timeout=0.2)  # never started: the backlog fails fast

    def test_closed_maps_to_503(self, bound_model, serving_features):
        server = make_server(bound_model).start()
        httpd = ServeHTTPServer(server, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            server.stop()
            with pytest.raises(urllib.error.HTTPError) as err:
                self._post(httpd, {"features": serving_features[:1].tolist()})
            assert err.value.code == 503
            assert "shutting down" in json.loads(err.value.read())["error"]
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_deadline_maps_to_504(self, bound_model, serving_features):
        plan = FaultPlan(
            [FaultEvent(kind="delay_forward", shard=0, at_batch=0, ms=300.0)]
        )
        server = make_server(
            bound_model, fault_plan=plan, restart_after_ms=60000.0
        )
        with ServeHTTPServer(server, port=0) as httpd:
            # the stalled first batch holds the worker; the second request's
            # 50ms deadline expires while it waits in the queue
            stalled = server.submit(serving_features[:1])
            time.sleep(0.02)
            with pytest.raises(urllib.error.HTTPError) as err:
                self._post(
                    httpd,
                    {
                        "features": serving_features[1:2].tolist(),
                        "deadline_ms": 50.0,
                    },
                )
            assert err.value.code == 504
            assert "deadline" in json.loads(err.value.read())["error"]
            assert stalled.done.wait(timeout=10)

    def test_healthz_reports_shard_states(self, bound_model):
        server = make_server(bound_model, num_shards=2)
        with ServeHTTPServer(server, port=0) as httpd:
            host, port = httpd.address
            with urllib.request.urlopen(
                f"http://{host}:{port}/healthz", timeout=30
            ) as response:
                payload = json.loads(response.read())
            assert [s["slot"] for s in payload["shards"]] == [0, 1]
            assert all(
                s["state"]
                in (ShardState.STARTING, ShardState.HEALTHY, ShardState.SUSPECT)
                for s in payload["shards"]
            )

    def test_bad_deadline_type_is_400(self, bound_model, serving_features):
        server = make_server(bound_model)
        with ServeHTTPServer(server, port=0) as httpd:
            with pytest.raises(urllib.error.HTTPError) as err:
                self._post(
                    httpd,
                    {
                        "features": serving_features[:1].tolist(),
                        "deadline_ms": "soon",
                    },
                )
            assert err.value.code == 400
