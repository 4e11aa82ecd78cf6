"""DistributedExecutor tests: bit-identity with serial, worker supervision
and crash recovery."""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import (
    ExecutorWorkerError,
    HeadTrainConfig,
    MuffinSearch,
    SearchConfig,
)
from repro.core.execution import EXECUTORS, build_executor
from repro.master.worker import (
    DistributedExecutor,
    die_task,
    echo_task,
    failing_task,
    slow_echo_task,
)


def _search(pool, **config_overrides):
    config = dict(episodes=6, episode_batch=3, seed=0)
    config.update(config_overrides)
    return MuffinSearch(
        pool,
        attributes=["age", "site"],
        base_model="MobileNet_V3_Small",
        search_config=SearchConfig(**config),
        # use_fused=False forces every head through the executor (the fused
        # ReLU fast path would otherwise train in-process and bypass it).
        head_config=HeadTrainConfig(epochs=4, seed=0, use_fused=False),
    )


class TestRegistry:
    def test_distributed_is_registered(self):
        assert "distributed" in EXECUTORS.names()
        executor = build_executor("distributed", max_workers=2)
        assert isinstance(executor, DistributedExecutor)
        executor.shutdown()

    def test_distributed_only_options_filtered_for_others(self):
        # The distributed knobs ride through configs without breaking the
        # serial executor, which simply ignores them.
        executor = build_executor("serial", task_retries=5, heartbeat_seconds=0.1)
        assert executor.map(abs, [-1, 2]) == [1, 2]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DistributedExecutor(max_workers=0)
        with pytest.raises(ValueError):
            DistributedExecutor(task_retries=-1)
        with pytest.raises(ValueError):
            DistributedExecutor(heartbeat_seconds=0)


class TestMapSemantics:
    def test_order_and_bits_preserved(self):
        rng = np.random.default_rng(3)
        payloads = [{"i": i, "x": rng.normal(size=(5, 3))} for i in range(8)]
        with DistributedExecutor(max_workers=2) as executor:
            results = executor.map(echo_task, payloads)
        assert [r["i"] for r in results] == list(range(8))
        for sent, received in zip(payloads, results):
            assert received["x"].dtype == sent["x"].dtype
            np.testing.assert_array_equal(received["x"], sent["x"])

    def test_single_item_runs_inline(self):
        with DistributedExecutor(max_workers=4) as executor:
            assert executor.map(echo_task, [{"only": 1}]) == [{"only": 1}]
            assert executor._workers == []  # no subprocess was spawned

    def test_workers_reused_across_maps(self):
        with DistributedExecutor(max_workers=2) as executor:
            executor.map(echo_task, [1, 2, 3])
            pids = [w.pid for w in executor._workers]
            executor.map(echo_task, [4, 5, 6])
            assert [w.pid for w in executor._workers] == pids
            assert executor.worker_restarts == 0

    def test_task_exception_propagates_with_remote_traceback(self):
        with DistributedExecutor(max_workers=2) as executor:
            with pytest.raises(ExecutorWorkerError, match="failing_task failed on purpose"):
                executor.map(failing_task, ["a", "b"])

    def test_executor_recovers_after_task_error(self):
        with DistributedExecutor(max_workers=2) as executor:
            with pytest.raises(ExecutorWorkerError):
                executor.map(failing_task, [1, 2])
            assert executor.map(echo_task, [7, 8, 9]) == [7, 8, 9]


class TestSupervision:
    def test_sigkilled_worker_is_restarted_and_task_requeued(self):
        payloads = [{"i": i, "sleep": 0.6} for i in range(4)]
        with DistributedExecutor(max_workers=2, heartbeat_seconds=0.1) as executor:
            executor.map(echo_task, [0, 1])  # warm up the worker pool
            victim_pid = executor._workers[0].process.pid
            results = {}

            def run_map():
                results["value"] = executor.map(slow_echo_task, payloads)

            thread = threading.Thread(target=run_map)
            thread.start()
            time.sleep(0.3)  # both workers are now mid-task
            os.kill(victim_pid, signal.SIGKILL)
            thread.join(timeout=60.0)
            assert not thread.is_alive()
            assert [r["i"] for r in results["value"]] == [0, 1, 2, 3]
            assert executor.worker_restarts >= 1
            assert executor.tasks_requeued >= 1
            # The pool is healthy again afterwards.
            assert executor.map(echo_task, list(range(3))) == [0, 1, 2]

    def test_repeated_crashes_exhaust_retries(self):
        with DistributedExecutor(max_workers=2, task_retries=2) as executor:
            with pytest.raises(ExecutorWorkerError, match="task_retries"):
                executor.map(die_task, [0, 1])
            assert executor.tasks_requeued >= 3  # initial + 2 retries for one task

    def test_crash_error_names_serial_fallback(self):
        with DistributedExecutor(max_workers=2, task_retries=0) as executor:
            with pytest.raises(ExecutorWorkerError, match="--executor serial"):
                executor.map(die_task, [0, 1])


class TestSearchBitIdentity:
    @pytest.mark.parametrize("candidate_seeds", ["episode", "derived"])
    def test_distributed_matches_serial_bit_exactly(self, pool, candidate_seeds):
        serial = _search(pool, executor="serial", candidate_seeds=candidate_seeds).run()
        distributed = _search(
            pool, executor="distributed", max_workers=2, candidate_seeds=candidate_seeds
        ).run()

        assert serial.result_hash() == distributed.result_hash()
        for record_a, record_b in zip(serial.records, distributed.records):
            assert record_a.candidate == record_b.candidate
            assert record_a.reward == record_b.reward
            assert record_a.evaluation.accuracy == record_b.evaluation.accuracy
            assert record_a.evaluation.unfairness == record_b.evaluation.unfairness
            assert record_a.train_losses == record_b.train_losses
            for key in record_a.head_state:
                np.testing.assert_array_equal(record_a.head_state[key], record_b.head_state[key])
        assert distributed.execution_stats.executor == "distributed"
