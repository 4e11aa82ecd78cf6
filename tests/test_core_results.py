"""Unit tests for search result containers."""

import numpy as np
import pytest

from repro.core import (
    EpisodeRecord,
    FusingCandidate,
    MuffinSearchResult,
    rebuild_fused_model,
)
from repro.fairness import FairnessEvaluation


def make_record(episode, reward, acc, age, site, names=("ResNet-18", "DenseNet121")):
    return EpisodeRecord(
        episode=episode,
        candidate=FusingCandidate(model_names=names, hidden_sizes=(16,), activation="relu"),
        reward=reward,
        evaluation=FairnessEvaluation(accuracy=acc, unfairness={"age": age, "site": site}),
        num_parameters=1000,
        trainable_parameters=100,
    )


@pytest.fixture()
def result():
    records = [
        make_record(0, reward=3.0, acc=0.78, age=0.30, site=0.40),
        make_record(1, reward=5.0, acc=0.82, age=0.25, site=0.35),
        make_record(2, reward=4.0, acc=0.85, age=0.35, site=0.20),
        make_record(3, reward=2.0, acc=0.70, age=0.50, site=0.60),
    ]
    return MuffinSearchResult(records, attributes=["age", "site"])


class TestBestRecord:
    def test_best_by_reward(self, result):
        assert result.best_record("reward").episode == 1

    def test_best_by_accuracy(self, result):
        assert result.best_record("accuracy").episode == 2

    def test_best_by_attribute(self, result):
        assert result.best_record("age").episode == 1
        assert result.best_record("site").episode == 2

    def test_best_by_multi(self, result):
        assert result.best_record("multi").episode == 2 or result.best_record("multi").episode == 1

    def test_unknown_metric(self, result):
        with pytest.raises(KeyError):
            result.best_record("f1")

    def test_best_balanced_preserves_accuracy(self, result):
        balanced = result.best_balanced_record(accuracy_slack=0.02)
        best_accuracy = max(r.evaluation.accuracy for r in result.records)
        assert balanced.evaluation.accuracy >= best_accuracy - 0.02

    def test_best_dominating_record_prefers_dominators(self, result):
        from repro.fairness import FairnessEvaluation

        reference = FairnessEvaluation(
            accuracy=0.80, unfairness={"age": 0.33, "site": 0.45}
        )
        record = result.best_dominating_record(reference)
        assert record.evaluation.accuracy >= reference.accuracy
        assert record.evaluation.unfairness["age"] < reference.unfairness["age"]
        assert record.evaluation.unfairness["site"] < reference.unfairness["site"]

    def test_best_dominating_record_falls_back_gracefully(self, result):
        from repro.fairness import FairnessEvaluation

        # Nothing dominates an impossible reference; the fallback still
        # returns an accuracy-preserving record when one exists.
        reference = FairnessEvaluation(
            accuracy=0.84, unfairness={"age": 0.01, "site": 0.01}
        )
        record = result.best_dominating_record(reference)
        assert record.evaluation.accuracy >= 0.84


class TestParetoAndCurves:
    def test_pareto_records_exclude_dominated(self, result):
        front_episodes = {record.episode for record in result.pareto_records()}
        assert 3 not in front_episodes  # strictly dominated
        assert {1, 2} <= front_episodes

    def test_pareto_points_with_accuracy(self, result):
        points = result.pareto_points(include_accuracy=True)
        assert len(points) == 4
        assert "accuracy" in points[0].objectives

    def test_reward_curve_smoothing(self, result):
        raw = result.reward_curve(window=1)
        smoothed = result.reward_curve(window=3)
        assert raw == [3.0, 5.0, 4.0, 2.0]
        assert len(smoothed) == 4
        assert smoothed[2] == pytest.approx(np.mean([3.0, 5.0, 4.0]))

    def test_rewards_array(self, result):
        np.testing.assert_allclose(result.rewards(), [3.0, 5.0, 4.0, 2.0])


class TestSerialisation:
    def test_summary_fields(self, result):
        summary = result.summary()
        assert summary["episodes"] == 4
        assert summary["best_reward"] == 5.0
        assert summary["attributes"] == ["age", "site"]

    def test_to_dict(self, result):
        payload = result.to_dict()
        assert len(payload["records"]) == 4
        assert payload["summary"]["best_reward"] == 5.0

    def test_from_dict_loads_stats_with_retired_timer_fields(self, result):
        """Search artifacts written before the search's engine and training
        timers became spans still carry those two fields; they still load."""
        retired = {"metrics_" + "seconds": 0.2, "train_" + "seconds": 1.1}
        payload = result.to_dict(include_state=True)
        payload["execution_stats"] = {
            "executor": "serial",
            "max_workers": 1,
            "episodes": 4,
            "memo_hits": 1,
            "memo_misses": 3,
            "body_cache_hits": 10,
            "body_cache_misses": 2,
            "eval_seconds": 1.5,
            "backend": "numpy-float64",
            **retired,
        }
        loaded = MuffinSearchResult.from_dict(payload)
        stats = loaded.execution_stats
        assert (stats.episodes, stats.memo_hits, stats.memo_misses) == (4, 1, 3)
        assert stats.eval_seconds == 1.5
        assert not set(retired) & set(stats.to_dict())
        assert loaded.result_hash() == result.result_hash()

    def test_empty_result_rejected(self):
        with pytest.raises(ValueError):
            MuffinSearchResult([], attributes=["age"])

    def test_len(self, result):
        assert len(result) == 4


class TestRebuildFusedModel:
    def test_rebuild_with_stored_head(self, pool):
        from repro.core import FusedModel

        candidate = FusingCandidate(
            model_names=("ResNet-18", "DenseNet121"), hidden_sizes=(12,), activation="tanh"
        )
        models = pool.models(candidate.model_names)
        original = FusedModel.from_candidate(candidate, models, seed=0)
        record = EpisodeRecord(
            episode=0,
            candidate=candidate,
            reward=1.0,
            evaluation=FairnessEvaluation(accuracy=0.5, unfairness={"age": 0.2}),
            head_state=original.head.state_dict(),
        )
        rebuilt = rebuild_fused_model(record, models, name="rebuilt")
        test = pool.split.test
        np.testing.assert_allclose(
            rebuilt.head_logits(test, np.arange(20)), original.head_logits(test, np.arange(20))
        )
        assert rebuilt.name == "rebuilt"

    def test_rebuild_without_head_state(self, pool):
        candidate = FusingCandidate(
            model_names=("ResNet-18",), hidden_sizes=(8,), activation="relu"
        )
        record = EpisodeRecord(
            episode=0,
            candidate=candidate,
            reward=1.0,
            evaluation=FairnessEvaluation(accuracy=0.5, unfairness={"age": 0.2}),
        )
        rebuilt = rebuild_fused_model(record, pool.models(candidate.model_names))
        assert rebuilt.num_classes == pool.split.test.num_classes
