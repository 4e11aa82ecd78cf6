"""Unit and integration tests for the Muffin search loop."""

import numpy as np
import pytest

from repro.core import (
    BodyOutputCache,
    FusingCandidate,
    HeadTrainConfig,
    MuffinSearch,
    SearchConfig,
)


def _small_search(pool, cache=None, **config_overrides) -> MuffinSearch:
    config = dict(episodes=6, episode_batch=3, seed=0)
    config.update(config_overrides)
    return MuffinSearch(
        pool,
        attributes=["age", "site"],
        base_model="MobileNet_V3_Small",
        search_config=SearchConfig(**config),
        head_config=HeadTrainConfig(epochs=4, seed=0),
        body_cache=cache,
    )


@pytest.fixture(scope="module")
def search(pool):
    return MuffinSearch(
        pool,
        attributes=["age", "site"],
        base_model="MobileNet_V3_Small",
        search_config=SearchConfig(episodes=10, episode_batch=5, seed=0),
        head_config=HeadTrainConfig(epochs=10, seed=0),
    )


@pytest.fixture(scope="module")
def result(search):
    return search.run()


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(episodes=0)
        with pytest.raises(ValueError):
            SearchConfig(episode_batch=0)
        with pytest.raises(ValueError):
            SearchConfig(controller="bayes")


class TestBodyOutputCache:
    def test_cache_returns_same_arrays(self, pool):
        cache = BodyOutputCache(pool)
        test = pool.split.test
        first = cache.probabilities("ResNet-18", test, None)
        second = cache.probabilities("ResNet-18", test, None)
        assert first is second

    def test_concatenated_shape(self, pool):
        cache = BodyOutputCache(pool)
        test = pool.split.test
        output = cache.concatenated(["ResNet-18", "DenseNet121"], test, None)
        assert output.shape == (len(test), 2 * test.num_classes)

    def test_distinct_index_sets_are_not_aliased(self, pool):
        """Regression: entries must key on the index fingerprint, not a tag.

        The old ``(model_name, tag)`` keying returned the first index set's
        probabilities for *any* later index set carrying the same tag.
        """
        cache = BodyOutputCache(pool)
        train = pool.split.train
        first_indices = np.arange(10)
        second_indices = np.arange(10, 20)
        cache.probabilities("ResNet-18", train, first_indices)
        stale_candidate = cache.probabilities("ResNet-18", train, second_indices)
        expected = pool.get("ResNet-18").predict_proba(train, second_indices)
        np.testing.assert_array_equal(stale_candidate, expected)

    def test_distinct_partitions_are_not_aliased(self, pool):
        cache = BodyOutputCache(pool)
        cache.probabilities("ResNet-18", pool.split.val, None)
        from_test = cache.probabilities("ResNet-18", pool.split.test, None)
        np.testing.assert_array_equal(
            from_test, pool.get("ResNet-18").predict_proba(pool.split.test, None)
        )

    def test_shared_cache_across_proxy_builders(self, pool):
        """Two searches with different proxy builders may share one cache.

        The weighted proxy uses the unprivileged subset, the uniform proxy
        the full training partition; under the old keying the second search
        read the first search's (differently-indexed) probability matrix.
        """
        cache = BodyOutputCache(pool)
        weighted = _small_search(pool, cache=cache, use_weighted_proxy=True)
        uniform = _small_search(pool, cache=cache, use_weighted_proxy=False)
        assert len(weighted.proxy) < len(uniform.proxy)

        names = ["MobileNet_V3_Small", "ResNet-18"]
        weighted_outputs = cache.concatenated(
            names, weighted.proxy.dataset, weighted.proxy.indices
        )
        uniform_outputs = cache.concatenated(names, uniform.proxy.dataset, uniform.proxy.indices)
        assert weighted_outputs.shape[0] == len(weighted.proxy)
        assert uniform_outputs.shape[0] == len(uniform.proxy)
        expected = np.concatenate(
            [
                pool.get(name).predict_proba(uniform.proxy.dataset, uniform.proxy.indices)
                for name in names
            ],
            axis=1,
        )
        np.testing.assert_array_equal(uniform_outputs, expected)

    def test_hit_miss_stats(self, pool):
        cache = BodyOutputCache(pool)
        test = pool.split.test
        cache.probabilities("ResNet-18", test, None)
        cache.probabilities("ResNet-18", test, None)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["entries"] == 1

    def test_concatenated_matrix_is_memoised(self, pool):
        cache = BodyOutputCache(pool)
        test = pool.split.test
        names = ["ResNet-18", "DenseNet121"]
        first = cache.concatenated(names, test, None)
        second = cache.concatenated(names, test, None)
        assert first is second  # one shared buffer per (models, dataset, indices)
        assert cache.stats()["concatenated_entries"] == 1


class TestMuffinSearch:
    def test_requires_attributes(self, pool):
        with pytest.raises(ValueError):
            MuffinSearch(pool, attributes=[])

    def test_proxy_built_from_unprivileged_data(self, search, pool):
        assert len(search.proxy) < len(pool.split.train)
        assert search.proxy.sample_weights.mean() == pytest.approx(1.0)

    def test_run_produces_one_record_per_episode(self, result):
        assert len(result) == 10
        assert all(np.isfinite(record.reward) for record in result.records)
        assert [record.episode for record in result.records] == list(range(10))

    def test_records_store_heads_and_parameters(self, result):
        record = result.records[0]
        assert record.head_state is not None
        assert record.num_parameters > record.trainable_parameters > 0
        assert len(record.train_losses) == 10

    def test_candidates_respect_base_model(self, result):
        for record in result.records:
            assert record.candidate.model_names[0] == "MobileNet_V3_Small"
            assert len(record.candidate.model_names) == 2

    def test_controller_was_updated(self, search, result):
        assert len(search.controller.update_history) == 2  # 10 episodes / batch of 5

    def test_evaluate_candidate_manual(self, search):
        candidate = FusingCandidate(
            model_names=("MobileNet_V3_Small", "ResNet-18"),
            hidden_sizes=(16, 10),
            activation="relu",
        )
        record = search.evaluate_candidate(candidate, episode=-1, seed=0)
        assert record.reward > 0
        assert set(record.evaluation.unfairness) == {"age", "site"}

    def test_finalize_best_reward(self, search, result, pool):
        muffin = search.finalize(result, metric="reward", name="Muffin-test")
        assert muffin.name == "Muffin-test"
        assert muffin.test_evaluation is not None
        best = result.best_record("reward")
        assert muffin.record is best
        # The rebuilt fused model reproduces the stored head exactly on the
        # evaluation partition used during the search.
        evaluation = search._evaluate_fused(muffin.fused, muffin.record.candidate)
        assert evaluation.accuracy == pytest.approx(muffin.record.evaluation.accuracy)

    def test_finalize_balance_metric(self, search, result):
        muffin = search.finalize(result, metric="balance", name="Muffin-Balance")
        assert muffin.record in result.records

    def test_named_muffin_nets(self, search, result):
        nets = search.named_muffin_nets(result)
        assert {"Muffin", "Muffin-Age", "Muffin-Site", "Muffin-Balance"} <= set(nets)
        for net in nets.values():
            assert net.test_evaluation is not None

    def test_random_controller_variant(self, pool):
        search = MuffinSearch(
            pool,
            attributes=["age", "site"],
            base_model="ResNet-18",
            search_config=SearchConfig(episodes=4, episode_batch=2, seed=1, controller="random"),
            head_config=HeadTrainConfig(epochs=5),
        )
        result = search.run()
        assert len(result) == 4

    def test_unweighted_proxy_variant(self, pool):
        search = MuffinSearch(
            pool,
            attributes=["age", "site"],
            base_model="ResNet-18",
            search_config=SearchConfig(
                episodes=2, episode_batch=2, seed=2, use_weighted_proxy=False
            ),
            head_config=HeadTrainConfig(epochs=5),
        )
        assert len(search.proxy) == len(pool.split.train)
        result = search.run()
        assert len(result) == 2

    def test_run_with_explicit_episode_count(self, pool):
        search = MuffinSearch(
            pool,
            attributes=["age"],
            base_model="DenseNet121",
            search_config=SearchConfig(episodes=50, episode_batch=3, seed=3),
            head_config=HeadTrainConfig(epochs=4),
        )
        result = search.run(episodes=3)
        assert len(result) == 3


class TestExecutors:
    def test_executor_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(executor="gpu-cluster")
        with pytest.raises(ValueError):
            SearchConfig(max_workers=0)
        # Aliases resolve through the registry.
        assert SearchConfig(executor="workers").executor == "workers"

    def test_run_reports_execution_stats(self, pool):
        result = _small_search(pool).run()
        stats = result.execution_stats
        assert stats is not None
        assert stats.episodes == 6
        assert stats.memo_hits + stats.memo_misses == 6
        assert stats.body_cache_misses > 0
        assert stats.eval_seconds > 0
        assert "execution" in result.summary()


def _count_trained_heads(search_module, monkeypatch):
    """Count heads trained through either entry point of the search.

    Eligible batches route through the fused batched trainer
    (``train_heads_batched``); the memoisation contract — never retrain a
    known ``(candidate, seed)`` — must hold regardless of path.
    """
    trained = []
    original_single = search_module.train_head_on_outputs
    original_batched = search_module.train_heads_batched

    def counting_single(head, *args, **kwargs):
        trained.append(head)
        return original_single(head, *args, **kwargs)

    def counting_batched(heads, *args, **kwargs):
        trained.extend(heads)
        return original_batched(heads, *args, **kwargs)

    monkeypatch.setattr(search_module, "train_head_on_outputs", counting_single)
    monkeypatch.setattr(search_module, "train_heads_batched", counting_batched)
    return trained


class TestMemoisation:
    @pytest.fixture()
    def search(self, pool):
        return _small_search(pool)

    @pytest.fixture()
    def candidate(self):
        return FusingCandidate(
            model_names=("MobileNet_V3_Small", "ResNet-18"),
            hidden_sizes=(16, 10),
            activation="relu",
        )

    def test_duplicate_evaluation_trains_zero_extra_epochs(
        self, search, candidate, monkeypatch
    ):
        import repro.core.search as search_module

        trained_heads = _count_trained_heads(search_module, monkeypatch)
        first, second = search.evaluate_batch([candidate, candidate])
        third = search.evaluate_candidate(candidate, episode=7)

        assert len(trained_heads) == 1  # one head trained for three requested evaluations
        assert search.memo_hits == 2 and search.memo_misses == 1
        assert first.reward == second.reward == third.reward
        assert third.episode == 7
        for key in first.head_state:
            np.testing.assert_array_equal(first.head_state[key], second.head_state[key])

    def test_candidate_seed_is_deterministic_and_order_free(self, pool, candidate):
        seed_a = _small_search(pool).candidate_seed(candidate)
        seed_b = _small_search(pool).candidate_seed(candidate)
        assert seed_a == seed_b
        other = FusingCandidate(
            model_names=("MobileNet_V3_Small", "DenseNet121"),
            hidden_sizes=(16, 10),
            activation="relu",
        )
        assert _small_search(pool).candidate_seed(other) != seed_a
        # The search seed participates, so two seeded searches stay distinct.
        assert _small_search(pool, seed=1).candidate_seed(candidate) != seed_a

    def test_memoize_can_be_disabled(self, candidate, monkeypatch, pool):
        import repro.core.search as search_module

        trained_heads = _count_trained_heads(search_module, monkeypatch)
        unmemoised = _small_search(pool, memoize=False)
        first, second = unmemoised.evaluate_batch([candidate, candidate])
        assert len(trained_heads) == 2
        assert first.reward == second.reward  # same (candidate, seed) → same result


class TestCandidateSeedStrategies:
    """'episode' draws seeds from the RNG stream (paper formulation);
    'derived' hashes them from the candidate so re-samples hit the memo."""

    @staticmethod
    def _single_candidate_search(pool, **config_overrides):
        from repro.core import SearchSpace

        # A degenerate one-point search space forces the controller to
        # re-sample the same structure every episode.
        space = SearchSpace(
            pool_names=["MobileNet_V3_Small", "ResNet-18"],
            base_model="MobileNet_V3_Small",
            num_paired=1,
            width_choices=(16,),
            depth_choices=(1,),
            activation_choices=("relu",),
        )
        assert space.size() == 1
        config = dict(episodes=4, episode_batch=2, seed=0)
        config.update(config_overrides)
        return MuffinSearch(
            pool,
            attributes=["age", "site"],
            search_space=space,
            search_config=SearchConfig(**config),
            head_config=HeadTrainConfig(epochs=3, seed=0),
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(candidate_seeds="lottery")

    def test_derived_seeding_memoises_resampled_structures(self, pool):
        search = self._single_candidate_search(pool, candidate_seeds="derived")
        result = search.run()
        stats = result.execution_stats
        assert stats.memo_misses == 1  # one unique candidate trained once
        assert stats.memo_hits == 3
        rewards = {record.reward for record in result.records}
        assert len(rewards) == 1  # stationary reward per candidate

    def test_episode_seeding_retrains_every_episode(self, pool):
        search = self._single_candidate_search(pool, candidate_seeds="episode")
        result = search.run()
        stats = result.execution_stats
        assert stats.memo_misses == 4  # fresh seed per episode, no memo hits
        assert stats.memo_hits == 0
