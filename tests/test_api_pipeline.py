"""Tests of the staged MuffinPipeline executor: artifacts, caching, resume."""

import pytest

from repro.api import (
    PIPELINE_STAGES,
    DatasetSpec,
    FinalizeSpec,
    MuffinPipeline,
    PipelineResult,
    PoolSpec,
    RunSpec,
    SearchSpec,
    run_spec,
)

ARCHS = ("MobileNet_V3_Small", "ResNet-18", "DenseNet121")


def tiny_spec(**search_overrides) -> RunSpec:
    search = dict(
        attributes=("age", "site"),
        base_model="MobileNet_V3_Small",
        episodes=4,
        episode_batch=2,
        head_epochs=5,
        seed=0,
    )
    search.update(search_overrides)
    return RunSpec(
        name="pipeline-test",
        dataset=DatasetSpec(name="synthetic_isic", num_samples=1200, seed=11, split_seed=2),
        pool=PoolSpec(architectures=ARCHS, epochs=10, batch_size=256, seed=4),
        search=SearchSpec(**search),
        finalize=FinalizeSpec(selection="reward", name="Muffin-test"),
    )


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("pipeline-cache")


@pytest.fixture(scope="module")
def first_run(cache_dir):
    return MuffinPipeline(tiny_spec(), cache_dir=cache_dir).run()


class TestPipelineRun:
    def test_all_stages_execute_in_order(self, first_run):
        assert [t.stage for t in first_run.timings] == list(PIPELINE_STAGES)
        assert all(t.status == "ran" for t in first_run.timings)
        assert all(t.seconds >= 0 for t in first_run.timings)

    def test_artifacts_are_typed(self, first_run):
        assert len(first_run.result) == 4
        assert first_run.muffin.name == "Muffin-test"
        assert first_run.muffin.test_evaluation is not None
        assert set(first_run.pool.names) == set(ARCHS)
        assert first_run.report["run"] == "pipeline-test"
        assert len(first_run.report["top_episodes"]) <= 5

    def test_mapping_access_backward_compatible(self, first_run):
        assert first_run["muffin"] is first_run.muffin
        assert first_run["pool"] is first_run.pool
        assert first_run["result"] is first_run.result
        assert first_run["dataset"] is first_run.dataset
        assert first_run["split"] is first_run.split
        assert isinstance(first_run, PipelineResult)
        assert dict(first_run)["report"] is first_run.report
        with pytest.raises(KeyError):
            first_run["nonsense"]

    def test_report_contains_pool_and_search_sections(self, first_run):
        assert any(row["model"] == "ResNet-18" for row in first_run.report["pool"])
        assert first_run.report["search"]["episodes"] == 4


class TestResume:
    def test_second_run_resumes_from_cache(self, cache_dir, first_run):
        second = MuffinPipeline(tiny_spec(), cache_dir=cache_dir).run()
        status = {t.stage: t.status for t in second.timings}
        assert status["pool"] == "cached"
        assert status["search"] == "cached"
        assert status["finalize"] == "cached"
        assert status["export"] == "cached"
        assert status["report"] == "cached"
        # Deterministic cheap stages are rebuilt, not persisted.
        assert status["dataset"] == "rebuilt"
        assert second.resumed_stages == ["pool", "search", "finalize", "export", "report"]
        assert second.muffin.test_evaluation.accuracy == pytest.approx(
            first_run.muffin.test_evaluation.accuracy
        )
        assert [r.reward for r in second.result.records] == pytest.approx(
            [r.reward for r in first_run.result.records]
        )

    def test_editing_search_spec_keeps_pool_cache(self, cache_dir, first_run):
        edited = tiny_spec(episodes=6, seed=1)
        result = MuffinPipeline(edited, cache_dir=cache_dir).run()
        status = {t.stage: t.status for t in result.timings}
        assert status["pool"] == "cached"
        assert status["search"] == "ran"
        assert len(result.result) == 6

    def test_rerun_from_forces_recompute(self, cache_dir, first_run):
        result = MuffinPipeline(tiny_spec(), cache_dir=cache_dir).run(rerun_from="search")
        status = {t.stage: t.status for t in result.timings}
        assert status["pool"] == "cached"
        assert status["search"] == "ran"

    def test_resume_false_recomputes_everything(self, cache_dir, first_run):
        result = MuffinPipeline(tiny_spec(), cache_dir=cache_dir).run(resume=False)
        # "rebuilt" marks deterministic recomputation; nothing is loaded from cache.
        assert all(t.status in {"ran", "rebuilt"} for t in result.timings)
        assert result.resumed_stages == []

    def test_no_cache_dir_runs_in_memory(self):
        result = MuffinPipeline(tiny_spec(episodes=2)).run()
        assert result.cache_dir is None
        assert all(t.status == "ran" for t in result.timings)

    def test_repeated_run_on_one_instance_is_reproducible(self):
        """run() must not reuse a mutated search (trained controller, advanced RNG)."""
        pipeline = MuffinPipeline(tiny_spec(episodes=2))
        first = pipeline.run()
        second = pipeline.run(resume=False)
        fresh = MuffinPipeline(tiny_spec(episodes=2)).run()
        rewards = lambda r: [rec.reward for rec in r.result.records]
        assert rewards(second) == pytest.approx(rewards(first))
        assert rewards(second) == pytest.approx(rewards(fresh))

    def test_shared_cache_dir_alternating_specs_hits_cache(self, tmp_path):
        """Hash-keyed artifacts stay valid even after another spec used the dir."""
        a, b = tiny_spec(episodes=2), tiny_spec(episodes=3)
        MuffinPipeline(a, cache_dir=tmp_path).run()
        MuffinPipeline(b, cache_dir=tmp_path).run()
        third = MuffinPipeline(a, cache_dir=tmp_path).run()
        status = {t.stage: t.status for t in third.timings}
        assert status["pool"] == "cached"
        assert status["search"] == "cached"


class TestExportStage:
    def test_artifact_written_and_deployable(self, cache_dir, first_run):
        """The export stage yields a bundle that serves bit-identical predictions."""
        import numpy as np

        from repro.data import FeatureSchema
        from repro.zoo import load_fused_model

        assert first_run.artifact is not None
        assert first_run.artifact_path is not None
        assert first_run.artifact_path.exists()
        assert first_run.report["artifact"] == first_run.artifact_path.name

        loaded = load_fused_model(first_run.artifact_path)
        assert loaded.name == first_run.muffin.name
        assert loaded.metadata["spec_hash"] == first_run.spec.spec_hash()
        features = loaded.schema.features(first_run.split.test)
        np.testing.assert_array_equal(
            loaded.predict_features(features),
            first_run.muffin.fused.predict(first_run.split.test),
        )

    def test_save_artifact_to_custom_path(self, first_run, tmp_path):
        from repro.zoo import load_fused_model

        path = first_run.save_artifact(tmp_path / "bundle.json")
        assert load_fused_model(path).schema is not None
        with pytest.raises(FileExistsError):
            first_run.save_artifact(path)
        first_run.save_artifact(path, overwrite=True)

    def test_custom_filename_never_serves_stale_artifact(self, tmp_path):
        """A fixed export filename must not resurrect a bundle from an older spec."""
        from repro.api import ExportSpec

        spec = tiny_spec(episodes=2)
        spec.export = ExportSpec(filename="muffin.json")
        MuffinPipeline(spec, cache_dir=tmp_path).run()
        edited = tiny_spec(episodes=3)
        edited.export = ExportSpec(filename="muffin.json")
        second = MuffinPipeline(edited, cache_dir=tmp_path).run()
        status = {t.stage: t.status for t in second.timings}
        # The file exists under the same name but came from the old spec, so
        # the export stage must recompute, not report 'cached'.
        assert status["export"] == "ran"
        assert second.artifact["spec_hash"] == edited.spec_hash()

    def test_disabled_export_produces_no_artifact(self):
        from repro.api import ExportSpec

        spec = tiny_spec(episodes=2)
        spec.export = ExportSpec(enabled=False)
        result = MuffinPipeline(spec).run()
        assert result.artifact is None
        assert result.artifact_path is None
        assert "artifact" not in result.report
        with pytest.raises(Exception):
            result.save_artifact("nowhere.json")


class TestRunSpecHelper:
    def test_run_spec_accepts_path(self, tmp_path):
        path = tmp_path / "spec.json"
        tiny_spec(episodes=2).to_json(path)
        result = run_spec(path)
        assert len(result.result) == 2

    def test_unknown_stage_rejected(self):
        from repro.api import SpecError

        with pytest.raises(SpecError):
            MuffinPipeline(tiny_spec()).run(rerun_from="trainig")


class TestCustomDatasetPlugin:
    def test_registered_dataset_drives_pipeline(self):
        """A dataset plugin registered by name is addressable from a spec."""
        from repro.data import DATASETS
        from repro.data.attributes import AttributeSet, AttributeSpec
        from repro.data.synthetic import SyntheticConfig, sample_dataset

        @DATASETS.register("test_screening", overwrite=True)
        def build_screening(num_samples=600, seed=0, **params):
            camera = AttributeSpec(
                name="camera",
                groups=("modern", "legacy"),
                unprivileged=("legacy",),
                difficulty={"modern": 0.05, "legacy": 0.5},
                proportions={"modern": 0.7, "legacy": 0.3},
            )
            config = SyntheticConfig(num_samples=num_samples, feature_dim=24)
            return sample_dataset(
                name="test-screening",
                num_classes=3,
                attributes=AttributeSet([camera]),
                config=config,
                seed=seed,
            )

        try:
            spec = RunSpec(
                name="plugin-dataset",
                dataset=DatasetSpec(name="test_screening", num_samples=700, seed=5),
                pool=PoolSpec(architectures=("MobileNet_V3_Small", "ResNet-18"), epochs=6),
                search=SearchSpec(
                    attributes=("camera",), episodes=2, episode_batch=2, head_epochs=3
                ),
            )
            result = MuffinPipeline(spec).run()
            assert result.dataset.name == "test-screening"
            assert len(result.dataset) == 700
            assert result.muffin.test_evaluation is not None
        finally:
            DATASETS.unregister("test_screening")


class TestExperimentConfigBridge:
    def test_experiment_config_exports_run_spec(self):
        from repro.experiments import smoke_config

        config = smoke_config()
        spec = config.run_spec(base_model="MobileNet_V3_Small")
        assert spec.dataset.num_samples == config.isic_samples
        assert spec.search.episodes == config.search_episodes
        assert spec.search.attributes == config.isic_attributes
        assert RunSpec.from_json(spec.to_json()) == spec

        fitz = config.run_spec(dataset="fitzpatrick")
        assert fitz.dataset.name == "synthetic_fitzpatrick"
        assert fitz.search.attributes == config.fitzpatrick_attributes
        assert fitz.pool.architectures is not None
