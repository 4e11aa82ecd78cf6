"""Tests of the declarative RunSpec layer: JSON round-trips, validation, hashing."""

import json

import pytest

from repro.api import (
    EXECUTORS,
    DatasetSpec,
    ExecutionSpec,
    FinalizeSpec,
    PoolSpec,
    ReportSpec,
    RunSpec,
    SearchSpec,
    SpecError,
)
from repro.core import SearchConfig


def make_spec(**overrides) -> RunSpec:
    base = dict(
        name="unit-spec",
        dataset=DatasetSpec(name="synthetic_isic", num_samples=1500, seed=3, split_seed=5),
        pool=PoolSpec(architectures=("MobileNet_V3_Small", "ResNet-18"), epochs=10),
        search=SearchSpec(
            attributes=("age", "site"), base_model="MobileNet_V3_Small", episodes=4
        ),
        finalize=FinalizeSpec(selection="reward", name="Muffin-unit"),
        report=ReportSpec(top_k=2),
    )
    base.update(overrides)
    return RunSpec(**base)


class TestRoundTrip:
    def test_json_round_trip_equality(self):
        spec = make_spec()
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_dict_round_trip_equality(self):
        spec = make_spec()
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_via_file(self, tmp_path):
        spec = make_spec()
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert RunSpec.from_json(path) == spec

    def test_round_trip_preserves_params_mapping(self):
        spec = make_spec(
            dataset=DatasetSpec(name="synthetic_isic", params={"config": None})
        )
        loaded = RunSpec.from_json(spec.to_json())
        assert loaded.dataset.params == {"config": None}

    def test_sequences_normalise_to_tuples(self):
        spec = RunSpec.from_dict(
            {
                "search": {"attributes": ["age"]},
                "pool": {"architectures": ["ResNet-18"]},
            }
        )
        assert spec.search.attributes == ("age",)
        assert spec.pool.architectures == ("ResNet-18",)

    def test_sections_accept_mappings_directly(self):
        spec = RunSpec(name="m", dataset={"name": "isic", "num_samples": 100})
        assert spec.dataset.num_samples == 100


class TestValidation:
    def test_unknown_top_level_section_rejected(self):
        with pytest.raises(SpecError):
            RunSpec.from_dict({"name": "x", "serach": {}})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(SpecError) as excinfo:
            RunSpec.from_dict({"search": {"episodess": 3}})
        assert "episodess" in str(excinfo.value)

    def test_invalid_values_rejected(self):
        with pytest.raises(SpecError):
            DatasetSpec(num_samples=0)
        with pytest.raises(SpecError):
            PoolSpec(epochs=0)
        with pytest.raises(SpecError):
            SearchSpec(attributes=())
        with pytest.raises(SpecError):
            ReportSpec(top_k=-1)

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecError):
            RunSpec.from_json("{not json")
        with pytest.raises(SpecError):
            RunSpec.from_json("/nonexistent/spec.json")

    def test_non_object_json_rejected(self):
        with pytest.raises(SpecError):
            RunSpec.from_json(json.dumps([1, 2, 3]))


class TestHashing:
    def test_hash_is_stable_across_round_trips(self):
        spec = make_spec()
        assert spec.spec_hash() == RunSpec.from_json(spec.to_json()).spec_hash()

    def test_stage_hashes_ignore_downstream_sections(self):
        a = make_spec()
        b = make_spec(search=SearchSpec(attributes=("age",), episodes=99))
        # Pool artifacts only depend on dataset+pool sub-specs.
        assert a.stage_hash("pool") == b.stage_hash("pool")
        assert a.stage_hash("search") != b.stage_hash("search")

    def test_stage_hashes_invalidate_upstream_changes(self):
        a = make_spec()
        b = make_spec(dataset=DatasetSpec(num_samples=999))
        for stage in ("dataset", "split", "pool", "search", "finalize", "report"):
            assert a.stage_hash(stage) != b.stage_hash(stage)

    def test_unknown_stage_rejected(self):
        with pytest.raises(SpecError):
            make_spec().stage_hash("training")

    def test_name_does_not_change_stage_hashes(self):
        a = make_spec(name="one")
        b = make_spec(name="two")
        assert a.stage_hash("report") == b.stage_hash("report")
        assert a.spec_hash() != b.spec_hash()

    def test_execution_section_never_invalidates_caches(self):
        """Executors change how fast a run computes, never what it computes."""
        serial = make_spec()
        parallel = make_spec(
            execution=ExecutionSpec(executor="distributed", max_workers=4, memoize=False)
        )
        assert serial.spec_hash() == parallel.spec_hash()
        for stage in ("dataset", "split", "pool", "search", "finalize", "report"):
            assert serial.stage_hash(stage) == parallel.stage_hash(stage)


class TestExecutionSpec:
    def test_round_trip(self):
        spec = make_spec(execution=ExecutionSpec(executor="distributed", max_workers=3))
        loaded = RunSpec.from_json(spec.to_json())
        assert loaded == spec
        assert loaded.execution.executor == "distributed"
        assert loaded.execution.max_workers == 3

    def test_defaults_are_serial_and_memoised(self):
        execution = RunSpec().execution
        assert execution.executor == "serial"
        assert execution.max_workers is None
        assert execution.memoize is True

    def test_unknown_executor_rejected_with_suggestion(self):
        with pytest.raises(SpecError, match="did you mean 'distributed'"):
            ExecutionSpec(executor="distributd")

    def test_removed_pool_executors_rejected(self):
        """Only the serial reference and the supervised distributed fan-out
        remain; the old thread/process pool names fail at config time."""
        assert EXECUTORS.names() == ["serial", "distributed"]
        with pytest.raises(SpecError) as spec_error:
            ExecutionSpec(executor="thread")
        with pytest.raises(ValueError) as config_error:
            SearchConfig(executor="process")
        for error in (spec_error, config_error):
            assert "'serial'" in str(error.value)
            assert "'distributed'" in str(error.value)

    def test_non_positive_max_workers_rejected(self):
        with pytest.raises(SpecError):
            ExecutionSpec(max_workers=0)

    def test_search_config_carries_execution_knobs(self):
        config = SearchSpec().search_config(
            ExecutionSpec(executor="distributed", max_workers=2)
        )
        assert config.executor == "distributed"
        assert config.max_workers == 2
        assert config.memoize is True
        # Omitting the execution spec keeps the SearchConfig defaults.
        assert SearchSpec().search_config().executor == "serial"


class TestQuickstartSpecFile:
    def test_checked_in_specs_parse(self):
        from pathlib import Path

        specs_dir = Path(__file__).parent.parent / "examples" / "specs"
        for name in ("quickstart.json", "smoke.json"):
            spec = RunSpec.from_json(specs_dir / name)
            assert spec.search.attributes == ("age", "site")
            assert RunSpec.from_json(spec.to_json()) == spec
