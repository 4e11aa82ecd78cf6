"""Integration tests for the experiment harness (one per paper table/figure).

These run at the 'smoke' scale: small datasets, few episodes.  They verify
the harness plumbing (structured results, rendering, claim extraction) and
the coarse qualitative claims; the calibrated quantitative shapes are
exercised by the benchmarks and by tests/test_calibration.py.
"""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentContext,
    experiment_ids,
    fast_config,
    paper_scale_config,
    render_experiment,
    run_experiment,
    smoke_config,
)


class TestConfigs:
    def test_experiment_registry_covers_all_paper_artifacts(self):
        assert set(experiment_ids()) == {
            "fig1",
            "fig2",
            "fig3",
            "table1",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
        }

    def test_scale_presets(self):
        assert smoke_config().scale == "smoke"
        assert fast_config().scale == "fast"
        assert paper_scale_config().search_episodes == 500

    def test_fast_config_overrides(self):
        config = fast_config(search_episodes=10)
        assert config.search_episodes == 10

    def test_context_caches_artifacts(self, smoke_context):
        pool_a = smoke_context.isic_pool
        pool_b = smoke_context.isic_pool
        assert pool_a is pool_b
        value = smoke_context.cached("answer", lambda: 42)
        assert smoke_context.cached("answer", lambda: 0) == value

    def test_unknown_experiment_rejected(self, smoke_context):
        with pytest.raises(KeyError):
            run_experiment("fig99", smoke_context)

    @pytest.mark.parametrize(
        "argv, bad_id", [(["bench"], "bench"), (["fig1", "fgi2"], "fgi2")]
    )
    def test_unknown_cli_id_exits_2_before_any_experiment_runs(
        self, monkeypatch, capsys, argv, bad_id
    ):
        from repro.__main__ import main
        from repro.experiments import runner

        def must_not_run(*args, **kwargs):
            raise AssertionError("an experiment ran despite an unknown id")

        monkeypatch.setattr(runner, "run_all", must_not_run)
        monkeypatch.setattr(runner, "ExperimentContext", must_not_run)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: unknown command or experiment '{bad_id}'")
        if bad_id == "fgi2":
            assert "did you mean 'fig2'" in err


class TestObservationExperiments:
    def test_fig1_structure_and_claims(self, smoke_context):
        results = run_experiment("fig1", smoke_context)
        assert len(results["rows"]) == 10
        claims = results["claims"]
        assert claims["gender_is_nearly_fair"]
        assert claims["age_site_much_more_unfair_than_gender"]
        rendered = render_experiment("fig1", results)
        assert "Figure 1" in rendered and "U(age)" in rendered

    def test_fig3_structure_and_claims(self, smoke_context):
        results = run_experiment("fig3", smoke_context)
        assert len(results["rows"]) == 4
        fractions = [row["fraction"] for row in results["rows"]]
        assert sum(fractions) == pytest.approx(1.0)
        claims = results["claims"]
        assert claims["disagreement_is_substantial"]
        assert claims["oracle_beats_both_members_on_unprivileged"]
        assert "oracle union" in render_experiment("fig3", results)

    def test_fig2_structure(self, smoke_context):
        results = run_experiment("fig2", smoke_context)
        assert set(results["panels"]) == {"MobileNet_V2", "DenseNet121", "ResNet-18"}
        for rows in results["panels"].values():
            assert rows[0]["configuration"] == "vanilla"
            assert len(rows) == 5  # vanilla + D/L x age/site
        assert results["claims"]["total_cells"] == 12
        assert results["claims"]["no_method_improves_both"]


class TestAblationExperiments:
    def test_fig9_structure_and_claims(self, smoke_context):
        results = run_experiment("fig9", smoke_context)
        fig9a, fig9b = results["fig9a"], results["fig9b"]
        assert {row["training_data"] for row in fig9a["rows"]} == {"weighted", "original"}
        assert fig9a["claims"]["weighted_improves_site"] or fig9a["claims"]["weighted_improves_age"]
        assert [row["paired_models"] for row in fig9b["rows"]] == [1, 2, 3, 4]
        assert fig9b["claims"]["parameters_grow_with_paired_models"]
        rendered = render_experiment("fig9", results)
        assert "Figure 9(a)" in rendered and "Figure 9(b)" in rendered


@pytest.mark.slow
class TestSearchExperiments:
    """The experiments that embed full Muffin searches (slower, still smoke-scale)."""

    def test_table1_single_model(self, smoke_context):
        from repro.experiments import run_table1

        results = run_table1(smoke_context, models=["MobileNet_V3_Small"])
        assert len(results["rows"]) == 1
        row = results["rows"][0]
        assert "muffin_paired" in row and row["muffin_paired"]
        assert row["muffin_acc"] > 0.5
        rendered = render_experiment("table1", results)
        assert "Table I" in rendered

    def test_fig5_fig6_share_search(self, smoke_context):
        fig5 = run_experiment("fig5", smoke_context)
        assert len(fig5["existing_rows"]) == 10
        assert len(fig5["muffin_rows"]) >= 3
        fig6 = run_experiment("fig6", smoke_context)
        assert set(fig6["panels"]) == {"age", "site"}
        assert len(fig6["panels"]["site"]) == 9
        assert len(fig6["members"]) >= 2

    def test_fig7_fig8_fitzpatrick(self, smoke_context):
        fig7 = run_experiment("fig7", smoke_context)
        assert len(fig7["existing_rows"]) >= 3
        assert any("Muffin" in row["model"] for row in fig7["muffin_rows"])
        fig8 = run_experiment("fig8", smoke_context)
        assert len(fig8["rows"]) == 6
        assert {"skin_tone", "ResNet-18", "Muffin-Balance", "delta"} <= set(fig8["rows"][0])
