"""The ``repro lint`` engine: rules, suppression, selection, CLI, self-check.

The fixture files under ``tests/lint_fixtures/`` are *known-bad* snippets —
each rule family must fire on its fixture with the expected codes — while
the live tree must come back with zero findings (the linter gates CI on
exactly that).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.core import (
    REPORT_SCHEMA_VERSION,
    LintConfigError,
    Project,
    SourceFile,
    run_lint,
)
from repro.analysis.hash_contract import HashContractRule
from repro.analysis.registry_audit import (
    RegistryConsistencyRule,
    audit_registries,
    audit_spec_file,
    registry_summary,
)
from repro.analysis.rules import (
    AtomicPersistenceRule,
    DtypeDisciplineRule,
    FailureDisciplineRule,
    LockHygieneRule,
    TelemetryDisciplineRule,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"
GOLDEN = FIXTURES / "golden_report.json"


def lint_fixture(name, **kwargs):
    return run_lint(root=REPO_ROOT, paths=[FIXTURES / name], **kwargs)


def fixture_source(name: str, rel: str) -> SourceFile:
    """Parse a fixture under a *forced* repo-relative path, so path-scoped
    rules (RL4 durable modules, RL6 serve/master) treat it as in scope."""
    path = FIXTURES / name
    return SourceFile(path, rel, text=path.read_text())


# ----------------------------------------------------------------------
# Rule families on known-bad fixtures
# ----------------------------------------------------------------------
class TestDeterminismRule:
    def test_fires_on_every_violation_kind(self):
        report = lint_fixture("bad_determinism.py", select=["RL1"])
        lines = {f.line for f in report.findings}
        assert lines == {11, 15, 16, 20, 24}
        assert all(f.code == "RL1" for f in report.findings)

    def test_messages_explain_the_violation(self):
        report = lint_fixture("bad_determinism.py", select=["RL1"])
        text = report.render_text()
        assert "unseeded np.random.default_rng()" in text
        assert "hidden global RandomState" in text
        assert "stdlib random.random()" in text
        assert "time.time" in text

    def test_inline_suppression_silences_the_line(self):
        report = lint_fixture("bad_determinism.py", select=["RL1"])
        # line 29 carries ``# repro-lint: disable=RL1`` — must not appear
        assert 29 not in {f.line for f in report.findings}

    def test_file_suppression_silences_everything(self):
        report = lint_fixture("suppressed_file.py", select=["RL1"])
        assert report.ok


class TestExecutorSafetyRule:
    def test_fires_on_lambda_closure_and_bound_method(self):
        report = lint_fixture("bad_executor.py", select=["RL3"])
        messages = [f.message for f in report.findings]
        assert len(messages) == 3
        assert any("lambda" in m for m in messages)
        assert any("closure 'scaled'" in m for m in messages)
        assert any("bound method" in m for m in messages)

    def test_module_level_functions_are_fine(self):
        report = lint_fixture("bad_executor.py", select=["RL3"])
        # the module-level `_square` dispatch at the bottom is not flagged
        assert all("_square" not in f.message for f in report.findings)


class TestAtomicPersistenceRule:
    def _findings(self):
        source = fixture_source("bad_persistence.py", "src/repro/master/db.py")
        project = Project(root=REPO_ROOT)
        return list(AtomicPersistenceRule().check_file(source, project))

    def test_fires_on_truncating_writes(self):
        messages = [f.message for f in self._findings()]
        assert len(messages) == 4
        assert any("open(..., 'w')" in m for m in messages)
        assert any("'w+'" in m for m in messages)
        assert any("json.dump()" in m for m in messages)
        assert any("write_text" in m for m in messages)

    def test_out_of_scope_paths_are_ignored(self):
        source = fixture_source("bad_persistence.py", "src/repro/core/search.py")
        project = Project(root=REPO_ROOT)
        assert list(AtomicPersistenceRule().check_file(source, project)) == []

    def test_reads_are_not_flagged(self):
        # the fixture opens for read on line 14; no finding lands there
        assert 14 not in {f.line for f in self._findings()}


class TestLockHygieneRule:
    def _findings(self, rel="src/repro/serve/server.py"):
        source = fixture_source("bad_locks.py", rel)
        project = Project(root=REPO_ROOT)
        return list(LockHygieneRule().check_file(source, project))

    def test_fires_on_blocking_calls_under_lock(self):
        messages = [f.message for f in self._findings()]
        assert len(messages) == 4
        assert any("time.sleep" in m for m in messages)
        assert any("os.fsync" in m for m in messages)
        assert any("sendall" in m for m in messages)
        assert any("process.wait" in m for m in messages)

    def test_io_named_locks_are_exempt(self):
        assert all("_send_lock" not in f.message for f in self._findings())

    def test_deferred_and_condition_wait_are_fine(self):
        lines = {f.line for f in self._findings()}
        # `later()` body and `cond.wait()` must not be flagged
        assert not any(line >= 36 for line in lines)

    def test_out_of_scope_paths_are_ignored(self):
        assert self._findings(rel="src/repro/core/search.py") == []

    def test_utils_scope_also_fires(self):
        assert self._findings(rel="src/repro/utils/connloop.py")


class TestDtypeDisciplineRule:
    def _findings(self, rel="src/repro/nn/fused.py"):
        source = fixture_source("bad_dtypes.py", rel)
        project = Project(root=REPO_ROOT)
        return list(DtypeDisciplineRule().check_file(source, project))

    def test_fires_on_every_dtype_less_factory(self):
        findings = self._findings()
        assert all(f.code == "RL7" for f in findings)
        messages = [f.message for f in findings]
        assert any("np.asarray()" in m for m in messages)
        assert any("np.zeros()" in m for m in messages)
        assert any("np.empty()" in m for m in messages)

    def test_pinned_dtypes_and_untracked_factories_are_fine(self):
        # every bare factory fires — sloppy() lines 12-16 plus the (later
        # suppressed) line 24; nothing with a kwarg/positional dtype or an
        # untracked factory (np.arange) does
        assert {f.line for f in self._findings()} == {12, 13, 14, 15, 16, 24}

    def test_suppression_comment_is_honoured(self):
        # line 24 carries ``# repro-lint: disable=RL7``; run_lint's
        # suppression pass (which check_file bypasses) must drop it
        source = fixture_source("bad_dtypes.py", "src/repro/nn/fused.py")
        assert source.is_suppressed("RL7", 24)
        assert not source.is_suppressed("RL7", 12)

    def test_fixture_path_itself_is_out_of_scope(self):
        report = run_lint(
            root=REPO_ROOT,
            paths=[FIXTURES / "bad_dtypes.py"],
            select=["RL7"],
        )
        # under its real tests/lint_fixtures path the file is not hot
        assert report.ok

    def test_out_of_scope_paths_are_ignored(self):
        assert self._findings(rel="src/repro/core/search.py") == []

    def test_live_hot_modules_are_clean(self):
        for rel in DtypeDisciplineRule.HOT_MODULES:
            report = run_lint(root=REPO_ROOT, paths=[REPO_ROOT / rel], select=["RL7"])
            assert report.ok, report.render_text()


class TestTelemetryDisciplineRule:
    def test_wallclock_durations_fire_everywhere(self):
        # run through the engine (suppression honoured); the fixture's own
        # tests/ path is outside the hot set, so only durations can fire
        report = lint_fixture("bad_telemetry.py", select=["RL8"])
        assert {f.line for f in report.findings} == {9, 13, 17}
        assert all(f.code == "RL8" for f in report.findings)
        assert all("subtraction" in f.message for f in report.findings)

    def test_inline_suppression_silences_the_line(self):
        report = lint_fixture("bad_telemetry.py", select=["RL8"])
        # line 29 carries ``# repro-lint: disable=RL8``
        assert 29 not in {f.line for f in report.findings}

    def test_print_and_stdlib_logging_fire_on_hot_paths(self):
        source = fixture_source("bad_telemetry.py", "src/repro/core/search.py")
        project = Project(root=REPO_ROOT)
        findings = list(TelemetryDisciplineRule().check_file(source, project))
        # check_file bypasses suppression: durations {9, 13, 17, 29} plus
        # the output findings {33, 37, 38}
        assert {f.line for f in findings} == {9, 13, 17, 29, 33, 37, 38}
        messages = [f.message for f in findings]
        assert any("print()" in m for m in messages)
        assert any("logging.info()" in m for m in messages)
        assert any("logging.getLogger()" in m for m in messages)

    def test_obs_layer_is_exempt(self):
        source = fixture_source("bad_telemetry.py", "src/repro/obs/trace.py")
        project = Project(root=REPO_ROOT)
        assert list(TelemetryDisciplineRule().check_file(source, project)) == []

    def test_timestamps_and_perf_counter_are_fine(self):
        report = lint_fixture("bad_telemetry.py", select=["RL8"])
        lines = {f.line for f in report.findings}
        assert 21 not in lines  # plain time.time() timestamp
        assert 25 not in lines  # perf_counter duration

    def test_live_hot_modules_are_clean(self):
        for rel in TelemetryDisciplineRule.HOT_MODULES:
            report = run_lint(root=REPO_ROOT, paths=[REPO_ROOT / rel], select=["RL8"])
            assert report.ok, report.render_text()


class TestFailureDisciplineRule:
    def _findings(self, rel="src/repro/serve/supervisor.py"):
        source = fixture_source("bad_failures.py", rel)
        project = Project(root=REPO_ROOT)
        return list(FailureDisciplineRule().check_file(source, project))

    def test_fires_on_every_swallowed_broad_except(self):
        lines = {f.line for f in self._findings()}
        # bare except, except Exception, except BaseException, bound-but-
        # unused exc (plus line 77's suppressed handler — check_file
        # bypasses the suppression pass)
        assert {15, 22, 29, 36, 77} <= lines
        messages = [f.message for f in self._findings()]
        assert any("bare except" in m for m in messages)
        assert any("except BaseException" in m for m in messages)

    def test_fires_on_every_unbounded_queue(self):
        lines = {f.line for f in self._findings()}
        assert {45, 46, 47, 50} <= lines
        messages = [f.message for f in self._findings()]
        assert any("SimpleQueue" in m for m in messages)
        assert any("queue.LifoQueue" in m for m in messages)

    def test_exactly_the_expected_findings(self):
        assert {f.line for f in self._findings()} == {15, 22, 29, 36, 45, 46, 47, 50, 77}
        assert all(f.code == "RL9" for f in self._findings())

    def test_surfaced_failures_and_computed_bounds_are_fine(self):
        # fine_handlers() (raise-from, logger.event, record(exc), a narrow
        # tuple) and the computed maxsize on line 49 must not fire
        lines = {f.line for f in self._findings()}
        assert not any(54 <= line <= 72 for line in lines)
        assert 49 not in lines

    def test_suppression_comment_is_honoured_by_the_engine(self):
        report = lint_fixture("bad_failures.py", select=["RL9"])
        # under its real tests/lint_fixtures path the file is out of scope
        assert report.ok

    def test_master_scope_also_fires(self):
        assert self._findings(rel="src/repro/master/worker.py")

    def test_utils_scope_also_fires(self):
        assert self._findings(rel="src/repro/utils/connloop.py")

    def test_out_of_scope_paths_are_ignored(self):
        assert self._findings(rel="src/repro/core/search.py") == []

    def test_live_serve_and_master_trees_are_clean(self):
        for rel in FailureDisciplineRule.SCOPE_DIRS:
            paths = sorted((REPO_ROOT / rel).glob("*.py"))
            assert paths
            report = run_lint(root=REPO_ROOT, paths=paths, select=["RL9"])
            assert report.ok, report.render_text()


class TestParseErrors:
    def test_unparseable_file_reports_rl0(self):
        report = lint_fixture("bad_syntax.py")
        assert [f.code for f in report.findings] == ["RL0"]
        assert "does not parse" in report.findings[0].message

    def test_rl0_can_be_ignored(self):
        report = lint_fixture("bad_syntax.py", ignore=["RL0"])
        assert report.ok


# ----------------------------------------------------------------------
# RL2 — hash contract
# ----------------------------------------------------------------------
class TestHashContract:
    def _project(self):
        spec_py = REPO_ROOT / "src" / "repro" / "api" / "spec.py"
        return Project(
            root=REPO_ROOT,
            files=[SourceFile(spec_py, "src/repro/api/spec.py")],
        )

    def test_live_manifest_is_complete(self):
        assert list(HashContractRule().check_project(self._project())) == []

    def test_manifest_covers_every_field_of_every_section(self):
        import dataclasses

        from repro.api import spec as spec_module

        for section, section_type in spec_module._SECTION_TYPES.items():
            declared = set(spec_module.HASH_MANIFEST[section])
            actual = {f.name for f in dataclasses.fields(section_type)}
            assert declared == actual, section

    def test_missing_field_is_reported(self, monkeypatch):
        from repro.api import spec as spec_module

        manifest = {k: dict(v) for k, v in spec_module.HASH_MANIFEST.items()}
        manifest["search"].pop("episodes")
        monkeypatch.setattr(spec_module, "HASH_MANIFEST", manifest)
        findings = list(HashContractRule().check_project(self._project()))
        assert any("'search.episodes' is not declared" in f.message for f in findings)

    def test_stale_entry_is_reported(self, monkeypatch):
        from repro.api import spec as spec_module

        manifest = {k: dict(v) for k, v in spec_module.HASH_MANIFEST.items()}
        manifest["pool"]["ghost_field"] = "hashed"
        monkeypatch.setattr(spec_module, "HASH_MANIFEST", manifest)
        findings = list(HashContractRule().check_project(self._project()))
        assert any("no such field" in f.message for f in findings)

    def test_mismarked_execution_field_is_reported(self, monkeypatch):
        from repro.api import spec as spec_module

        manifest = {k: dict(v) for k, v in spec_module.HASH_MANIFEST.items()}
        manifest["execution"]["executor"] = "hashed"
        monkeypatch.setattr(spec_module, "HASH_MANIFEST", manifest)
        findings = list(HashContractRule().check_project(self._project()))
        assert any("popped from spec_hash()" in f.message for f in findings)


# ----------------------------------------------------------------------
# RL5 — registry consistency
# ----------------------------------------------------------------------
class TestRegistryAudit:
    def test_live_registries_are_consistent(self):
        assert audit_registries(include_experiments=True) == []

    def test_live_specs_resolve(self):
        for spec_path in (REPO_ROOT / "examples" / "specs").glob("*.json"):
            assert audit_spec_file(spec_path) == [], spec_path.name

    def test_summary_lists_every_family(self):
        summary = registry_summary()
        assert set(summary) >= {
            "datasets", "architectures", "controllers", "proxy_builders",
            "rewards", "selection_strategies", "executors", "experiments",
        }
        assert "rnn" in summary["controllers"]

    def test_unknown_component_gets_did_you_mean(self, tmp_path):
        spec = {
            "name": "typo-run",
            "search": {"controller": "rrn"},
        }
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(spec))
        issues = audit_spec_file(path)
        assert len(issues) == 1
        assert "unknown controller 'rrn'" in issues[0].message
        assert "did you mean 'rnn'" in issues[0].hint

    def test_unparseable_spec_is_one_issue(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"unknown_section": {}}')
        issues = audit_spec_file(path)
        assert len(issues) == 1
        assert "does not parse" in issues[0].message

    def test_scope_examples_runs_only_spec_checks(self):
        report = run_lint(root=REPO_ROOT, scope="examples", select=["RL5"])
        assert report.ok
        assert report.files_checked == 0
        assert report.specs_checked >= 2

    def test_bad_spec_path_is_line_anchored(self, tmp_path):
        lines = [
            "{",
            '  "name": "typo-run",',
            '  "dataset": {"name": "synthetic_isicc"}',
            "}",
        ]
        path = tmp_path / "anchored.json"
        path.write_text("\n".join(lines))
        report = run_lint(root=REPO_ROOT, paths=[path], select=["RL5"])
        assert len(report.findings) == 1
        assert report.findings[0].line == 3


# ----------------------------------------------------------------------
# Selection / suppression semantics and the JSON schema
# ----------------------------------------------------------------------
class TestSelectionSemantics:
    def test_select_narrows_to_listed_codes(self):
        report = lint_fixture("bad_determinism.py", select=["RL3"])
        assert report.ok  # RL1 findings exist but RL1 did not run
        assert report.codes_run == ("RL3",)

    def test_ignore_removes_codes(self):
        report = lint_fixture("bad_determinism.py", ignore=["RL1"])
        assert report.ok
        assert "RL1" not in report.codes_run

    def test_code_in_both_select_and_ignore_is_off(self):
        report = lint_fixture(
            "bad_determinism.py", select=["RL1", "RL3"], ignore=["RL1"]
        )
        assert report.codes_run == ("RL3",)

    def test_comma_separated_and_case_insensitive(self):
        report = lint_fixture("bad_determinism.py", select=["rl1,rl3"])
        assert report.codes_run == ("RL1", "RL3")

    def test_unknown_code_is_a_config_error_with_suggestion(self):
        with pytest.raises(LintConfigError, match="RL1"):
            lint_fixture("bad_determinism.py", select=["RL11"])

    def test_missing_path_is_a_config_error(self):
        with pytest.raises(LintConfigError, match="does not exist"):
            run_lint(root=REPO_ROOT, paths=["no/such/file.py"])


class TestJsonReport:
    def _report(self):
        return lint_fixture("bad_determinism.py", select=["RL1"])

    def test_schema_golden_file(self):
        payload = self._report().to_dict()
        golden = json.loads(GOLDEN.read_text())
        assert payload == golden

    def test_schema_shape(self):
        payload = self._report().to_dict()
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION
        assert payload["counts"] == {"RL1": 5}
        for finding in payload["findings"]:
            assert set(finding) == {"path", "line", "col", "code", "message", "hint"}

    def test_json_round_trips(self):
        report = self._report()
        assert json.loads(report.to_json()) == report.to_dict()


# ----------------------------------------------------------------------
# The CLI and the gate itself
# ----------------------------------------------------------------------
class TestCli:
    def test_clean_tree_exits_zero(self, capsys):
        from repro.analysis.cli import main

        assert main(["--root", str(REPO_ROOT)]) == 0
        assert "clean: 0 findings" in capsys.readouterr().out

    def test_violations_exit_nonzero_with_codes(self, capsys):
        from repro.analysis.cli import main

        rc = main(
            ["--root", str(REPO_ROOT), "--select", "RL1",
             str(FIXTURES / "bad_determinism.py")]
        )
        assert rc == 1
        assert "RL1" in capsys.readouterr().out

    def test_json_format(self, capsys):
        from repro.analysis.cli import main

        rc = main(
            ["--root", str(REPO_ROOT), "--format", "json", "--select", "RL1",
             str(FIXTURES / "bad_determinism.py")]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"RL1": 5}

    def test_config_error_exits_two(self, capsys):
        from repro.analysis.cli import main

        assert main(["--select", "BOGUS"]) == 2
        assert "unknown rule code" in capsys.readouterr().out

    def test_main_module_dispatches_lint(self, capsys):
        from repro.__main__ import main

        assert main(["lint", "--root", str(REPO_ROOT), "--scope", "examples"]) == 0


class TestSelfCheck:
    def test_live_tree_is_clean(self):
        """The CI gate: the full rule set finds nothing in the repo."""
        report = run_lint(root=REPO_ROOT)
        assert report.ok, report.render_text()
        assert report.files_checked > 80
        assert report.specs_checked >= 2

    def test_rule_registry_is_complete(self):
        from repro.analysis.core import LINT_RULES

        assert set(LINT_RULES.names()) == {
            "RL1", "RL2", "RL3", "RL4", "RL5", "RL6", "RL7", "RL8", "RL9",
        }
        for code in LINT_RULES.names():
            rule = LINT_RULES.get(code)()
            assert rule.code == code
            assert rule.description
