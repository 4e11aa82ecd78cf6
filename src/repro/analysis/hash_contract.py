"""RL2 — the stage-hash contract between spec fields and cached artifacts.

The pipeline's resume-from-cache correctness rests on one sentence: *a spec
field either enters the stage hashes or is execution-only, and everyone
knows which*.  PR 6 added ``task_retries``/``heartbeat_seconds`` and PR 2
added ``memoize`` to :class:`~repro.api.spec.ExecutionSpec` precisely so
they would stay out of the cache keys; a future field added to
:class:`~repro.api.spec.SearchSpec` but (by bug) excluded from hashing
would silently serve stale cached artifacts for changed runs.

This checker introspects the live spec dataclasses against the declared
:data:`~repro.api.spec.HASH_MANIFEST` and reports:

* a spec field missing from the manifest (the headline check: you cannot
  add a field without declaring its hash status);
* a stale manifest entry naming a removed field or section;
* an ``execution`` field marked ``hashed`` (the execution section is popped
  from every hash — marking it hashed is a lie);
* a non-execution field marked ``excluded`` (exclusion is only implemented
  section-wise; an execution-only knob must live in ``ExecutionSpec``);
* a behavioural cross-check that the implementation still honours the
  manifest: two specs differing only in an execution field must share
  ``spec_hash``/``stage_hash``, and editing a hashed search field must
  change both.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional

from .core import LINT_RULES, Finding, Project, ProjectRule

SPEC_MODULE_REL = "src/repro/api/spec.py"

_VALID_STATUSES = ("hashed", "excluded")

#: spec sections popped wholesale from ``spec_hash`` — every field of these
#: must be 'excluded', every field elsewhere must be 'hashed'.  ``backend``
#: joined ``execution`` when the precision seam landed: which dtype the
#: GEMMs run in is a performance knob with a tolerance contract, not a
#: semantic change, so it must not invalidate cached artifacts.  ``obs``
#: joined with the telemetry layer: spans and metrics observe the
#: computation without shaping it (bit-identity is test-enforced), so
#: turning tracing on must not invalidate caches either.
EXCLUDED_SECTIONS = ("execution", "backend", "obs")


def _manifest_line(project: Project, needle: str) -> int:
    """Best-effort line anchor inside ``api/spec.py`` for a finding."""
    for source in project.files:
        if source.rel == SPEC_MODULE_REL:
            for lineno, line in enumerate(source.lines, start=1):
                if needle in line:
                    return lineno
    return 1


@LINT_RULES.register("RL2")
class HashContractRule(ProjectRule):
    """Every spec field explicitly declared hashed or excluded — and truly so."""

    code = "RL2"
    name = "hash-contract"
    description = (
        "every RunSpec section field must be declared in HASH_MANIFEST, and "
        "the declaration must match how spec_hash/stage_hash actually treat it"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        try:
            from ..api import spec as spec_module
        except Exception as exc:  # the spec layer failing to import IS a finding
            return [
                self._finding(
                    project,
                    "HASH_MANIFEST",
                    f"cannot import repro.api.spec to check the hash contract: "
                    f"{type(exc).__name__}: {exc}",
                    "fix the import error; RL2 cannot run without the spec layer",
                )
            ]
        findings: List[Finding] = []
        manifest = getattr(spec_module, "HASH_MANIFEST", None)
        if not isinstance(manifest, dict):
            return [
                self._finding(
                    project,
                    "HASH_MANIFEST",
                    "repro.api.spec.HASH_MANIFEST is missing",
                    "declare the hash-contract manifest next to the spec dataclasses",
                )
            ]
        section_types = spec_module._SECTION_TYPES

        for section in section_types:
            if section not in manifest:
                findings.append(
                    self._finding(
                        project,
                        "HASH_MANIFEST",
                        f"spec section '{section}' has no HASH_MANIFEST entry",
                        f"add a '{section}' block declaring every field hashed/excluded",
                    )
                )
        for section in manifest:
            if section not in section_types:
                findings.append(
                    self._finding(
                        project,
                        f'"{section}"',
                        f"HASH_MANIFEST declares unknown spec section '{section}'",
                        "remove the stale manifest block",
                    )
                )

        for section, section_type in section_types.items():
            declared = manifest.get(section)
            if not isinstance(declared, dict):
                continue
            actual = {f.name for f in dataclasses.fields(section_type)}
            for field_name in sorted(actual - set(declared)):
                findings.append(
                    self._finding(
                        project,
                        f"class {section_type.__name__}",
                        f"spec field '{section}.{field_name}' is not declared in "
                        "HASH_MANIFEST — is it part of the cache key or not?",
                        f"add '{field_name}': "
                        f"'{'excluded' if section in EXCLUDED_SECTIONS else 'hashed'}' "
                        f"to HASH_MANIFEST['{section}']",
                    )
                )
            for field_name in sorted(set(declared) - actual):
                findings.append(
                    self._finding(
                        project,
                        f'"{field_name}"',
                        f"HASH_MANIFEST declares '{section}.{field_name}' but "
                        f"{section_type.__name__} has no such field",
                        "remove the stale manifest entry",
                    )
                )
            for field_name, status in declared.items():
                if status not in _VALID_STATUSES:
                    findings.append(
                        self._finding(
                            project,
                            f'"{field_name}"',
                            f"'{section}.{field_name}' has invalid hash status "
                            f"{status!r}",
                            f"use one of {list(_VALID_STATUSES)}",
                        )
                    )
                elif section in EXCLUDED_SECTIONS and status != "excluded":
                    findings.append(
                        self._finding(
                            project,
                            f'"{field_name}"',
                            f"'{section}.{field_name}' is marked 'hashed' but the "
                            f"whole {section} section is popped from spec_hash()",
                            f"{section} fields are excluded by construction; move "
                            "result-affecting knobs to another section",
                        )
                    )
                elif section not in EXCLUDED_SECTIONS and status != "hashed":
                    findings.append(
                        self._finding(
                            project,
                            f'"{field_name}"',
                            f"'{section}.{field_name}' is marked 'excluded' but "
                            f"every '{section}' field enters the stage hashes",
                            "execution-only knobs belong in ExecutionSpec (or "
                            "BackendSpec); anything else must be hashed",
                        )
                    )

        behaviour = self._behaviour_check(project, spec_module)
        if behaviour is not None:
            findings.append(behaviour)
        return findings

    # ------------------------------------------------------------------
    def _behaviour_check(self, project: Project, spec_module) -> Optional[Finding]:
        """Cross-check that the implementation still honours the manifest."""
        try:
            base = spec_module.RunSpec()
            exec_variant = dataclasses.replace(
                base,
                execution=dataclasses.replace(
                    base.execution,
                    executor="distributed"
                    if base.execution.executor != "distributed"
                    else "serial",
                    memoize=not base.execution.memoize,
                ),
                backend=dataclasses.replace(
                    base.backend,
                    name="numpy-float32"
                    if base.backend.name != "numpy-float32"
                    else "numpy-float64",
                ),
                obs=dataclasses.replace(
                    base.obs,
                    trace_path="trace.jsonl",
                    metrics_enabled=not base.obs.metrics_enabled,
                ),
            )
            hashed_variant = dataclasses.replace(
                base,
                search=dataclasses.replace(base.search, episodes=base.search.episodes + 1),
            )
            if base.spec_hash() != exec_variant.spec_hash() or any(
                base.stage_hash(stage) != exec_variant.stage_hash(stage)
                for stage in spec_module.PIPELINE_STAGES
            ):
                return self._finding(
                    project,
                    "def spec_hash",
                    "editing only execution/backend/obs fields changed a "
                    "spec/stage hash — the manifest says those sections are "
                    "excluded but the implementation hashes them",
                    "keep the execution, backend and obs sections popped from "
                    "every hash payload",
                )
            if (
                base.spec_hash() == hashed_variant.spec_hash()
                or base.stage_hash("search") == hashed_variant.stage_hash("search")
            ):
                return self._finding(
                    project,
                    "def stage_hash",
                    "editing a hashed search field left the spec/search-stage "
                    "hash unchanged — cached artifacts would be served for a "
                    "different run",
                    "ensure stage_hash('search') covers the search section",
                )
        except Exception as exc:
            return self._finding(
                project,
                "def spec_hash",
                f"hash-contract behaviour check crashed: {type(exc).__name__}: {exc}",
                "RunSpec() defaults must stay constructible for RL2's cross-check",
            )
        return None

    def _finding(self, project: Project, needle: str, message: str, hint: str) -> Finding:
        return Finding(
            path=SPEC_MODULE_REL,
            line=_manifest_line(project, needle),
            col=1,
            code=self.code,
            message=message,
            hint=hint,
        )
