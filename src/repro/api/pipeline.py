"""Staged executor turning a :class:`~repro.api.RunSpec` into artifacts.

``MuffinPipeline`` runs the seven stages of a Muffin run —

    dataset -> split -> pool -> search -> finalize -> export -> report

— resolving every component through the registries, sharing one
:class:`~repro.core.BodyOutputCache` across the search and finalisation
stages, and recording structured per-stage timings.

With a ``cache_dir`` the expensive stages persist their artifacts keyed by
the spec's per-stage hash (:meth:`RunSpec.stage_hash`): a repeated run loads
the trained pool and the search history from disk instead of recomputing
them, and editing one sub-spec only invalidates the stages downstream of it.
The dataset and split stages are deterministic and cheap, so they are always
rebuilt rather than persisted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Union

from ..core import (
    BodyOutputCache,
    MuffinNet,
    MuffinSearch,
    MuffinSearchResult,
    rebuild_fused_model,
)
from ..data import DATASETS, split_dataset
from ..data.dataset import FairnessDataset
from ..data.schema import FeatureSchema
from ..data.splits import DataSplit
from ..fairness.metrics import FairnessEvaluation
from ..obs import METRICS, session as obs_session, span
from ..utils.logging import RunLogger
from ..utils.serialization import load_json, save_json
from ..zoo import ModelPool, load_pool, save_pool
from ..zoo.persistence import FUSED_ARTIFACT_FORMAT, artifact_checksum, fused_model_payload
from .spec import PIPELINE_STAGES, RunSpec, SpecError

PathLike = Union[str, Path]

_MANIFEST = "manifest.json"

#: Stages executed, labelled by stage name and outcome (ran/cached/rebuilt).
_STAGES_TOTAL = METRICS.counter(
    "repro_pipeline_stages_total",
    "Pipeline stages executed, by stage and cache status.",
    labelnames=("stage", "status"),
)
_STAGE_SECONDS = METRICS.histogram(
    "repro_pipeline_stage_seconds",
    "Wall time per executed pipeline stage.",
    labelnames=("stage",),
)


class PipelineError(RuntimeError):
    """A pipeline stage that cannot be executed."""


@dataclass
class StageTiming:
    """Structured record of one executed pipeline stage."""

    stage: str
    status: str  # "ran" | "cached" | "rebuilt"
    seconds: float
    hash: str = ""
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "stage": self.stage,
            "status": self.status,
            "seconds": round(self.seconds, 4),
            "hash": self.hash,
            "detail": self.detail,
        }


class PipelineResult(Mapping):
    """Typed result of one pipeline run.

    Attribute access (``result.muffin``) is the primary API; mapping access
    (``result["muffin"]``) is kept for backward compatibility with the
    dictionary :func:`repro.quick_muffin_search` used to return.
    """

    _KEYS = ("spec", "dataset", "split", "pool", "result", "muffin", "report")

    def __init__(
        self,
        spec: RunSpec,
        dataset: FairnessDataset,
        split: DataSplit,
        pool: ModelPool,
        result: MuffinSearchResult,
        muffin: MuffinNet,
        report: Dict[str, object],
        timings: List[StageTiming],
        cache_dir: Optional[Path] = None,
        artifact: Optional[Dict[str, object]] = None,
        artifact_path: Optional[Path] = None,
    ) -> None:
        self.spec = spec
        self.dataset = dataset
        self.split = split
        self.pool = pool
        self.result = result
        self.muffin = muffin
        self.report = report
        self.timings = list(timings)
        self.cache_dir = cache_dir
        #: deployable fused-model bundle built by the export stage (if enabled)
        self.artifact = artifact
        #: where the bundle was persisted (cache runs only)
        self.artifact_path = artifact_path

    @property
    def search_result(self) -> MuffinSearchResult:
        """Alias for :attr:`result` (the search history)."""
        return self.result

    @property
    def resumed_stages(self) -> List[str]:
        """Stages that were loaded from the artifact cache."""
        return [t.stage for t in self.timings if t.status == "cached"]

    def save_artifact(self, path: PathLike, overwrite: bool = False) -> Path:
        """Write the deployable fused-model bundle to ``path``.

        The bundle is what ``python -m repro serve`` and
        :func:`~repro.zoo.persistence.load_fused_model` consume.
        """
        if self.artifact is None:
            raise PipelineError(
                "this run produced no serving artifact (export.enabled is false)"
            )
        path = Path(path)
        if path.exists() and not overwrite:
            raise FileExistsError(
                f"artifact '{path}' already exists; pass overwrite=True to replace it"
            )
        return save_json(self.artifact, path)

    def summary(self) -> Dict[str, object]:
        return {
            "run": self.spec.name,
            "spec_hash": self.spec.spec_hash(),
            "muffin": self.muffin.name,
            "test_accuracy": (
                self.muffin.test_evaluation.accuracy if self.muffin.test_evaluation else None
            ),
            "episodes": len(self.result),
            "stages": [t.to_dict() for t in self.timings],
        }

    # Mapping protocol (legacy ``outcome["muffin"]`` access).
    def __getitem__(self, key: str):
        if key in self._KEYS:
            return getattr(self, key)
        raise KeyError(f"unknown result key '{key}'; available: {list(self._KEYS)}")

    def __iter__(self) -> Iterator[str]:
        return iter(self._KEYS)

    def __len__(self) -> int:
        return len(self._KEYS)


class MuffinPipeline:
    """Executes a :class:`RunSpec` stage by stage with artifact caching."""

    STAGES = PIPELINE_STAGES

    def __init__(
        self,
        spec: RunSpec,
        cache_dir: Optional[PathLike] = None,
        verbose: bool = False,
        should_stop=None,
    ) -> None:
        self.spec = spec
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        #: zero-argument callable polled at search batch boundaries; returning
        #: True raises :class:`~repro.core.SearchInterrupted` (graceful
        #: shutdown / cancellation hook — the master and the CLI wire it)
        self.should_stop = should_stop
        self.logger = RunLogger(name=f"pipeline:{spec.name}", verbose=verbose)
        self.timings: List[StageTiming] = []
        self.body_cache: Optional[BodyOutputCache] = None
        self._artifacts: Dict[str, object] = {}
        self._search: Optional[MuffinSearch] = None
        self._manifest: Dict[str, Dict[str, object]] = self._load_manifest()
        self._validate_spec()

    def _validate_spec(self) -> None:
        """Fail fast on unresolvable component names.

        Every registry name the spec uses is checked up front, so a typo'd
        controller fails in milliseconds instead of after the pool has
        trained.  Plugins must therefore be registered before the pipeline
        is constructed.
        """
        from ..core import REWARDS, SELECTION_STRATEGIES
        from ..registry import UnknownComponentError
        from ..zoo import get_architecture

        spec = self.spec
        try:
            DATASETS.canonical_name(spec.dataset.name)
            REWARDS.canonical_name(spec.search.reward)
            # Validates controller / proxy / partition / executor names.
            spec.search.search_config(spec.execution)
            for name in spec.pool.architectures or ():
                get_architecture(name)
            for model in (spec.search.base_model, spec.finalize.reference_model):
                if model is not None:
                    get_architecture(model)
        except (UnknownComponentError, KeyError, ValueError) as exc:
            raise SpecError(str(exc)) from exc
        selection = spec.finalize.selection
        if selection not in SELECTION_STRATEGIES and selection not in spec.search.attributes:
            suggestions = SELECTION_STRATEGIES.suggest(selection)
            hint = f"; did you mean '{suggestions[0]}'?" if suggestions else ""
            raise SpecError(
                f"unknown selection strategy '{selection}'{hint} Available: "
                f"{SELECTION_STRATEGIES.names()} or an attribute of "
                f"{list(spec.search.attributes)}"
            )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @classmethod
    def default_cache_dir(cls, spec: RunSpec) -> Path:
        """The conventional cache location for ``spec``: ``.repro_cache/<name>-<hash>``."""
        return Path(".repro_cache") / f"{spec.name}-{spec.spec_hash()}"

    def run(self, resume: bool = True, rerun_from: Optional[str] = None) -> PipelineResult:
        """Execute every stage and return the typed result.

        ``resume=True`` (default) loads any cached stage whose spec hash
        matches; ``rerun_from`` forces that stage and everything after it to
        recompute even when cached.
        """
        if rerun_from is not None and rerun_from not in self.STAGES:
            raise SpecError(
                f"unknown stage '{rerun_from}'; expected one of {list(self.STAGES)}"
            )
        self.timings = []
        # A MuffinSearch carries mutable state (trained controller, advanced
        # RNG) and is bound to one pool object; every run() gets a fresh one
        # so repeated runs are reproducible and never see a stale pool.
        self._search = None
        force_from = self.STAGES.index(rerun_from) if rerun_from is not None else len(self.STAGES)
        # Telemetry (spec.obs) is scoped to this run and hash-excluded:
        # spans/metrics observe the stages without entering any cache key.
        with obs_session(
            trace_path=self.spec.obs.trace_path,
            metrics_enabled=self.spec.obs.metrics_enabled,
        ):
            with span("pipeline/run", run=self.spec.name, spec_hash=self.spec.spec_hash()):
                for index, stage in enumerate(self.STAGES):
                    self._execute(stage, use_cache=resume and index < force_from)
        artifact = self._artifacts.get("export")
        artifact_path = None
        if artifact is not None and self.cache_dir is not None:
            artifact_path = self.cache_dir / self._artifact_name(
                "export", self.spec.stage_hash("export")
            )
        return PipelineResult(
            spec=self.spec,
            dataset=self._artifacts["dataset"],
            split=self._artifacts["split"],
            pool=self._artifacts["pool"],
            result=self._artifacts["search"],
            muffin=self._artifacts["finalize"],
            report=self._artifacts["report"],
            timings=self.timings,
            cache_dir=self.cache_dir,
            artifact=artifact,
            artifact_path=artifact_path,
        )

    @property
    def search(self) -> MuffinSearch:
        """The search driver (available once the pool stage has run).

        Exposes the full :class:`~repro.core.MuffinSearch` API — e.g.
        ``named_muffin_nets`` for the paper's per-attribute specialists —
        on top of the pipeline's shared body-output cache.
        """
        if "pool" not in self._artifacts:
            raise PipelineError("run() the pipeline (at least through 'pool') first")
        return self._build_search()

    # ------------------------------------------------------------------
    # Stage driver
    # ------------------------------------------------------------------
    def _execute(self, stage: str, use_cache: bool) -> None:
        stage_hash = self.spec.stage_hash(stage)
        with span(f"pipeline/stage/{stage}", hash=stage_hash):
            start = time.perf_counter()
            status, detail = "ran", ""
            loader = getattr(self, f"_load_{stage}", None)
            cached_entry = self._manifest.get(stage, {})
            # Artifacts are keyed by stage hash on disk, so a matching artifact
            # is valid regardless of what the (last-run) manifest says — a
            # shared cache_dir alternating between specs still hits every cache.
            if use_cache and loader is not None and self.cache_dir is not None:
                try:
                    self._artifacts[stage] = loader(stage_hash)
                    status = "cached"
                    detail = self._artifact_name(stage, stage_hash)
                except (FileNotFoundError, KeyError, ValueError) as exc:
                    detail = f"cache miss ({exc.__class__.__name__}); recomputed"
                    status = "ran"
            if status != "cached":
                builder = getattr(self, f"_stage_{stage}")
                self._artifacts[stage] = builder()
                if loader is None and cached_entry.get("hash") == stage_hash:
                    status = "rebuilt"  # deterministic stage, cheap to rebuild
                artifact = self._persist(stage, stage_hash)
                if artifact:
                    detail = artifact
                if stage == "search":
                    stats = getattr(self._artifacts["search"], "execution_stats", None)
                    if stats is not None:
                        memo = (
                            f"executor={stats.executor} backend={stats.backend} "
                            f"memo={stats.memo_hits}h/{stats.memo_misses}m"
                        )
                        detail = f"{detail}; {memo}" if detail else memo
            seconds = time.perf_counter() - start
            self.timings.append(
                StageTiming(
                    stage=stage, status=status, seconds=seconds, hash=stage_hash, detail=detail
                )
            )
            _STAGES_TOTAL.inc(stage=stage, status=status)
            _STAGE_SECONDS.observe(seconds, stage=stage)
            self.logger.log(stage=stage, status=status, seconds=round(seconds, 3))
            self._manifest[stage] = {
                "hash": stage_hash,
                "seconds": round(seconds, 4),
                "artifact": detail,
            }
            self._save_manifest()

    # ------------------------------------------------------------------
    # Stage builders
    # ------------------------------------------------------------------
    def _stage_dataset(self) -> FairnessDataset:
        spec = self.spec.dataset
        builder = DATASETS.get(spec.name)
        return builder(num_samples=spec.num_samples, seed=spec.seed, **spec.params)

    def _stage_split(self) -> DataSplit:
        spec = self.spec.dataset
        return split_dataset(
            self._artifacts["dataset"], fractions=spec.split_fractions, seed=spec.split_seed
        )

    def _stage_pool(self) -> ModelPool:
        spec = self.spec.pool
        return ModelPool(
            self._artifacts["split"],
            architecture_names=list(spec.architectures) if spec.architectures else None,
            train_config=spec.train_config(),
            seed=spec.seed,
        ).build()

    def _build_search(self) -> MuffinSearch:
        if self._search is None:
            pool: ModelPool = self._artifacts["pool"]
            if self.body_cache is None or self.body_cache.pool is not pool:
                self.body_cache = BodyOutputCache(pool)
            spec = self.spec.search
            base_model = pool.get(spec.base_model).label if spec.base_model else None
            self._search = MuffinSearch(
                pool,
                attributes=list(spec.attributes),
                base_model=base_model,
                num_paired=spec.num_paired,
                search_config=spec.search_config(self.spec.execution),
                reward_config=spec.reward_config(),
                head_config=spec.head_config(self.spec.execution, self.spec.backend),
                reward_builder=spec.reward,
                body_cache=self.body_cache,
            )
        return self._search

    def _stage_search(self) -> MuffinSearchResult:
        journal = None
        if self.spec.execution.journal is not None:
            from ..master.db import EpisodeJournal

            # The fingerprint ties the journal to the result-determining
            # sub-specs; a journal written by a different spec resets itself
            # instead of replaying foreign batches.
            journal = EpisodeJournal(
                self.spec.execution.journal,
                fingerprint={"search": self.spec.stage_hash("search")},
            )
        try:
            return self._build_search().run(journal=journal, should_stop=self.should_stop)
        finally:
            if journal is not None:
                journal.close()

    def _stage_finalize(self) -> MuffinNet:
        spec = self.spec.finalize
        return self._build_search().finalize(
            self._artifacts["search"],
            metric=spec.selection,
            name=spec.name,
            evaluate_on_test=spec.evaluate_on_test,
            reference_model=spec.reference_model,
        )

    def _stage_export(self) -> Optional[Dict[str, object]]:
        """Bundle the finalised model as a deployable serving artifact."""
        if not self.spec.export.enabled:
            return None
        muffin: MuffinNet = self._artifacts["finalize"]
        schema = FeatureSchema.from_dataset(self._artifacts["dataset"])
        return fused_model_payload(
            muffin.fused,
            schema=schema,
            spec_hash=self.spec.spec_hash(),
            name=muffin.name,
        )

    def _stage_report(self) -> Dict[str, object]:
        spec = self.spec.report
        pool: ModelPool = self._artifacts["pool"]
        result: MuffinSearchResult = self._artifacts["search"]
        muffin: MuffinNet = self._artifacts["finalize"]
        report: Dict[str, object] = {
            "run": self.spec.name,
            "spec_hash": self.spec.spec_hash(),
            "muffin": muffin.to_dict(),
        }
        if self._artifacts.get("export") is not None:
            report["artifact"] = self._artifact_name(
                "export", self.spec.stage_hash("export")
            )
        if spec.include_pool:
            report["pool"] = pool.summary()
        if spec.include_search:
            report["search"] = result.summary()
            top = sorted(result.records, key=lambda r: r.reward, reverse=True)[: spec.top_k]
            report["top_episodes"] = [record.to_dict() for record in top]
        report["timings"] = [t.to_dict() for t in self.timings]
        return report

    # ------------------------------------------------------------------
    # Persistence (cache_dir only)
    # ------------------------------------------------------------------
    def _artifact_name(self, stage: str, stage_hash: str) -> str:
        if stage == "export":
            return self.spec.export.filename or f"muffin-{stage_hash}.json"
        return {
            "pool": f"pool-{stage_hash}",
            "search": f"search-{stage_hash}.json",
            "finalize": f"finalize-{stage_hash}.json",
            "report": f"report-{stage_hash}.json",
        }.get(stage, "")

    def _persist(self, stage: str, stage_hash: str) -> str:
        if self.cache_dir is None:
            return ""
        name = self._artifact_name(stage, stage_hash)
        if stage == "pool":
            # The pipeline intentionally replaces its own cache artifacts
            # (e.g. after a forced rerun or a failed cache load).
            save_pool(self._artifacts["pool"], self.cache_dir / name, overwrite=True)
            return name
        if stage == "export":
            payload = self._artifacts.get("export")
            if payload is None:
                return ""
            save_json(payload, self.cache_dir / name)
            return name
        if stage == "search":
            result: MuffinSearchResult = self._artifacts["search"]
            save_json(result.to_dict(include_state=True), self.cache_dir / name)
            return name
        if stage == "finalize":
            muffin: MuffinNet = self._artifacts["finalize"]
            payload: Dict[str, object] = {
                "name": muffin.name,
                "episode": muffin.record.episode,
                "test_evaluation": (
                    muffin.test_evaluation.to_dict() if muffin.test_evaluation else None
                ),
            }
            save_json(payload, self.cache_dir / name)
            return name
        if stage == "report":
            save_json(self._artifacts["report"], self.cache_dir / name)
            return name
        return ""

    def _load_pool(self, stage_hash: str) -> ModelPool:
        directory = self._require_cache() / self._artifact_name("pool", stage_hash)
        if not directory.exists():
            raise FileNotFoundError(directory)
        return load_pool(
            directory, self._artifacts["split"], train_config=self.spec.pool.train_config()
        )

    def _load_search(self, stage_hash: str) -> MuffinSearchResult:
        path = self._require_cache() / self._artifact_name("search", stage_hash)
        if not path.exists():
            raise FileNotFoundError(path)
        return MuffinSearchResult.from_dict(load_json(path))

    def _load_finalize(self, stage_hash: str) -> MuffinNet:
        path = self._require_cache() / self._artifact_name("finalize", stage_hash)
        if not path.exists():
            raise FileNotFoundError(path)
        payload = load_json(path)
        result: MuffinSearchResult = self._artifacts["search"]
        matches = [r for r in result.records if r.episode == int(payload["episode"])]
        if not matches:
            raise ValueError(f"cached finalize points at unknown episode {payload['episode']}")
        record = matches[0]
        pool: ModelPool = self._artifacts["pool"]
        if record.head_state is not None:
            fused = rebuild_fused_model(
                record, pool.models(record.candidate.model_names), name=payload["name"]
            )
            muffin = MuffinNet(name=payload["name"], fused=fused, record=record)
        else:
            muffin = self._build_search().materialize_record(
                record, name=payload["name"], evaluate_on_test=False
            )
        if payload.get("test_evaluation") is not None:
            muffin.test_evaluation = FairnessEvaluation.from_dict(payload["test_evaluation"])
        return muffin

    def _load_export(self, stage_hash: str) -> Optional[Dict[str, object]]:
        if not self.spec.export.enabled:
            # A disabled export "loads" instantly as absent; returning here
            # (instead of raising) keeps the stage cached-status-free noise
            # out of reruns.
            raise FileNotFoundError("export disabled")
        path = self._require_cache() / self._artifact_name("export", stage_hash)
        if not path.exists():
            raise FileNotFoundError(path)
        payload = load_json(path)
        if (
            not isinstance(payload, dict)
            or payload.get("format") != FUSED_ARTIFACT_FORMAT
            or payload.get("checksum") != artifact_checksum(payload)
        ):
            raise ValueError(f"cached artifact '{path.name}' is corrupt; re-exporting")
        # The checksum proves integrity, not provenance.  With a custom
        # export.filename the artifact name no longer embeds the stage hash,
        # so a bundle exported from an earlier spec would otherwise be served
        # as 'cached'; the stored spec hash ties it to this exact spec.
        if payload.get("spec_hash") != self.spec.spec_hash():
            raise ValueError(
                f"cached artifact '{path.name}' was exported from a different "
                "spec; re-exporting"
            )
        return payload

    def _load_report(self, stage_hash: str) -> Dict[str, object]:
        path = self._require_cache() / self._artifact_name("report", stage_hash)
        if not path.exists():
            raise FileNotFoundError(path)
        return load_json(path)

    def _require_cache(self) -> Path:
        if self.cache_dir is None:
            raise FileNotFoundError("no cache directory configured")
        return self.cache_dir

    def _load_manifest(self) -> Dict[str, Dict[str, object]]:
        if self.cache_dir is None:
            return {}
        path = self.cache_dir / _MANIFEST
        if not path.exists():
            return {}
        try:
            manifest = load_json(path)
        except ValueError:
            return {}
        return manifest if isinstance(manifest, dict) else {}

    def _save_manifest(self) -> None:
        if self.cache_dir is None:
            return
        save_json(self._manifest, self.cache_dir / _MANIFEST)


def run_spec(
    spec: Union[RunSpec, PathLike],
    cache_dir: Optional[PathLike] = None,
    resume: bool = True,
    rerun_from: Optional[str] = None,
    verbose: bool = False,
) -> PipelineResult:
    """One-call execution of a spec (object, JSON string or file path)."""
    if not isinstance(spec, RunSpec):
        spec = RunSpec.from_json(spec)
    pipeline = MuffinPipeline(spec, cache_dir=cache_dir, verbose=verbose)
    return pipeline.run(resume=resume, rerun_from=rerun_from)
