"""Declarative run specifications for the Muffin pipeline.

A :class:`RunSpec` is a nested, JSON-serialisable description of one full
Muffin run — dataset, split, model pool, search, finalisation and report.
It round-trips losslessly through JSON (``spec == RunSpec.from_json(spec.to_json())``)
and every component it names (dataset, controller, proxy builder, reward,
selection strategy, architectures) resolves through a registry, so plugins
are addressable from a spec file without touching library code.

Stage hashes (:meth:`RunSpec.stage_hash`) cover exactly the sub-specs that
influence a stage's artifact, which is what the pipeline's resume-from-cache
logic keys on: editing ``search.episodes`` invalidates the search stage but
leaves the trained pool cache intact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

from ..core import EXECUTORS, HeadTrainConfig, RewardConfig, SearchConfig
from ..core.backend import BACKENDS, DEFAULT_BACKEND
from ..data.splits import PAPER_SPLIT
from ..zoo import TrainConfig

PathLike = Union[str, Path]

#: Pipeline stages in execution order (also the resume-from targets).
PIPELINE_STAGES: Tuple[str, ...] = (
    "dataset",
    "split",
    "pool",
    "search",
    "finalize",
    "export",
    "report",
)


class SpecError(ValueError):
    """A run spec that cannot be built or parsed."""


def _tuple_or_none(value):
    return None if value is None else tuple(value)


@dataclass
class DatasetSpec:
    """Which dataset to build (a :data:`~repro.data.DATASETS` entry) and how to split it."""

    name: str = "synthetic_isic"
    num_samples: int = 6000
    seed: int = 2019
    #: extra keyword arguments forwarded to the registered dataset builder
    params: Dict[str, object] = field(default_factory=dict)
    split_fractions: Tuple[float, float, float] = PAPER_SPLIT
    split_seed: int = 1

    def __post_init__(self) -> None:
        self.split_fractions = tuple(float(f) for f in self.split_fractions)
        if self.num_samples <= 0:
            raise SpecError("dataset.num_samples must be positive")
        if len(self.split_fractions) != 3:
            raise SpecError("dataset.split_fractions must have three entries")


@dataclass
class PoolSpec:
    """Which architectures to train into the model pool, and how."""

    #: architecture names / aliases; ``None`` = the paper's default ten-model pool
    architectures: Optional[Tuple[str, ...]] = None
    epochs: int = 40
    batch_size: int = 256
    lr: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        self.architectures = _tuple_or_none(self.architectures)
        if self.epochs <= 0:
            raise SpecError("pool.epochs must be positive")

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs, batch_size=self.batch_size, lr=self.lr, seed=self.seed
        )


@dataclass
class SearchSpec:
    """The Muffin search: attributes, search space anchors and all component names."""

    attributes: Tuple[str, ...] = ("age", "site")
    base_model: Optional[str] = None
    num_paired: int = 1
    episodes: int = 40
    episode_batch: int = 5
    #: registered controller name (:data:`repro.core.CONTROLLERS`)
    controller: str = "rnn"
    #: registered proxy-builder name (:data:`repro.core.PROXY_BUILDERS`)
    proxy: str = "weighted"
    #: registered reward name (:data:`repro.core.REWARDS`)
    reward: str = "multi_fairness"
    eval_partition: str = "val"
    head_epochs: int = 25
    head_batch_size: int = 128
    store_heads: bool = True
    seed: int = 0
    #: 'episode' (paper formulation: every episode retrains) or 'derived'
    #: (per-candidate seeds: re-sampled structures hit the evaluation memo).
    #: Result-affecting, hence part of the search stage hash — unlike the
    #: ``execution`` section.
    candidate_seeds: str = "episode"

    def __post_init__(self) -> None:
        self.attributes = tuple(self.attributes)
        if not self.attributes:
            raise SpecError("search.attributes must name at least one unfair attribute")
        if self.episodes <= 0 or self.episode_batch <= 0:
            raise SpecError("search.episodes and search.episode_batch must be positive")

    def search_config(self, execution: Optional["ExecutionSpec"] = None) -> SearchConfig:
        kwargs: Dict[str, object] = {}
        if execution is not None:
            kwargs = {
                "executor": execution.executor,
                "max_workers": execution.max_workers,
                "memoize": execution.memoize,
                # Forwarded only to factories that accept them (the
                # distributed executor); see build_executor's filtering.
                "executor_options": {
                    "task_retries": execution.task_retries,
                    "heartbeat_seconds": execution.heartbeat_seconds,
                },
            }
        return SearchConfig(
            episodes=self.episodes,
            episode_batch=self.episode_batch,
            eval_partition=self.eval_partition,
            controller=self.controller,
            proxy_builder=self.proxy,
            store_heads=self.store_heads,
            seed=self.seed,
            candidate_seeds=self.candidate_seeds,
            **kwargs,
        )

    def head_config(
        self,
        execution: Optional["ExecutionSpec"] = None,
        backend: Optional["BackendSpec"] = None,
    ) -> HeadTrainConfig:
        return HeadTrainConfig(
            epochs=self.head_epochs,
            batch_size=self.head_batch_size,
            use_fused=execution.use_fused if execution is not None else True,
            backend=backend.name if backend is not None else DEFAULT_BACKEND,
        )

    def reward_config(self) -> RewardConfig:
        return RewardConfig(attributes=self.attributes)


@dataclass
class ExecutionSpec:
    """How candidate evaluations are dispatched — never *what* they compute.

    Seeded results are bit-identical across executors, so this section is
    deliberately excluded from every stage hash: switching ``serial`` to
    ``distributed`` reuses all cached artifacts.
    """

    #: registered executor name (:data:`repro.core.EXECUTORS`):
    #: 'serial' or 'distributed'
    executor: str = "serial"
    #: worker count for the distributed executor (``None`` = one per CPU core)
    max_workers: Optional[int] = None
    #: memoise evaluations on their (candidate, seed) key
    memoize: bool = True
    #: train eligible muffin heads through the fused closed-form kernels
    #: (bit-identical to the autograd path, much faster); ``False`` restores
    #: the per-candidate autograd loop dispatched through the executor
    use_fused: bool = True
    #: path of the run's episode journal (``None`` = not journalled); the
    #: search appends every completed batch there and resumes from it
    journal: Optional[str] = None
    #: distributed executor: re-dispatches allowed per lost task before the
    #: run fails
    task_retries: int = 2
    #: distributed executor: worker heartbeat interval (seconds)
    heartbeat_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            suggestions = EXECUTORS.suggest(self.executor)
            hint = f" (did you mean {suggestions[0]!r}?)" if suggestions else ""
            raise SpecError(
                f"execution.executor must be one of {EXECUTORS.names()}, got "
                f"'{self.executor}'{hint}"
            )
        if self.max_workers is not None:
            self.max_workers = int(self.max_workers)
            if self.max_workers <= 0:
                raise SpecError("execution.max_workers must be positive (or null for auto)")
        if self.journal is not None:
            self.journal = str(self.journal)
        self.task_retries = int(self.task_retries)
        if self.task_retries < 0:
            raise SpecError("execution.task_retries must be non-negative")
        self.heartbeat_seconds = float(self.heartbeat_seconds)
        if self.heartbeat_seconds <= 0:
            raise SpecError("execution.heartbeat_seconds must be positive")


@dataclass
class BackendSpec:
    """Which array backend the hot paths (fused kernels, metrics engine) use.

    The default ``numpy-float64`` backend is bit-identical to the autograd
    oracle; ``numpy-float32`` trades bit-identity for float32 GEMMs under
    the tolerance contract of :data:`repro.core.backend.TOLERANCES`.  Like
    ``execution``, this section is a precision/performance knob rather than
    a semantic one, so it is excluded from every stage hash: a float32 rerun
    reuses the float64 run's cached pool and dataset artifacts.
    """

    #: registered backend name (:data:`repro.core.backend.BACKENDS`) or one
    #: of its aliases ('float64'/'fp64', 'float32'/'fp32', ...)
    name: str = DEFAULT_BACKEND

    def __post_init__(self) -> None:
        if self.name not in BACKENDS:
            suggestions = BACKENDS.suggest(self.name)
            hint = f" (did you mean {suggestions[0]!r}?)" if suggestions else ""
            raise SpecError(
                f"backend.name must be one of {BACKENDS.names()}, got "
                f"'{self.name}'{hint}"
            )
        # Canonicalise aliases so specs hash and report consistently.
        self.name = BACKENDS.canonical_name(self.name)


@dataclass
class ObsSpec:
    """Telemetry for the run: tracing sink and the metrics registry switch.

    Observability reads results, it never shapes them: spans and metrics
    are recorded around the computation on monotonic clocks and touch no
    RNG state, so a run with telemetry on is bit-identical to the same run
    with it off (the test suite asserts this on ``result_hash()``).  Like
    ``execution`` and ``backend``, the section is therefore excluded from
    every stage hash — turning tracing on reuses all cached artifacts.
    """

    #: JSONL file the pipeline appends hierarchical spans to
    #: (``None`` = tracing off); render with ``python -m repro trace``
    trace_path: Optional[str] = None
    #: record counters/gauges/histograms into the process-wide registry
    #: (:data:`repro.obs.METRICS`)
    metrics_enabled: bool = False

    def __post_init__(self) -> None:
        if self.trace_path is not None:
            self.trace_path = str(self.trace_path)
        self.metrics_enabled = bool(self.metrics_enabled)


@dataclass
class FinalizeSpec:
    """How to pick and materialise the reported Muffin-Net."""

    #: registered selection strategy (:data:`repro.core.SELECTION_STRATEGIES`)
    #: or the name of a searched attribute
    selection: str = "reward"
    name: str = "Muffin"
    #: restrict selection to candidates dominating this pool model
    reference_model: Optional[str] = None
    evaluate_on_test: bool = True


@dataclass
class ExportSpec:
    """Whether (and as what) to bundle the finalised Muffin-Net for serving.

    The export stage turns the finalize stage's model into a deployable
    fused-model artifact (member specs + head weights + serving feature
    schema + spec hash, checksummed) that ``python -m repro serve`` and
    :func:`~repro.zoo.persistence.load_fused_model` consume.
    """

    enabled: bool = True
    #: artifact filename inside the cache dir (default: ``muffin-<hash>.json``)
    filename: Optional[str] = None


@dataclass
class ReportSpec:
    """What the report stage assembles."""

    include_pool: bool = True
    include_search: bool = True
    #: how many top-reward episodes to list
    top_k: int = 5

    def __post_init__(self) -> None:
        if self.top_k < 0:
            raise SpecError("report.top_k must be non-negative")


_SECTION_TYPES = {
    "dataset": DatasetSpec,
    "pool": PoolSpec,
    "search": SearchSpec,
    "execution": ExecutionSpec,
    "backend": BackendSpec,
    "obs": ObsSpec,
    "finalize": FinalizeSpec,
    "export": ExportSpec,
    "report": ReportSpec,
}


@dataclass
class RunSpec:
    """One declarative, serialisable Muffin run."""

    name: str = "muffin-run"
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    pool: PoolSpec = field(default_factory=PoolSpec)
    search: SearchSpec = field(default_factory=SearchSpec)
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    backend: BackendSpec = field(default_factory=BackendSpec)
    obs: ObsSpec = field(default_factory=ObsSpec)
    finalize: FinalizeSpec = field(default_factory=FinalizeSpec)
    export: ExportSpec = field(default_factory=ExportSpec)
    report: ReportSpec = field(default_factory=ReportSpec)

    def __post_init__(self) -> None:
        for section, section_type in _SECTION_TYPES.items():
            value = getattr(self, section)
            if isinstance(value, Mapping):
                setattr(self, section, _section_from_dict(section, value))
            elif not isinstance(value, section_type):
                raise SpecError(
                    f"'{section}' must be a {section_type.__name__} or a mapping, "
                    f"got {type(value).__name__}"
                )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"name": self.name}
        for section in _SECTION_TYPES:
            payload[section] = dataclasses.asdict(getattr(self, section))
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "RunSpec":
        unknown = set(payload) - ({"name"} | set(_SECTION_TYPES))
        if unknown:
            raise SpecError(
                f"unknown run-spec section(s) {sorted(unknown)}; "
                f"expected {['name'] + sorted(_SECTION_TYPES)}"
            )
        kwargs: Dict[str, object] = {"name": str(payload.get("name", "muffin-run"))}
        for section in _SECTION_TYPES:
            if section in payload:
                kwargs[section] = _section_from_dict(section, payload[section])
        return cls(**kwargs)

    def to_json(self, path: Optional[PathLike] = None, indent: int = 2) -> str:
        """Serialise to a JSON string, optionally also writing ``path``."""
        text = json.dumps(self.to_dict(), indent=indent)
        if path is not None:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_json(cls, source: PathLike) -> "RunSpec":
        """Parse a spec from a JSON string or a path to a JSON file."""
        text = str(source)
        if not text.lstrip().startswith("{"):
            path = Path(text)
            if not path.exists():
                raise SpecError(f"spec file '{path}' does not exist")
            text = path.read_text()
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise SpecError("a run spec must be a JSON object")
        return cls.from_dict(payload)

    # ------------------------------------------------------------------
    # Hashing (the pipeline's cache keys)
    # ------------------------------------------------------------------
    def spec_hash(self) -> str:
        """Stable short hash of the spec's result-determining sections.

        The ``execution`` section only changes *how fast* a run computes,
        never what it computes, so it is excluded — two specs differing only
        in executor share one default cache directory.  The ``backend``
        section is excluded for the same reason: precision is an
        execution-style knob with a documented tolerance contract, not a
        semantic change, so a float32 rerun reuses the float64 caches.
        The ``obs`` section is pure observation — spans and metrics around
        the computation, bit-identical results either way — so it is
        excluded too.
        """
        payload = self.to_dict()
        payload.pop("execution", None)
        payload.pop("backend", None)
        payload.pop("obs", None)
        return _hash_payload(payload)

    def stage_hash(self, stage: str) -> str:
        """Hash of the sub-specs influencing ``stage``'s artifact."""
        sections = {
            "dataset": ("dataset",),
            "split": ("dataset",),
            "pool": ("dataset", "pool"),
            "search": ("dataset", "pool", "search"),
            "finalize": ("dataset", "pool", "search", "finalize"),
            "export": ("dataset", "pool", "search", "finalize", "export"),
            "report": ("dataset", "pool", "search", "finalize", "export", "report"),
        }
        if stage not in sections:
            raise SpecError(f"unknown stage '{stage}'; expected one of {list(PIPELINE_STAGES)}")
        payload = {
            section: dataclasses.asdict(getattr(self, section)) for section in sections[stage]
        }
        return _hash_payload(payload)


#: The **hash-contract manifest**: every field of every spec section,
#: explicitly marked ``"hashed"`` (it enters the stage hashes and therefore
#: invalidates cached artifacts when edited) or ``"excluded"`` (execution-
#: only: it may change *how* a run computes, never *what*).
#:
#: ``repro lint`` (rule RL2, :mod:`repro.analysis.hash_contract`) checks this
#: table against the dataclasses above — adding a spec field without
#: declaring it here is a lint error, which forces every new knob through
#: the same question PR 6's ``task_retries`` had to answer: does this belong
#: in the cache key?  Two invariants are enforced on top of coverage:
#: every ``execution`` field must be ``"excluded"`` (the whole section is
#: popped from :meth:`RunSpec.spec_hash`), and every other section's field
#: must be ``"hashed"`` (result-affecting knobs may not dodge the cache key;
#: an execution-only knob belongs in :class:`ExecutionSpec`).
HASH_MANIFEST: Dict[str, Dict[str, str]] = {
    "dataset": {
        "name": "hashed",
        "num_samples": "hashed",
        "seed": "hashed",
        "params": "hashed",
        "split_fractions": "hashed",
        "split_seed": "hashed",
    },
    "pool": {
        "architectures": "hashed",
        "epochs": "hashed",
        "batch_size": "hashed",
        "lr": "hashed",
        "seed": "hashed",
    },
    "search": {
        "attributes": "hashed",
        "base_model": "hashed",
        "num_paired": "hashed",
        "episodes": "hashed",
        "episode_batch": "hashed",
        "controller": "hashed",
        "proxy": "hashed",
        "reward": "hashed",
        "eval_partition": "hashed",
        "head_epochs": "hashed",
        "head_batch_size": "hashed",
        "store_heads": "hashed",
        "seed": "hashed",
        "candidate_seeds": "hashed",
    },
    "execution": {
        "executor": "excluded",
        "max_workers": "excluded",
        "memoize": "excluded",
        "use_fused": "excluded",
        "journal": "excluded",
        "task_retries": "excluded",
        "heartbeat_seconds": "excluded",
    },
    "backend": {
        "name": "excluded",
    },
    "obs": {
        "trace_path": "excluded",
        "metrics_enabled": "excluded",
    },
    "finalize": {
        "selection": "hashed",
        "name": "hashed",
        "reference_model": "hashed",
        "evaluate_on_test": "hashed",
    },
    "export": {
        "enabled": "hashed",
        "filename": "hashed",
    },
    "report": {
        "include_pool": "hashed",
        "include_search": "hashed",
        "top_k": "hashed",
    },
}


def _section_from_dict(section: str, payload: object):
    section_type = _SECTION_TYPES[section]
    if isinstance(payload, section_type):
        return payload
    if not isinstance(payload, Mapping):
        raise SpecError(f"'{section}' must be a mapping, got {type(payload).__name__}")
    valid = {f.name for f in dataclasses.fields(section_type)}
    unknown = set(payload) - valid
    if unknown:
        raise SpecError(
            f"unknown key(s) {sorted(unknown)} in '{section}' spec; valid keys: {sorted(valid)}"
        )
    return section_type(**payload)


def _hash_payload(payload: object) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
