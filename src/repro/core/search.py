"""The Muffin search loop tying all four framework components together.

For every reinforcement-learning episode (Figure 4):

1. the RNN controller samples a fusing structure from the search space
   (component ① / ④);
2. the muffin head of that structure is trained on the fairness proxy
   dataset with the weighted loss (component ②);
3. the trained structure is evaluated on the held-out partition and the
   multi-fairness reward of Equation 3 is computed (component ③);
4. after every ``episode_batch`` episodes the controller parameters are
   updated with the REINFORCE gradient of Equation 4.

Because the body models are frozen, their class probabilities on the proxy
and evaluation partitions are computed once per model and cached, which
makes each episode cost only one small-MLP training run.

Once trained, every candidate of a batch is scored in a single call of the
vectorized :class:`~repro.fairness.engine.EvaluationEngine` — predictions
are stacked into one matrix and accuracy, per-group accuracy, Eq. 1
unfairness and Eq. 3 rewards come out of a handful of array ops, with the
frozen members' argmax labels computed once per batch and shared.

Episodes inside one controller batch are independent until the REINFORCE
update, so the search samples the whole batch up front and dispatches the
train-and-evaluate work through a pluggable executor
(:mod:`repro.core.execution`): ``serial`` or ``distributed``, both
bit-identical for a fixed seed.  Evaluations are additionally memoised on a
``(candidate, seed)`` key; with ``SearchConfig.candidate_seeds='derived'``
the seed is hashed from the candidate itself, so re-sampled structures —
common late in the search when the controller converges — return their
record without retraining.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import FairnessDataset, dataset_fingerprint
from ..fairness.engine import EvaluationEngine
from ..fairness.metrics import FairnessEvaluation, evaluate_predictions
from ..obs import METRICS, span
from ..utils.logging import RunLogger
from ..utils.rng import get_rng
from ..zoo.pool import ModelPool
from .controller import CONTROLLERS, ControllerConfig, Episode, RandomController, RNNController
from .execution import EXECUTORS, build_executor
from .fusing import FusedModel, MuffinHead, consensus_arbitrate_labels
from .proxy import PROXY_BUILDERS, ProxyDataset, build_proxy_dataset, uniform_proxy_dataset
from .results import (
    SELECTION_STRATEGIES,
    EpisodeRecord,
    ExecutionStats,
    MuffinNet,
    MuffinSearchResult,
    rebuild_fused_model,
    select_record,
)
from .reward import REWARDS, MultiFairnessReward, RewardConfig
from .search_space import FusingCandidate, SearchSpace
from .trainer import (
    HeadTrainConfig,
    train_head,
    train_head_on_outputs,
    train_heads_batched,
)

#: Partitions a :class:`~repro.data.splits.DataSplit` exposes by name.
VALID_PARTITIONS = ("train", "val", "test")

_BATCHES_TOTAL = METRICS.counter(
    "repro_search_batches_total",
    "Controller batches completed, by source (live evaluation vs journal replay).",
    labelnames=("source",),
)
_EPISODES_TOTAL = METRICS.counter(
    "repro_search_episodes_total",
    "Search episodes completed.",
)


class SearchInterrupted(RuntimeError):
    """A search stopped at a batch boundary by a ``should_stop`` hook.

    Raised *between* batches — after the previous batch's records were
    scored, journalled and fed to the controller — so an interrupted search
    loses no completed work: re-running with the same journal resumes from
    the next batch, bit-identical to a run that was never interrupted.
    """

    def __init__(self, message: str, completed_episodes: int = 0) -> None:
        super().__init__(message)
        #: episodes fully completed before the stop was honoured
        self.completed_episodes = completed_episodes


@dataclass
class SearchConfig:
    """Top-level knobs of the Muffin search."""

    #: number of reinforcement-learning episodes (the paper uses 500)
    episodes: int = 100
    #: controller update batch size m of Equation 4
    episode_batch: int = 5
    #: partition used for the reward evaluation ('val' keeps the test set untouched)
    eval_partition: str = "val"
    #: registered controller name: 'rnn' is the paper's controller, 'random'
    #: the search ablation; plugins register in :data:`CONTROLLERS`
    controller: str = "rnn"
    #: train the head on the weighted proxy dataset (False = Fig 9a ablation arm)
    use_weighted_proxy: bool = True
    #: registered proxy-builder name; overrides ``use_weighted_proxy`` when set
    proxy_builder: Optional[str] = None
    store_heads: bool = True
    seed: int = 0
    verbose: bool = False
    #: registered executor dispatching each batch's candidate evaluations
    #: ('serial' or 'distributed'); results are seed-identical across
    #: executors, only wall-clock differs
    executor: str = "serial"
    #: worker count for the distributed executor (None = one per CPU core)
    max_workers: Optional[int] = None
    #: memoise evaluations on their (candidate, seed) key so re-sampled
    #: structures skip head retraining
    memoize: bool = True
    #: where each episode's head-training seed comes from: 'episode' draws it
    #: from the search RNG stream (the paper's formulation — every episode
    #: retrains, even re-sampled structures), 'derived' hashes it from the
    #: candidate itself, making the reward a stationary function of the
    #: candidate so re-sampled structures hit the evaluation memo
    candidate_seeds: str = "episode"
    #: extra keyword arguments for the executor factory (distributed-only
    #: knobs like ``task_retries`` / ``heartbeat_seconds``); factories that
    #: don't accept an option simply don't receive it
    executor_options: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        if self.episodes <= 0:
            raise ValueError("episodes must be positive")
        if self.episode_batch <= 0:
            raise ValueError("episode_batch must be positive")
        if self.controller not in CONTROLLERS:
            suggestions = CONTROLLERS.suggest(self.controller)
            hint = f" (did you mean {suggestions[0]!r}?)" if suggestions else ""
            raise ValueError(
                f"controller must be one of {CONTROLLERS.names()}, got "
                f"'{self.controller}'{hint}"
            )
        if self.eval_partition not in VALID_PARTITIONS:
            raise ValueError(
                f"eval_partition must be one of {list(VALID_PARTITIONS)}, got "
                f"'{self.eval_partition}'"
            )
        if self.proxy_builder is not None and self.proxy_builder not in PROXY_BUILDERS:
            suggestions = PROXY_BUILDERS.suggest(self.proxy_builder)
            hint = f" (did you mean {suggestions[0]!r}?)" if suggestions else ""
            raise ValueError(
                f"proxy_builder must be one of {PROXY_BUILDERS.names()}, got "
                f"'{self.proxy_builder}'{hint}"
            )
        if self.executor not in EXECUTORS:
            suggestions = EXECUTORS.suggest(self.executor)
            hint = f" (did you mean {suggestions[0]!r}?)" if suggestions else ""
            raise ValueError(
                f"executor must be one of {EXECUTORS.names()}, got "
                f"'{self.executor}'{hint}"
            )
        if self.max_workers is not None and self.max_workers <= 0:
            raise ValueError("max_workers must be positive (or None for auto)")
        if self.candidate_seeds not in ("episode", "derived"):
            raise ValueError(
                f"candidate_seeds must be 'episode' or 'derived', got "
                f"'{self.candidate_seeds}'"
            )
        if self.executor_options is not None:
            self.executor_options = dict(self.executor_options)

    @property
    def effective_proxy_builder(self) -> str:
        """The proxy-builder registry name this config resolves to."""
        if self.proxy_builder is not None:
            return self.proxy_builder
        return "weighted" if self.use_weighted_proxy else "uniform"


def _indices_fingerprint(indices: Optional[np.ndarray]) -> str:
    """Fingerprint of an index array (``'all'`` for the full dataset)."""
    if indices is None:
        return "all"
    indices = np.ascontiguousarray(np.asarray(indices, dtype=np.int64))
    return hashlib.sha1(indices.tobytes()).hexdigest()[:16]


class BodyOutputCache:
    """Caches each pool model's class probabilities on fixed index sets.

    Entries are keyed on the *dataset identity* (a content fingerprint) and
    a fingerprint of the index array, so one cache can be shared across
    searches and pipeline stages with different proxy builders or
    evaluation partitions without ever returning stale probabilities for
    the wrong index set.
    """

    #: LRU bound on memoised concatenated matrices (re-derivable from the
    #: per-model entries, so eviction only costs a re-concatenation)
    MAX_CONCATENATED_ENTRIES = 32

    def __init__(self, pool: ModelPool) -> None:
        self.pool = pool
        self._cache: Dict[Tuple[str, str, str], np.ndarray] = {}
        self._concatenated: "OrderedDict[Tuple[Tuple[str, ...], str, str], np.ndarray]" = (
            OrderedDict()
        )
        #: per-model argmax labels, derived from the probability entries
        self._labels: Dict[Tuple[str, str, str], np.ndarray] = {}
        #: stacked member-label matrices, memoised so repeat callers see one
        #: stable array per (models, dataset, indices) triple
        self._stacked_labels: Dict[Tuple[Tuple[str, ...], str, str], np.ndarray] = {}
        #: per-model matrix lookups (one count per probabilities() call)
        self.hits = 0
        self.misses = 0
        #: whole concatenated-matrix lookups (one count per concatenated() call)
        self.concat_hits = 0
        self.concat_misses = 0

    def probabilities(
        self,
        model_name: str,
        dataset: FairnessDataset,
        indices: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Cached ``model.predict_proba(dataset, indices)``."""
        key = (model_name, dataset_fingerprint(dataset), _indices_fingerprint(indices))
        if key not in self._cache:
            self.misses += 1
            model = self.pool.get(model_name)
            self._cache[key] = model.predict_proba(dataset, indices)
        else:
            self.hits += 1
        return self._cache[key]

    def concatenated(
        self,
        model_names: Sequence[str],
        dataset: FairnessDataset,
        indices: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Cached concatenation of the selected models' probability matrices.

        The concatenated matrix is memoised in a small LRU so every episode
        of a batch (and repeat candidates across batches — the eval
        partition recurs each batch) shares one buffer instead of
        re-concatenating its own copy.  The LRU bound caps the duplication
        relative to the per-model cache, which the matrices are always
        cheaply re-derivable from.
        """
        key = (
            tuple(model_names),
            dataset_fingerprint(dataset),
            _indices_fingerprint(indices),
        )
        if key not in self._concatenated:
            self.concat_misses += 1
            self._concatenated[key] = np.concatenate(
                [self.probabilities(name, dataset, indices) for name in model_names],
                axis=1,
            )
            while len(self._concatenated) > self.MAX_CONCATENATED_ENTRIES:
                self._concatenated.popitem(last=False)
        else:
            self.concat_hits += 1
            self._concatenated.move_to_end(key)
        return self._concatenated[key]

    def member_labels(
        self,
        model_names: Sequence[str],
        dataset: FairnessDataset,
        indices: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Stacked per-member argmax labels ``(num_models, N)``, memoised.

        The body members are frozen, so their argmax labels on a fixed
        index set never change; computing them once per model (instead of
        re-deriving them from the concatenated probability matrix inside
        every candidate evaluation) lets a whole episode batch share them.
        """
        ds_fp = dataset_fingerprint(dataset)
        idx_fp = _indices_fingerprint(indices)
        stacked_key = (tuple(model_names), ds_fp, idx_fp)
        memoised = self._stacked_labels.get(stacked_key)
        if memoised is not None:
            return memoised
        stacked = []
        for name in model_names:
            key = (name, ds_fp, idx_fp)
            labels = self._labels.get(key)
            if labels is None:
                labels = self.probabilities(name, dataset, indices).argmax(axis=-1)
                self._labels[key] = labels
            stacked.append(labels)
        result = np.stack(stacked, axis=0)
        self._stacked_labels[stacked_key] = result
        return result

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "concat_hits": self.concat_hits,
            "concat_misses": self.concat_misses,
            "entries": len(self._cache),
            "concatenated_entries": len(self._concatenated),
        }


# ----------------------------------------------------------------------
# Executor-safe candidate evaluation
# ----------------------------------------------------------------------
@dataclass
class EvaluationTask:
    """Picklable, self-contained description of one candidate evaluation.

    Carries only numpy arrays and plain configs — no live models, datasets
    or RNGs — so it can cross a process boundary and run as a pure function
    (:func:`evaluate_task`) with bit-identical results on any executor.
    """

    model_names: Tuple[str, ...]
    hidden_sizes: Tuple[int, ...]
    activation: str
    seed: int
    head_config: HeadTrainConfig
    num_classes: int
    proxy_outputs: np.ndarray
    proxy_labels: np.ndarray
    proxy_weights: np.ndarray
    eval_outputs: np.ndarray
    #: per-member argmax labels on the eval partition ``(num_models, N)``,
    #: computed once per batch and shared (the members are frozen)
    eval_member_labels: np.ndarray


@dataclass
class EvaluationOutcome:
    """What one evaluation returns to the search loop (also picklable)."""

    predictions: np.ndarray
    head_state: Dict[str, np.ndarray]
    losses: List[float]
    head_parameters: int


def _build_task_head(task: EvaluationTask) -> MuffinHead:
    """The fresh, seeded head a task's evaluation trains."""
    return MuffinHead(
        body_output_dim=int(task.proxy_outputs.shape[1]),
        num_classes=task.num_classes,
        hidden_sizes=task.hidden_sizes,
        activation=task.activation,
        seed=task.seed,
    )


def _finish_task(task: EvaluationTask, head: MuffinHead, losses: List[float]) -> EvaluationOutcome:
    """Predict, arbitrate and assemble the outcome of one trained head.

    Shared by :func:`evaluate_task` and :func:`evaluate_task_batch` so the
    two paths cannot structurally drift.
    """
    from .. import nn

    head_predictions = head(nn.Tensor(task.eval_outputs)).data.argmax(axis=-1)
    arbitrated = consensus_arbitrate_labels(task.eval_member_labels, head_predictions)
    return EvaluationOutcome(
        predictions=arbitrated.predictions,
        head_state=head.state_dict(),
        losses=list(losses),
        head_parameters=head.num_parameters(),
    )


def evaluate_task(task: EvaluationTask) -> EvaluationOutcome:
    """Train one muffin head and predict on the evaluation partition.

    Module-level (hence resolvable by reference in distributed workers) and
    a pure function of ``task``: it builds a fresh head seeded from
    ``task.seed``, trains it with :func:`~repro.core.trainer.train_head_on_outputs`
    (which seeds a local generator) and arbitrates predictions through
    :func:`~repro.core.fusing.consensus_arbitrate_labels` using the member
    labels precomputed once for the whole batch.
    """
    # The span is a no-op in worker processes (no writer installed there);
    # the serial executor records one "search/task" child per evaluation.
    with span("search/task", seed=int(task.seed)):
        head = _build_task_head(task)
        train_result = train_head_on_outputs(
            head,
            task.proxy_outputs,
            task.proxy_labels,
            task.proxy_weights,
            task.num_classes,
            task.head_config,
        )
        return _finish_task(task, head, train_result.losses)


def evaluate_task_batch(tasks: Sequence[EvaluationTask]) -> List[EvaluationOutcome]:
    """Evaluate a whole episode batch through the fused batched trainer.

    Tasks sharing one proxy (labels, weights, training config — the normal
    case: every episode of a batch trains on the same proxy dataset) are
    trained *simultaneously* by :func:`~repro.core.trainer.train_heads_batched`
    in one lockstep minibatch loop: a stacked forward/backward per
    signature group, then one loss-kernel call and one optimiser step for
    every head of the batch.  Every head the search space emits is fused;
    heads the kernels cannot express (dropout, plugin layers) fall back to
    the autograd loop inside the batched trainer.  Outcomes are
    **bit-identical** to mapping :func:`evaluate_task` over the tasks, in
    input order.
    """
    outcomes: List[Optional[EvaluationOutcome]] = [None] * len(tasks)
    group_indices: List[List[int]] = []
    for index, task in enumerate(tasks):
        for indices in group_indices:
            rep = tasks[indices[0]]
            if (
                task.head_config == rep.head_config
                and task.num_classes == rep.num_classes
                and np.array_equal(task.proxy_labels, rep.proxy_labels)
                and np.array_equal(task.proxy_weights, rep.proxy_weights)
            ):
                indices.append(index)
                break
        else:
            group_indices.append([index])

    for indices in group_indices:
        rep = tasks[indices[0]]
        heads = [_build_task_head(tasks[i]) for i in indices]
        train_results = train_heads_batched(
            heads,
            [tasks[i].proxy_outputs for i in indices],
            rep.proxy_labels,
            rep.proxy_weights,
            rep.num_classes,
            rep.head_config,
        )
        for i, head, train_result in zip(indices, heads, train_results):
            outcomes[i] = _finish_task(tasks[i], head, train_result.losses)
    return [outcome for outcome in outcomes if outcome is not None]


class MuffinSearch:
    """Drives the reinforcement-learning search over fusing structures."""

    def __init__(
        self,
        pool: ModelPool,
        attributes: Sequence[str],
        search_space: Optional[SearchSpace] = None,
        base_model: Optional[str] = None,
        num_paired: int = 1,
        search_config: Optional[SearchConfig] = None,
        reward_config: Optional[RewardConfig] = None,
        head_config: Optional[HeadTrainConfig] = None,
        controller_config: Optional[ControllerConfig] = None,
        reward_builder: str = "multi_fairness",
        body_cache: Optional["BodyOutputCache"] = None,
    ) -> None:
        if not attributes:
            raise ValueError("the search needs at least one unfair attribute")
        self.pool = pool
        self.attributes = list(attributes)
        self.search_config = search_config or SearchConfig()
        self.head_config = head_config or HeadTrainConfig()
        self.reward = REWARDS.get(reward_builder)(
            reward_config or RewardConfig(attributes=self.attributes)
        )
        self.search_space = search_space or SearchSpace(
            pool_names=pool.names, base_model=base_model, num_paired=num_paired
        )
        controller_config = controller_config or ControllerConfig(seed=self.search_config.seed)
        self.controller = CONTROLLERS.get(self.search_config.controller)(
            self.search_space, controller_config
        )

        # Proxy dataset over the training partition (component ②).
        proxy_builder = PROXY_BUILDERS.get(self.search_config.effective_proxy_builder)
        self.proxy: ProxyDataset = proxy_builder(pool.split.train, self.attributes)

        self.eval_dataset = pool.partition(self.search_config.eval_partition)
        # Body outputs are deterministic (frozen models), so the cache can be
        # shared across searches / pipeline stages over the same pool.
        self._cache = body_cache if body_cache is not None else BodyOutputCache(pool)
        # One vectorized engine scores every candidate of an episode batch
        # on every attribute in a single call (group matrices precomputed).
        # The engine shares the head config's array backend so the whole hot
        # path (training GEMMs and scoring GEMMs) runs one precision choice.
        self._eval_engine = EvaluationEngine.for_dataset(
            self.eval_dataset, self.attributes, backend=self.head_config.backend
        )
        # Proxy labels/weights are assembled once: every task of the search
        # shares these exact arrays.
        self._proxy_labels = self.proxy.dataset.labels[self.proxy.indices]
        self._proxy_weights = np.asarray(self.proxy.sample_weights, dtype=np.float64)
        self._rng = get_rng(self.search_config.seed)
        self.logger = RunLogger(name="muffin-search", verbose=self.search_config.verbose)
        #: (candidate, seed) -> EpisodeRecord memo shared by every run()
        self._memo: Dict[Tuple[FusingCandidate, int], EpisodeRecord] = {}
        self.memo_hits = 0
        self.memo_misses = 0

    # ------------------------------------------------------------------
    # Candidate evaluation
    # ------------------------------------------------------------------
    def candidate_seed(self, candidate: FusingCandidate) -> int:
        """Deterministic head-training seed for ``candidate``.

        Derived from the search seed and the candidate alone (not from the
        shared RNG stream or the episode index), so a structure re-sampled
        later in the search maps to the same ``(candidate, seed)`` memo key
        and evaluation order never influences results.
        """
        payload = json.dumps(
            {"seed": self.search_config.seed, "candidate": candidate.to_dict()},
            sort_keys=True,
        )
        digest = hashlib.sha256(payload.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big") % (2**31)

    def _evaluate_fused(self, fused: FusedModel, candidate: FusingCandidate) -> FairnessEvaluation:
        """Evaluate a trained fused model on the reward partition (cached bodies).

        Shares :func:`~repro.core.fusing.consensus_arbitrate_labels`, the
        body cache and the evaluation engine with the batch path, so a
        rebuilt Muffin-Net reproduces its episode record's evaluation
        exactly.
        """
        from .. import nn

        eval_probs = self._cache.concatenated(candidate.model_names, self.eval_dataset, None)
        head_predictions = fused.head(nn.Tensor(eval_probs)).data.argmax(axis=-1)
        member_labels = self._cache.member_labels(candidate.model_names, self.eval_dataset)
        arbitrated = consensus_arbitrate_labels(member_labels, head_predictions)
        with span("search/score", candidates=1):
            return self._eval_engine.evaluate(arbitrated.predictions).evaluation(0)

    def _task_for(self, candidate: FusingCandidate, seed: int) -> EvaluationTask:
        """Assemble the picklable evaluation task of one candidate."""
        proxy_outputs = self._cache.concatenated(
            candidate.model_names, self.proxy.dataset, self.proxy.indices
        )
        eval_outputs = self._cache.concatenated(candidate.model_names, self.eval_dataset, None)
        eval_member_labels = self._cache.member_labels(candidate.model_names, self.eval_dataset)
        return EvaluationTask(
            model_names=tuple(candidate.model_names),
            hidden_sizes=tuple(candidate.hidden_sizes),
            activation=candidate.activation,
            seed=seed,
            head_config=self.head_config,
            num_classes=self.eval_dataset.num_classes,
            proxy_outputs=proxy_outputs,
            proxy_labels=self._proxy_labels,
            proxy_weights=self._proxy_weights,
            eval_outputs=eval_outputs,
            eval_member_labels=eval_member_labels,
        )

    def _records_from_outcomes(
        self,
        candidates: Sequence[FusingCandidate],
        outcomes: Sequence[EvaluationOutcome],
        episodes: Sequence[int],
    ) -> List[EpisodeRecord]:
        """Score a batch of worker outcomes in one engine call (main thread).

        The candidates' predictions are stacked into one
        ``(num_candidates, num_samples)`` matrix and scored on every
        attribute at once; rewards come straight from the engine output
        (:meth:`~repro.core.reward.MultiFairnessReward.compute_batch`) when
        the reward supports it, with a per-evaluation fallback for plugin
        rewards that only implement the scalar protocol.
        """
        if not outcomes:
            return []
        with span("search/score", candidates=len(outcomes)):
            batch = self._eval_engine.evaluate(
                np.stack([outcome.predictions for outcome in outcomes])
            )
            evaluations = batch.evaluations()
            compute_batch = getattr(self.reward, "compute_batch", None)
            if compute_batch is not None:
                rewards = [float(value) for value in compute_batch(batch)]
            else:
                rewards = [float(self.reward(evaluation)) for evaluation in evaluations]

        records: List[EpisodeRecord] = []
        for candidate, outcome, episode, evaluation, reward_value in zip(
            candidates, outcomes, episodes, evaluations, rewards
        ):
            body_parameters = sum(
                model.num_parameters for model in self.pool.models(candidate.model_names)
            )
            records.append(
                EpisodeRecord(
                    episode=episode,
                    candidate=candidate,
                    reward=reward_value,
                    evaluation=evaluation,
                    head_state=outcome.head_state if self.search_config.store_heads else None,
                    train_losses=list(outcome.losses),
                    num_parameters=body_parameters + outcome.head_parameters,
                    trainable_parameters=outcome.head_parameters,
                )
            )
        return records

    def _record_from_outcome(
        self, candidate: FusingCandidate, outcome: EvaluationOutcome, episode: int
    ) -> EpisodeRecord:
        """Score one worker outcome (single-candidate engine batch)."""
        return self._records_from_outcomes([candidate], [outcome], [episode])[0]

    def evaluate_batch(
        self,
        candidates: Sequence[FusingCandidate],
        seeds: Optional[Sequence[Optional[int]]] = None,
        episodes: Optional[Sequence[int]] = None,
        executor=None,
        memoize: Optional[bool] = None,
    ) -> List[EpisodeRecord]:
        """Train and evaluate a batch of candidates, memoised.

        Duplicate ``(candidate, seed)`` keys — within the batch or across
        earlier evaluations — are answered from the memo without retraining.
        The unique remainder trains as one batch through the fused kernels
        (:func:`evaluate_task_batch`) on the calling thread; only under
        ``head_config.use_fused=False`` (the autograd oracle) is it
        dispatched per candidate through ``executor`` (default: the one
        named by ``search_config.executor``).  Records always come back in
        input order regardless of completion order.  ``memoize``
        can force-disable the memo for this batch (``search_config.memoize``
        always wins when False); ``run()`` disables it under the 'episode'
        seed strategy, whose fresh per-episode seeds can never hit.
        """
        candidates = list(candidates)
        seeds = list(seeds) if seeds is not None else [None] * len(candidates)
        if len(seeds) != len(candidates):
            raise ValueError("seeds must match candidates in length")
        episodes = list(episodes) if episodes is not None else [-1] * len(candidates)
        if len(episodes) != len(candidates):
            raise ValueError("episodes must match candidates in length")

        resolved = [
            (candidate, seed if seed is not None else self.candidate_seed(candidate))
            for candidate, seed in zip(candidates, seeds)
        ]
        memoize = self.search_config.memoize and (memoize is None or memoize)
        scheduled: set = set()
        to_evaluate: List[Tuple[FusingCandidate, int]] = []
        for key in resolved:
            # Without memoisation every request is evaluated, duplicates too.
            if memoize and (key in self._memo or key in scheduled):
                self.memo_hits += 1
                continue
            self.memo_misses += 1
            scheduled.add(key)
            to_evaluate.append(key)

        outcomes: List[EvaluationOutcome] = []
        if to_evaluate:
            tasks = [self._task_for(candidate, seed) for candidate, seed in to_evaluate]
            # Under use_fused the whole batch trains simultaneously through
            # the fused batched kernels on the calling thread (nothing left
            # to parallelise); only the oracle (use_fused=False) dispatches
            # per-candidate autograd training through the executor.  Results
            # are bit-identical either way, so the choice only moves
            # wall-clock.
            with span("search/train", candidates=len(tasks)):
                if self.head_config.use_fused:
                    outcomes = evaluate_task_batch(tasks)
                else:
                    own_executor = executor is None
                    if own_executor:
                        executor = build_executor(
                            self.search_config.executor, self.search_config.max_workers
                        )
                    try:
                        outcomes = list(executor.map(evaluate_task, tasks))
                    finally:
                        if own_executor:
                            executor.shutdown()

        fresh_records = self._records_from_outcomes(
            [candidate for candidate, _ in to_evaluate],
            outcomes,
            [-1] * len(to_evaluate) if memoize else list(episodes[: len(to_evaluate)]),
        )

        records: List[EpisodeRecord] = []
        if memoize:
            for key, record in zip(to_evaluate, fresh_records):
                self._memo[key] = record
            for key, episode in zip(resolved, episodes):
                memoised = self._memo[key]
                # Mutable payloads are copied so no caller can corrupt the
                # memo (or a sibling record) through a returned record.
                records.append(
                    replace(
                        memoised,
                        episode=episode,
                        train_losses=list(memoised.train_losses),
                        evaluation=copy.deepcopy(memoised.evaluation),
                        head_state=(
                            {name: values.copy() for name, values in memoised.head_state.items()}
                            if memoised.head_state is not None
                            else None
                        ),
                    )
                )
        else:
            # Without memoisation every request was evaluated, so the fresh
            # records already align 1:1 with the inputs.
            records.extend(fresh_records)
        return records

    def evaluate_candidate(
        self, candidate: FusingCandidate, episode: int = -1, seed: Optional[int] = None
    ) -> EpisodeRecord:
        """Train and evaluate one candidate; returns its episode record.

        ``seed`` defaults to :meth:`candidate_seed`, so repeated evaluations
        of the same structure are memo hits.
        """
        return self.evaluate_batch([candidate], seeds=[seed], episodes=[episode])[0]

    # ------------------------------------------------------------------
    # The search loop
    # ------------------------------------------------------------------
    def _sample_episode_batch(
        self, count: int
    ) -> Tuple[List[Episode], List[Optional[int]]]:
        """One controller batch of episodes plus their head-training seeds.

        Under the default ``candidate_seeds='episode'`` strategy each seed is
        drawn from the shared RNG stream immediately after its episode is
        sampled — the exact draw order of the serial formulation, so seeded
        searches stay bit-identical regardless of executor.  Under
        ``'derived'`` the seeds are left to :meth:`candidate_seed` (hashed
        from the candidate), which is what lets re-sampled structures hit
        the evaluation memo.
        """
        if self.search_config.candidate_seeds == "derived":
            sampler = getattr(self.controller, "sample_batch", None)
            if sampler is not None:
                episodes = sampler(count, self._rng)
            else:  # plugin controllers may predate the batch-sampling API
                episodes = [self.controller.sample(self._rng) for _ in range(count)]
            return episodes, [None] * count
        episodes: List[Episode] = []
        seeds: List[Optional[int]] = []
        for _ in range(count):
            episodes.append(self.controller.sample(self._rng))
            seeds.append(int(self._rng.integers(0, 2**31)))
        return episodes, seeds

    def run(
        self,
        episodes: Optional[int] = None,
        journal=None,
        should_stop=None,
    ) -> MuffinSearchResult:
        """Run the reinforcement-learning search and return its history.

        Each controller batch is sampled up front and its candidates are
        evaluated concurrently through the configured executor; the
        REINFORCE update then sees the whole rewarded batch, exactly as in
        the serial formulation of Equation 4.

        ``journal`` (an :class:`~repro.master.db.EpisodeJournal`) makes the
        run durable: every completed batch is appended (records, keyed by
        the batch's ``(candidate, seed)`` pairs) before the controller
        update, and batches the journal already holds are replayed from disk
        instead of retrained.  Sampling is cheap and deterministic, so a
        resumed run replays its prefix in milliseconds and continues
        bit-identically to an uninterrupted one.

        ``should_stop`` (a zero-argument callable) is polled at every batch
        boundary; returning True raises :class:`SearchInterrupted` *before*
        the next batch starts, so a graceful shutdown or cancellation never
        loses completed work.
        """
        total_episodes = episodes if episodes is not None else self.search_config.episodes
        config = self.search_config
        records: List[EpisodeRecord] = []
        memo_hits_before = self.memo_hits
        memo_misses_before = self.memo_misses
        # Request-level cache counters: per-model and concatenated lookups.
        cache_hits_before = self._cache.hits + self._cache.concat_hits
        cache_misses_before = self._cache.misses + self._cache.concat_misses
        start_time = time.perf_counter()

        executor = build_executor(
            config.executor, config.max_workers, **(config.executor_options or {})
        )
        try:
            episode_index = 0
            batch_counter = 0
            while episode_index < total_episodes:
                if should_stop is not None and should_stop():
                    raise SearchInterrupted(
                        f"search stopped at the batch boundary after "
                        f"{episode_index}/{total_episodes} episodes",
                        completed_episodes=episode_index,
                    )
                batch_size = min(config.episode_batch, total_episodes - episode_index)
                with span("search/batch", batch=batch_counter, episodes=batch_size):
                    batch_episodes, batch_seeds = self._sample_episode_batch(batch_size)
                    batch_candidates = [
                        self.search_space.decode(episode.actions)
                        for episode in batch_episodes
                    ]
                    batch_keys = None
                    batch_records = None
                    if journal is not None:
                        # The journal key pins exactly what determines a batch's
                        # records: the candidates and their resolved seeds.  A
                        # mismatch (different spec/seed wrote the journal) makes
                        # lookup() discard the stale tail and fall through to
                        # live evaluation.
                        resolved_seeds = [
                            seed if seed is not None else self.candidate_seed(candidate)
                            for candidate, seed in zip(batch_candidates, batch_seeds)
                        ]
                        batch_keys = [
                            {"candidate": candidate.to_dict(), "seed": int(seed)}
                            for candidate, seed in zip(batch_candidates, resolved_seeds)
                        ]
                        batch_records = journal.lookup(batch_counter, batch_keys)
                    replayed = batch_records is not None
                    if batch_records is None:
                        batch_records = self.evaluate_batch(
                            batch_candidates,
                            seeds=batch_seeds,
                            episodes=range(episode_index, episode_index + batch_size),
                            executor=executor,
                            # Fresh per-episode seeds can never repeat a memo
                            # key; storing every record would be pure memory
                            # overhead.
                            memoize=config.candidate_seeds == "derived",
                        )
                        if journal is not None:
                            journal.append(batch_counter, batch_keys, batch_records)
                    for episode, record in zip(batch_episodes, batch_records):
                        episode.reward = record.reward
                        records.append(record)
                        self.logger.log(
                            episode=record.episode,
                            reward=record.reward,
                            accuracy=record.evaluation.accuracy,
                            **{
                                f"U({a})": record.evaluation.unfairness[a]
                                for a in self.attributes
                            },
                            candidate=record.candidate.describe(),
                        )
                    self.controller.update(batch_episodes)
                    _BATCHES_TOTAL.inc(source="journal" if replayed else "live")
                    _EPISODES_TOTAL.inc(batch_size)
                episode_index += batch_size
                batch_counter += 1
        finally:
            executor.shutdown()

        stats = ExecutionStats(
            executor=config.executor,
            max_workers=getattr(executor, "max_workers", 1),
            episodes=total_episodes,
            memo_hits=self.memo_hits - memo_hits_before,
            memo_misses=self.memo_misses - memo_misses_before,
            body_cache_hits=self._cache.hits + self._cache.concat_hits - cache_hits_before,
            body_cache_misses=self._cache.misses
            + self._cache.concat_misses
            - cache_misses_before,
            eval_seconds=time.perf_counter() - start_time,
            backend=self.head_config.backend,
        )
        return MuffinSearchResult(
            records=records,
            attributes=self.attributes,
            controller_history=self.controller.update_history,
            search_space_description=self.search_space.describe(),
            execution_stats=stats,
        )

    # ------------------------------------------------------------------
    # Final model extraction
    # ------------------------------------------------------------------
    def finalize(
        self,
        result: MuffinSearchResult,
        metric: str = "reward",
        name: Optional[str] = None,
        evaluate_on_test: bool = True,
        reference_model: Optional[str] = None,
    ) -> MuffinNet:
        """Materialise a named Muffin-Net from a search result.

        The record selected by ``metric`` is rebuilt with its stored head
        weights and (optionally) evaluated on the untouched test partition —
        the numbers the paper's Table I and figures report.

        When ``reference_model`` names a pool model (typically the vanilla
        base model), the selection is restricted to candidates that dominate
        it on the search's evaluation partition — lower unfairness on every
        attribute and at least its accuracy — mirroring the Table I claim
        that Muffin improves both attributes without losing accuracy.  If no
        candidate dominates, the plain ``metric`` selection is used.
        """
        if reference_model is not None:
            reference = evaluate_predictions(
                self.pool.predict(reference_model, self.search_config.eval_partition),
                self.eval_dataset,
                self.attributes,
            )
            record = SELECTION_STRATEGIES.get("dominating")(
                result, reference=reference, metric=metric
            )
        else:
            record = select_record(result, metric)
        return self.materialize_record(
            record, name=name or f"Muffin-{metric}", evaluate_on_test=evaluate_on_test
        )

    def materialize_record(
        self,
        record: EpisodeRecord,
        name: str,
        evaluate_on_test: bool = True,
    ) -> MuffinNet:
        """Rebuild one episode record as a named, test-evaluated Muffin-Net."""
        models = self.pool.models(record.candidate.model_names)
        fused = rebuild_fused_model(record, models, name=name)
        if record.head_state is None:
            # Heads were not stored during the search: retrain this one head.
            proxy_outputs = self._cache.concatenated(
                record.candidate.model_names, self.proxy.dataset, self.proxy.indices
            )
            train_head(fused, self.proxy, self.head_config, body_outputs=proxy_outputs)
        test_evaluation = (
            fused.evaluate(self.pool.split.test, self.attributes) if evaluate_on_test else None
        )
        return MuffinNet(
            name=name,
            fused=fused,
            record=record,
            test_evaluation=test_evaluation,
        )

    def named_muffin_nets(self, result: MuffinSearchResult) -> Dict[str, MuffinNet]:
        """The named models the paper reports: Muffin, Muffin-<attr>, Muffin-Balance."""
        nets: Dict[str, MuffinNet] = {"Muffin": self.finalize(result, "reward", name="Muffin")}
        for attribute in self.attributes:
            pretty = attribute.replace("_", " ").title().replace(" ", "")
            nets[f"Muffin-{pretty}"] = self.finalize(
                result, attribute, name=f"Muffin-{pretty}"
            )
        nets["Muffin-Balance"] = self.finalize(result, "balance", name="Muffin-Balance")
        return nets
