"""Result containers of the Muffin search.

``EpisodeRecord`` captures everything about one evaluated candidate (the
decoded fusing structure, the trained head weights, the fairness evaluation
and the reward).  ``MuffinSearchResult`` aggregates the full history and
knows how to pick the named models the paper reports — the best-reward
"Muffin-Net", the per-attribute specialists "Muffin-Age" / "Muffin-Sites"
and the balanced trade-off "Muffin-Balance" — and how to rebuild a
:class:`~repro.core.fusing.FusedModel` from a record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..fairness.metrics import FairnessEvaluation
from ..fairness.pareto import ParetoPoint, make_point, pareto_front
from ..registry import Registry, UnknownComponentError
from ..utils.serialization import decode_state_dict, encode_state_dict
from .fusing import FusedModel, MuffinBody, MuffinHead
from .search_space import FusingCandidate

#: Registry of final-model selection strategies.  Each entry is a callable
#: ``(result: MuffinSearchResult, **kwargs) -> EpisodeRecord``; ``finalize``
#: resolves ``metric`` names through it (attribute names fall back to the
#: ``per_attribute`` strategy).
SELECTION_STRATEGIES: Registry = Registry("selection strategy")


@dataclass
class ExecutionStats:
    """How one search run dispatched and memoised its candidate evaluations.

    ``memo_hits`` counts candidate evaluations answered from the
    ``(candidate, seed)`` memo without retraining a head (re-sampled
    structures, common late in the search when the controller converges);
    the body-cache counters track the shared frozen-body probability cache.
    ``eval_seconds`` is the whole run's wall-clock; its head-training and
    scoring shares are the ``search/train`` and ``search/score`` spans.
    """

    executor: str = "serial"
    max_workers: int = 1
    episodes: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    body_cache_hits: int = 0
    body_cache_misses: int = 0
    eval_seconds: float = 0.0
    #: array backend the run's fused kernels and metrics engine used
    #: (``repro.core.backend``); 'numpy-float64' is the bit-identical default
    backend: str = "numpy-float64"

    def to_dict(self) -> Dict[str, object]:
        return {
            "executor": self.executor,
            "max_workers": self.max_workers,
            "episodes": self.episodes,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "body_cache_hits": self.body_cache_hits,
            "body_cache_misses": self.body_cache_misses,
            "eval_seconds": round(float(self.eval_seconds), 4),
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ExecutionStats":
        return cls(
            executor=str(payload.get("executor", "serial")),
            max_workers=int(payload.get("max_workers", 1)),
            episodes=int(payload.get("episodes", 0)),
            memo_hits=int(payload.get("memo_hits", 0)),
            memo_misses=int(payload.get("memo_misses", 0)),
            body_cache_hits=int(payload.get("body_cache_hits", 0)),
            body_cache_misses=int(payload.get("body_cache_misses", 0)),
            eval_seconds=float(payload.get("eval_seconds", 0.0)),
            backend=str(payload.get("backend", "numpy-float64")),
        )


@dataclass
class EpisodeRecord:
    """One evaluated candidate of the search."""

    episode: int
    candidate: FusingCandidate
    reward: float
    evaluation: FairnessEvaluation
    head_state: Optional[Dict[str, np.ndarray]] = None
    train_losses: List[float] = field(default_factory=list)
    num_parameters: int = 0
    trainable_parameters: int = 0

    def unfairness(self, attribute: str) -> float:
        return self.evaluation.unfairness[attribute]

    def to_dict(self, include_state: bool = False) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "episode": self.episode,
            "candidate": self.candidate.to_dict(),
            "reward": self.reward,
            "evaluation": self.evaluation.to_dict(),
            "num_parameters": self.num_parameters,
            "trainable_parameters": self.trainable_parameters,
        }
        if include_state:
            payload["train_losses"] = [float(x) for x in self.train_losses]
            if self.head_state is not None:
                payload["head_state"] = encode_state_dict(self.head_state)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "EpisodeRecord":
        """Rebuild a record serialised by ``to_dict(include_state=True)``."""
        head_state = None
        if payload.get("head_state") is not None:
            head_state = decode_state_dict(payload["head_state"])
        return cls(
            episode=int(payload["episode"]),
            candidate=FusingCandidate.from_dict(payload["candidate"]),
            reward=float(payload["reward"]),
            evaluation=FairnessEvaluation.from_dict(payload["evaluation"]),
            head_state=head_state,
            train_losses=[float(x) for x in payload.get("train_losses", [])],
            num_parameters=int(payload.get("num_parameters", 0)),
            trainable_parameters=int(payload.get("trainable_parameters", 0)),
        )


@dataclass
class MuffinNet:
    """A named final model produced by the search (e.g. "Muffin-Age")."""

    name: str
    fused: FusedModel
    record: EpisodeRecord
    test_evaluation: Optional[FairnessEvaluation] = None

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "candidate": self.record.candidate.to_dict(),
            "search_evaluation": self.record.evaluation.to_dict(),
            "num_parameters": self.record.num_parameters,
        }
        if self.test_evaluation is not None:
            payload["test_evaluation"] = self.test_evaluation.to_dict()
        return payload


class MuffinSearchResult:
    """History of one reinforcement-learning search plus selection helpers."""

    def __init__(
        self,
        records: Sequence[EpisodeRecord],
        attributes: Sequence[str],
        controller_history: Optional[Sequence[Mapping[str, float]]] = None,
        search_space_description: Optional[Mapping[str, object]] = None,
        execution_stats: Optional[ExecutionStats] = None,
    ) -> None:
        if not records:
            raise ValueError("a search result needs at least one episode record")
        self.records: List[EpisodeRecord] = list(records)
        self.attributes: List[str] = list(attributes)
        self.controller_history: List[Mapping[str, float]] = list(controller_history or [])
        self.search_space_description = dict(search_space_description or {})
        self.execution_stats = execution_stats

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def rewards(self) -> np.ndarray:
        return np.asarray([record.reward for record in self.records])

    def best_record(self, metric: str = "reward") -> EpisodeRecord:
        """Best record by ``metric``.

        ``metric`` may be ``"reward"``, ``"accuracy"``, ``"multi"`` (lowest
        multi-dimensional unfairness) or the name of an attribute (lowest
        unfairness for that attribute).
        """
        if metric == "reward":
            return max(self.records, key=lambda r: r.reward)
        if metric == "accuracy":
            return max(self.records, key=lambda r: r.evaluation.accuracy)
        if metric == "multi":
            return min(self.records, key=lambda r: r.evaluation.multi_dimensional_unfairness)
        if metric in self.attributes:
            return min(self.records, key=lambda r: r.evaluation.unfairness[metric])
        raise KeyError(
            f"unknown metric '{metric}'; expected 'reward', 'accuracy', 'multi' or one of "
            f"{self.attributes}"
        )

    def best_dominating_record(
        self, reference: FairnessEvaluation, metric: str = "reward"
    ) -> EpisodeRecord:
        """Best record among those that dominate a reference evaluation.

        A record dominates the reference when it has lower unfairness on
        *every* searched attribute and at least the reference accuracy.  This
        is the selection behind Table I, where the reported Muffin-Net
        improves both attributes and the accuracy of the vanilla base model.
        Falls back to :meth:`best_record` when no candidate dominates.
        """
        dominating = [
            record
            for record in self.records
            if record.evaluation.accuracy >= reference.accuracy
            and all(
                record.evaluation.unfairness[attribute] < reference.unfairness[attribute]
                for attribute in self.attributes
            )
        ]
        if not dominating:
            # Fall back to the accuracy-preserving candidate with the best
            # *worst-case* relative improvement across attributes, so one
            # attribute is never sacrificed for the other; if nothing
            # preserves accuracy either, fall back to the plain metric.
            accuracy_preserving = [
                record
                for record in self.records
                if record.evaluation.accuracy >= reference.accuracy
            ]
            if accuracy_preserving:
                def worst_improvement(record: EpisodeRecord) -> float:
                    return min(
                        (reference.unfairness[a] - record.evaluation.unfairness[a])
                        / max(reference.unfairness[a], 1e-9)
                        for a in self.attributes
                    )

                return max(accuracy_preserving, key=worst_improvement)
            return self.best_record(metric)
        if metric == "reward":
            return max(dominating, key=lambda r: r.reward)
        if metric == "accuracy":
            return max(dominating, key=lambda r: r.evaluation.accuracy)
        if metric == "multi":
            return min(dominating, key=lambda r: r.evaluation.multi_dimensional_unfairness)
        if metric in self.attributes:
            return min(dominating, key=lambda r: r.evaluation.unfairness[metric])
        raise KeyError(f"unknown metric '{metric}'")

    def best_balanced_record(self, accuracy_slack: float = 0.02) -> EpisodeRecord:
        """Record minimising the *normalised* sum of attribute unfairness.

        This is the "Muffin-Balance" selection of Section 4.5: among the
        candidates whose accuracy is within ``accuracy_slack`` of the best
        accuracy the search found (the paper stresses that Muffin-Balance
        keeps the overall accuracy unaffected), pick the one with the best
        equal-weight trade-off across attributes.
        """
        best_accuracy = max(r.evaluation.accuracy for r in self.records)
        eligible = [
            record
            for record in self.records
            if record.evaluation.accuracy >= best_accuracy - accuracy_slack
        ]
        if not eligible:
            eligible = list(self.records)
        scale = {
            attribute: max(max(r.evaluation.unfairness[attribute] for r in self.records), 1e-9)
            for attribute in self.attributes
        }

        def balanced_score(record: EpisodeRecord) -> float:
            return sum(
                record.evaluation.unfairness[attribute] / scale[attribute]
                for attribute in self.attributes
            )

        return min(eligible, key=balanced_score)

    # ------------------------------------------------------------------
    def pareto_points(self, include_accuracy: bool = False) -> List[ParetoPoint]:
        """Every record as a Pareto point in unfairness(-and-accuracy) space."""
        points = []
        for record in self.records:
            objectives: Dict[str, float] = {
                f"U({attribute})": record.evaluation.unfairness[attribute]
                for attribute in self.attributes
            }
            maximize: List[str] = []
            if include_accuracy:
                objectives["accuracy"] = record.evaluation.accuracy
                maximize.append("accuracy")
            points.append(
                make_point(f"episode_{record.episode}", objectives, maximize=maximize)
            )
        return points

    def pareto_records(self) -> List[EpisodeRecord]:
        """Records on the Pareto frontier of per-attribute unfairness."""
        keys = [f"U({attribute})" for attribute in self.attributes]
        points = self.pareto_points()
        front_names = {point.name for point in pareto_front(points, keys)}
        return [
            record
            for record, point in zip(self.records, points)
            if point.name in front_names
        ]

    # ------------------------------------------------------------------
    def reward_curve(self, window: int = 10) -> List[float]:
        """Moving average of the episode rewards (search convergence curve)."""
        rewards = self.rewards()
        if window <= 1:
            return rewards.tolist()
        smoothed = []
        for index in range(len(rewards)):
            start = max(0, index - window + 1)
            smoothed.append(float(rewards[start : index + 1].mean()))
        return smoothed

    def summary(self) -> Dict[str, object]:
        best = self.best_record()
        summary: Dict[str, object] = {
            "episodes": len(self.records),
            "best_reward": best.reward,
            "best_candidate": best.candidate.to_dict(),
            "best_accuracy": best.evaluation.accuracy,
            "best_unfairness": dict(best.evaluation.unfairness),
            "attributes": list(self.attributes),
            "search_space": dict(self.search_space_description),
        }
        if self.execution_stats is not None:
            summary["execution"] = self.execution_stats.to_dict()
        return summary

    def to_dict(self, include_state: bool = False) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "summary": self.summary(),
            "attributes": list(self.attributes),
            "search_space": dict(self.search_space_description),
            "records": [record.to_dict(include_state=include_state) for record in self.records],
            "controller_history": [dict(h) for h in self.controller_history],
        }
        if self.execution_stats is not None:
            payload["execution_stats"] = self.execution_stats.to_dict()
        return payload

    def result_hash(self) -> str:
        """Stable short hash of everything the search *computed*.

        Covers the full episode history (head weights included), the
        controller updates and the search space — but none of the
        timing-bearing :class:`ExecutionStats` — so two runs of the same
        seeded spec hash identically regardless of executor, worker count,
        interruptions or journal replays.  This is the equality the
        distributed subsystem's bit-identity guarantees are asserted on.
        """
        import hashlib
        import json

        payload = {
            "attributes": list(self.attributes),
            "search_space": dict(self.search_space_description),
            "records": [record.to_dict(include_state=True) for record in self.records],
            "controller_history": [dict(h) for h in self.controller_history],
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "MuffinSearchResult":
        """Rebuild a result serialised by ``to_dict(include_state=True)``."""
        attributes = payload.get("attributes") or payload.get("summary", {}).get("attributes", [])
        execution_stats = (
            ExecutionStats.from_dict(payload["execution_stats"])
            if payload.get("execution_stats") is not None
            else None
        )
        return cls(
            records=[EpisodeRecord.from_dict(entry) for entry in payload["records"]],
            attributes=list(attributes),
            controller_history=[dict(h) for h in payload.get("controller_history", [])],
            search_space_description=dict(
                payload.get("search_space")
                or payload.get("summary", {}).get("search_space", {})
            ),
            execution_stats=execution_stats,
        )


def rebuild_fused_model(
    record: EpisodeRecord,
    models: Sequence,
    name: Optional[str] = None,
    seed: int = 0,
) -> FusedModel:
    """Reconstruct the fused model of ``record`` (body models + stored head)."""
    body = MuffinBody(models)
    head = MuffinHead(
        body_output_dim=body.output_dim,
        num_classes=body.num_classes,
        hidden_sizes=record.candidate.hidden_sizes,
        activation=record.candidate.activation,
        seed=seed,
    )
    fused = FusedModel(body, head, name=name or f"Muffin[{record.candidate.describe()}]")
    if record.head_state is not None:
        fused.head.load_state_dict(record.head_state)
    return fused


# ----------------------------------------------------------------------
# Selection strategies (the "which episode becomes the Muffin-Net" policies)
# ----------------------------------------------------------------------
@SELECTION_STRATEGIES.register("reward")
def _select_best_reward(result: MuffinSearchResult, **_: object) -> EpisodeRecord:
    return result.best_record("reward")


@SELECTION_STRATEGIES.register("accuracy")
def _select_best_accuracy(result: MuffinSearchResult, **_: object) -> EpisodeRecord:
    return result.best_record("accuracy")


@SELECTION_STRATEGIES.register("multi")
def _select_lowest_multi_unfairness(result: MuffinSearchResult, **_: object) -> EpisodeRecord:
    return result.best_record("multi")


@SELECTION_STRATEGIES.register("balance")
def _select_balanced(
    result: MuffinSearchResult, accuracy_slack: float = 0.02, **_: object
) -> EpisodeRecord:
    return result.best_balanced_record(accuracy_slack=accuracy_slack)


@SELECTION_STRATEGIES.register("per_attribute")
def _select_per_attribute(
    result: MuffinSearchResult, attribute: Optional[str] = None, **_: object
) -> EpisodeRecord:
    if attribute is None:
        raise ValueError("the 'per_attribute' strategy needs an attribute= keyword")
    return result.best_record(attribute)


@SELECTION_STRATEGIES.register("dominating")
def _select_dominating(
    result: MuffinSearchResult,
    reference: Optional[FairnessEvaluation] = None,
    metric: str = "reward",
    **_: object,
) -> EpisodeRecord:
    if reference is None:
        raise ValueError("the 'dominating' strategy needs a reference= evaluation")
    return result.best_dominating_record(reference, metric=metric)


def select_record(result: MuffinSearchResult, metric: str = "reward", **kwargs) -> EpisodeRecord:
    """Resolve ``metric`` through :data:`SELECTION_STRATEGIES` and apply it.

    Attribute names of the search fall back to the ``per_attribute`` strategy,
    preserving the historical ``finalize(result, metric="age")`` shorthand.
    """
    if metric in SELECTION_STRATEGIES:
        return SELECTION_STRATEGIES.get(metric)(result, **kwargs)
    if metric in result.attributes:
        return SELECTION_STRATEGIES.get("per_attribute")(result, attribute=metric, **kwargs)
    raise UnknownComponentError(
        "selection strategy",
        metric,
        SELECTION_STRATEGIES.names() + list(result.attributes),
        SELECTION_STRATEGIES.suggest(metric),
    )
