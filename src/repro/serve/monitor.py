"""Live fairness monitoring for the inference server.

The paper's whole point is that a deployed fused model should stay accurate
*and* fair on every sensitive attribute — so the serving subsystem watches
exactly that, online.  When requests carry group ids (and, for labelled
traffic such as shadow deployments or delayed-feedback loops, true labels),
the :class:`FairnessMonitor` maintains:

* cumulative per-group traffic counts for every schema attribute (what mix
  of groups the model is actually serving);
* a sliding window of the most recent labelled samples, scored on demand by
  the vectorized :class:`~repro.fairness.engine.EvaluationEngine` — windowed
  accuracy, per-attribute Eq. 1 ``unfairness_score`` and max-min
  ``accuracy_gap``, the same numbers the offline search optimises;
* periodic structured log lines (one per ``log_every`` labelled samples)
  through :class:`~repro.utils.logging.RunLogger`, so a long-running server
  leaves an auditable fairness trail.

All entry points are thread-safe; the micro-batcher calls ``observe`` from
its worker thread while HTTP threads call ``snapshot``.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..analysis.runtime import register_shared_state, touch_shared_state
from ..data.schema import FeatureSchema
from ..fairness.engine import EvaluationEngine
from ..utils.logging import RunLogger


class FairnessMonitor:
    """Sliding-window online fairness statistics over served predictions."""

    def __init__(
        self,
        schema: FeatureSchema,
        window: int = 512,
        attributes: Optional[Sequence[str]] = None,
        log_every: int = 0,
        logger: Optional[RunLogger] = None,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        names = tuple(attributes) if attributes is not None else schema.attribute_names
        self.schema = schema
        self.attributes: Tuple[str, ...] = tuple(
            name for name in names if name in schema.attribute_names
        )
        unknown = set(names) - set(self.attributes)
        if unknown:
            raise ValueError(
                f"cannot monitor unknown attribute(s) {sorted(unknown)}; "
                f"schema has {list(schema.attribute_names)}"
            )
        self.window = int(window)
        self.log_every = int(log_every)
        self.logger = logger or RunLogger(name="serve-monitor", verbose=False)
        self._lock = threading.Lock()

        #: cumulative per-group prediction counts, ``attr -> (num_groups,)``
        self._group_counts: Dict[str, np.ndarray] = {
            name: np.zeros(schema.attribute_spec(name).num_groups, dtype=np.int64)
            for name in self.attributes
        }
        # Sliding window of labelled-and-grouped samples (the only traffic
        # the fairness metrics are computable on).
        self._predictions: Deque[int] = deque(maxlen=self.window)
        self._labels: Deque[int] = deque(maxlen=self.window)
        self._groups: Dict[str, Deque[int]] = {
            name: deque(maxlen=self.window) for name in self.attributes
        }
        self.total_samples = 0
        self.labelled_samples = 0
        self._since_last_log = 0
        # REPRO_TSAN contract: every window/counter mutation holds _lock.
        register_shared_state("fairness-window", self, lock=self._lock)

    # ------------------------------------------------------------------
    def observe(
        self,
        predictions: np.ndarray,
        groups: Optional[Mapping[str, np.ndarray]] = None,
        labels: Optional[np.ndarray] = None,
    ) -> None:
        """Record one served batch (already-validated arrays)."""
        predictions = np.asarray(predictions, dtype=np.int64).reshape(-1)
        with self._lock:
            touch_shared_state("fairness-window", self)
            self.total_samples += int(predictions.shape[0])
            if not groups and labels is None:
                return  # nothing per-group to count, nothing to window
            groups = groups or {}
            for name, counts in self._group_counts.items():
                ids = groups.get(name)
                if ids is not None:
                    counts += np.bincount(
                        np.asarray(ids, dtype=np.int64), minlength=counts.shape[0]
                    )
            if labels is not None and all(name in groups for name in self.attributes):
                labels = np.asarray(labels, dtype=np.int64).reshape(-1)
                self.labelled_samples += int(labels.shape[0])
                self._since_last_log += int(labels.shape[0])
                self._predictions.extend(int(p) for p in predictions)
                self._labels.extend(int(y) for y in labels)
                for name in self.attributes:
                    self._groups[name].extend(
                        int(g) for g in np.asarray(groups[name], dtype=np.int64)
                    )

    # ------------------------------------------------------------------
    def _window_metrics(self) -> Optional[Dict[str, object]]:
        """Score the current window through the vectorized engine."""
        if not self._predictions:
            return None
        labels = np.asarray(self._labels, dtype=np.int64)
        predictions = np.asarray(self._predictions, dtype=np.int64)
        group_ids = {
            name: np.asarray(self._groups[name], dtype=np.int64)
            for name in self.attributes
        }
        if self.attributes:
            engine = EvaluationEngine.from_arrays(
                labels,
                group_ids,
                {name: self.schema.attribute_spec(name) for name in self.attributes},
            )
            batch = engine.evaluate(predictions)
            evaluation = batch.evaluation(0)
            unfairness = dict(evaluation.unfairness)
            gaps = dict(evaluation.gaps)
            accuracy = evaluation.accuracy
        else:
            accuracy = float((predictions == labels).mean())
            unfairness, gaps = {}, {}
        return {
            "size": int(labels.shape[0]),
            "capacity": self.window,
            "accuracy": accuracy,
            "unfairness_score": unfairness,
            "accuracy_gap": gaps,
        }

    def snapshot(self) -> Dict[str, object]:
        """Structured view of the monitor (the server's ``/stats`` payload)."""
        with self._lock:
            group_counts = {
                name: {
                    group: int(self._group_counts[name][index])
                    for index, group in enumerate(self.schema.attribute_spec(name).groups)
                }
                for name in self.attributes
            }
            return {
                "attributes": list(self.attributes),
                "total_samples": self.total_samples,
                "labelled_samples": self.labelled_samples,
                "group_counts": group_counts,
                "window": self._window_metrics(),
            }

    def maybe_log(self) -> Optional[Dict[str, object]]:
        """Emit one structured log row per ``log_every`` labelled samples."""
        if self.log_every <= 0:
            return None
        with self._lock:
            if self._since_last_log < self.log_every:
                return None
            touch_shared_state("fairness-window", self)
            self._since_last_log = 0
            metrics = self._window_metrics()
        if metrics is None:
            return None
        row: Dict[str, object] = {
            "samples": self.labelled_samples,
            "window_size": metrics["size"],
            "accuracy": float(metrics["accuracy"]),
        }
        for name, value in metrics["unfairness_score"].items():
            row[f"U({name})"] = float(value)
        for name, value in metrics["accuracy_gap"].items():
            row[f"gap({name})"] = float(value)
        # Shared structured-event row shape (float rounding included) with
        # the master's run-lifecycle events.
        return self.logger.event("fairness-window", **row)
