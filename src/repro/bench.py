"""Machine-readable micro-benchmark suite: ``python -m repro bench``.

The repository's load-bearing performance claims live in ``benchmarks/`` as
pytest modules with hardware-tiered wall-clock assertions.  This module is
the *reporting* entry point on top of the same hot paths: it runs compact
versions of the head-training and metrics-engine workloads once per array
backend and emits stable, machine-readable records —

    python -m repro bench --json bench.json
    python -m repro bench --backend numpy-float32 --rounds 5

Each record carries the benchmark name, the backend, the fast-path and
baseline wall times, the speedup, and a **verdict**: the float64 identity
backend must reproduce the oracle bit for bit (``verdict="identity"``),
mixed-precision backends must satisfy the per-quantity tolerance contract
(``verdict="tolerance"``; see :data:`repro.core.backend.TOLERANCES`).  A
contract violation yields ``verdict="fail"`` and a non-zero exit code — the
speedup of a wrong answer is not reported as a win.

:func:`identity_only` is the single switch the benchmark suite consults to
skip wall-clock assertions on constrained runners: set
``REPRO_BENCH_IDENTITY_ONLY=1``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .obs import TraceWriter, load_spans, span
from .obs import trace as _trace

#: the one switch: identity/tolerance checks always run, wall-clock
#: assertions are skipped when it is set
IDENTITY_ONLY_VAR = "REPRO_BENCH_IDENTITY_ONLY"


def identity_only() -> bool:
    """True when wall-clock assertions should be skipped (identity still runs)."""
    return bool(os.environ.get(IDENTITY_ONLY_VAR))


@dataclass
class BenchRecord:
    """One benchmark x backend measurement, stable across releases."""

    benchmark: str
    backend: str
    wall_time_s: float
    baseline_s: float
    speedup: float
    #: "identity" (bit-identical to the oracle), "tolerance" (within the
    #: documented contract) or "fail" (contract violated; see ``detail``)
    verdict: str
    detail: str = ""
    #: schema v2: per-phase wall times measured by the obs span layer
    #: (``{"phases": {phase: seconds}, "total_s": seconds}``); v1 fields
    #: above are unchanged
    metrics: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "backend": self.backend,
            "wall_time_s": round(self.wall_time_s, 6),
            "baseline_s": round(self.baseline_s, 6),
            "speedup": round(self.speedup, 3),
            "verdict": self.verdict,
            "detail": self.detail,
            "metrics": self.metrics,
        }


def _verdict(backend, checks) -> "tuple":
    """Run ``checks`` (callables raising AssertionError) under the contract."""
    from .core.backend import get_backend

    resolved = get_backend(backend)
    try:
        for check in checks:
            check()
    except AssertionError as exc:
        return "fail", str(exc)
    return ("identity" if resolved.is_identity else "tolerance"), ""


# ----------------------------------------------------------------------
# Benchmark: fused batched head training vs the autograd oracle
# ----------------------------------------------------------------------
def bench_head_training(backend: str, rounds: int) -> BenchRecord:
    """Fused batched trainer under ``backend`` vs the float64 autograd loop.

    One head per searched activation, so every fused kernel is checked
    against the oracle.
    """
    from .core.backend import assert_backend_close
    from .core.fusing import MuffinHead
    from .core.search_space import DEFAULT_ACTIVATIONS
    from .core.trainer import HeadTrainConfig, train_head_on_outputs, train_heads_batched

    num_heads, body_dim, num_classes, proxy, epochs = len(DEFAULT_ACTIVATIONS), 24, 8, 800, 10
    rng = np.random.default_rng(2023)
    labels = rng.integers(0, num_classes, proxy)
    weights = rng.random(proxy) + 0.1
    outputs = [rng.random((proxy, body_dim)) for _ in range(num_heads)]

    def fresh_heads():
        return [
            MuffinHead(body_dim, num_classes, (16,), activation, seed=index)
            for index, activation in enumerate(DEFAULT_ACTIVATIONS)
        ]

    oracle_config = HeadTrainConfig(epochs=epochs, seed=0, use_fused=False)
    fused_config = HeadTrainConfig(epochs=epochs, seed=0, use_fused=True, backend=backend)

    baseline_s = float("inf")
    oracle_heads, oracle_results = [], []
    with span("bench/phase/baseline", rounds=rounds):
        for _ in range(rounds):
            oracle_heads = fresh_heads()
            start = time.perf_counter()
            oracle_results = [
                train_head_on_outputs(head, matrix, labels, weights, num_classes, oracle_config)
                for head, matrix in zip(oracle_heads, outputs)
            ]
            baseline_s = min(baseline_s, time.perf_counter() - start)

    fused_s = float("inf")
    fused_heads, fused_results = [], []
    with span("bench/phase/fastpath", rounds=rounds):
        for _ in range(rounds):
            fused_heads = fresh_heads()
            start = time.perf_counter()
            fused_results = train_heads_batched(
                fused_heads, outputs, labels, weights, num_classes, fused_config
            )
            fused_s = min(fused_s, time.perf_counter() - start)

    def checks():
        for oracle_head, oracle_result, fused_head, fused_result in zip(
            oracle_heads, oracle_results, fused_heads, fused_results
        ):
            yield lambda a=oracle_result.losses, b=fused_result.losses: assert_backend_close(
                backend, "loss_curve", b, a
            )
            oracle_state, fused_state = oracle_head.state_dict(), fused_head.state_dict()
            for key in oracle_state:
                yield lambda a=oracle_state[key], b=fused_state[key]: assert_backend_close(
                    backend, "head_weights", b, a
                )

    with span("bench/phase/verify"):
        verdict, detail = _verdict(backend, checks())
    return BenchRecord(
        benchmark="head_training",
        backend=backend,
        wall_time_s=fused_s,
        baseline_s=baseline_s,
        speedup=baseline_s / max(fused_s, 1e-9),
        verdict=verdict,
        detail=detail,
    )


# ----------------------------------------------------------------------
# Benchmark: vectorized metrics engine vs the scalar seed loop
# ----------------------------------------------------------------------
def bench_metrics_engine(backend: str, rounds: int) -> BenchRecord:
    """Batched :class:`EvaluationEngine` under ``backend`` vs the scalar loop."""
    from .core.backend import assert_backend_close
    from .data import SyntheticISIC2019
    from .fairness import EvaluationEngine

    num_candidates, num_samples = 16, 2000
    dataset = SyntheticISIC2019(num_samples=num_samples, seed=2019)
    rng = np.random.default_rng(2023)
    labels = dataset.labels
    stacked = np.empty((num_candidates, num_samples), dtype=np.int64)
    for i in range(num_candidates):
        error_rate = 0.05 + 0.3 * (i / max(num_candidates - 1, 1))
        flip = rng.random(num_samples) < error_rate
        noise = rng.integers(0, dataset.num_classes, num_samples)
        stacked[i] = np.where(flip, noise, labels)

    engine = EvaluationEngine.for_dataset(dataset, backend=backend)

    def scalar_loop():
        evaluations = []
        for i in range(num_candidates):
            predictions = stacked[i]
            accuracy = float((predictions == labels).mean())
            unfairness = {}
            for name in dataset.attributes.names:
                spec = dataset.attributes[name]
                ids = dataset.group_ids(name)
                deviation = 0.0
                for index in range(len(spec.groups)):
                    mask = ids == index
                    group_acc = (
                        float((predictions[mask] == labels[mask]).mean())
                        if mask.any()
                        else accuracy
                    )
                    deviation += abs(group_acc - accuracy)
                unfairness[name] = float(deviation)
            evaluations.append((accuracy, unfairness))
        return evaluations

    baseline_s = float("inf")
    oracle = None
    with span("bench/phase/baseline", rounds=rounds):
        for _ in range(rounds):
            start = time.perf_counter()
            oracle = scalar_loop()
            baseline_s = min(baseline_s, time.perf_counter() - start)

    engine_s = float("inf")
    batch = None
    with span("bench/phase/fastpath", rounds=rounds):
        for _ in range(rounds):
            start = time.perf_counter()
            batch = engine.evaluate(stacked)
            engine_s = min(engine_s, time.perf_counter() - start)

    oracle_accuracy = np.array([accuracy for accuracy, _ in oracle])
    checks = [
        lambda: assert_backend_close(backend, "metrics", batch.accuracy, oracle_accuracy)
    ]
    for name in dataset.attributes.names:
        oracle_unfairness = np.array([unfairness[name] for _, unfairness in oracle])
        checks.append(
            lambda n=name, o=oracle_unfairness: assert_backend_close(
                backend, "metrics", batch.unfairness[n], o
            )
        )

    with span("bench/phase/verify"):
        verdict, detail = _verdict(backend, checks)
    return BenchRecord(
        benchmark="metrics_engine",
        backend=backend,
        wall_time_s=engine_s,
        baseline_s=baseline_s,
        speedup=baseline_s / max(engine_s, 1e-9),
        verdict=verdict,
        detail=detail,
    )


BENCHMARKS = {
    "head_training": bench_head_training,
    "metrics_engine": bench_metrics_engine,
}


def run_benchmarks(
    backends: Optional[Sequence[str]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    rounds: Optional[int] = None,
) -> List[BenchRecord]:
    """All requested benchmark x backend records (default: every registered backend)."""
    from .core.backend import BACKENDS

    if backends is None:
        backends = BACKENDS.names()
    if benchmarks is None:
        benchmarks = list(BENCHMARKS)
    if rounds is None:
        rounds = 1 if identity_only() else 3
    records: List[BenchRecord] = []
    for name in benchmarks:
        if name not in BENCHMARKS:
            raise KeyError(
                f"unknown benchmark '{name}'; available: {sorted(BENCHMARKS)}"
            )
        for backend in backends:
            records.append(_run_traced(name, backend, rounds))
    return records


def _run_traced(name: str, backend: str, rounds: int) -> BenchRecord:
    """Run one benchmark under a span capture and attach phase wall times.

    Each benchmark wraps its baseline / fast-path / verify sections in
    ``bench/phase/*`` spans; an in-memory trace writer scoped to this call
    collects them into the record's ``metrics`` sub-object (schema v2).  A
    writer the caller already installed is restored afterwards.
    """
    buffer = io.StringIO()
    previous = _trace.active_writer()
    writer = TraceWriter(buffer)
    _trace.install(writer)
    try:
        with span(f"bench/{name}", backend=backend, rounds=rounds):
            record = BENCHMARKS[name](backend, rounds)
    finally:
        if previous is not None:
            _trace.install(previous)
        else:
            _trace.uninstall()
        writer.close()
    buffer.seek(0)
    rows = load_spans(buffer)
    phases = {
        row["name"].rsplit("/", 1)[-1]: row["duration_s"]
        for row in rows
        if str(row["name"]).startswith("bench/phase/")
    }
    total = next(
        (row["duration_s"] for row in rows if row["name"] == f"bench/{name}"), None
    )
    record.metrics = {"phases": phases, "total_s": total}
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Run the hot-path micro-benchmarks per array backend and "
        "emit machine-readable records",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write records as a JSON document ('-' for stdout)",
    )
    parser.add_argument(
        "--backend",
        action="append",
        default=None,
        metavar="NAME",
        help="backend(s) to benchmark (repeatable; default: all registered)",
    )
    parser.add_argument(
        "--bench",
        action="append",
        default=None,
        metavar="NAME",
        choices=sorted(BENCHMARKS),
        help="benchmark(s) to run (repeatable; default: all)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        metavar="N",
        help="best-of-N timing rounds (default: 3, or 1 under "
        f"{IDENTITY_ONLY_VAR}=1)",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    try:
        records = run_benchmarks(
            backends=args.backend, benchmarks=args.bench, rounds=args.rounds
        )
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # With --json - the document owns stdout; progress lines move to stderr
    # so the output stays parseable.
    progress = sys.stderr if args.json == "-" else sys.stdout
    for record in records:
        line = (
            f"[bench] {record.benchmark} backend={record.backend}: "
            f"{record.wall_time_s:.4f}s vs baseline {record.baseline_s:.4f}s "
            f"(x{record.speedup:.1f}), verdict={record.verdict}"
        )
        if record.detail:
            line += f" ({record.detail})"
        print(line, file=progress)

    failed = [record for record in records if record.verdict == "fail"]
    if args.json:
        # v2 adds the per-record span-measured "metrics" sub-object; every
        # v1 field is preserved unchanged.
        document = {
            "schema_version": 2,
            "identity_only": identity_only(),
            "records": [record.to_dict() for record in records],
        }
        text = json.dumps(document, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as handle:
                handle.write(text + "\n")
            print(f"wrote {len(records)} records to {args.json}")
    if failed:
        print(
            f"error: {len(failed)} benchmark(s) violated their precision "
            "contract",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro bench
    raise SystemExit(main())
