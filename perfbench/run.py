"""Repository benchmark: one workload per run, every metric by name and unit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program.  ``--trace 1`` measures the workload twice for half the
seconds each, first plain and then with span-recording wrappers around the
program's public functions, and prints the per-layer metrics plus the
tracing overhead (traced ``p50_ms`` minus plain ``p50_ms``).  The spans are
written to ``.perfbench/trace-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# One BLAS thread unless the caller says otherwise (set before NumPy loads;
# subprocesses inherit it).  On a 2-core box the default thread pool made
# identical pipeline ops both slower and about twice as variable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import common  # noqa: E402
import metrics  # noqa: E402

#: cold starts per run; set-up time is their median
COLD_STARTS = 5


def workloads():
    from wl_master import MasterWorkload
    from wl_pipeline import PipelineWorkload
    from wl_serve_http import ServeHttpWorkload
    from wl_serve_open import ServeOpenWorkload

    return {
        cls.name: cls
        for cls in (PipelineWorkload, MasterWorkload, ServeOpenWorkload, ServeHttpWorkload)
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    from tracer import Tracer, install_standard

    workdir = common.WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bench = workloads()[workload](seed, workdir)
    ticks = common.cpu_ticks()
    try:
        bench.prepare()
        if not trace:
            host = common.HostSpeed()
            # Cold starts and CPU-bound ops are reported at the reference
            # host speed, each with the factor taken just before it;
            # timer-bound serving latency is reported as measured.
            setups, setup_factors = [], []
            for _ in range(COLD_STARTS):
                setup_factors.append(host.factor())
                setups.append(bench.cold_start())
            bench.warm_up()
            if bench.cpu_bound:
                result = bench.measure(seconds, host=host)
                corrected = np.multiply(result["latencies_ms"], result["factors"])
            else:
                result = bench.measure(seconds)
                corrected = result["latencies_ms"]
            failed = result["failed"] + bench.verify()
            attempted = result["attempted"]
            latencies = result["latencies_ms"]
            values = {
                "setup_s": statistics.median(np.multiply(setups, setup_factors)),
                "p50_ms": common.pct(corrected, 50),
                "peak_rss_mb": result["peak_rss_mb"],
            }
            print(f"# host kernel_ms median {statistics.median(host.samples_ms):.4f} "
                  f"samples {len(host.samples_ms)}")
            print(f"# raw setup_s {statistics.median(setups):.6f} "
                  f"p50_ms {common.pct(latencies, 50):.4f}")
            print("# raw cold starts " + " ".join(f"{v:.4f}" for v in setups))
            # Upper percentiles are printed, not gated: a pipeline run holds
            # too few ops for them, and on a shared host they track CPU steal.
            print(f"# ops {len(latencies)} " + " ".join(
                f"p{q}_ms {common.pct(latencies, q):.4f}" for q in (75, 90, 99)))
            for name, value in sorted(result["figures"].items()):
                print(f"# {name} {value:.4f}")
        else:
            bench.warm_up()
            plain = bench.measure(seconds / 2)
            tracer = Tracer()
            install_standard(tracer)
            try:
                traced = bench.measure(seconds / 2, tracer)
            finally:
                tracer.uninstall()
            failed = plain["failed"] + traced["failed"] + bench.verify()
            attempted = plain["attempted"] + traced["attempted"]
            values = {name: 0.0 for name, *_ in metrics.PER_LAYER}
            values.update(plain["figures"])  # load figures: from the plain half
            values.update(bench.layers(tracer, traced, plain))
            values["trace.overhead_ms"] = common.pct(traced["latencies_ms"], 50) - common.pct(
                plain["latencies_ms"], 50
            )
            tracer.write(common.WORK / f"trace-{workload}-seed{seed}.jsonl")
            print(f"# spans {len(tracer.spans)}")
    finally:
        try:
            bench.close()
        finally:
            # Nothing the run started may outlive it: a leftover could
            # serve (or slow) the next run.
            stray = common.stop_children()
            if stray:
                print(f"# stopped stray children {stray}")
            shutil.rmtree(workdir, ignore_errors=True)
    # Time the host ran other guests on this machine's CPUs: the main
    # source of run-to-run noise on a shared VM.
    print(f"# host_steal_share {common.steal_share(ticks, common.cpu_ticks()):.4f}")
    print(f"# error_rate {failed / max(attempted, 1):.6f} ({failed}/{attempted})")
    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        # A statistic of nothing (every op failed) is reported as 0, so the
        # line stays valid JSON; ``correct`` is false then anyway.
        "metrics": {
            name: {"value": float(value) if math.isfinite(value) else 0.0,
                   "unit": metrics.UNITS[name]}
            for name, value in values.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "master", "serve-open", "serve-http"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    env = common.environment()
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
