"""Command-line entry point: ``python -m repro``.

Subcommand families:

* ``run <spec.json>`` — execute a declarative pipeline spec end to end with
  per-stage artifact caching (a repeated run resumes from cache)::

      python -m repro run examples/specs/quickstart.json
      python -m repro run spec.json --cache-dir .repro_cache/my-run --rerun-from search

* ``export <spec.json>`` — turn a finished (or resumable) run into a
  deployable fused-model bundle::

      python -m repro export examples/specs/quickstart.json --output muffin.json

* ``serve <artifact.json>`` — serve a bundle over HTTP with micro-batching
  and live fairness monitoring::

      python -m repro serve muffin.json --port 8000 --max-batch 64

* ``master`` / ``submit`` / ``status`` / ``watch`` / ``cancel`` — the
  distributed-search daemon and its clients: a master owns a persistent run
  database and executes submitted specs in priority order on supervised
  worker subprocesses, with per-run episode journals making interrupted
  searches resume bit-identically::

      python -m repro master --db .repro_master
      python -m repro submit spec.json --priority 5
      python -m repro watch 1
      python -m repro cancel 1

* ``components`` — list every registered component (datasets, controllers,
  rewards, proxy builders, selection strategies, architectures, executors,
  backends, experiments); ``--check`` also audits registry consistency.

* ``trace`` — render a span trace file (written when a spec sets
  ``obs.trace_path``) as a tree with total/self times::

      python -m repro trace trace.jsonl
      python -m repro trace trace.jsonl --json

* ``lint`` — repo-specific static analysis (rules RL1-RL8: determinism,
  hash contract, executor safety, atomic persistence, registry consistency,
  lock hygiene, dtype discipline, telemetry discipline)::

      python -m repro lint
      python -m repro lint --format json --select RL1,RL4
      python -m repro lint --scope examples

Anything else is treated as experiment ids and delegated to the experiment
runner, preserving the historical interface::

    python -m repro fig1 table1 --scale fast --output-dir results/
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence


def _run_command(argv: Sequence[str]) -> int:
    import dataclasses

    from .api import MuffinPipeline, RunSpec, SpecError
    from .core import EXECUTORS
    from .utils.serialization import save_json

    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description="Execute a declarative Muffin pipeline spec",
    )
    parser.add_argument("spec", help="path to a RunSpec JSON file")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="stage-artifact cache directory (default: .repro_cache/<name>-<hash>)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="run fully in memory, persist nothing"
    )
    parser.add_argument(
        "--fresh", action="store_true", help="ignore cached stages and recompute everything"
    )
    parser.add_argument(
        "--rerun-from",
        default=None,
        metavar="STAGE",
        help="force this stage and everything after it to recompute",
    )
    parser.add_argument(
        "--executor",
        default=None,
        choices=EXECUTORS.names(),
        help="override the spec's candidate-evaluation executor "
        "(results are seed-identical across executors)",
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=None,
        metavar="N",
        help="worker count for the distributed executor (default: one per CPU core)",
    )
    parser.add_argument(
        "--no-memoize",
        action="store_true",
        help="disable the (candidate, seed) evaluation memo",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="override the spec's array backend for the fused hot paths "
        "('numpy-float64' is bit-identical; 'numpy-float32' runs float32 "
        "GEMMs under the documented tolerance contract)",
    )
    parser.add_argument(
        "--dtype",
        default=None,
        choices=("float64", "float32"),
        help="shorthand for --backend numpy-<dtype>",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="append every completed episode batch to this journal file; an "
        "interrupted run resumes from it bit-identically",
    )
    parser.add_argument("--output", default=None, help="write the report JSON to this file")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(list(argv))

    try:
        spec = RunSpec.from_json(args.spec)
        overrides = {}
        if args.executor is not None:
            overrides["executor"] = args.executor
        if args.max_workers is not None:
            overrides["max_workers"] = args.max_workers
        if args.no_memoize:
            overrides["memoize"] = False
        if args.journal is not None:
            overrides["journal"] = args.journal
        if overrides:
            # The execution section never enters stage hashes, so overriding
            # it keeps every cached artifact valid.
            spec.execution = dataclasses.replace(spec.execution, **overrides)
        if args.backend is not None and args.dtype is not None:
            raise SpecError("pass --backend or --dtype, not both")
        backend_name = args.backend or (f"numpy-{args.dtype}" if args.dtype else None)
        if backend_name is not None:
            # Like execution, the backend section is hash-excluded, so a
            # precision override also keeps every cached artifact valid.
            spec.backend = dataclasses.replace(spec.backend, name=backend_name)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.no_cache:
        cache_dir = None
    elif args.cache_dir is not None:
        cache_dir = Path(args.cache_dir)
    else:
        cache_dir = MuffinPipeline.default_cache_dir(spec)

    from .core import SearchInterrupted
    from .utils.signals import GracefulShutdown

    try:
        with GracefulShutdown(note="draining the current episode batch") as shutdown:
            pipeline = MuffinPipeline(
                spec,
                cache_dir=cache_dir,
                verbose=not args.quiet,
                should_stop=shutdown.should_stop,
            )
            result = pipeline.run(resume=not args.fresh, rerun_from=args.rerun_from)
    except SearchInterrupted as exc:
        journal_hint = (
            f"; rerun with --journal {args.journal} to resume" if args.journal else ""
        )
        print(f"interrupted: {exc}{journal_hint}", file=sys.stderr)
        return 130
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.output is not None:
        save_json(result.report, args.output, indent=2)
    if not args.quiet:
        muffin = result.muffin
        print(f"run '{spec.name}' ({spec.spec_hash()}) complete")
        for timing in result.timings:
            print(f"  {timing.stage:<10} {timing.status:<8} {timing.seconds:8.3f}s")
        stats = result.result.execution_stats
        if stats is not None:
            # A cache-hit search stage reports the stats stored with the
            # artifact, which may predate an --executor override.
            search_cached = any(
                t.stage == "search" and t.status == "cached" for t in result.timings
            )
            suffix = " [from cached search artifact]" if search_cached else ""
            print(
                f"search executor: {stats.executor} (workers={stats.max_workers}), "
                f"backend {stats.backend}, "
                f"memo {stats.memo_hits} hits / {stats.memo_misses} misses{suffix}"
            )
        if cache_dir is not None:
            print(f"cache: {cache_dir}")
        if muffin.test_evaluation is not None:
            unfairness = ", ".join(
                f"U({a})={u:.3f}" for a, u in muffin.test_evaluation.unfairness.items()
            )
            print(
                f"{muffin.name}: accuracy={muffin.test_evaluation.accuracy:.4f}, {unfairness}"
            )
    return 0


def _export_command(argv: Sequence[str]) -> int:
    from .api import MuffinPipeline, RunSpec, SpecError

    parser = argparse.ArgumentParser(
        prog="python -m repro export",
        description="Export a run's finalised Muffin-Net as a deployable serving bundle",
    )
    parser.add_argument("spec", help="path to a RunSpec JSON file")
    parser.add_argument(
        "--output",
        default=None,
        help="bundle destination (default: <run-name>-muffin.json)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="stage-artifact cache directory (default: .repro_cache/<name>-<hash>); "
        "a finished run's cache makes the export instant",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="run fully in memory, persist no stages"
    )
    parser.add_argument(
        "--fresh", action="store_true", help="ignore cached stages and recompute everything"
    )
    parser.add_argument(
        "--force", action="store_true", help="overwrite an existing output bundle"
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(list(argv))

    try:
        spec = RunSpec.from_json(args.spec)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not spec.export.enabled:
        print("error: this spec disables the export stage (export.enabled)", file=sys.stderr)
        return 2
    if args.no_cache:
        cache_dir = None
    elif args.cache_dir is not None:
        cache_dir = Path(args.cache_dir)
    else:
        cache_dir = MuffinPipeline.default_cache_dir(spec)

    try:
        pipeline = MuffinPipeline(spec, cache_dir=cache_dir, verbose=not args.quiet)
        result = pipeline.run(resume=not args.fresh)
        output = Path(args.output or f"{spec.name}-muffin.json")
        path = result.save_artifact(output, overwrite=args.force)
    except (SpecError, FileExistsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        artifact = result.artifact
        members = [entry["label"] for entry in artifact["members"]]
        head = artifact["head"]
        print(f"exported '{artifact['name']}' -> {path}")
        print(f"  spec hash : {artifact['spec_hash']}")
        print(f"  body      : {members}")
        print(
            f"  head      : MLP{head['hidden_sizes']} ({head['activation']})"
        )
        schema = artifact["schema"]
        print(
            f"  schema    : {len(schema['component_keys'])} components x "
            f"{schema['feature_dim']} dims, classes={len(schema['class_names'])}, "
            f"attributes={schema['attribute_names']}"
        )
        print(f"serve it with: python -m repro serve {path} --port 8000")
    return 0


def _serve_command(argv: Sequence[str]) -> int:
    from .obs import METRICS
    from .serve import InferenceServer, ServeConfig, serve_forever
    from .zoo import load_fused_model

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve a fused-model bundle over HTTP with micro-batching "
        "and live fairness monitoring",
    )
    parser.add_argument("artifact", help="path to a bundle written by 'export'")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000)
    parser.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="maximum sample rows coalesced into one forward pass (default: 64)",
    )
    parser.add_argument(
        "--monitor-window",
        type=int,
        default=512,
        help="sliding-window size of the online fairness monitor (default: 512)",
    )
    parser.add_argument(
        "--log-every",
        type=int,
        default=100,
        help="labelled samples between fairness log lines (0 disables; default: 100)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="array backend for the feature batch ('numpy-float64' default; "
        "'numpy-float32' serves under the tolerance contract)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="independent micro-batcher shards over bit-identical model "
        "replicas (default: 1)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=128,
        metavar="N",
        help="bound of each shard's request queue; when every queue is full "
        "new requests are rejected with HTTP 429 (default: 128)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="default per-request deadline; expired requests are shed with "
        "HTTP 504 before their forward pass (default: none)",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="JSON_OR_PATH",
        help="deterministic fault-injection plan (inline JSON or a .json "
        "path) for chaos testing the shard supervisor",
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(list(argv))

    try:
        fused = load_fused_model(args.artifact)
        config = ServeConfig(
            max_batch=args.max_batch,
            monitor_window=args.monitor_window,
            log_every=args.log_every,
            num_shards=args.shards,
            queue_depth=args.queue_depth,
            default_deadline_ms=args.deadline_ms,
            fault_plan=args.fault_plan,
            **({"backend": args.backend} if args.backend else {}),
        )
        server = InferenceServer(fused, config, verbose=not args.quiet)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # the frontend exposes GET /metrics; with the registry off it would
    # report no requests at all
    METRICS.enable()
    serve_forever(server, host=args.host, port=args.port, verbose=not args.quiet)
    return 0


def _master_command(argv: Sequence[str]) -> int:
    from .core import EXECUTORS
    from .master import MasterConfig, MasterServer
    from .utils.signals import GracefulShutdown

    parser = argparse.ArgumentParser(
        prog="python -m repro master",
        description="Run the distributed-search master daemon (persistent run "
        "database, priority queue, supervised workers)",
    )
    parser.add_argument(
        "--db",
        default=".repro_master",
        help="run-database root (specs, statuses, journals; default: .repro_master)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="client port (default: 0 = pick a free port, written to <db>/master.json)",
    )
    parser.add_argument(
        "--executor",
        default="distributed",
        choices=EXECUTORS.names(),
        help="executor applied to every run (default: distributed)",
    )
    parser.add_argument("--max-workers", type=int, default=None, metavar="N")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(list(argv))

    server = MasterServer(
        MasterConfig(
            db_root=args.db,
            host=args.host,
            port=args.port,
            executor=args.executor,
            max_workers=args.max_workers,
            verbose=not args.quiet,
        )
    )
    with GracefulShutdown(note="draining the in-flight batch and requeueing") as shutdown:
        server.start()
        print(
            f"master listening on {server.host}:{server.port} (db: {args.db}) — "
            f"Ctrl-C to stop"
        )
        try:
            shutdown.stop_event.wait()
        finally:
            server.stop()
    return 0


def _client(args):
    """Build a MasterClient from the shared --db/--host/--port arguments."""
    from .master import MasterClient

    if args.host is not None and args.port is not None:
        return MasterClient(host=args.host, port=args.port)
    return MasterClient(db=args.db)


def _add_endpoint_arguments(parser) -> None:
    parser.add_argument(
        "--db",
        default=".repro_master",
        help="run-database root; the master's address is read from "
        "<db>/master.json (default: .repro_master)",
    )
    parser.add_argument("--host", default=None, help="master host (overrides --db discovery)")
    parser.add_argument("--port", type=int, default=None, help="master port")


def _submit_command(argv: Sequence[str]) -> int:
    from .api import SpecError
    from .master import MasterError

    parser = argparse.ArgumentParser(
        prog="python -m repro submit",
        description="Submit a run spec to a running master",
    )
    parser.add_argument("spec", help="path to a RunSpec JSON file")
    parser.add_argument(
        "--priority",
        type=int,
        default=0,
        help="queue priority (higher runs first; default: 0)",
    )
    _add_endpoint_arguments(parser)
    args = parser.parse_args(list(argv))
    try:
        rid = _client(args).submit(args.spec, priority=args.priority)
    except (MasterError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"submitted run {rid} (priority {args.priority})")
    print(f"watch it with: python -m repro watch {rid} --db {args.db}")
    return 0


def _format_run_line(entry) -> str:
    rid = entry.get("rid", "?")
    status = entry.get("status", "?")
    name = entry.get("name", "")
    extra = ""
    journal = entry.get("journal") or {}
    if journal.get("episodes"):
        extra = f" [{journal['batches']} batches / {journal['episodes']} episodes journalled]"
    if entry.get("result_hash"):
        extra += f" result={entry['result_hash']}"
    if entry.get("error"):
        extra += f" error={entry['error']}"
    return f"  {rid:>5}  {status:<10} {name}{extra}"


def _status_command(argv: Sequence[str]) -> int:
    from .master import MasterError

    parser = argparse.ArgumentParser(
        prog="python -m repro status",
        description="Show the status of one run (or every run) on a master",
    )
    parser.add_argument("rid", nargs="?", type=int, default=None)
    _add_endpoint_arguments(parser)
    args = parser.parse_args(list(argv))
    try:
        client = _client(args)
        if args.rid is None:
            runs = client.status()
            if not runs:
                print("no runs submitted")
                return 0
            print(f"{'rid':>7}  {'status':<10} name")
            for entry in runs:
                print(_format_run_line(entry))
            return 0
        entry = client.status(args.rid)
    except MasterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_format_run_line(entry).strip())
    return 0


def _watch_command(argv: Sequence[str]) -> int:
    from .master import MasterError

    parser = argparse.ArgumentParser(
        prog="python -m repro watch",
        description="Follow a run until it reaches a terminal status",
    )
    parser.add_argument("rid", type=int)
    parser.add_argument("--poll", type=float, default=1.0, metavar="SECONDS")
    parser.add_argument("--timeout", type=float, default=None, metavar="SECONDS")
    _add_endpoint_arguments(parser)
    args = parser.parse_args(list(argv))

    last_line = [""]

    def on_progress(status) -> None:
        line = _format_run_line(status).strip()
        if line != last_line[0]:
            print(line, flush=True)
            last_line[0] = line

    try:
        final = _client(args).watch(
            args.rid, poll_seconds=args.poll, timeout=args.timeout, on_progress=on_progress
        )
    except MasterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if final.get("status") == "done" else 1


def _cancel_command(argv: Sequence[str]) -> int:
    from .master import MasterError

    parser = argparse.ArgumentParser(
        prog="python -m repro cancel",
        description="Cancel a queued or running run",
    )
    parser.add_argument("rid", type=int)
    _add_endpoint_arguments(parser)
    args = parser.parse_args(list(argv))
    try:
        outcome = _client(args).cancel(args.rid)
    except MasterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"run {outcome['rid']}: {outcome['outcome']}")
    return 0 if outcome["outcome"] in ("dequeued", "flagged") else 1


def _components_command(argv: Sequence[str]) -> int:
    from .analysis.registry_audit import audit_registries, registry_summary

    parser = argparse.ArgumentParser(
        prog="python -m repro components",
        description="List every registered pipeline component",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="also audit registry consistency (alias targets, case-twin "
        "names) and exit nonzero on problems",
    )
    args = parser.parse_args(list(argv))
    for family, names in registry_summary().items():
        print(f"{family} ({len(names)}):")
        for name, aliases in names.items():
            suffix = f" (aliases: {', '.join(aliases)})" if aliases else ""
            print(f"  {name}{suffix}")
    if args.check:
        issues = audit_registries(include_experiments=True)
        for issue in issues:
            line = f"problem: {issue.message}"
            if issue.hint:
                line += f"  [{issue.hint}]"
            print(line)
        if issues:
            return 1
        print("registries consistent")
    return 0


def _lint_command(argv: Sequence[str]) -> int:
    from .analysis.cli import main as lint_main

    return lint_main(argv)


def _trace_command(argv: Sequence[str]) -> int:
    from .obs.trace import main as trace_main

    return trace_main(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(argv if argv is not None else sys.argv[1:])
    if argv and argv[0] == "run":
        return _run_command(argv[1:])
    if argv and argv[0] == "export":
        return _export_command(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_command(argv[1:])
    if argv and argv[0] == "master":
        return _master_command(argv[1:])
    if argv and argv[0] == "submit":
        return _submit_command(argv[1:])
    if argv and argv[0] == "status":
        return _status_command(argv[1:])
    if argv and argv[0] == "watch":
        return _watch_command(argv[1:])
    if argv and argv[0] == "cancel":
        return _cancel_command(argv[1:])
    if argv and argv[0] == "components":
        return _components_command(argv[1:])
    if argv and argv[0] == "lint":
        return _lint_command(argv[1:])
    if argv and argv[0] == "trace":
        return _trace_command(argv[1:])
    # Legacy interface: experiment ids for the paper harness.
    from .experiments.runner import main as experiments_main

    return experiments_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
