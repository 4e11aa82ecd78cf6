"""Distributed search end to end: master -> workers -> durable, exact results.

The full crash story of the master/worker subsystem in one script:

1. start an in-process :class:`repro.master.MasterServer` owning a persistent
   run database, with the ``distributed`` executor (two supervised worker
   subprocesses) applied to every run;
2. submit a small search spec through the socket :class:`repro.master.MasterClient`
   — the same length-prefixed JSON protocol ``python -m repro submit`` uses;
3. optionally SIGKILL one worker mid-run (``--kill-worker``): the watchdog
   restarts it, the lost episode batch is requeued, and the run keeps going;
4. watch the run to completion and verify the distributed result is
   **bit-identical** to a plain serial pipeline run of the same spec.

Run with::

    python examples/master_quickstart.py
    python examples/master_quickstart.py --kill-worker

The script asserts the result hashes match — the CI master/worker smoke runs
it with ``--kill-worker`` as-is.
"""

import argparse
import os
import signal
import tempfile
import time
from pathlib import Path

from repro.api import (
    DatasetSpec,
    ExecutionSpec,
    MuffinPipeline,
    PoolSpec,
    RunSpec,
    SearchSpec,
)
from repro.master import MasterClient, MasterConfig, MasterServer

WORKER_MARK = "repro.master.worker"


def build_spec() -> RunSpec:
    """A small but multi-batch search so a worker kill lands mid-run.

    ``use_fused=False`` routes every head training through the executor —
    the fused fast path would otherwise train in-process and the
    workers would sit idle.
    """
    return RunSpec(
        name="master-quickstart",
        dataset=DatasetSpec(name="synthetic_isic", num_samples=1500, seed=11, split_seed=2),
        pool=PoolSpec(
            architectures=("MobileNet_V3_Small", "ResNet-18"), epochs=6, batch_size=256, seed=4
        ),
        search=SearchSpec(
            attributes=("age", "site"),
            base_model="MobileNet_V3_Small",
            episodes=20,
            episode_batch=2,
            head_epochs=20,
            seed=0,
        ),
        execution=ExecutionSpec(use_fused=False),
    )


def find_worker_pids() -> list:
    """PIDs of worker subprocesses spawned by this process (Linux /proc scan)."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if WORKER_MARK.encode() not in cmdline:
            continue
        # field 4 of /proc/<pid>/stat (after the parenthesised comm) is the ppid
        ppid = int(stat.rpartition(")")[2].split()[1])
        if ppid == os.getpid():
            pids.append(int(entry.name))
    return pids


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--db", default=None, help="run-database root (default: a temp dir)")
    parser.add_argument(
        "--kill-worker",
        action="store_true",
        help="SIGKILL one worker mid-run to exercise the supervision path",
    )
    args = parser.parse_args()
    db_root = Path(args.db) if args.db else Path(tempfile.mkdtemp(prefix="repro-master-"))
    spec = build_spec()

    # 1. The master: persistent database + scheduler + two supervised workers.
    config = MasterConfig(db_root=db_root, executor="distributed", max_workers=2)
    with MasterServer(config) as server:
        print(f"master listening on {server.host}:{server.port} (db: {db_root})")

        # 2. Submit over the socket protocol, exactly like `python -m repro submit`.
        client = MasterClient(db=db_root)
        rid = client.submit(spec)
        print(f"submitted run {rid} ({spec.name})")

        # 3. Optionally murder a worker once the run is demonstrably mid-search.
        if args.kill_worker:
            deadline = time.monotonic() + 300
            while time.monotonic() < deadline:
                status = client.status(rid)
                if status["journal"]["batches"] >= 2:
                    break
                time.sleep(0.1)
            else:
                raise AssertionError("run never reached batch 2; cannot stage the kill")
            victims = find_worker_pids()
            assert victims, "no worker subprocesses found to kill"
            os.kill(victims[0], signal.SIGKILL)
            print(f"SIGKILLed worker pid {victims[0]} mid-run "
                  f"(journal at {status['journal']['batches']} batches)")

        # 4. Watch to completion.
        last = {"printed": None}

        def on_progress(status) -> None:
            line = (status["status"], status["journal"]["batches"])
            if line != last["printed"]:
                last["printed"] = line
                print(f"  run {rid}: {status['status']} "
                      f"(journal: {status['journal']['batches']} batches)")

        final = client.watch(rid, poll_seconds=0.2, timeout=600, on_progress=on_progress)

    assert final["status"] == "done", f"run ended {final['status']}: {final.get('error')}"
    distributed_hash = final["result_hash"]
    print(f"\ndistributed run finished: result_hash={distributed_hash}")

    # 5. The exactness claim: serial pipeline, same spec, same hash.
    serial = MuffinPipeline(spec, cache_dir=db_root / "reference-cache").run()
    serial_hash = serial.result.result_hash()
    assert distributed_hash == serial_hash, (
        f"distributed result {distributed_hash} != serial result {serial_hash}"
    )
    print(f"serial reference matches bit for bit: result_hash={serial_hash}")
    if args.kill_worker:
        print("worker was SIGKILLed mid-run and the run still finished exactly — "
              "requeue + restart verified")
    print("\ninspect the run database with:")
    print(f"  python -m repro status --db {db_root}")


if __name__ == "__main__":
    main()
