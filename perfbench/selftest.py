"""The benchmark's own tests: a tiny pass of every workload and its checks.

Run from the repository root with ``python3 perfbench/selftest.py`` (or
``python3 -m pytest perfbench/selftest.py``); takes a few minutes.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import metrics  # noqa: E402

sys.path.insert(0, str(common.SRC))

WORKLOADS = ("pipeline", "master", "serve-open", "serve-http")


def _run(workload: str, trace: int, seconds: float = 2.0, cwd: Path = common.ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@contextlib.contextmanager
def _bench(cls):
    """A prepared workload in a scratch directory, closed and removed after."""
    common.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=common.WORK) as tmp:
        bench = cls(3, Path(tmp))
        bench.prepare()
        try:
            yield bench
        finally:
            bench.close()


def test_tiny_pass_prints_every_metric_with_its_unit():
    for workload in WORKLOADS:
        for trace, table in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0, (workload, result)
            assert result["attempted"] >= 1
            expected = {name: unit for name, unit, *_ in table}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
            for name, unit in expected.items():
                assert any(
                    line.split()[:1] == [name] and line.split()[-1] == unit
                    for line in proc.stdout.splitlines()
                ), (workload, name)
            if trace == 0:
                assert all(v["value"] > 0 for v in result["metrics"].values()), result


def test_wrong_hash_counts_as_failed_pipeline():
    from wl_pipeline import PipelineWorkload

    with _bench(PipelineWorkload) as bench:
        assert bench.measure(0.1)["failed"] == 0 and bench.verify() == 0
        index, _ = bench.hashes[0]
        bench.hashes[0] = (index, "0" * 16)
        assert bench.verify() == 1


def test_wrong_hash_counts_as_failed_master():
    from wl_master import MasterWorkload

    with _bench(MasterWorkload) as bench:
        bench.expected = ["0" * 16] * len(bench.expected)
        result = bench.measure(0.1)
        assert result["attempted"] >= 1 and result["failed"] == result["attempted"]


def test_corrupted_reference_counts_as_failed_serve_open():
    from wl_serve_open import ServeOpenWorkload

    with _bench(ServeOpenWorkload) as bench:
        assert bench.measure(1.0)["failed"] == 0
        bench.reference = bench.reference.copy()
        bench.reference[:] = -1
        result = bench.measure(1.0)
        assert result["failed"] == result["attempted"] > 0


def test_corrupted_reference_and_counter_mismatch_count_as_failed_serve_http():
    from wl_serve_http import ServeHttpWorkload

    with _bench(ServeHttpWorkload) as bench:
        assert bench.measure(0.5)["failed"] == 0 and bench.verify() == 0
        bench.reference = bench.reference.copy()
        bench.reference[:] = -1
        result = bench.measure(0.5)
        assert result["failed"] == result["attempted"] > 0
        bench.sent += 1  # the server's counter no longer matches
        assert bench.verify() == 1


def _session_members(sid: int):
    """Pids of live (or not yet reaped) processes in session ``sid``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:  # state, ppid, pgrp, session
            members.append(int(stat.parent.name))
    return members


def test_no_process_outlives_a_run():
    # A run in a session of its own: once it has exited, nothing it started
    # (workers, the resource tracker, the server subprocess) may be left.
    for workload in ("master", "serve-http"):
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
             "--seconds", "2", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=common.ROOT, start_new_session=True,
        )
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err[-2000:]
        assert _session_members(proc.pid) == [], workload


def test_fails_without_the_program():
    common.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=common.WORK) as tmp:
        root = Path(tmp)
        shutil.copytree(HERE, root / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(common.ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
        proc = _run("pipeline", 0, cwd=root)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_the_metric_table():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(row) for row in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row[:3]) for row in metrics.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except Exception as exc:  # report every test, then fail overall
                failures += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    raise SystemExit(1 if failures else 0)
