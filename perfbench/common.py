"""Shared helpers: statistics, environment record, memory, inputs, cold starts."""

from __future__ import annotations

import os
import platform
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space inside the checkout (listed in the root .gitignore)
WORK = ROOT / ".perfbench"


class BenchError(RuntimeError):
    """A step the measurement depends on failed (cold start, server launch)."""


def child_env() -> Dict[str, str]:
    """Environment for subprocesses: the checkout's src first on the path."""
    env = os.environ.copy()
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def pct(values: Sequence[float], q: float) -> float:
    if not len(values):
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def binned_rate(times: Sequence[float], start: float, end: float, width: float = 1.0) -> float:
    """Median over ``width``-second bins of the event rate inside each bin.

    A bin's rate is its events after the first over the time they span, so
    it is not rounded to whole events.  The median of many short windows
    shrugs off the host's CPU-steal bursts, which one count over the whole
    window absorbs in full.
    """
    times = np.sort(np.asarray(times, dtype=float))
    rates = []
    edge = start
    while edge + width <= end + 1e-9:
        inside = times[(times >= edge) & (times < edge + width)]
        if len(inside) >= 2 and inside[-1] > inside[0]:
            rates.append((len(inside) - 1) / (inside[-1] - inside[0]))
        edge += width
    return float(np.median(rates)) if rates else 0.0


# ----------------------------------------------------------------------
# Environment record (printed with every result)
# ----------------------------------------------------------------------
def environment() -> Dict[str, object]:
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        entry = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{entry.get('name', '?')} {entry.get('version', '?')}"
    except (TypeError, ValueError, AttributeError):  # numpy without dict mode
        pass
    threads = {
        key: os.environ.get(key, "unset")
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
    }


def cpu_ticks() -> List[int]:
    """Aggregate CPU tick counters from ``/proc/stat`` (empty if unreadable)."""
    try:
        with open("/proc/stat") as handle:
            return [int(v) for v in handle.readline().split()[1:]]
    except OSError:
        return []


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests in between."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if len(delta) > 7 and sum(delta) else 0.0


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
class HostSpeed:
    """How fast this host runs CPU-bound Python + NumPy right now.

    On a shared VM the same op runs up to a third slower for seconds to
    minutes at a time while other guests load the cores (and their caches),
    and CPU time inflates with wall time, so neither compares across runs.
    :meth:`factor` times a fixed kernel shaped like the program's hot loops
    (small GEMMs, ``tanh``, an interpreted loop) while the program is idle,
    just before a CPU-bound timing; the timing times the factor reads as if
    the kernel had taken :attr:`REFERENCE_MS`.  The kernel is the
    benchmark's own code, so a change to the program moves the corrected
    timing as much as the raw one.
    """

    #: kernel time, in ms, that corrected timings are scaled to
    REFERENCE_MS = 25.0
    #: kernel runs per factor; their median is used
    SAMPLES = 3

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((1024, 64))
        self._w = rng.standard_normal((64, 32))
        self.samples_ms: List[float] = []
        self._kernel()  # first call pays BLAS and allocator warm-up

    def _kernel(self) -> float:
        start = time.perf_counter()
        w = self._w.copy()
        for _ in range(60):
            h = np.tanh(self._x @ w)
            w -= 1e-4 * (self._x.T @ (h * (1.0 - h * h)))
        acc = 0
        for i in range(30_000):
            acc += i * i
        return (time.perf_counter() - start) * 1000.0

    def factor(self) -> float:
        """Scale for a timing about to be taken."""
        samples = [self._kernel() for _ in range(self.SAMPLES)]
        self.samples_ms.extend(samples)
        return self.REFERENCE_MS / float(np.median(samples))


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def _status_kb(pid: object, field: str) -> float:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    match = re.search(rf"^{field}:\s+(\d+) kB", text, re.MULTILINE)
    return float(match.group(1)) if match else 0.0


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS counter (Linux ``clear_refs`` 5)."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb(pid: object = "self") -> float:
    return _status_kb(pid, "VmHWM") / 1024.0


def child_pids() -> List[int]:
    """Live child processes of this process (``/proc/.../children``)."""
    pids: List[int] = []
    for children in Path("/proc/self/task").glob("*/children"):
        try:
            pids.extend(int(pid) for pid in children.read_text().split())
        except OSError:
            continue
    return pids


def stop_children(grace: float = 5.0) -> List[int]:
    """Stop and reap every process this one started that is still alive.

    The program's shared-memory task transport starts the stdlib
    ``multiprocessing`` resource tracker, a child that would otherwise only
    exit after this process does; it is stopped through its own shutdown
    path (close its pipe, wait), which also unlinks any segment left
    registered.  Any other live child gets SIGTERM, then SIGKILL after
    ``grace`` seconds, and is waited for.  Returns the pids that had to be
    signalled.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    stray = child_pids()
    for pid in stray:
        _signal(pid, signal.SIGTERM)
    deadline = time.monotonic() + grace
    pending = set(stray)
    while pending:
        for pid in list(pending):
            if _reaped(pid):
                pending.discard(pid)
        if not pending:
            break
        if time.monotonic() > deadline:
            for pid in pending:
                _signal(pid, signal.SIGKILL)
            for pid in pending:
                _reaped(pid, block=True)
            break
        time.sleep(0.05)
    return stray


def _signal(pid: int, sig: int) -> None:
    try:
        os.kill(pid, sig)
    except ProcessLookupError:
        pass


def _reaped(pid: int, block: bool = False) -> bool:
    """Wait for child ``pid``; True once it has ended and been collected."""
    try:
        done, _ = os.waitpid(pid, 0 if block else os.WNOHANG)
    except ChildProcessError:  # already collected (by a Popen object)
        return True
    return done == pid


class ChildPeakSampler:
    """Samples the summed peak RSS of this process's live children."""

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="rss-sampler", daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            total = sum(peak_rss_mb(pid) for pid in child_pids())
            self.peak_mb = max(self.peak_mb, total)

    def __enter__(self) -> "ChildPeakSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def _seeds(seed: int, index: int, count: int) -> List[int]:
    rng = np.random.default_rng([int(seed), int(index)])
    return [int(v) for v in rng.integers(0, 2**31 - 1, size=count)]


def pipeline_spec(seed: int, index: int) -> Dict[str, object]:
    """Quickstart-shaped spec cut down so one run takes 1-2 s."""
    data_seed, split_seed, pool_seed, search_seed = _seeds(seed, index, 4)
    return {
        "name": f"perf-pipeline-{seed}-{index}",
        "dataset": {
            "name": "synthetic_isic",
            "num_samples": 2000,
            "seed": data_seed,
            "split_fractions": [0.64, 0.16, 0.2],
            "split_seed": split_seed,
        },
        "pool": {"architectures": None, "epochs": 10, "batch_size": 256, "lr": 0.1,
                 "seed": pool_seed},
        "search": {
            "attributes": ["age", "site"],
            "base_model": "MobileNet_V3_Small",
            "num_paired": 1,
            "episodes": 10,
            "episode_batch": 5,
            "controller": "rnn",
            "proxy": "weighted",
            "reward": "multi_fairness",
            "eval_partition": "val",
            "head_epochs": 25,
            "head_batch_size": 128,
            "seed": search_seed,
        },
        "finalize": {"selection": "reward", "name": "Muffin",
                     "reference_model": "MobileNet_V3_Small"},
        "report": {"include_pool": True, "include_search": True, "top_k": 5},
    }


def smoke_spec(seed: int, index: int) -> Dict[str, object]:
    """Smoke-sized spec (examples/specs/smoke.json shape) with seeded seeds."""
    data_seed, split_seed, pool_seed, search_seed = _seeds(seed, 1000 + index, 4)
    return {
        "name": f"perf-smoke-{seed}-{index}",
        "dataset": {"name": "synthetic_isic", "num_samples": 1500, "seed": data_seed,
                    "split_seed": split_seed},
        "pool": {"architectures": ["MobileNet_V3_Small", "ResNet-18", "DenseNet121"],
                 "epochs": 15, "batch_size": 256, "seed": pool_seed},
        "search": {"attributes": ["age", "site"], "base_model": "MobileNet_V3_Small",
                   "episodes": 8, "episode_batch": 4, "head_epochs": 10,
                   "seed": search_seed},
        "finalize": {"selection": "reward", "name": "Muffin-smoke"},
        "report": {"top_k": 3},
    }


#: seed of the served artifact's spec.  Fixed: which members the search
#: fuses sets the cost of every forward, so a per-run artifact would make
#: the served model itself differ between runs.  ``--seed`` picks the rows.
ARTIFACT_SEED = 0


def export_artifact(workdir: Path):
    """Run the smoke-sized artifact spec and write its serving artifact.

    Returns ``(artifact_path, fused_model, features, groups, labels)``; the
    arrays are the test split, the rows requests are cut from.
    """
    from repro.api import MuffinPipeline, RunSpec
    from repro.zoo import load_fused_model

    spec = RunSpec.from_dict(smoke_spec(ARTIFACT_SEED, 0))
    result = MuffinPipeline(spec, cache_dir=workdir / "export-cache").run()
    path = workdir / "artifact.json"
    result.save_artifact(path, overwrite=True)
    fused = load_fused_model(path)
    test = result.split.test
    groups = {name: test.group_ids(name) for name in test.attributes.names}
    return path, fused, fused.schema.features(test), groups, np.asarray(test.labels)


# ----------------------------------------------------------------------
# Cold starts
# ----------------------------------------------------------------------
def timed_cold_start(argv: List[str], timeout: float = 60.0) -> float:
    """Launch ``argv``; seconds until it prints ``READY <unix time>``."""
    launched = time.time()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), text=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"cold start timed out: {argv}")
    for line in out.splitlines():
        if line.startswith("READY "):
            return float(line.split()[1]) - launched
    raise BenchError(f"cold start failed (exit {proc.returncode}): {err.strip()[-400:]}")


