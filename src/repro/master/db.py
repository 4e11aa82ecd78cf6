"""Persistent run database and per-run episode journals.

Durability model:

* **RIDs** come from an on-disk counter guarded by an ``fcntl`` file lock,
  so concurrent submitters (several clients, a master restart racing a
  late client) never mint the same run id twice.
* **Run state** lives in one directory per RID (``runs/<rid>/``) holding
  the submitted spec, a status document and — once finished — the result
  summary.  Every JSON document is written atomically
  (:func:`~repro.utils.serialization.save_json`), so a crash never leaves
  a half-written status behind.  Status transitions are validated
  (``pending → running → done/failed/cancelled``, plus ``running →
  pending`` for a requeue) so a bug cannot silently resurrect a finished
  run.
* **Episode journals** are append-only JSONL files: one header line, then
  one self-contained line per completed episode batch (the batch's
  ``(candidate, seed)`` keys plus the full serialised
  :class:`~repro.core.EpisodeRecord` list, trained head weights included).
  Every batch line starts ``{"batch":N,"episodes":M,`` so a progress probe
  reads the counts without decoding the records.
  Each line is appended with a single ``write`` + ``fsync``, and the
  reader tolerates a truncated final line — a SIGKILL mid-append costs at
  most the batch being written, never the batches before it.  On resume
  the search replays its (cheap, deterministic) sampling and answers every
  journalled batch from disk instead of retraining, which is what makes a
  resumed run **bit-identical** to an uninterrupted one: JSON float
  round-trips are exact and the controller update sees the same rewards in
  the same order.
"""

from __future__ import annotations

import json
import os
import re
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from ..api.spec import RunSpec
from ..core.results import EpisodeRecord
from ..utils.serialization import atomic_write_text, load_json, save_json

PathLike = Union[str, Path]

#: every status a run can be in, in rough lifecycle order
RUN_STATUSES = ("pending", "running", "done", "failed", "cancelled")
#: statuses a run can never leave
TERMINAL_STATUSES = ("done", "failed", "cancelled")

_TRANSITIONS = {
    "pending": {"running", "cancelled"},
    # ``running -> pending`` is the requeue edge: a crashed or gracefully
    # stopped master puts its in-flight run back on the queue.
    "running": {"pending", "done", "failed", "cancelled"},
    "done": set(),
    "failed": set(),
    "cancelled": set(),
}

#: v2 lines start with their counts (see :func:`_entry_line`); a journal
#: of another format resets on open and its batches are recomputed
JOURNAL_FORMAT = "muffin-episode-journal-v2"

#: the fixed prefix of a v2 batch line, as :meth:`EpisodeJournal.progress`
#: reads it
_ENTRY_PREFIX = re.compile(rb'\{"batch":(\d+),"episodes":(\d+),')


class StatusTransitionError(RuntimeError):
    """An attempted run-status transition the lifecycle forbids."""


class RunDatabase:
    """On-disk database of submitted runs (specs, statuses, results)."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "runs").mkdir(exist_ok=True)
        self._counter_path = self.root / "rid_counter"

    # ------------------------------------------------------------------
    # RID allocation
    # ------------------------------------------------------------------
    def next_rid(self) -> int:
        """Allocate the next run id (file-locked, monotonic, persistent)."""
        import fcntl

        fd = os.open(self._counter_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            raw = os.read(fd, 64).decode("ascii").strip()
            rid = int(raw) + 1 if raw else 1
            os.lseek(fd, 0, os.SEEK_SET)
            os.ftruncate(fd, 0)
            os.write(fd, f"{rid}\n".encode("ascii"))
            os.fsync(fd)
            return rid
        finally:
            os.close(fd)  # releases the flock

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    def run_dir(self, rid: int) -> Path:
        return self.root / "runs" / str(int(rid))

    def journal_path(self, rid: int) -> Path:
        return self.run_dir(rid) / "journal.jsonl"

    def submit(self, spec: RunSpec, priority: int = 0) -> int:
        """Persist a new pending run and return its RID."""
        rid = self.next_rid()
        run_dir = self.run_dir(rid)
        run_dir.mkdir(parents=True, exist_ok=True)
        save_json(spec.to_dict(), run_dir / "spec.json")
        save_json(
            {
                "rid": rid,
                "name": spec.name,
                "spec_hash": spec.spec_hash(),
                "status": "pending",
                "priority": int(priority),
                "submitted_at": time.time(),
            },
            run_dir / "status.json",
        )
        return rid

    def spec(self, rid: int) -> RunSpec:
        path = self.run_dir(rid) / "spec.json"
        if not path.exists():
            raise KeyError(f"unknown run {rid}")
        return RunSpec.from_dict(load_json(path))

    def status(self, rid: int) -> Dict[str, object]:
        path = self.run_dir(rid) / "status.json"
        if not path.exists():
            raise KeyError(f"unknown run {rid}")
        return load_json(path)

    def set_status(self, rid: int, status: str, **fields: object) -> Dict[str, object]:
        """Transition a run's status (validated) and merge extra fields."""
        if status not in RUN_STATUSES:
            raise ValueError(f"unknown status '{status}'; expected one of {list(RUN_STATUSES)}")
        payload = self.status(rid)
        current = str(payload.get("status", "pending"))
        if status != current and status not in _TRANSITIONS.get(current, set()):
            raise StatusTransitionError(
                f"run {rid} cannot move from '{current}' to '{status}'"
            )
        payload["status"] = status
        payload.update(fields)
        save_json(payload, self.run_dir(rid) / "status.json")
        return payload

    def store_result(self, rid: int, payload: Mapping[str, object]) -> Path:
        return save_json(dict(payload), self.run_dir(rid) / "result.json")

    def result(self, rid: int) -> Optional[Dict[str, object]]:
        path = self.run_dir(rid) / "result.json"
        return load_json(path) if path.exists() else None

    def rids(self) -> List[int]:
        runs = self.root / "runs"
        return sorted(int(p.name) for p in runs.iterdir() if p.name.isdigit())

    def list_runs(self) -> List[Dict[str, object]]:
        """Status documents of every known run, ordered by RID."""
        entries = []
        for rid in self.rids():
            try:
                entries.append(self.status(rid))
            except (KeyError, ValueError):
                continue
        return entries

    def pending_runs(self) -> List[Dict[str, object]]:
        """Pending runs in claim order: priority descending, then RID."""
        pending = [entry for entry in self.list_runs() if entry.get("status") == "pending"]
        return sorted(pending, key=lambda e: (-int(e.get("priority", 0)), int(e["rid"])))

    def requeue_running(self) -> List[int]:
        """Put crashed ``running`` runs back on the queue (master restart)."""
        requeued = []
        for entry in self.list_runs():
            if entry.get("status") == "running":
                rid = int(entry["rid"])
                self.set_status(rid, "pending", requeued=True)
                requeued.append(rid)
        return requeued


# ----------------------------------------------------------------------
# Episode journal
# ----------------------------------------------------------------------
class EpisodeJournal:
    """Append-only, crash-tolerant record of a search's completed batches.

    The search loop (:meth:`repro.core.MuffinSearch.run`) calls
    :meth:`lookup` before evaluating each batch and :meth:`append` after.
    A lookup hit replays the stored :class:`~repro.core.EpisodeRecord`\\ s
    (bit-identical through the JSON round trip) instead of retraining; a
    key mismatch — the journal was written by a different spec or seed —
    discards the stale tail so the run falls back to live evaluation.
    """

    def __init__(
        self,
        path: PathLike,
        fingerprint: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.fingerprint = dict(fingerprint or {})
        self._entries: List[Dict[str, object]] = []
        self._handle = None
        self.replayed_batches = 0
        self._load()

    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Parse the file, tolerating a truncated trailing line."""
        entries: List[Dict[str, object]] = []
        header_ok = False
        if self.path.exists():
            with open(self.path, "r", encoding="utf-8", errors="replace") as handle:
                for index, line in enumerate(handle):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        payload = json.loads(line)
                    except json.JSONDecodeError:
                        break  # truncated mid-append: drop this and anything after
                    if index == 0:
                        header_ok = (
                            isinstance(payload, dict)
                            and payload.get("format") == JOURNAL_FORMAT
                            and payload.get("fingerprint") == self.fingerprint
                        )
                        if not header_ok:
                            break
                        continue
                    if (
                        not isinstance(payload, dict)
                        or payload.get("batch") != len(entries)
                        or "keys" not in payload
                        or not isinstance(payload.get("records"), list)
                        or payload.get("episodes") != len(payload["records"])
                    ):
                        break  # out-of-order or foreign line: drop the tail
                    entries.append(payload)
        if header_ok:
            self._entries = entries
            # The on-disk tail may hold lines the parse rejected; rewrite so
            # the append offset is consistent with what we will trust.
            self._rewrite()
        else:
            self._entries = []
            self._rewrite()

    def _open_append(self):
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def _rewrite(self) -> None:
        """Atomically rewrite the file as header + trusted entries."""
        self.close()
        lines = [json.dumps({"format": JOURNAL_FORMAT, "fingerprint": self.fingerprint})]
        lines.extend(_entry_line(entry) for entry in self._entries)
        atomic_write_text(self.path, "\n".join(lines) + "\n", fsync=True)

    # ------------------------------------------------------------------
    @property
    def batches(self) -> int:
        """Number of completed batches the journal holds."""
        return len(self._entries)

    @property
    def episodes(self) -> int:
        """Number of completed episodes the journal holds."""
        return sum(len(entry["records"]) for entry in self._entries)

    def lookup(
        self, batch_index: int, keys: Sequence[Mapping[str, object]]
    ) -> Optional[List[EpisodeRecord]]:
        """Stored records of ``batch_index`` if the journal matches, else ``None``.

        A key mismatch (same index, different candidates/seeds — a changed
        spec or search seed) truncates the journal from that batch on, so a
        stale tail can never be replayed into a fresh run.
        """
        if batch_index >= len(self._entries):
            return None
        entry = self._entries[batch_index]
        if entry["keys"] != [dict(key) for key in keys]:
            self._entries = self._entries[:batch_index]
            self._rewrite()
            return None
        self.replayed_batches += 1
        return [EpisodeRecord.from_dict(payload) for payload in entry["records"]]

    def append(
        self,
        batch_index: int,
        keys: Sequence[Mapping[str, object]],
        records: Sequence[EpisodeRecord],
    ) -> None:
        """Durably record one completed batch (single write + fsync)."""
        if batch_index != len(self._entries):
            raise ValueError(
                f"journal expects batch {len(self._entries)} next, got {batch_index}"
            )
        entry = {
            "batch": batch_index,
            "keys": [dict(key) for key in keys],
            "records": [record.to_dict(include_state=True) for record in records],
        }
        handle = self._open_append()
        handle.write(_entry_line(entry) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
        self._entries.append(entry)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EpisodeJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    @classmethod
    def progress(cls, path: PathLike) -> Dict[str, int]:
        """Read-only progress probe (batches/episodes completed).

        Reads the counts from the ``{"batch":N,"episodes":M,`` prefix of
        each complete (newline-terminated) batch line and decodes no
        record, so polling a run costs it little.  The count ends at a
        torn last line, a foreign line or a batch out of order.
        """
        try:
            data = Path(path).read_bytes()
        except FileNotFoundError:
            return {"batches": 0, "episodes": 0}
        batches = episodes = 0
        start = data.find(b"\n") + 1  # the first line is the header
        while start:
            end = data.find(b"\n", start)
            if end < 0:
                break  # torn by a crash mid-append (or the end of the file)
            match = _ENTRY_PREFIX.match(data, start, end)
            if match is None or int(match[1]) != batches:
                break
            batches += 1
            episodes += int(match[2])
            start = end + 1
        return {"batches": batches, "episodes": episodes}


def _entry_line(entry: Mapping[str, object]) -> str:
    """One batch's journal line, counts first (what ``progress`` reads)."""
    records = entry["records"]
    return json.dumps(
        {
            "batch": entry["batch"],
            "episodes": len(records),
            "keys": entry["keys"],
            "records": records,
        },
        separators=(",", ":"),
    )
