"""Run-database and episode-journal tests: durability, transitions, resume."""

import json
import threading

import numpy as np
import pytest

from repro.api import RunSpec
from repro.core import EpisodeRecord, FusingCandidate
from repro.fairness.metrics import FairnessEvaluation
from repro.master.db import (
    EpisodeJournal,
    RunDatabase,
    StatusTransitionError,
)


def _tiny_spec(name="db-test"):
    return RunSpec.from_dict(
        {
            "name": name,
            "dataset": {"num_samples": 600},
            "pool": {"architectures": ["ResNet-18", "MobileNet_V3_Small"], "epochs": 2},
            "search": {"episodes": 4, "episode_batch": 2},
        }
    )


def _record(episode=0, seed=11):
    rng = np.random.default_rng(seed)
    return EpisodeRecord(
        episode=episode,
        candidate=FusingCandidate(
            model_names=("ResNet-18", "MobileNet_V3_Small"),
            hidden_sizes=(16,),
            activation="relu",
        ),
        reward=float(rng.normal()),
        evaluation=FairnessEvaluation(
            accuracy=float(rng.uniform()),
            unfairness={"age": float(rng.uniform()), "site": float(rng.uniform())},
            gaps={"age": 0.1, "site": 0.2},
        ),
        head_state={"w": rng.normal(size=(3, 4)), "b": rng.normal(size=(4,))},
        train_losses=[float(x) for x in rng.normal(size=3)],
        num_parameters=123,
        trainable_parameters=45,
    )


def _keys(records):
    return [{"candidate": r.candidate.to_dict(), "seed": 7} for r in records]


class TestRidCounter:
    def test_monotonic_and_persistent(self, tmp_path):
        db = RunDatabase(tmp_path)
        assert [db.next_rid() for _ in range(3)] == [1, 2, 3]
        # A fresh instance over the same root continues, never reuses.
        assert RunDatabase(tmp_path).next_rid() == 4

    def test_thread_unique(self, tmp_path):
        db = RunDatabase(tmp_path)
        rids, lock = [], threading.Lock()

        def allocate():
            for _ in range(10):
                rid = db.next_rid()
                with lock:
                    rids.append(rid)

        threads = [threading.Thread(target=allocate) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(rids)) == 40


class TestRunLifecycle:
    def test_submit_and_load(self, tmp_path):
        db = RunDatabase(tmp_path)
        spec = _tiny_spec()
        rid = db.submit(spec, priority=3)
        assert db.spec(rid).to_dict() == spec.to_dict()
        status = db.status(rid)
        assert status["status"] == "pending"
        assert status["priority"] == 3
        assert status["spec_hash"] == spec.spec_hash()

    def test_valid_transitions(self, tmp_path):
        db = RunDatabase(tmp_path)
        rid = db.submit(_tiny_spec())
        db.set_status(rid, "running")
        db.set_status(rid, "pending", requeued=True)  # the requeue edge
        db.set_status(rid, "running")
        db.set_status(rid, "done", result_hash="abc")
        assert db.status(rid)["result_hash"] == "abc"

    def test_invalid_transitions_raise(self, tmp_path):
        db = RunDatabase(tmp_path)
        rid = db.submit(_tiny_spec())
        with pytest.raises(StatusTransitionError):
            db.set_status(rid, "done")  # pending -> done skips running
        db.set_status(rid, "cancelled")
        with pytest.raises(StatusTransitionError):
            db.set_status(rid, "running")  # terminal statuses are final
        with pytest.raises(ValueError):
            db.set_status(rid, "exploded")

    def test_unknown_run_raises(self, tmp_path):
        db = RunDatabase(tmp_path)
        with pytest.raises(KeyError):
            db.status(99)
        with pytest.raises(KeyError):
            db.spec(99)

    def test_pending_order_priority_then_rid(self, tmp_path):
        db = RunDatabase(tmp_path)
        low = db.submit(_tiny_spec("low"), priority=0)
        high = db.submit(_tiny_spec("high"), priority=5)
        low2 = db.submit(_tiny_spec("low2"), priority=0)
        order = [entry["rid"] for entry in db.pending_runs()]
        assert order == [high, low, low2]

    def test_requeue_running(self, tmp_path):
        db = RunDatabase(tmp_path)
        rid = db.submit(_tiny_spec())
        other = db.submit(_tiny_spec("other"))
        db.set_status(rid, "running")
        assert db.requeue_running() == [rid]
        assert db.status(rid)["status"] == "pending"
        assert db.status(rid)["requeued"] is True
        assert db.status(other)["status"] == "pending"

    def test_results_roundtrip(self, tmp_path):
        db = RunDatabase(tmp_path)
        rid = db.submit(_tiny_spec())
        assert db.result(rid) is None
        db.store_result(rid, {"result_hash": "ff", "episodes": 4})
        assert db.result(rid)["result_hash"] == "ff"


class TestEpisodeJournal:
    def test_roundtrip_bit_exact(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        records = [_record(0), _record(1, seed=12)]
        with EpisodeJournal(path) as journal:
            journal.append(0, _keys(records), records)
        reopened = EpisodeJournal(path)
        assert reopened.batches == 1
        assert reopened.episodes == 2
        replayed = reopened.lookup(0, _keys(records))
        for original, copy in zip(records, replayed):
            assert copy.reward == original.reward
            assert copy.evaluation.accuracy == original.evaluation.accuracy
            assert copy.evaluation.unfairness == original.evaluation.unfairness
            assert copy.train_losses == original.train_losses
            for key in original.head_state:
                np.testing.assert_array_equal(copy.head_state[key], original.head_state[key])
                assert copy.head_state[key].dtype == original.head_state[key].dtype

    def test_sequential_append_enforced(self, tmp_path):
        with EpisodeJournal(tmp_path / "j.jsonl") as journal:
            records = [_record(0)]
            journal.append(0, _keys(records), records)
            with pytest.raises(ValueError, match="expects batch 1"):
                journal.append(2, _keys(records), records)

    def test_truncated_tail_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with EpisodeJournal(path) as journal:
            journal.append(0, _keys([_record(0)]), [_record(0)])
            journal.append(1, _keys([_record(1)]), [_record(1)])
        # Simulate a SIGKILL mid-append: chop bytes off the last line.
        raw = path.read_bytes()
        path.write_bytes(raw[:-40])
        reopened = EpisodeJournal(path)
        assert reopened.batches == 1  # lost only the batch being written
        assert reopened.lookup(0, _keys([_record(0)])) is not None

    def test_key_mismatch_truncates_stale_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with EpisodeJournal(path) as journal:
            journal.append(0, _keys([_record(0)]), [_record(0)])
            journal.append(1, _keys([_record(1)]), [_record(1)])
        reopened = EpisodeJournal(path)
        wrong_keys = [{"candidate": _record(0).candidate.to_dict(), "seed": 999}]
        assert reopened.lookup(0, wrong_keys) is None
        assert reopened.batches == 0  # the stale tail is gone, on disk too
        assert EpisodeJournal.progress(path)["batches"] == 0

    def test_fingerprint_mismatch_resets(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with EpisodeJournal(path, fingerprint={"search": "aaa"}) as journal:
            journal.append(0, _keys([_record(0)]), [_record(0)])
        other = EpisodeJournal(path, fingerprint={"search": "bbb"})
        assert other.batches == 0

    def test_garbage_file_resets(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("this is not a journal\n{}\n")
        with EpisodeJournal(path) as journal:
            assert journal.batches == 0
            journal.append(0, _keys([_record(0)]), [_record(0)])
        assert EpisodeJournal(path).batches == 1

    def test_progress_probe(self, tmp_path):
        path = tmp_path / "j.jsonl"
        assert EpisodeJournal.progress(path) == {"batches": 0, "episodes": 0}
        with EpisodeJournal(path) as journal:
            records = [_record(0), _record(1, seed=5)]
            journal.append(0, _keys(records), records)
        assert EpisodeJournal.progress(path) == {"batches": 1, "episodes": 2}

    def test_progress_decodes_no_record(self, tmp_path, monkeypatch):
        path = tmp_path / "j.jsonl"
        with EpisodeJournal(path) as journal:
            records = [_record(0), _record(1, seed=5)]
            journal.append(0, _keys(records), records)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"batch":1,"episodes":3,"keys":[not json at all\n')

        def no_decode(*args, **kwargs):
            raise AssertionError("progress decoded a journal line")

        monkeypatch.setattr(json, "loads", no_decode)
        assert EpisodeJournal.progress(path) == {"batches": 2, "episodes": 5}

    def test_progress_stops_at_torn_last_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with EpisodeJournal(path) as journal:
            journal.append(0, _keys([_record(0)]), [_record(0)])
            journal.append(1, _keys([_record(1)]), [_record(1)])
        raw = path.read_bytes()
        last = raw.rstrip(b"\n").rsplit(b"\n", 1)[1]
        # Torn after its prefix, or with only the newline missing: a crash
        # mid-append leaves no newline, so neither counts.
        for cut in (1, 40, len(last) - 10):
            path.write_bytes(raw[:-cut])
            assert EpisodeJournal.progress(path) == {"batches": 1, "episodes": 1}

    def test_v1_journal_resets_on_open(self, tmp_path):
        path = tmp_path / "j.jsonl"
        records = [_record(0)]
        v1_entry = {
            "batch": 0,
            "keys": _keys(records),
            "records": [r.to_dict(include_state=True) for r in records],
        }
        path.write_text(
            json.dumps({"format": "muffin-episode-journal-v1", "fingerprint": {}})
            + "\n"
            + json.dumps(v1_entry, separators=(",", ":"))
            + "\n"
        )
        journal = EpisodeJournal(path)
        assert journal.batches == 0
        assert journal.lookup(0, _keys(records)) is None
        assert EpisodeJournal.progress(path) == {"batches": 0, "episodes": 0}
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == "muffin-episode-journal-v2"

    def test_header_written_on_creation(self, tmp_path):
        path = tmp_path / "j.jsonl"
        EpisodeJournal(path, fingerprint={"search": "x"})
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"].startswith("muffin-episode-journal")
        assert header["fingerprint"] == {"search": "x"}
