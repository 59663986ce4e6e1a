"""Job journal: append/replay, damage tolerance, compaction, queue wiring."""

import json
import os

import pytest

from repro import telemetry
from repro.service.jobs import JobSpec
from repro.service.journal import JobJournal, JournalEntry
from repro.service.queue import JobQueue


def _spec_json(name="svc-a"):
    return JobSpec(experiment=name).to_json()


@pytest.fixture
def journal(tmp_path):
    with JobJournal(str(tmp_path / "jobs.journal")) as j:
        yield j


class TestReplay:
    def test_submit_without_terminal_is_pending(self, journal):
        journal.submit("j1", "addr1", _spec_json(), priority=3)
        entries = journal.replay()
        assert len(entries) == 1
        entry = entries[0]
        assert entry.job == "j1" and entry.address == "addr1"
        assert entry.priority == 3
        assert not entry.in_flight

    def test_claim_marks_in_flight(self, journal):
        journal.submit("j1", "addr1", _spec_json())
        journal.claim("j1")
        (entry,) = journal.replay()
        assert entry.in_flight

    def test_terminal_ops_settle_the_job(self, journal):
        for i, settle in enumerate(
            (journal.done, journal.fail, journal.cancel)
        ):
            journal.submit(f"j{i}", f"addr{i}", _spec_json())
            settle(f"j{i}")
        journal.submit("live", "addr-live", _spec_json())
        entries = journal.replay()
        assert [e.job for e in entries] == ["live"]

    def test_submission_order_is_preserved(self, journal):
        for i in range(5):
            journal.submit(f"j{i}", f"addr{i}", _spec_json())
        journal.done("j2")
        assert [e.job for e in journal.replay()] == [
            "j0", "j1", "j3", "j4",
        ]

    def test_drain_marker_is_ignored(self, journal):
        journal.submit("j1", "addr1", _spec_json())
        journal.drain(queued=1, running=0)
        assert len(journal.replay()) == 1

    def test_missing_file_replays_empty(self, tmp_path):
        journal = JobJournal(str(tmp_path / "never-written.journal"))
        assert journal.replay() == []

    def test_later_submit_replaces_earlier(self, journal):
        journal.submit("j1", "addr1", _spec_json(), priority=0)
        journal.submit("j1", "addr1", _spec_json(), priority=9)
        (entry,) = journal.replay()
        assert entry.priority == 9


class TestDamageTolerance:
    def test_torn_tail_is_skipped(self, journal):
        journal.submit("j1", "addr1", _spec_json())
        journal.submit("j2", "addr2", _spec_json())
        with open(journal.path, "rb+") as fh:
            fh.truncate(os.path.getsize(journal.path) - 7)
        entries = journal.replay()
        assert [e.job for e in entries] == ["j1"]
        assert journal.stats.torn == 1

    def test_record_after_a_failed_append_starts_a_fresh_line(
        self, journal, monkeypatch
    ):
        # A short write (disk full) leaves a partial line without its
        # newline; the next acknowledged record must not be glued onto
        # it and lost with it on replay.
        real_write = os.write
        writes = []

        def short_first_write(fd, data):
            writes.append(data)
            if len(writes) == 1:
                return real_write(fd, data[: len(data) // 2])
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", short_first_write)
        with pytest.raises(OSError):
            journal.submit("job-a", "addr-a", _spec_json())
        journal.submit("job-b", "addr-b", _spec_json())
        monkeypatch.undo()
        assert [e.job for e in journal.replay()] == ["job-b"]
        assert journal.stats.torn == 1
        # Only the record after the failure pays the extra newline.
        journal.submit("job-c", "addr-c", _spec_json())
        with open(journal.path, encoding="utf-8") as fh:
            assert fh.read().count("\n") == 3

    def test_garbage_and_unknown_records_are_skipped(self, journal):
        journal.submit("j1", "addr1", _spec_json())
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
            fh.write(json.dumps({"format": "other", "op": "submit"}) + "\n")
            fh.write(json.dumps({
                "format": "repro-v1", "kind": "job-journal",
                "op": "from-the-future", "job": "j1",
            }) + "\n")
        entries = journal.replay()
        assert [e.job for e in entries] == ["j1"]
        assert journal.stats.torn == 3

    def test_terminal_for_unknown_job_is_harmless(self, journal):
        journal.done("never-submitted")
        journal.submit("j1", "addr1", _spec_json())
        assert [e.job for e in journal.replay()] == ["j1"]

    def test_submit_missing_spec_is_skipped(self, journal):
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "format": "repro-v1", "kind": "job-journal",
                "op": "submit", "job": "j1", "address": "a",
            }) + "\n")
        assert journal.replay() == []
        assert journal.stats.torn == 1


class TestBounding:
    def test_compact_round_trips_live_set(self, journal):
        for i in range(10):
            journal.submit(f"j{i}", f"addr{i}", _spec_json())
            journal.done(f"j{i}")
        live = [
            (JournalEntry("queued-job", "addr-q", _spec_json()), False),
            (JournalEntry("running-job", "addr-r", _spec_json()), True),
        ]
        before = journal.size_bytes()
        journal.compact(live)
        assert journal.size_bytes() < before
        entries = journal.replay()
        assert [(e.job, e.in_flight) for e in entries] == [
            ("queued-job", False), ("running-job", True),
        ]
        # The appender still works after the rewrite swapped the file.
        journal.submit("j2", "addr2", _spec_json())
        assert [e.job for e in journal.replay()] == [
            "queued-job", "running-job", "j2",
        ]

    def test_maybe_compact_honours_threshold(self, tmp_path):
        journal = JobJournal(
            str(tmp_path / "jobs.journal"), compact_every=4
        )
        calls = []

        def live_fn():
            calls.append(True)
            return []

        journal.submit("j1", "addr1", _spec_json())
        assert not journal.maybe_compact(live_fn)
        assert not calls  # below threshold: live_fn never built
        journal.done("j1")
        journal.submit("j2", "addr2", _spec_json())
        journal.done("j2")
        assert journal.maybe_compact(live_fn)
        assert journal.stats.lag == 0
        assert journal.replay() == []

    def test_maybe_compact_skips_when_rewrite_saves_nothing(
        self, tmp_path
    ):
        journal = JobJournal(
            str(tmp_path / "jobs.journal"), compact_every=2
        )
        journal.submit("j1", "addr1", _spec_json())
        journal.submit("j2", "addr2", _spec_json())
        live = [
            (JournalEntry("j1", "addr1", _spec_json()), False),
            (JournalEntry("j2", "addr2", _spec_json()), False),
        ]
        assert not journal.maybe_compact(lambda: live)
        assert journal.stats.compactions == 0

    def test_stats_accounting(self, journal):
        journal.submit("j1", "addr1", _spec_json())
        journal.claim("j1")
        stats = journal.stats.to_json()
        assert stats["records"] == 2 and stats["lag"] == 2
        assert stats["bytes"] == journal.size_bytes() > 0


class TestQueueWiring:
    @pytest.fixture
    def experiments(self, register_experiment):
        register_experiment("svc-a")
        register_experiment("svc-b")

    def test_lifecycle_is_journaled(self, experiments, tmp_path):
        journal = JobJournal(str(tmp_path / "jobs.journal"))
        queue = JobQueue(journal=journal)
        job, _ = queue.submit(JobSpec(experiment="svc-a"))
        (entry,) = journal.replay()
        assert entry.job == job.id and not entry.in_flight
        queue.claim(timeout=0.1)
        (entry,) = journal.replay()
        assert entry.in_flight
        queue.finish(job)
        assert journal.replay() == []

    def test_cancel_is_journaled(self, experiments, tmp_path):
        journal = JobJournal(str(tmp_path / "jobs.journal"))
        queue = JobQueue(journal=journal)
        job, _ = queue.submit(JobSpec(experiment="svc-a"))
        assert queue.cancel(job.id)
        assert journal.replay() == []

    def test_submit_pins_requested_job_id(self, experiments):
        queue = JobQueue()
        job, _ = queue.submit(
            JobSpec(experiment="svc-a"), job_id="recovered-id"
        )
        assert job.id == "recovered-id"
        assert queue.get("recovered-id") is job

    def test_journal_write_failure_degrades_not_fails(
        self, experiments, tmp_path, monkeypatch
    ):
        telemetry.enable()
        journal = JobJournal(str(tmp_path / "jobs.journal"))

        def boom(op, **fields):
            raise OSError("disk full")

        monkeypatch.setattr(journal, "append", boom)
        queue = JobQueue(journal=journal)
        job, _ = queue.submit(JobSpec(experiment="svc-a"))
        assert job is not None  # admission survived the journal failure
        counters = telemetry.get_metrics().snapshot()["counters"]
        assert counters.get("service.journal.errors", 0) >= 1
