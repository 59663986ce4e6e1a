"""Scheduler workers: execution, cache hits, failures, cancellation."""

import threading
import time
from types import SimpleNamespace

import pytest

from repro import telemetry
from repro.service.jobs import JobSpec, JobState
from repro.service.queue import JobQueue
from repro.service.scheduler import Scheduler
from repro.service.store import ResultStore

from .conftest import make_report


def _wait_terminal(job, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not job.state.terminal and time.monotonic() < deadline:
        time.sleep(0.01)
    assert job.state.terminal, f"job stuck in {job.state}"


def _wait_running(job, timeout=5.0):
    deadline = time.monotonic() + timeout
    while job.state is JobState.QUEUED and time.monotonic() < deadline:
        time.sleep(0.01)
    assert job.state is JobState.RUNNING


@pytest.fixture
def rig():
    """queue + store + started scheduler, torn down after the test."""
    queue = JobQueue()
    store = ResultStore()
    scheduler = Scheduler(queue, store, poll_interval=0.02)
    scheduler.start()
    try:
        yield SimpleNamespace(queue=queue, store=store, scheduler=scheduler)
    finally:
        scheduler.stop()


class TestExecution:
    def test_job_runs_and_result_lands_in_store(self, rig, register_experiment):
        calls = register_experiment("svc-run")
        job, _ = rig.queue.submit(JobSpec("svc-run"))
        _wait_terminal(job)
        assert job.state is JobState.DONE and not job.cache_hit
        assert calls.count == 1
        payload = rig.store.get(job.address)
        assert payload is not None and payload["experiment"] == "svc-run"

    def test_second_queue_hits_the_store(self, rig, register_experiment):
        calls = register_experiment("svc-cache")
        spec = JobSpec("svc-cache")
        job, _ = rig.queue.submit(spec)
        _wait_terminal(job)
        # A fresh queue (no dedup history) against the same store: the
        # scheduler must serve the result without recomputing.
        queue2 = JobQueue()
        scheduler2 = Scheduler(queue2, rig.store, poll_interval=0.02)
        scheduler2.start()
        try:
            job2, _ = queue2.submit(spec)
            _wait_terminal(job2)
        finally:
            scheduler2.stop()
        assert job2.state is JobState.DONE and job2.cache_hit
        assert calls.count == 1
        assert any(e["event"] == "cache-hit" for e in job2.events)

    def test_evicted_result_recomputes_on_resubmission(
        self, register_experiment
    ):
        calls = register_experiment("svc-evict")
        store = ResultStore(max_entries=1)
        queue = JobQueue(result_exists=store.contains)
        scheduler = Scheduler(queue, store, poll_interval=0.02)
        scheduler.start()
        try:
            spec = JobSpec("svc-evict")
            job, _ = queue.submit(spec)
            _wait_terminal(job)
            assert calls.count == 1
            store.clear()  # stands in for TTL expiry / LRU eviction
            job2, deduped = queue.submit(spec)
            assert not deduped and job2 is not job
            _wait_terminal(job2)
        finally:
            scheduler.stop()
        assert job2.state is JobState.DONE and not job2.cache_hit
        assert calls.count == 2
        assert store.get(job2.address) is not None

    def test_failure_settles_failed_with_error(self, rig, register_experiment):
        def exploding(spec):
            raise RuntimeError("solver exploded")

        register_experiment("svc-boom", runner=exploding)
        job, _ = rig.queue.submit(JobSpec("svc-boom"))
        _wait_terminal(job)
        assert job.state is JobState.FAILED
        assert job.error == "solver exploded"
        assert job.error_type == "RuntimeError"
        assert any(e["event"] == "error" for e in job.events)
        assert rig.store.get(job.address) is None

    def test_worker_survives_failures(self, rig, register_experiment):
        def exploding(spec):
            raise RuntimeError("boom")

        register_experiment("svc-boom2", runner=exploding)
        good_calls = register_experiment("svc-good")
        bad, _ = rig.queue.submit(JobSpec("svc-boom2"))
        _wait_terminal(bad)
        good, _ = rig.queue.submit(JobSpec("svc-good"))
        _wait_terminal(good)
        assert good.state is JobState.DONE and good_calls.count == 1


class TestCancellation:
    def test_cancel_running_job_is_honoured(self, rig, register_experiment):
        release = threading.Event()

        def slow(spec):
            release.wait(10)
            return SimpleNamespace(report=make_report("slow"))

        register_experiment("svc-slow", runner=slow)
        job, _ = rig.queue.submit(JobSpec("svc-slow"))
        _wait_running(job)
        rig.queue.cancel(job.id)
        assert job.cancel_requested
        release.set()
        _wait_terminal(job)
        assert job.state is JobState.CANCELLED
        # The computed result is still valid and content-addressed, so
        # it is published even though the job settles cancelled.
        assert rig.store.get(job.address) is not None


class TestLifecycle:
    def test_double_start_rejected(self, rig):
        with pytest.raises(RuntimeError):
            rig.scheduler.start()

    def test_stop_is_idempotent_and_running_reflects(self):
        scheduler = Scheduler(JobQueue(), ResultStore(), poll_interval=0.02)
        assert not scheduler.running
        scheduler.start()
        assert scheduler.running
        scheduler.stop()
        scheduler.stop()
        assert not scheduler.running

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            Scheduler(JobQueue(), ResultStore(), workers=0)

    def test_job_duration_histogram_records(self, rig, register_experiment):
        telemetry.enable()
        telemetry.reset()
        register_experiment("svc-hist")
        job, _ = rig.queue.submit(JobSpec("svc-hist"))
        _wait_terminal(job)
        summary = telemetry.get_metrics().histogram(
            "service.jobs.seconds"
        ).snapshot()
        assert summary["count"] == 1
