"""Crash recovery end to end: journal replay, client retries, SIGKILL.

Three layers, cheapest first:

* in-process: a service constructed (not started) journals submissions;
  a second service on the same directories re-enqueues them under the
  same job ids with ``recovered`` set, and ``/healthz`` reports the
  durability state;
* client: :class:`ServiceClient`'s blocking calls ride out a service
  restart on the same port without losing the job;
* subprocess (``slow``): ``serve`` is SIGKILLed mid-Table-1 via
  :class:`repro.inject.ProcessKiller`, restarted on the same
  ``--work-dir``, and must finish the journaled job *without
  resubmission*, byte-identical to an uninterrupted served run — for
  both the thread and the process executor.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.inject import ProcessKiller
from repro.service import ServiceClient, ServiceUnavailableError, SweepService
from repro.service.jobs import JobSpec, JobState
from repro.service.journal import JobJournal


class _Killed(Exception):
    """Stands in for the process dying at a chosen point."""


def _dirs(tmp_path):
    return str(tmp_path / "work"), str(tmp_path / "store")


def _quiet_service(tmp_path, **kwargs):
    work_dir, store_dir = _dirs(tmp_path)
    kwargs.setdefault("port", 0)
    kwargs.setdefault("work_dir", work_dir)
    kwargs.setdefault("store_dir", store_dir)
    return SweepService(**kwargs)


class TestInProcessRecovery:
    def test_pending_job_recovers_with_same_id(
        self, tmp_path, register_experiment
    ):
        calls = register_experiment("svc-recover")
        first = _quiet_service(tmp_path)
        try:
            job, _ = first.queue.submit(JobSpec(experiment="svc-recover"))
        finally:
            first.journal.close()
            first._httpd.server_close()

        with _quiet_service(tmp_path) as second:
            assert second.recovered_jobs == 1
            assert second.recovered_in_flight == 0
            client = ServiceClient(second.url)
            payload = client.wait(job.id, timeout=10)
            record = client.job(job.id)
        assert record["recovered"] is True
        assert payload["address"] == job.address
        assert calls.count == 1

    def test_record_with_retired_batch_u_key_recovers_with_same_id(
        self, tmp_path, register_experiment
    ):
        # A spec journaled before the batch_u switch was removed.
        calls = register_experiment("svc-recover")
        work_dir, _ = _dirs(tmp_path)
        os.makedirs(work_dir)
        spec = JobSpec(experiment="svc-recover")
        journal = JobJournal(os.path.join(work_dir, "jobs.journal"))
        try:
            journal.submit(
                "legacy-job", spec.address,
                dict(spec.to_json(), batch_u=False),
            )
        finally:
            journal.close()

        with _quiet_service(tmp_path) as service:
            assert service.recovered_jobs == 1
            client = ServiceClient(service.url)
            payload = client.wait("legacy-job", timeout=10)
        assert payload["address"] == spec.address
        assert calls.count == 1

    def test_in_flight_job_resumes_as_recovered(
        self, tmp_path, register_experiment
    ):
        register_experiment("svc-recover")
        first = _quiet_service(tmp_path)
        try:
            job, _ = first.queue.submit(JobSpec(experiment="svc-recover"))
            assert first.queue.claim(timeout=1.0) is job
        finally:
            first.journal.close()
            first._httpd.server_close()

        with _quiet_service(tmp_path) as second:
            assert second.recovered_in_flight == 1
            client = ServiceClient(second.url)
            client.wait(job.id, timeout=10)

    def test_without_a_work_dir_nothing_is_journaled_or_recovered(
        self, tmp_path, register_experiment
    ):
        register_experiment("svc-recover")
        first = _quiet_service(tmp_path, work_dir=None)
        try:
            assert first.journal is None
            first.queue.submit(JobSpec(experiment="svc-recover"))
            first.recover()
            assert first.recovered_jobs == 0
        finally:
            first._httpd.server_close()
        assert not os.path.exists(tmp_path / "work")
        with _quiet_service(tmp_path, work_dir=None) as second:
            assert second.journal is None
            assert second.recovered_jobs == 0
            assert second.queue.list_jobs() == []

    def test_healthz_reports_durability(self, tmp_path):
        with _quiet_service(tmp_path) as service:
            health = ServiceClient(service.url).healthz()
        durability = health["durability"]
        assert durability["journal"]["path"].endswith("jobs.journal")
        assert durability["store_readable"] is True
        assert durability["recovered_jobs"] == 0
        assert set(durability) == {
            "journal", "recovered_jobs", "recovered_in_flight",
            "store_readable",
        }

    def test_full_queue_recovers_every_job(
        self, tmp_path, register_experiment
    ):
        # --queue-limit bounds queued jobs only: limit queued jobs plus
        # a running one were acknowledged, and all of them come back.
        names = ("svc-a", "svc-b", "svc-c")
        for name in names:
            register_experiment(name)
        first = _quiet_service(tmp_path, queue_limit=2)
        try:
            jobs = [first.queue.submit(JobSpec(experiment="svc-a"))[0]]
            assert first.queue.claim(timeout=1.0) is jobs[0]
            jobs += [
                first.queue.submit(JobSpec(experiment=name))[0]
                for name in names[1:]
            ]
        finally:
            first.journal.close()
            first._httpd.server_close()

        second = _quiet_service(tmp_path, queue_limit=2)
        try:
            second.recover()
            assert second.recovered_jobs == 3
            for job in jobs:
                assert second.queue.get(job.id).state is JobState.QUEUED
        finally:
            second.journal.close()
            second._httpd.server_close()

    def test_kill_during_recovery_loses_no_job(
        self, tmp_path, register_experiment
    ):
        names = ("svc-a", "svc-b", "svc-c")
        for name in names:
            register_experiment(name)
        first = _quiet_service(tmp_path)
        try:
            jobs = [
                first.queue.submit(JobSpec(experiment=name))[0]
                for name in names
            ]
        finally:
            first.journal.close()
            first._httpd.server_close()

        # The process dies right after the first re-admission.
        second = _quiet_service(tmp_path)
        readmit = second.queue.submit

        def readmit_then_die(*args, **kwargs):
            readmit(*args, **kwargs)
            raise _Killed()

        second.queue.submit = readmit_then_die
        try:
            with pytest.raises(_Killed):
                second.recover()
        finally:
            second.journal.close()
            second._httpd.server_close()

        third = _quiet_service(tmp_path)
        try:
            third.recover()
            assert third.recovered_jobs == 3
            for job in jobs:
                assert third.queue.get(job.id).state is JobState.QUEUED
        finally:
            third.journal.close()
            third._httpd.server_close()

    def test_job_superseded_by_a_resubmission_recovers_cancelled(
        self, tmp_path, register_experiment
    ):
        # A cancel request on a running job hands its address to the
        # next submission; the request dies with the process, and the
        # resubmitted job must not coalesce back onto the old one.
        register_experiment("svc-recover")
        spec = JobSpec(experiment="svc-recover")
        first = _quiet_service(tmp_path)
        try:
            old, _ = first.queue.submit(spec)
            assert first.queue.claim(timeout=1.0) is old
            first.queue.cancel(old.id)
            new, deduped = first.queue.submit(spec)
            assert not deduped and new.id != old.id
        finally:
            first.journal.close()
            first._httpd.server_close()

        second = _quiet_service(tmp_path)
        try:
            second.recover()
            assert second.queue.get(old.id).state is JobState.CANCELLED
            assert second.queue.get(new.id).state is JobState.QUEUED
            assert [e.job for e in second.journal.replay()] == [new.id]
        finally:
            second.journal.close()
            second._httpd.server_close()

    def test_cancel_request_on_a_running_job_survives_a_crash(
        self, tmp_path, register_experiment
    ):
        # Submit, claim, cancel, die: the journaled cancel request must
        # keep the job from running again after the restart.
        register_experiment("svc-recover")
        first = _quiet_service(tmp_path)
        try:
            job, _ = first.queue.submit(JobSpec(experiment="svc-recover"))
            assert first.queue.claim(timeout=1.0) is job
            first.queue.cancel(job.id)
            assert job.state is JobState.RUNNING and job.cancel_requested
        finally:
            first.journal.close()
            first._httpd.server_close()

        second = _quiet_service(tmp_path)
        try:
            second.recover()
            assert second.queue.get(job.id).state is JobState.CANCELLED
            assert second.journal.replay() == []
        finally:
            second.journal.close()
            second._httpd.server_close()

    @pytest.mark.parametrize("dies_at", ["readmission", "cancel"])
    def test_cancel_request_survives_compaction_and_a_kill_in_recovery(
        self, tmp_path, register_experiment, dies_at
    ):
        register_experiment("svc-recover")
        first = _quiet_service(tmp_path)
        try:
            job, _ = first.queue.submit(JobSpec(experiment="svc-recover"))
            assert first.queue.claim(timeout=1.0) is job
            first.queue.cancel(job.id)
            first.queue.compact_journal()
            (entry,) = first.journal.replay()
            assert entry.in_flight and entry.cancel_requested
        finally:
            first.journal.close()
            first._httpd.server_close()

        # The restart dies right after re-admitting the job (its fresh
        # submit record must not drop the pending request), or after
        # the startup compaction, just before cancelling it.
        second = _quiet_service(tmp_path)
        readmit = second.queue.submit

        def readmit_then_die(*args, **kwargs):
            readmit(*args, **kwargs)
            raise _Killed()

        def die(*args, **kwargs):
            raise _Killed()

        if dies_at == "readmission":
            second.queue.submit = readmit_then_die
        else:
            second.queue.cancel = die
        try:
            with pytest.raises(_Killed):
                second.recover()
        finally:
            second.journal.close()
            second._httpd.server_close()

        third = _quiet_service(tmp_path)
        try:
            third.recover()
            assert third.queue.get(job.id).state is JobState.CANCELLED
        finally:
            third.journal.close()
            third._httpd.server_close()

    def test_startup_compacts_settled_history(
        self, tmp_path, register_experiment
    ):
        register_experiment("svc-recover")
        first = _quiet_service(tmp_path)
        journal_path = first.journal.path
        try:
            job, _ = first.queue.submit(JobSpec(experiment="svc-recover"))
            assert first.queue.claim(timeout=1.0) is job
            first.queue.finish(job)
        finally:
            first.journal.close()
            first._httpd.server_close()
        assert os.path.getsize(journal_path) > 0

        second = _quiet_service(tmp_path)
        try:
            second.recover()
            # Startup rewrote the journal: the settled history is gone.
            assert second.recovered_jobs == 0
            assert os.path.getsize(journal_path) == 0
        finally:
            second.journal.close()
            second._httpd.server_close()


class TestClientRetry:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ServiceClient("http://127.0.0.1:1", connect_retries=-1)
        with pytest.raises(ValueError):
            ServiceClient("http://127.0.0.1:1", retry_backoff=0)

    def test_wait_retries_transient_unavailability(self, monkeypatch):
        client = ServiceClient(
            "http://127.0.0.1:1", retry_backoff=0.001
        )
        attempts = []

        def flaky_job(job_id):
            attempts.append(job_id)
            if len(attempts) < 3:
                raise ServiceUnavailableError(client.url, "refused")
            return {"state": "done"}

        monkeypatch.setattr(client, "job", flaky_job)
        monkeypatch.setattr(
            client, "result", lambda job_id: {"ok": True}
        )
        assert client.wait("j1", timeout=5) == {"ok": True}
        assert len(attempts) == 3

    def test_wait_gives_up_after_connect_retries(self, monkeypatch):
        client = ServiceClient(
            "http://127.0.0.1:1", connect_retries=2, retry_backoff=0.001
        )

        def dead_job(job_id):
            raise ServiceUnavailableError(client.url, "refused")

        monkeypatch.setattr(client, "job", dead_job)
        with pytest.raises(ServiceUnavailableError):
            client.wait("j1", timeout=5)

    def test_retry_respects_the_wait_deadline(self, monkeypatch):
        client = ServiceClient(
            "http://127.0.0.1:1", connect_retries=1000, retry_backoff=0.05
        )

        def dead_job(job_id):
            raise ServiceUnavailableError(client.url, "refused")

        monkeypatch.setattr(client, "job", dead_job)
        start = time.monotonic()
        with pytest.raises(ServiceUnavailableError):
            client.wait("j1", timeout=0.2)
        assert time.monotonic() - start < 2.0

    def test_wait_survives_a_service_restart(
        self, tmp_path, register_experiment
    ):
        """A polling client keeps its job across stop + start on one port.

        The first service's worker is wedged on an event that is never
        set, so stopping it leaves the job journaled as in flight; the
        second service binds the same port, recovers the job under the
        same id, and runs it with a healthy runner.
        """
        wedge = threading.Event()

        def wedged_runner(spec, resilience):
            wedge.wait(30)
            raise RuntimeError("wedged runner should never finish")

        register_experiment("svc-restart", runner=wedged_runner)
        first = _quiet_service(tmp_path, drain_timeout=0.2)
        first.start()
        port = first.port
        client = ServiceClient(
            first.url, connect_retries=40, retry_backoff=0.05
        )
        submitted = client.submit({"experiment": "svc-restart"})
        job_id = submitted["job"]["id"]

        outcome = {}

        def poll():
            try:
                outcome["payload"] = client.wait(job_id, timeout=30)
            except Exception as exc:  # surfaced by the main thread
                outcome["error"] = exc

        poller = threading.Thread(target=poll, daemon=True)
        # Wait for the job to be claimed so the journal holds a claim
        # record, then restart the service under the polling client.
        deadline = time.monotonic() + 5
        while client.job(job_id)["state"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.02)
        poller.start()
        first.stop()

        register_experiment("svc-restart")  # healthy replacement runner
        second = _quiet_service(tmp_path, port=port, drain_timeout=0.2)
        second.start()
        try:
            poller.join(timeout=30)
            assert not poller.is_alive()
            assert "error" not in outcome, outcome.get("error")
            assert outcome["payload"]["address"] == submitted[
                "job"]["address"]
            assert client.job(job_id)["recovered"] is True
        finally:
            wedge.set()
            second.stop()


def _start_serve(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(cwd, "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"] + argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=cwd,
        env=env,
    )
    deadline = time.monotonic() + 30
    url = None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        match = re.search(r"listening on (http://\S+)", line)
        if match:
            url = match.group(1)
            break
    if url is None:
        process.kill()
        raise AssertionError("serve never printed its URL")
    return process, url


def _wait_done(client, job_id, timeout=60):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            record = client.job(job_id)
        except ServiceUnavailableError:
            time.sleep(0.1)
            continue
        if record["state"] == "done":
            return client.result(job_id)
        assert record["state"] in ("queued", "running"), record
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


@pytest.mark.slow
@pytest.mark.parametrize("executor", ["thread", "process"])
def test_sigkill_mid_table1_resumes_byte_identical(
    tmp_path, executor
):
    """The acceptance criterion: SIGKILL mid-run costs nothing but time.

    A served coarse Table 1 sweep is SIGKILLed after its first unit
    checkpoints, the service restarts on the same ``--work-dir``, and
    the journaled job must finish *without resubmission* with a payload
    byte-identical to an uninterrupted served run's.
    """
    repo = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    spec = {"experiment": "table1", "n_r": 6, "n_u": 4}
    work_dir = str(tmp_path / "work")
    store_dir = str(tmp_path / "store")
    serve_argv = [
        "--work-dir", work_dir, "--store-dir", store_dir,
        "--executor", executor,
    ]

    process, url = _start_serve(serve_argv, repo)
    try:
        client = ServiceClient(url)
        job_id = client.submit(spec)["job"]["id"]
        # Let at least one sweep unit checkpoint, then pull the plug.
        deadline = time.monotonic() + 30
        ckpt = None
        while time.monotonic() < deadline:
            names = [n for n in os.listdir(work_dir)
                     if n.endswith(".ckpt")]
            if names:
                ckpt = os.path.join(work_dir, names[0])
                if os.path.getsize(ckpt) > 0:
                    break
            time.sleep(0.01)
        assert ckpt is not None and os.path.getsize(ckpt) > 0
        killer = ProcessKiller(process.pid, sig=signal.SIGKILL)
        killer.arm()
        assert killer.fires == 1
        process.wait(timeout=10)
    finally:
        if process.poll() is None:
            process.kill()

    # The journal must still hold the in-flight job.
    entries = JobJournal(os.path.join(work_dir, "jobs.journal")).replay()
    assert [e.job for e in entries] == [job_id]
    assert entries[0].in_flight

    process, url = _start_serve(serve_argv, repo)
    try:
        resumed = _wait_done(ServiceClient(url), job_id)
    finally:
        process.terminate()
        process.wait(timeout=30)

    # After completion the journal replays empty: the job settled.
    assert JobJournal(
        os.path.join(work_dir, "jobs.journal")
    ).replay() == []

    # An uninterrupted served run of the same spec, fresh directories.
    baseline_argv = [
        "--work-dir", str(tmp_path / "work2"),
        "--store-dir", str(tmp_path / "store2"),
        "--executor", executor,
    ]
    process, url = _start_serve(baseline_argv, repo)
    try:
        client = ServiceClient(url)
        baseline_id = client.submit(spec)["job"]["id"]
        baseline = _wait_done(client, baseline_id)
    finally:
        process.terminate()
        process.wait(timeout=30)

    assert json.dumps(resumed, sort_keys=True) == json.dumps(
        baseline, sort_keys=True
    )
