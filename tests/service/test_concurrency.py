"""Multi-worker scheduler behaviour: attribution, hygiene, executors.

These tests exercise the service under *concurrency*: several scheduler
workers executing overlapping jobs, on both executors.  The process-
executor tests rely on the pool being forked at ``scheduler.start()``
— stub experiments registered before that moment are inherited by the
workers; their in-worker side effects (call counters) are invisible to
the parent, so assertions go through the store payloads and the job
event trail instead.
"""

import json
import multiprocessing
import os
import threading
import time
from types import SimpleNamespace

import pytest

from repro import telemetry
from repro.parallel import parallel_map_ex
from repro.service.jobs import JobSpec, JobState, result_payload
from repro.service.queue import JobQueue
from repro.service.scheduler import Scheduler
from repro.service.store import ResultStore

from .conftest import make_report

#: Stub experiments reach pool workers only as forked copies of the
#: monkeypatched parent (spawn re-imports the pristine registry).
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="stub-experiment inheritance requires the fork start method",
)


def _wait_terminal(job, timeout=20.0):
    deadline = time.monotonic() + timeout
    while not job.state.terminal and time.monotonic() < deadline:
        time.sleep(0.01)
    assert job.state.terminal, f"job stuck in {job.state}"


def _wait_running(job, timeout=5.0):
    deadline = time.monotonic() + timeout
    while job.state is JobState.QUEUED and time.monotonic() < deadline:
        time.sleep(0.01)
    assert job.state is JobState.RUNNING


def _unit_events(job):
    return [e for e in job.events if e["event"] == "progress"]


def _double(payload):
    return payload * 2


def _mapping_runner(n_units, barrier=None, rendezvous=None):
    """A stub runner that maps ``n_units`` units in process.

    ``barrier`` (same-process overlap) or ``rendezvous`` (a directory
    used as a cross-process barrier: touch my flag, wait for all flags)
    makes two such runners demonstrably concurrent before their units
    run.
    """

    def runner(spec):
        if barrier is not None:
            barrier.wait(timeout=10)
        if rendezvous is not None:
            me, everyone = rendezvous
            open(me, "w").close()
            deadline = time.monotonic() + 10
            while not all(os.path.exists(f) for f in everyone):
                if time.monotonic() > deadline:
                    raise TimeoutError("rendezvous never completed")
                time.sleep(0.01)
        units = list(range(n_units))
        assert parallel_map_ex(_double, units, jobs=1) == [
            2 * unit for unit in units
        ]
        return SimpleNamespace(report=make_report(title=spec.experiment))

    return runner


def _assert_own_units(job, n_units):
    """The job's event ring holds exactly its own ``n_units`` units."""
    events = _unit_events(job)
    assert [e["kind"] for e in events] == ["unit.done"] * n_units
    assert [e["done"] for e in events] == list(range(1, n_units + 1))
    assert {e["total"] for e in events} == {n_units}


class TestProgressAttribution:
    def test_jobs_see_only_their_own_units(
        self, register_experiment
    ):
        # Two jobs overlap on two worker threads, mapping 3 and 5 units.
        # Progress listeners are per thread, so each job's event ring
        # carries exactly its own unit completions.
        barrier = threading.Barrier(2)
        register_experiment(
            "svc-three", runner=_mapping_runner(3, barrier=barrier)
        )
        register_experiment(
            "svc-five", runner=_mapping_runner(5, barrier=barrier)
        )
        queue, store = JobQueue(), ResultStore()
        scheduler = Scheduler(queue, store, workers=2, poll_interval=0.02)
        scheduler.start()
        try:
            three, _ = queue.submit(JobSpec("svc-three"))
            five, _ = queue.submit(JobSpec("svc-five"))
            _wait_terminal(three)
            _wait_terminal(five)
        finally:
            scheduler.stop()
        assert three.state is JobState.DONE
        assert five.state is JobState.DONE
        _assert_own_units(three, 3)
        _assert_own_units(five, 5)


class TestStopAndHeartbeatHygiene:
    def test_restart_with_fewer_workers_reports_only_live(
        self, register_experiment
    ):
        register_experiment("svc-hb")
        queue, store = JobQueue(), ResultStore()
        scheduler = Scheduler(queue, store, workers=3, poll_interval=0.02)
        scheduler.start()
        try:
            deadline = time.monotonic() + 5
            while len(scheduler.heartbeats()) < 3:
                assert time.monotonic() < deadline, "workers never beat"
                time.sleep(0.01)
            assert scheduler.stop() == []
            # All heartbeat entries die with their threads.
            assert scheduler.heartbeats() == {}
            scheduler.workers = 1
            scheduler.start()
            deadline = time.monotonic() + 5
            while len(scheduler.heartbeats()) < 1:
                assert time.monotonic() < deadline, "worker never beat"
                time.sleep(0.01)
            # The restart must not resurrect the other two workers'
            # stale entries as ever-growing /healthz ages.
            assert len(scheduler.heartbeats()) == 1
        finally:
            scheduler.stop()

    def test_stop_shares_one_deadline_across_workers(
        self, register_experiment
    ):
        release = threading.Event()

        def blocker(spec):
            release.wait(30)
            return SimpleNamespace(report=make_report("blocker"))

        register_experiment("svc-stuck", runner=blocker)
        queue, store = JobQueue(), ResultStore()
        scheduler = Scheduler(queue, store, workers=4, poll_interval=0.02)
        scheduler.start()
        job, _ = queue.submit(JobSpec("svc-stuck"))
        _wait_running(job)
        started = time.monotonic()
        stragglers = scheduler.stop(timeout=0.4)
        elapsed = time.monotonic() - started
        release.set()
        # One worker is wedged in the blocking job; the other three are
        # idle.  The old per-thread join budget made this take up to
        # workers * timeout (1.6 s) — the shared deadline caps the whole
        # shutdown near the timeout itself, and names the stuck worker.
        assert elapsed < 1.2, f"stop took {elapsed:.2f}s for 0.4s budget"
        assert len(stragglers) == 1
        assert stragglers[0].startswith("repro-scheduler-")
        assert scheduler.heartbeats() == {}
        _wait_terminal(job)  # the straggler finishes once released

    def test_clean_stop_reports_no_stragglers(self, register_experiment):
        register_experiment("svc-quick")
        queue, store = JobQueue(), ResultStore()
        scheduler = Scheduler(queue, store, workers=2, poll_interval=0.02)
        scheduler.start()
        job, _ = queue.submit(JobSpec("svc-quick"))
        _wait_terminal(job)
        assert scheduler.stop() == []


@fork_only
class TestProcessExecutor:
    def test_job_runs_in_a_worker_process(self, register_experiment):
        # The stub is registered before start(), so the forked pool
        # workers inherit it; the pid baked into the report proves the
        # job really left this process.
        def runner(spec):
            return SimpleNamespace(
                report=make_report(title="svc-proc", block=f"pid={os.getpid()}")
            )

        register_experiment("svc-proc", runner=runner)
        queue, store = JobQueue(), ResultStore()
        scheduler = Scheduler(
            queue, store, workers=1, poll_interval=0.02, executor="process"
        )
        scheduler.start()
        try:
            job, _ = queue.submit(JobSpec("svc-proc"))
            _wait_terminal(job)
        finally:
            scheduler.stop()
        assert job.state is JobState.DONE
        payload = store.get(job.address)
        assert payload is not None
        worker_pid = int(payload["report"].split("pid=")[1].split()[0])
        assert worker_pid != os.getpid()

    def test_process_jobs_see_only_their_own_units(
        self, register_experiment, tmp_path
    ):
        # Cross-process rendezvous: each job touches its flag and waits
        # for both, so the units provably run while the other job is in
        # flight — in a different worker process.  Their progress
        # crosses the process boundary through the executor's queue and
        # lands on the right job's event ring.
        flags = [str(tmp_path / "a.flag"), str(tmp_path / "b.flag")]
        register_experiment(
            "svc-proc-three",
            runner=_mapping_runner(3, rendezvous=(flags[0], flags)),
        )
        register_experiment(
            "svc-proc-five",
            runner=_mapping_runner(5, rendezvous=(flags[1], flags)),
        )
        queue, store = JobQueue(), ResultStore()
        scheduler = Scheduler(
            queue, store, workers=2, poll_interval=0.02, executor="process"
        )
        scheduler.start()
        try:
            three, _ = queue.submit(JobSpec("svc-proc-three"))
            five, _ = queue.submit(JobSpec("svc-proc-five"))
            _wait_terminal(three)
            _wait_terminal(five)
        finally:
            scheduler.stop()
        assert three.state is JobState.DONE
        assert five.state is JobState.DONE
        _assert_own_units(three, 3)
        _assert_own_units(five, 5)

    def test_dead_worker_job_reruns_in_process_on_a_rebuilt_pool(
        self, register_experiment, tmp_path
    ):
        # The one recovery level the executor keeps: a worker that dies
        # mid-job breaks the pool; the pool is rebuilt and the job
        # re-runs whole in the scheduler's process.
        flag = str(tmp_path / "died.flag")
        parent = os.getpid()

        def die_once(spec):
            if os.getpid() != parent and not os.path.exists(flag):
                with open(flag, "w") as fh:
                    fh.write(str(os.getpid()))
                os._exit(17)
            return SimpleNamespace(report=make_report(title="svc-die"))

        def whoami(spec):
            return SimpleNamespace(
                report=make_report(title="svc-pid", block=f"pid={os.getpid()}")
            )

        register_experiment("svc-die", runner=die_once)
        register_experiment("svc-pid", runner=whoami)
        telemetry.reset()
        telemetry.enable()
        queue, store = JobQueue(), ResultStore()
        scheduler = Scheduler(
            queue, store, workers=1, poll_interval=0.02, executor="process"
        )
        scheduler.start()
        try:
            job, _ = queue.submit(JobSpec("svc-die"))
            _wait_terminal(job)
            second, _ = queue.submit(JobSpec("svc-pid"))
            _wait_terminal(second)
        finally:
            scheduler.stop()
        assert job.state is JobState.DONE, job.error
        assert os.path.exists(flag), "the worker never died"
        spec = JobSpec("svc-die").validate()
        assert store.get(job.address) == result_payload(
            spec, die_once(spec)
        )
        counters = telemetry.get_metrics().snapshot()["counters"]
        assert counters.get("service.executor.pool_breaks") == 1
        assert counters.get("service.executor.fallbacks") == 1
        kinds = [e.get("kind") for e in _unit_events(job)]
        assert kinds == ["executor.pool-broken", "executor.fallback"]
        # The next job runs in a worker of the rebuilt pool.
        assert second.state is JobState.DONE
        report = store.get(second.address)["report"]
        pid = int(report.split("pid=")[1].split()[0])
        with open(flag) as fh:
            dead = int(fh.read())
        assert pid not in (parent, dead)

    def test_error_type_crosses_the_process_boundary(
        self, register_experiment
    ):
        def exploding(spec):
            raise RuntimeError("kapow")

        register_experiment("svc-proc-boom", runner=exploding)
        queue, store = JobQueue(), ResultStore()
        scheduler = Scheduler(
            queue, store, workers=1, poll_interval=0.02, executor="process"
        )
        scheduler.start()
        try:
            job, _ = queue.submit(JobSpec("svc-proc-boom"))
            _wait_terminal(job)
        finally:
            scheduler.stop()
        assert job.state is JobState.FAILED
        assert job.error_type == "RuntimeError"
        assert job.error == "kapow"
        error_events = [e for e in job.events if e["event"] == "error"]
        assert error_events and error_events[0]["error_type"] == "RuntimeError"
        assert "RuntimeError" in (error_events[0].get("traceback") or "")

    def test_invalid_executor_name_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            Scheduler(JobQueue(), ResultStore(), executor="mainframe")


@pytest.mark.slow
class TestExecutorEquivalence:
    def test_table1_payload_identical_across_executors(self):
        # The acceptance criterion: one coarse real Table 1 computation,
        # byte-identical whether run directly, through the thread
        # executor, or through a worker process.
        spec = JobSpec("table1", opens=("CELL",), n_r=3, n_u=3).validate()
        profile = spec.profile()
        direct = json.dumps(
            result_payload(spec, profile.run(spec)),
            sort_keys=True,
        )
        served = {}
        for kind in ("thread", "process"):
            queue, store = JobQueue(), ResultStore()
            scheduler = Scheduler(
                queue, store, workers=1, poll_interval=0.02, executor=kind
            )
            scheduler.start()
            try:
                job, _ = queue.submit(spec)
                _wait_terminal(job, timeout=120.0)
            finally:
                scheduler.stop()
            assert job.state is JobState.DONE, job.error
            served[kind] = json.dumps(store.get(job.address), sort_keys=True)
        assert served["thread"] == direct
        assert served["process"] == direct
