"""Crash model of the sweep service's durable state.

A Hypothesis state machine drives the real :class:`JobQueue`,
:class:`JobJournal` and :class:`ResultStore` of an unstarted
:class:`SweepService`: no scheduler threads, no HTTP.  Its rules
interleave the service's own transitions (submit, claim, finish, fail,
cancel, store lookup) with what a disk and a process can suffer: a
flipped byte in a stored result, a kill, a kill in the middle of a
journal append (a torn tail), and a kill in the middle of recovery.

The model keeps its own view of every acknowledged job and checks,
after every step:

(i)   every acknowledged, unsettled job is in the queue under its own
      id, in the state the model expects;
(ii)  no address has two running jobs that will publish (a running job
      with a cancel request pending settles cancelled instead);
(iii) once ``store.get(address)`` has returned ``None`` and no put of
      the address has followed, a submission of it does not coalesce
      onto a DONE job;
(iv)  ``store.get`` returns ``None`` or exactly the payload that was put.
"""

import json
import os
import shutil
import tempfile
import uuid

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.errors import QueueFullError
from repro.service import SweepService
from repro.service.jobs import JobSpec, JobState

EXPERIMENTS = ("crash-a", "crash-b", "crash-c", "crash-d")
#: Model states of an acknowledged job that must still be in the queue.
LIVE = ("queued", "running", "cancelling")


class _Killed(Exception):
    """Stands in for the process dying at a chosen point."""


def _payload(address):
    return {"kind": "job-result", "address": address, "report": address}


class CrashModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="crash-model-")
        #: job id -> "queued" | "running" | "cancelling" | "settled", in
        #: acknowledgement order.
        self.expected = {}
        #: job id -> address.
        self.addresses = {}
        #: Addresses put at least once, and those whose last lookup
        #: missed with no put since.
        self.stored = set()
        self.missing = set()
        self.service = self._start()

    # -- plumbing --------------------------------------------------------------

    def _start(self, die_after=None):
        service = SweepService(
            port=0,
            queue_limit=2,
            work_dir=os.path.join(self.root, "work"),
            store_dir=os.path.join(self.root, "store"),
        )
        # Compact often, so compaction interleaves with everything else.
        service.journal.compact_every = 3
        if die_after is not None:
            readmit = service.queue.submit
            readmitted = []

            def readmit_or_die(*args, **kwargs):
                if len(readmitted) == die_after:
                    raise _Killed()
                readmitted.append(readmit(*args, **kwargs))

            service.queue.submit = readmit_or_die
        try:
            service.recover()
        except _Killed:
            self._kill(service)
            return None
        return service

    @staticmethod
    def _kill(service):
        """The process dies: no drain, nothing in memory survives."""
        service.journal.close()
        service._httpd.server_close()

    def _expect_recovery(self):
        """What a restart must have done to every acknowledged job."""
        for job_id in self._jobs_in(*LIVE):
            if self.expected[job_id] == "cancelling":
                # Its cancel request was journaled: it does not run again.
                assert self.queue.get(job_id).state is JobState.CANCELLED
                self.expected[job_id] = "settled"
            else:
                self.expected[job_id] = "queued"
        for job_id in self._jobs_in("settled"):
            if self.queue.get(job_id) is None:
                del self.expected[job_id]

    @property
    def queue(self):
        return self.service.queue

    @property
    def store(self):
        return self.service.store

    def _jobs_in(self, *states):
        return [job for job, state in self.expected.items() if state in states]

    def _get(self, address):
        payload = self.store.get(address)
        # (iv) a lookup serves the exact payload or nothing.
        assert payload is None or payload == _payload(address)
        if payload is None:
            self.missing.add(address)
        return payload

    def teardown(self):
        if self.service is not None:
            self._kill(self.service)
        shutil.rmtree(self.root, ignore_errors=True)

    # -- service transitions ---------------------------------------------------

    @rule(name=st.sampled_from(EXPERIMENTS), priority=st.integers(0, 2))
    def submit(self, name, priority):
        spec = JobSpec(experiment=name)
        try:
            job, deduped = self.queue.submit(spec, priority=priority)
        except QueueFullError:
            return
        if deduped:
            state = self.expected.get(job.id)
            assert state in ("queued", "running", "settled")
            assert state != "settled" or job.state is JobState.DONE
            # (iii) a miss unbinds the address from its DONE job.
            assert not (
                spec.address in self.missing and job.state is JobState.DONE
            )
        else:
            assert job.id not in self.expected
            self.expected[job.id] = "queued"
            self.addresses[job.id] = spec.address

    @precondition(lambda self: self._jobs_in("queued"))
    @rule()
    def claim(self):
        job = self.queue.claim(timeout=0)
        if job is not None:
            assert self.expected[job.id] == "queued"
            self.expected[job.id] = "running"

    @precondition(lambda self: self._jobs_in("running", "cancelling"))
    @rule(data=st.data())
    def finish(self, data):
        """What a scheduler worker does with a job it ran to the end."""
        job_id = data.draw(
            st.sampled_from(self._jobs_in("running", "cancelling"))
        )
        job = self.queue.get(job_id)
        cached = self._get(job.address)
        if cached is None:
            self.store.put(job.address, _payload(job.address))
            self.stored.add(job.address)
            self.missing.discard(job.address)
        if job.cancel_requested:
            self.queue.mark_cancelled(job)
        else:
            self.queue.finish(job, cache_hit=cached is not None)
        self.expected[job_id] = "settled"

    @precondition(lambda self: self._jobs_in("running", "cancelling"))
    @rule(data=st.data())
    def fail(self, data):
        job_id = data.draw(
            st.sampled_from(self._jobs_in("running", "cancelling"))
        )
        self.queue.fail(self.queue.get(job_id), RuntimeError("stub failure"))
        self.expected[job_id] = "settled"

    @precondition(lambda self: self._jobs_in("queued", "running"))
    @rule(data=st.data())
    def cancel(self, data):
        job_id = data.draw(
            st.sampled_from(self._jobs_in("queued", "running"))
        )
        self.queue.cancel(job_id)
        if self.expected[job_id] == "queued":
            self.expected[job_id] = "settled"
        else:
            self.expected[job_id] = "cancelling"

    @precondition(lambda self: self.stored)
    @rule(data=st.data())
    def lookup(self, data):
        self._get(data.draw(st.sampled_from(sorted(self.stored))))

    # -- faults ----------------------------------------------------------------

    @precondition(lambda self: self.store.addresses())
    @rule(data=st.data(), bit=st.integers(0, 7))
    def corrupt(self, data, bit):
        """Flip one bit of a stored result document (bit rot)."""
        address = data.draw(st.sampled_from(self.store.addresses()))
        path = os.path.join(self.store.root, address + ".json")
        with open(path, "r+b") as fh:
            blob = bytearray(fh.read())
            blob[data.draw(st.integers(0, len(blob) - 1))] ^= 1 << bit
            fh.seek(0)
            fh.write(blob)

    @precondition(lambda self: self._jobs_in(*LIVE))
    @rule(
        torn=st.none() | st.integers(1, 10_000),
        readmitted=st.none() | st.integers(0, 3),
    )
    def kill(self, torn, readmitted):
        """Die and restart.

        ``torn`` kills the process in the middle of journaling a
        submission that was never acknowledged, leaving a torn tail.
        ``readmitted`` kills the restarted process again once it has
        re-admitted that many jobs, before the final restart.
        """
        self._kill(self.service)
        if torn is not None:
            spec = JobSpec(experiment=EXPERIMENTS[0])
            blob = json.dumps({
                "format": "repro-v1", "kind": "job-journal", "op": "submit",
                "job": uuid.uuid4().hex[:12], "address": spec.address,
                "spec": spec.to_json(), "priority": 0, "recovered": False,
                "at": 0.0,
            }).encode("utf-8")
            with open(self.service.journal.path, "ab") as fh:
                fh.write(blob[: 1 + torn % (len(blob) - 1)])
        if readmitted is not None:
            self.service = self._start(die_after=readmitted)
            if self.service is not None:
                # Recovery finished before the chosen re-admission.
                self._expect_recovery()
                self._kill(self.service)
        self.service = self._start()
        self._expect_recovery()

    # -- invariants ------------------------------------------------------------

    @invariant()
    def acknowledged_jobs_are_in_the_queue(self):
        # (i)
        for job_id in self._jobs_in(*LIVE):
            job = self.queue.get(job_id)
            assert job is not None and job.id == job_id, job_id
            state = self.expected[job_id]
            if state == "queued":
                assert job.state is JobState.QUEUED
            else:
                assert job.state is JobState.RUNNING
                assert job.cancel_requested == (state == "cancelling")

    @invariant()
    def no_address_runs_twice(self):
        # (ii)
        publishing = [
            job["address"] for job in self.queue.list_jobs()
            if job["state"] == "running" and not job["cancel_requested"]
        ]
        assert len(publishing) == len(set(publishing))


def test_service_state_survives_any_crash_interleaving(register_experiment):
    for name in EXPERIMENTS:
        register_experiment(name)
    run_state_machine_as_test(
        CrashModel,
        settings=settings(
            max_examples=60, stateful_step_count=30, deadline=None
        ),
    )
