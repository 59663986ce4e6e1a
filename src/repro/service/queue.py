"""Bounded, deduplicating priority queue of service jobs.

The queue is the admission-control point of the sweep service
(``docs/SERVICE.md``):

* **dedup** — a submission whose content address matches a live job
  (queued, running, or done-with-a-stored-result) coalesces into it
  instead of enqueueing a duplicate computation
  (``service.jobs.deduped``); a DONE job whose result has since been
  evicted from the store, a failed/cancelled job, or a running job that
  has a pending cancel request does *not* capture resubmissions — those
  enqueue a fresh computation;
* **backpressure** — once ``limit`` jobs are queued, further
  submissions raise :class:`~repro.errors.QueueFullError`, which the
  HTTP API maps to a structured ``429`` (``service.jobs.rejected``);
  a job recovered from the journal was admitted before the crash and
  skips admission control;
* **cancellation** — a queued job is cancelled in place and its queue
  slot freed immediately; a running job gets a cooperative
  ``cancel_requested`` flag the scheduler honours at its next
  checkpoint.

All state lives behind one lock with two condition variables on it:
scheduler workers block in :meth:`claim` and are woken by submissions;
event streamers (the SSE endpoint) block in :meth:`wait_events` and are
woken by every progress event and state transition — the two waiter
populations never steal each other's wakeups.  Terminal jobs are kept
as history (for ``GET /jobs/<id>``) up to ``max_history`` entries;
evicting a DONE job's record does not lose its result — that lives in
the content-addressed store.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import telemetry
from ..errors import ClientQuotaError, QueueFullError
from ..telemetry import events as event_log
from .jobs import Job, JobSpec, JobState
from .journal import JobJournal, JournalEntry

__all__ = ["JobQueue"]


class JobQueue:
    """Priority queue with admission control, dedup, and cancellation.

    ``limit`` bounds *queued* jobs only — running and finished jobs
    don't consume admission slots, and jobs re-admitted by journal
    recovery may queue past it.  Higher ``priority`` runs first; ties
    run in submission order.

    ``result_exists`` is the result store's TTL-aware presence check
    (:meth:`~repro.service.store.ResultStore.contains`): a DONE job only
    dedupes resubmissions while its address is still in the store —
    once the result is evicted or expired, the same spec enqueues a
    fresh computation instead of pointing at an unservable record.
    """

    def __init__(
        self,
        limit: int = 64,
        max_history: int = 256,
        result_exists: Optional[Callable[[str], bool]] = None,
        client_quota: Optional[int] = None,
        journal: Optional[JobJournal] = None,
    ) -> None:
        if limit < 1:
            raise ValueError("queue limit must be >= 1")
        if client_quota is not None and client_quota < 1:
            raise ValueError("client quota must be >= 1")
        self.limit = limit
        self.max_history = max_history
        self.client_quota = client_quota
        self.journal = journal
        self._result_exists = result_exists
        self._lock = threading.Lock()
        #: Wakes scheduler workers blocked in :meth:`claim`.
        self._cond = threading.Condition(self._lock)
        #: Wakes event streamers blocked in :meth:`wait_events`.
        self._event_cond = threading.Condition(self._lock)
        self._heap: List[Tuple[int, int, str]] = []  # (-priority, seq, id)
        self._seq = itertools.count()
        self._jobs: Dict[str, Job] = {}
        self._by_address: Dict[str, str] = {}  # address -> live job id
        self._queued = 0
        self._history: List[str] = []  # terminal job ids, oldest first

    # -- introspection ---------------------------------------------------------

    def depth(self) -> int:
        """Jobs currently waiting for a worker."""
        with self._cond:
            return self._queued

    def counts(self) -> Dict[str, int]:
        """Jobs per lifecycle state (for ``GET /healthz``)."""
        with self._cond:
            counts = {state.value: 0 for state in JobState}
            for job in self._jobs.values():
                counts[job.state.value] += 1
            return counts

    def get(self, job_id: str) -> Optional[Job]:
        with self._cond:
            return self._jobs.get(job_id)

    def snapshot(self, job_id: str) -> Optional[dict]:
        """A consistent JSON view of one job (taken under the lock)."""
        with self._cond:
            job = self._jobs.get(job_id)
            return None if job is None else job.to_json()

    def list_jobs(self) -> List[dict]:
        """Summaries of every known job, newest submission first."""
        with self._cond:
            jobs = sorted(
                self._jobs.values(), key=lambda j: j.submitted_at,
                reverse=True,
            )
            return [job.to_json(verbose=False) for job in jobs]

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        priority: int = 0,
        client: Optional[str] = None,
        recovered: bool = False,
        job_id: Optional[str] = None,
    ) -> Tuple[Job, bool]:
        """Admit one spec; returns ``(job, deduped)``.

        ``deduped=True`` means an identical live computation already
        existed and the submission coalesced into it (coalescing is
        always admitted — it adds no load).  Admission control refuses
        with :class:`~repro.errors.ClientQuotaError` when ``client``
        already owns ``client_quota`` live (queued or running) jobs,
        and with :class:`~repro.errors.QueueFullError` when the whole
        queue is full — and only then.

        ``job_id`` pins the new job's id — journal recovery passes the
        journaled id so a client that submitted before the restart can
        keep polling the id it was given.  A ``recovered`` job was
        admitted before the crash: it neither coalesces nor meets the
        client quota or the queue limit.
        """
        spec.validate()
        address = spec.address
        with self._cond:
            existing = None if recovered else self._live_job(address)
            if existing is not None:
                existing.submissions += 1
                if (
                    existing.state is JobState.QUEUED
                    and priority > existing.priority
                ):
                    # A duplicate submission can only make the shared
                    # computation more urgent.  The old heap entry stays
                    # behind (lazy deletion: claiming via this one flips
                    # the state off QUEUED, so the stale entry is
                    # skipped).
                    existing.priority = priority
                    heapq.heappush(
                        self._heap, (-priority, next(self._seq), existing.id)
                    )
                telemetry.count("service.jobs.deduped")
                event_log.emit(
                    "service.job.deduped",
                    job=existing.id, address=address,
                    submissions=existing.submissions,
                )
                return existing, True
            quota = None if recovered else self.client_quota
            if quota is not None and client is not None:
                live = sum(
                    1 for job in self._jobs.values()
                    if job.client == client and not job.state.terminal
                )
                if live >= quota:
                    telemetry.count("service.ratelimit.quota_rejections")
                    event_log.emit(
                        "service.job.quota_rejected",
                        client=client, live=live, quota=quota,
                    )
                    raise ClientQuotaError(
                        client=client, live=live, quota=quota
                    )
            if self._queued >= self.limit and not recovered:
                telemetry.count("service.jobs.rejected")
                event_log.emit(
                    "service.job.rejected",
                    experiment=spec.experiment, address=address,
                    depth=self._queued, limit=self.limit,
                )
                raise QueueFullError(depth=self._queued, limit=self.limit)
            job = Job(
                spec=spec, address=address, priority=priority, client=client,
                recovered=recovered,
            )
            if job_id is not None and job_id not in self._jobs:
                job.id = job_id
            job.emit("queued", address=address, priority=priority)
            self._journal_append(
                "submit", job=job.id, address=address,
                spec=spec.to_json(), priority=priority, client=client,
                recovered=recovered,
            )
            self._jobs[job.id] = job
            self._by_address[address] = job.id
            heapq.heappush(
                self._heap, (-priority, next(self._seq), job.id)
            )
            self._queued += 1
            telemetry.count("service.jobs.submitted")
            telemetry.gauge("service.queue.depth", self._queued)
            event_log.emit(
                "service.job.queued",
                job=job.id, experiment=spec.experiment, address=address,
                priority=priority, depth=self._queued,
            )
            self._cond.notify()
            self._event_cond.notify_all()
            return job, False

    def _live_job(self, address: str) -> Optional[Job]:
        """The job owning ``address`` that can still serve it, if any.

        A FAILED or CANCELLED job does not block resubmission of the
        same computation — its address binding is dropped when it
        reaches that state.  Two further cases must enqueue fresh work
        rather than coalesce:

        * a RUNNING job with a pending cancel request — the scheduler
          will settle it CANCELLED, so a new submitter riding on it
          would wait on a computation that never publishes;
        * a DONE job whose result has been evicted/expired from the
          store — ``GET /jobs/<id>/result`` answers 410 for it, so
          dedup would pin every resubmission to an unservable record.
          Its binding is dropped here so the new job can take over the
          address.
        """
        job_id = self._by_address.get(address)
        if job_id is None:
            return None
        job = self._jobs.get(job_id)
        if job is None or job.state in (JobState.FAILED, JobState.CANCELLED):
            return None
        if job.state is JobState.RUNNING and job.cancel_requested:
            return None
        if (
            job.state is JobState.DONE
            and self._result_exists is not None
            and not self._result_exists(job.address)
        ):
            del self._by_address[address]
            return None
        return job

    # -- durability ------------------------------------------------------------

    def _journal_append(self, op: str, **fields: Any) -> None:
        """WAL one transition; a failed journal write degrades, not kills.

        Called under the queue lock so journal record order matches
        transition order (a ``claim`` can never precede its ``submit``
        on disk).  ``OSError`` (disk full, volume gone) is swallowed
        after counting — losing durability must not lose availability.
        """
        if self.journal is None:
            return
        try:
            self.journal.append(op, **fields)
        except OSError as exc:
            telemetry.count("service.journal.errors")
            event_log.emit(
                "service.journal.error", op=op, error=str(exc)
            )

    def _live_entries(self) -> List[Tuple[JournalEntry, bool]]:
        """Journal-shaped snapshot of every non-terminal job."""
        with self._cond:
            live = []
            for job in sorted(
                self._jobs.values(), key=lambda j: j.submitted_at
            ):
                if job.state.terminal:
                    continue
                live.append((
                    JournalEntry(
                        job=job.id,
                        address=job.address,
                        spec=job.spec.to_json(),
                        priority=job.priority,
                        client=job.client,
                        cancel_requested=job.cancel_requested,
                    ),
                    job.state is JobState.RUNNING,
                ))
            return live

    def compact_journal(self) -> None:
        """Atomically rewrite the journal to exactly the live jobs."""
        if self.journal is not None:
            self.journal.compact(self._live_entries())

    def maybe_compact_journal(self) -> None:
        """Rewrite the journal down to live jobs when it has grown.

        Runs *outside* the queue lock (the live snapshot takes it);
        called after every terminal transition.
        """
        if self.journal is None:
            return
        try:
            if self.journal.maybe_compact(self._live_entries):
                telemetry.count("service.journal.compactions")
                event_log.emit(
                    "service.journal.compacted",
                    records=self.journal.stats.records,
                )
        except OSError as exc:
            telemetry.count("service.journal.errors")
            event_log.emit(
                "service.journal.error", op="compact", error=str(exc)
            )

    # -- worker side -----------------------------------------------------------

    def claim(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Pop the highest-priority queued job; block up to ``timeout``.

        Returns ``None`` on timeout.  The claimed job transitions to
        RUNNING under the lock.
        """
        with self._cond:
            while True:
                job = self._pop_queued()
                if job is not None:
                    job.state = JobState.RUNNING
                    job.started_at = time.time()
                    job.emit("started")
                    self._journal_append("claim", job=job.id)
                    self._queued -= 1
                    telemetry.gauge("service.queue.depth", self._queued)
                    telemetry.observe(
                        "service.jobs.wait_seconds",
                        job.started_at - job.submitted_at,
                    )
                    event_log.emit(
                        "service.job.started",
                        job=job.id, experiment=job.spec.experiment,
                        waited_s=round(job.started_at - job.submitted_at, 6),
                    )
                    self._event_cond.notify_all()
                    return job
                if not self._cond.wait(timeout=timeout):
                    return None

    def _pop_queued(self) -> Optional[Job]:
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            job = self._jobs.get(job_id)
            # Cancelled-while-queued jobs stay in the heap (lazy
            # deletion); their admission slot was freed at cancel time.
            if job is not None and job.state is JobState.QUEUED:
                return job
        return None

    # -- lifecycle transitions -------------------------------------------------

    def emit(self, job: Job, event: str, **detail: Any) -> None:
        """Append a progress event to ``job`` under the queue lock.

        Scheduler threads must use this instead of ``job.emit`` — HTTP
        handlers copy ``job.events`` inside :meth:`snapshot` under the
        same lock, which is the Job contract for its mutable fields.
        Streamers blocked in :meth:`wait_events` are woken.
        """
        with self._cond:
            job.emit(event, **detail)
            self._event_cond.notify_all()

    def wait_events(
        self,
        job_id: str,
        after: int = 0,
        timeout: Optional[float] = None,
    ) -> Optional[Tuple[List[dict], bool, bool, int]]:
        """Events of ``job_id`` with ``seq > after``; block up to ``timeout``.

        Returns ``(events, overflow, terminal, dropped)`` — ``overflow``
        is True when the ring buffer has discarded events the cursor
        never saw (``after < dropped``), ``terminal`` when the job is
        settled (no further events will come), ``dropped`` the total
        discard count.  Returns ``None`` for an unknown job.  Blocks
        only while there is nothing to report *and* the job is live; a
        timeout simply returns an empty event list.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._event_cond:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    return None
                fresh = [e for e in job.events if e["seq"] > after]
                overflow = after < job.events_dropped
                terminal = job.state.terminal
                if fresh or overflow or terminal:
                    return [dict(e) for e in fresh], overflow, terminal, (
                        job.events_dropped
                    )
                if deadline is None:
                    self._event_cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._event_cond.wait(remaining):
                        return [], False, False, job.events_dropped

    def _release_address(self, job: Job) -> None:
        """Drop ``job``'s address binding — only if it still owns it.

        A fresh job may have taken over the address while this one was
        settling (cancel-requested running jobs and result-evicted DONE
        jobs stop owning their address before they leave the map); an
        unconditional pop would orphan the successor's binding.
        """
        if self._by_address.get(job.address) == job.id:
            del self._by_address[job.address]

    def finish(self, job: Job, cache_hit: bool = False) -> None:
        with self._cond:
            self._settle(job, JobState.DONE)
            job.cache_hit = cache_hit
            job.emit("finished", cache_hit=cache_hit)
            self._journal_append("done", job=job.id, cache_hit=cache_hit)
            telemetry.count("service.jobs.completed")
            if job.duration is not None:
                telemetry.observe("service.jobs.seconds", job.duration)
            event_log.emit(
                "service.job.finished",
                job=job.id, experiment=job.spec.experiment,
                cache_hit=cache_hit, seconds=job.duration,
            )
            self._event_cond.notify_all()
        self.maybe_compact_journal()

    def fail(self, job: Job, exc: BaseException) -> None:
        with self._cond:
            self._settle(job, JobState.FAILED)
            job.error = str(exc)
            # An executor that caught the real exception in a worker
            # process re-raises it as a carrier exposing ``type_name``;
            # the job record keeps the original type either way.
            job.error_type = (
                getattr(exc, "type_name", None) or type(exc).__name__
            )
            job.emit("failed", error_type=job.error_type, error=job.error)
            self._journal_append(
                "fail", job=job.id, error_type=job.error_type
            )
            self._release_address(job)
            telemetry.count("service.jobs.failed")
            event_log.emit(
                "service.job.failed",
                job=job.id, experiment=job.spec.experiment,
                error_type=job.error_type, error=job.error,
            )
            self._event_cond.notify_all()
        self.maybe_compact_journal()

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel one job; returns it, or ``None`` if unknown.

        A QUEUED job is terminal immediately and its admission slot is
        freed; a RUNNING job only gets ``cancel_requested`` set (and
        journaled, so a crash does not run it again) — the scheduler
        marks it CANCELLED at its next cooperative check.
        Cancelling a terminal job is a no-op.
        """
        settled = False
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.state is JobState.QUEUED:
                settled = True
                self._settle(job, JobState.CANCELLED)
                job.cancel_requested = True
                job.emit("cancelled", while_state="queued")
                self._journal_append("cancel", job=job.id)
                self._queued -= 1
                self._release_address(job)
                telemetry.count("service.jobs.cancelled")
                telemetry.gauge("service.queue.depth", self._queued)
                event_log.emit(
                    "service.job.cancelled", job=job.id, while_state="queued"
                )
            elif job.state is JobState.RUNNING and not job.cancel_requested:
                job.cancel_requested = True
                job.emit("cancel-requested")
                self._journal_append("cancel_request", job=job.id)
                event_log.emit("service.job.cancel_requested", job=job.id)
            self._event_cond.notify_all()
        if settled:
            self.maybe_compact_journal()
        return job

    def mark_cancelled(self, job: Job) -> None:
        """Scheduler-side: a RUNNING job honoured its cancel request."""
        with self._cond:
            if job.state.terminal:
                return
            self._settle(job, JobState.CANCELLED)
            job.emit("cancelled", while_state="running")
            self._journal_append("cancel", job=job.id)
            self._release_address(job)
            telemetry.count("service.jobs.cancelled")
            event_log.emit(
                "service.job.cancelled", job=job.id, while_state="running"
            )
            self._event_cond.notify_all()
        self.maybe_compact_journal()

    def _settle(self, job: Job, state: JobState) -> None:
        """Move a job to a terminal state (caller holds the lock)."""
        job.state = state
        job.finished_at = time.time()
        self._history.append(job.id)
        self._trim_history()

    def _trim_history(self) -> None:
        while len(self._history) > self.max_history:
            oldest_id = self._history.pop(0)
            job = self._jobs.get(oldest_id)
            if job is None or not job.state.terminal:
                continue
            del self._jobs[oldest_id]
            self._release_address(job)
