"""Job executors: where a claimed sweep-service job actually runs.

The scheduler's worker threads claim jobs and settle them, but they
delegate the compute itself to an *executor*:

* :class:`ThreadJobExecutor` runs ``profile.run(...)`` in the claiming
  scheduler thread — the original PR-5 behaviour.  Concurrent jobs
  share the process (and the GIL), which is fine for jobs that fan out
  over ``spec.jobs`` worker processes themselves, and required for the
  in-process stub experiments the test suite registers.
* :class:`ProcessJobExecutor` runs each job in a worker **process**
  from a persistent :class:`~concurrent.futures.ProcessPoolExecutor`
  (``repro.parallel``'s fan-out substrate, one level up): jobs stop
  sharing a GIL *and* stop sharing mutable process-global state — the
  per-job progress hooks are exact by construction because each job
  owns its interpreter.

Both executors return a :class:`JobOutcome`, a plain picklable record
of what happened: the stored result payload (already rendered by
:func:`~repro.service.jobs.result_payload`, so only JSON crosses the
process boundary), a structured error, and — for the process executor —
the worker's telemetry snapshot and span-tree state, which the parent
merges and re-parents under the job's ``service.job`` span exactly like
``parallel.py`` does for fan-out units.

Progress events cross the process boundary over one shared
``multiprocessing`` queue (inherited by the pool workers at fork/spawn
time through the pool initializer): workers tag each fan-out milestone
with their job id, and a drainer thread in the parent routes it to the
right job's event ring via :meth:`~repro.service.queue.JobQueue.emit` —
SSE streaming, long-polling, and ``submit --wait --follow`` behave
identically under either executor.

Recovery is at the job level: a worker process that dies mid-job (OOM
kill, segfault) surfaces as ``BrokenProcessPool``; the executor rebuilds
the pool and re-runs the whole job in process via the thread executor
(``service.executor.pool_breaks`` / ``service.executor.fallbacks``).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import traceback
from concurrent.futures import ProcessPoolExecutor, wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, Optional

from .. import telemetry
from ..parallel import add_progress_listener, remove_progress_listener
from ..telemetry import events as event_log
from .jobs import Job, JobSpec, result_payload
from .queue import JobQueue

__all__ = [
    "JobOutcome",
    "ProcessJobExecutor",
    "ThreadJobExecutor",
]


@dataclass
class JobOutcome:
    """What one executed job produced, in picklable form.

    Exactly one of ``payload`` (the JSON result document) and
    ``error_type`` is set.  ``metrics`` and ``trace_state`` are only
    populated by worker processes; the parent folds them home.
    """

    payload: Optional[Dict[str, Any]] = None
    error_type: Optional[str] = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    metrics: Optional[Dict[str, Any]] = None
    trace_state: Optional[Dict[str, Any]] = None

    @property
    def failed(self) -> bool:
        return self.error_type is not None


class ThreadJobExecutor:
    """Run each job in the claiming scheduler thread (PR-5 behaviour)."""

    kind = "thread"

    def __init__(self, queue: JobQueue) -> None:
        self.queue = queue

    def start(self) -> None:  # lifecycle symmetry with the process executor
        pass

    def stop(self, timeout: float = 5.0) -> None:
        pass

    def run_job(self, job: Job) -> JobOutcome:
        spec = job.spec
        profile = spec.profile()

        def on_progress(kind: str, info: dict) -> None:
            # Fan-out unit completions become job progress events, which
            # feed GET /jobs/<id>/events live.
            self.queue.emit(job, "progress", kind=kind, **info)

        add_progress_listener(on_progress)
        try:
            result = profile.run(spec)
        except Exception as exc:  # noqa: BLE001 — report, don't crash
            return JobOutcome(
                error_type=type(exc).__name__,
                error=str(exc),
                traceback=traceback.format_exc(limit=8),
            )
        finally:
            remove_progress_listener(on_progress)
        return JobOutcome(payload=result_payload(spec, result))


# -- the process executor ------------------------------------------------------

#: Worker-process side of the progress channel, installed by the pool
#: initializer.  One queue per executor, shared by all its workers.
_WORKER_EVENTS: Optional[Any] = None


def _pool_initializer(event_queue: Any) -> None:
    global _WORKER_EVENTS
    _WORKER_EVENTS = event_queue
    # A terminal Ctrl-C is delivered to the whole foreground process
    # group; the parent owns the shutdown (``Scheduler.stop`` closes the
    # pool), so workers ignore SIGINT instead of dying mid-job with a
    # KeyboardInterrupt traceback.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # The serve CLI installs a SIGTERM drain handler; a forked
        # worker inherits it, and on the worker it would swallow the
        # signal (shutting down an HTTP server that is not serving).
        # Workers must just die on TERM — including the parent-death
        # TERM below.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # non-main thread / exotic platforms
        pass
    # Die with the parent.  A SIGKILLed service cannot clean up its
    # pool; without this the orphaned worker sits blocked on the call
    # queue forever (the crash-recovery tests would strand one per
    # kill).  Linux-only (prctl); elsewhere orphans exit with the OS
    # session instead.
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGTERM)  # 1 = PR_SET_PDEATHSIG
    except (OSError, AttributeError, ValueError):  # pragma: no cover
        pass


def _warmup(_: int) -> int:
    """No-op task used to fork the pool's workers eagerly at start."""
    return os.getpid()


def _process_job_worker(
    job_id: str,
    spec_json: Dict[str, Any],
    telemetry_on: bool,
) -> JobOutcome:
    """Run one job inside a pool worker; everything returned must pickle.

    The worker's telemetry is reset before and disabled after the job so
    the shipped snapshot/span state covers exactly this job (workers are
    reused across jobs).
    """
    spec = JobSpec.from_json(spec_json)
    profile = spec.profile()
    event_queue = _WORKER_EVENTS

    def on_progress(kind: str, info: dict) -> None:
        if event_queue is None:
            return
        try:
            event_queue.put((job_id, kind, info))
        except Exception:  # noqa: BLE001 — progress must not fail the job
            pass

    add_progress_listener(on_progress)
    if telemetry_on:
        telemetry.reset()
        telemetry.enable()
    outcome = JobOutcome()
    try:
        with event_log.bind(
            job=job_id, experiment=spec.experiment, worker_pid=os.getpid()
        ):
            try:
                with telemetry.span(
                    "service.job.worker",
                    experiment=spec.experiment, job=job_id, pid=os.getpid(),
                ):
                    result = profile.run(spec)
                outcome.payload = result_payload(spec, result)
            except Exception as exc:  # noqa: BLE001 — ship it home structured
                outcome.error_type = type(exc).__name__
                outcome.error = str(exc)
                outcome.traceback = traceback.format_exc(limit=8)
    finally:
        remove_progress_listener(on_progress)
        if telemetry_on:
            telemetry.disable()
            outcome.metrics = telemetry.get_metrics().snapshot()
            outcome.trace_state = telemetry.get_tracer().export_state()
        if event_queue is not None:
            # Flush marker: everything this job put on the queue sits
            # before it, so once the parent's drainer sees it the job's
            # progress trail is complete and the job may settle.
            try:
                event_queue.put((job_id, None, None))
            except Exception:  # noqa: BLE001 — flushing is best-effort
                pass
    return outcome


class ProcessJobExecutor:
    """Run each job in a worker process from a persistent pool.

    ``workers`` pool processes back the scheduler's ``workers`` claiming
    threads one-to-one: each thread blocks on its job's future while the
    drainer thread routes the worker's progress events onto the job's
    event ring.  The pool is forked eagerly at :meth:`start` — before
    the HTTP front door opens — so workers never inherit a heavily
    threaded parent mid-request.

    A ``BrokenProcessPool`` (worker OOM-killed or segfaulted) is
    recovered at the job level: the pool is rebuilt for subsequent jobs
    and the broken job re-runs whole, in process, through a fallback
    :class:`ThreadJobExecutor`.
    """

    kind = "process"

    def __init__(
        self,
        queue: JobQueue,
        workers: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError("executor workers must be >= 1")
        self.queue = queue
        self.workers = workers
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover — non-POSIX fallback
            self._ctx = multiprocessing.get_context()
        self._fallback = ThreadJobExecutor(queue)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._events: Optional[Any] = None
        self._drainer: Optional[threading.Thread] = None
        self._active: Dict[str, Job] = {}
        self._flushed: Dict[str, threading.Event] = {}
        self._active_lock = threading.Lock()
        self._pool_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------------

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self._ctx,
            initializer=_pool_initializer,
            initargs=(self._events,),
        )

    def start(self) -> None:
        if self._pool is not None:
            raise RuntimeError("executor already started")
        self._events = self._ctx.Queue()
        self._pool = self._make_pool()
        # Fork all workers now (spawning is per-submit and count-based,
        # so N trivial tasks materialize N processes).
        futures_wait(
            [self._pool.submit(_warmup, n) for n in range(self.workers)],
            timeout=30.0,
        )
        self._drainer = threading.Thread(
            target=self._drain_events,
            name="repro-executor-events",
            daemon=True,
        )
        self._drainer.start()

    def stop(self, timeout: float = 5.0) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            # Idle workers exit immediately; a worker still inside a job
            # finishes it first (its scheduler thread is reported as a
            # straggler by Scheduler.stop when that takes too long).
            pool.shutdown(wait=False, cancel_futures=True)
        if self._drainer is not None and self._events is not None:
            self._events.put((None, "stop", None))
            self._drainer.join(timeout=timeout)
            self._drainer = None
        self._events = None

    # -- the progress channel --------------------------------------------------

    def _drain_events(self) -> None:
        """Route worker-tagged progress events to their job's ring."""
        assert self._events is not None
        while True:
            try:
                job_id, kind, info = self._events.get()
            except (EOFError, OSError):  # queue torn down under us
                return
            if job_id is None:  # stop sentinel
                return
            if kind is None:  # flush marker: this job's events are routed
                with self._active_lock:
                    flushed = self._flushed.get(job_id)
                if flushed is not None:
                    flushed.set()
                continue
            with self._active_lock:
                job = self._active.get(job_id)
            if job is None:
                continue  # stale event from a job that already settled
            try:
                self.queue.emit(job, "progress", kind=kind, **(info or {}))
            except Exception:  # noqa: BLE001 — routing must not die
                pass

    # -- execution -------------------------------------------------------------

    def run_job(self, job: Job) -> JobOutcome:
        flushed = threading.Event()
        with self._active_lock:
            self._active[job.id] = job
            self._flushed[job.id] = flushed
        try:
            try:
                with self._pool_lock:
                    pool = self._pool
                    if pool is None:
                        raise RuntimeError("executor is not running")
                    future = pool.submit(
                        _process_job_worker,
                        job.id,
                        job.spec.to_json(),
                        telemetry.enabled(),
                    )
                outcome = future.result()
                # The future resolving does not mean the drainer caught
                # up: wait for the worker's flush marker so every
                # progress event lands on the ring before the job
                # settles (a dead worker never sends one — bounded wait).
                flushed.wait(timeout=2.0)
            except BrokenProcessPool:
                return self._recover(job, pool)
        finally:
            with self._active_lock:
                self._active.pop(job.id, None)
                self._flushed.pop(job.id, None)
        self._adopt(outcome)
        return outcome

    def _recover(
        self,
        job: Job,
        broken: Optional[ProcessPoolExecutor],
    ) -> JobOutcome:
        """A worker process died mid-job: rebuild the pool, then re-run
        the whole job in process."""
        telemetry.count("service.executor.pool_breaks")
        event_log.emit("service.executor.pool_broken", job=job.id)
        self.queue.emit(job, "progress", kind="executor.pool-broken")
        with self._pool_lock:
            if self._pool is broken and broken is not None:
                try:
                    broken.shutdown(wait=False, cancel_futures=True)
                except Exception:  # noqa: BLE001 — already broken
                    pass
                self._pool = self._make_pool()
        telemetry.count("service.executor.fallbacks")
        event_log.emit("service.executor.fallback", job=job.id)
        self.queue.emit(job, "progress", kind="executor.fallback")
        return self._fallback.run_job(job)

    def _adopt(self, outcome: JobOutcome) -> None:
        """Fold the worker's telemetry home, under the job's open span."""
        if not telemetry.enabled():
            return
        if outcome.metrics:
            telemetry.get_metrics().merge_snapshot(outcome.metrics)
        if outcome.trace_state:
            telemetry.get_tracer().adopt_state(
                outcome.trace_state, telemetry.current_context()
            )
