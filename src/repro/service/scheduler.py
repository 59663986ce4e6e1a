"""Scheduler: drains the job queue into the fault-analysis engine.

Each worker thread loops ``claim -> serve-from-store-or-run -> settle``:

* a claimed job whose content address is already in the
  :class:`~repro.service.store.ResultStore` finishes immediately as a
  **cache hit** — no solver work at all (``service.store.hits``);
* otherwise the job runs through its *executor*
  (:mod:`repro.service.executors`): in the claiming thread
  (``executor="thread"``, the default) or in a worker process from a
  persistent pool (``executor="process"`` — jobs stop sharing the GIL
  and all mutable process-global state).  Either way the job's runner
  fans out over ``repro.parallel``, which is strict: a failing unit
  fails the job, and a job that a crash interrupted re-runs whole when
  the journal re-admits it (``docs/ROBUSTNESS.md``);
* the finished result is converted to its JSON payload
  (:func:`~repro.service.jobs.result_payload` — inside the worker
  process under the process executor, so only JSON crosses the
  boundary), written to the store, and the job settles DONE — or FAILED
  with the structured error on the job record (the queue frees the
  address for resubmission).

Cancellation is cooperative: the flag is honoured before the run starts
and again before the result is published (a mid-run cancel still stores
the computed result — it is valid and content-addressed — but the job
settles CANCELLED).

Progress events land on ``job.events`` (started, cache-hit, per-unit
progress via the parallel layer's per-thread listener hook — routed
across the process boundary by the executor's event queue when the job
runs remotely — finished/failed/cancelled) and feed the SSE endpoint
live.  Listeners are per thread (per process for worker processes), so
with any number of concurrent workers each job sees only its own units.

Observability: each worker thread stamps a heartbeat every loop
iteration (:meth:`Scheduler.heartbeats` — surfaced by ``/healthz``,
reporting only threads that are still alive), each job runs under a
``service.job`` span whose trace/span ids are recorded on the job
record, worker-process spans are re-parented under it by the parallel
layer (and by the process executor for the job's own worker), and —
when ``trace_export`` names a file — the tracer's new spans are
appended after every job settles, so a long-running ``serve`` exports
incrementally.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Union

from .. import telemetry
from ..telemetry import events as event_log
from .executors import JobOutcome, ProcessJobExecutor, ThreadJobExecutor
from .jobs import Job
from .queue import JobQueue
from .store import ResultStore

__all__ = ["Scheduler"]

#: Executor factories by the ``executor=`` string Scheduler accepts.
_EXECUTOR_KINDS = ("thread", "process")


class Scheduler:
    """Worker threads executing queued jobs against the engine.

    ``workers`` is the number of concurrent *jobs* (each job may itself
    fan out over ``spec.jobs`` worker processes); ``executor`` selects
    where the job's compute runs — ``"thread"`` (in the claiming thread) or
    ``"process"`` (a worker process per job, see
    :mod:`repro.service.executors`).
    """

    def __init__(
        self,
        queue: JobQueue,
        store: ResultStore,
        workers: int = 1,
        poll_interval: float = 0.2,
        trace_export: Optional[str] = None,
        executor: Union[str, ThreadJobExecutor, ProcessJobExecutor] = "thread",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.queue = queue
        self.store = store
        self.workers = workers
        self.poll_interval = poll_interval
        self.trace_export = trace_export
        if isinstance(executor, str):
            if executor not in _EXECUTOR_KINDS:
                raise ValueError(
                    f"executor must be one of {_EXECUTOR_KINDS}, "
                    f"not {executor!r}"
                )
            if executor == "process":
                self.executor = ProcessJobExecutor(queue, workers=workers)
            else:
                self.executor = ThreadJobExecutor(queue)
        else:
            self.executor = executor
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._heartbeats: Dict[str, float] = {}
        self._export_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        if self._threads:
            raise RuntimeError("scheduler already started")
        # A fresh Event per start: a straggler thread from a previous
        # stop() keeps observing *its* signalled event instead of being
        # silently revived by the clear.
        self._stop = threading.Event()
        self.executor.start()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._loop,
                args=(self._stop,),
                name=f"repro-scheduler-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 5.0) -> List[str]:
        """Signal the workers and wait for the in-flight jobs.

        ``timeout`` bounds the **whole** shutdown: all joins share one
        deadline instead of each thread getting the full budget (the old
        behaviour made shutdown take up to ``workers × timeout``).
        Returns the names of workers that failed to stop in time —
        normally empty; a non-empty list means those threads are still
        finishing their in-flight job.  Stale heartbeat entries are
        dropped so a later ``start()`` with fewer workers reports only
        live threads on ``/healthz``.
        """
        self._stop.set()
        deadline = time.monotonic() + timeout
        stragglers: List[str] = []
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                stragglers.append(thread.name)
        self._threads = []
        # Heartbeat hygiene: entries for stopped (or abandoned) workers
        # must not skew /healthz ages after a restart.
        self._heartbeats.clear()
        self.executor.stop(timeout=max(0.0, deadline - time.monotonic()))
        if stragglers:
            telemetry.count("service.scheduler.stuck_workers", len(stragglers))
            event_log.emit(
                "service.scheduler.stop_timeout",
                stragglers=stragglers, timeout_s=timeout,
            )
        return stragglers

    @property
    def running(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    def heartbeats(self) -> Dict[str, float]:
        """Per-worker seconds since the last loop iteration.

        Only workers whose thread is currently alive are reported — a
        stopped or crashed worker's last beat is not an age that can
        grow forever.  A worker inside a long job beats only between
        claims, so a large age on an *alive* thread usually means
        "busy", not "wedged"; ``/healthz`` pairs these ages with thread
        liveness.
        """
        now = time.time()
        live = {
            thread.name for thread in self._threads if thread.is_alive()
        }
        return {
            name: round(now - beat, 3)
            for name, beat in sorted(self._heartbeats.items())
            if name in live
        }

    # -- the worker loop -------------------------------------------------------

    def _loop(self, stop: threading.Event) -> None:
        name = threading.current_thread().name
        while not stop.is_set():
            self._heartbeats[name] = time.time()
            job = self.queue.claim(timeout=self.poll_interval)
            if job is None:
                continue
            with event_log.bind(job=job.id, experiment=job.spec.experiment):
                try:
                    self._execute(job)
                except Exception as exc:  # noqa: BLE001 — never kill the worker
                    self.queue.fail(job, exc)
            self._heartbeats[name] = time.time()
            self._export_trace()

    def _export_trace(self) -> None:
        """Append not-yet-exported spans to ``trace_export`` (if set)."""
        if self.trace_export is None or not telemetry.enabled():
            return
        with self._export_lock:
            try:
                telemetry.get_tracer().export_jsonl(self.trace_export, mode="a")
            except OSError:
                pass  # a full/readonly disk must not kill the worker

    def _execute(self, job: Job) -> None:
        if job.cancel_requested:
            self.queue.mark_cancelled(job)
            return
        cached = self.store.get(job.address)
        if cached is not None:
            self.queue.emit(job, "cache-hit", address=job.address)
            self.queue.finish(job, cache_hit=True)
            return
        if job.recovered:
            # Re-enqueued from the job journal after a restart: it
            # re-runs whole, and no client resubmitted it.
            self.queue.emit(job, "recovered", address=job.address)
        with telemetry.span(
            "service.job",
            experiment=job.spec.experiment, job=job.id,
            executor=self.executor.kind,
        ) as sp:
            if telemetry.enabled():
                # Correlate the job record with the trace: worker spans
                # re-parent under this span (it is the one open in this
                # thread when the fan-out — or the job's own worker
                # process — starts).
                job.trace_id = telemetry.get_tracer().trace_id
                job.root_span = sp.span_id
            outcome = self.executor.run_job(job)
        if outcome.failed:
            self.queue.emit(
                job,
                "error",
                error_type=outcome.error_type,
                traceback=outcome.traceback,
            )
            self.queue.fail(job, _OutcomeError(outcome))
            return
        assert outcome.payload is not None
        self.store.put(job.address, outcome.payload)
        if job.cancel_requested:
            self.queue.mark_cancelled(job)
            return
        self.queue.finish(job, cache_hit=False)


class _OutcomeError(Exception):
    """Re-raises a worker-side job failure with its original type name.

    The real exception object stayed in the worker (or was already
    reduced to a structured record); the job record needs its type and
    message, which :meth:`~repro.service.queue.JobQueue.fail` reads off
    ``error_type``/``str()``.
    """

    def __init__(self, outcome: JobOutcome) -> None:
        super().__init__(outcome.error or outcome.error_type or "job failed")
        self._type = outcome.error_type or "Exception"

    @property
    def type_name(self) -> str:
        return self._type
