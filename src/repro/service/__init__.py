"""Sweep service: a job queue, result store, and HTTP API over the engine.

The experiment harnesses are one-shot CLI processes; this package turns
them into a long-running *service* (the DAVOS-style job-manager /
result-database / front-end split — see ``docs/SERVICE.md``):

* :mod:`repro.service.jobs` — :class:`JobSpec` with a canonical content
  address derived from the resolved parameters and the exact sweep
  grids (``SweepGrid.signature()``), so identical submissions are the
  same computation;
* :mod:`repro.service.queue` — a bounded priority :class:`JobQueue`
  with dedup, backpressure (a structured ``queue-full`` 429 once
  ``limit`` jobs are queued), and cancellation;
* :mod:`repro.service.scheduler` — :class:`Scheduler` workers draining
  the queue into the strict ``repro.parallel`` fan-out;
* :mod:`repro.service.executors` — the pluggable compute step:
  :class:`ThreadJobExecutor` runs each claimed job on the scheduler's
  own worker thread, :class:`ProcessJobExecutor` isolates it in a
  worker process with progress/telemetry routed back over a queue;
* :mod:`repro.service.store` — a content-addressed :class:`ResultStore`
  with TTL and LRU eviction and sha256 payload digests, serving
  repeated specs without recomputation; a damaged document is
  quarantined, and the client's one resubmission recomputes it;
* :mod:`repro.service.journal` — :class:`JobJournal`, the append-only
  write-ahead log of job transitions that makes the queue restart-safe:
  replayed on start, pending and in-flight jobs re-enqueue, and an
  interrupted job re-runs whole (the one recovery level);
* :mod:`repro.service.api` / :mod:`repro.service.client` —
  :class:`SweepService` (a ``ThreadingHTTPServer`` JSON API) and
  :class:`ServiceClient`, wired into the CLI as
  ``repro-partial-faults serve`` / ``repro-partial-faults submit``.

Everything is stdlib-only (``http.server``, ``urllib``, ``threading``),
matching the repository's no-new-dependency policy.
"""

from .api import SweepService
from .client import (
    ServiceClient,
    ServiceError,
    ServiceResponseError,
    ServiceUnavailableError,
)
from .jobs import (
    ExperimentProfile,
    Job,
    JobSpec,
    JobState,
    SERVICE_EXPERIMENTS,
    result_payload,
)
from .executors import JobOutcome, ProcessJobExecutor, ThreadJobExecutor
from .journal import JobJournal, JournalEntry
from .queue import JobQueue
from .scheduler import Scheduler
from .store import ResultStore

__all__ = [
    "ExperimentProfile",
    "Job",
    "JobJournal",
    "JobOutcome",
    "JobQueue",
    "JobSpec",
    "JobState",
    "JournalEntry",
    "ProcessJobExecutor",
    "ResultStore",
    "SERVICE_EXPERIMENTS",
    "Scheduler",
    "ServiceClient",
    "ServiceError",
    "ServiceResponseError",
    "ServiceUnavailableError",
    "SweepService",
    "ThreadJobExecutor",
    "result_payload",
]
