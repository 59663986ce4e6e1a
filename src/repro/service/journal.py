"""Write-ahead job journal: the sweep service's crash-recovery log.

Every admitted job and every lifecycle transition is appended to one
JSONL file under ``--work-dir`` *before* the service acts on it, using
the same durability discipline as the unit checkpoints
(:class:`repro.io.JsonlAppender`: ``O_APPEND``, one record per
``write()``, short writes abandoned as a torn tail, the record after one
started on a fresh line) plus an ``fsync`` per record — a journal that can lose acknowledged submissions is not a
journal.

Record shapes (one JSON object per line)::

    {"format": "repro-v1", "kind": "job-journal", "op": "submit",
     "job": "<id>", "address": "<addr>", "spec": {...},
     "priority": 0, "client": null, "recovered": false, "at": ...}
    {... "op": "claim",  "job": "<id>"}
    {... "op": "cancel_request", "job": "<id>"}
    {... "op": "done",   "job": "<id>", "cache_hit": false}
    {... "op": "fail",   "job": "<id>", "error_type": "..."}
    {... "op": "cancel", "job": "<id>"}
    {... "op": "drain",  "queued": N, "running": M}

:meth:`replay` folds the log into the set of jobs that were still live
when the process died: a ``submit`` with no terminal ``done``/``fail``/
``cancel`` is *pending*; one that also saw a ``claim`` was *in flight*
(it resumes from its per-address unit checkpoint, so the crash costs
only the uncheckpointed units); one that also saw a ``cancel_request``
(a cancel asked of a running job) settles cancelled on recovery
instead of running again.  Replay is tolerant the same way
checkpoint loads are: a torn tail line, unknown ops, undecodable
records, and terminal records for unknown jobs are skipped, never
fatal.

The journal is bounded by compaction: :meth:`compact` atomically
rewrites the file to contain only the given live records (temp file +
``fsync`` + ``os.replace``), and :meth:`maybe_compact` applies the
policy — compact once ``compact_every`` records have accumulated and
the live set is smaller.  On restart the service replays the file,
re-admits the live jobs (their ``submit`` records append to the old
ones), and only then compacts to the live set — startup *is* a
compaction, and a kill at any point of it loses no job.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..io import JsonlAppender

__all__ = ["JobJournal", "JournalEntry", "JournalStats"]

_FORMAT = "repro-v1"
_KIND = "job-journal"

#: Ops that settle a job — a journaled job with one of these is gone.
_TERMINAL_OPS = ("done", "fail", "cancel")
#: Every op replay understands; anything else is skipped (forward
#: compatibility: a newer writer's records must not break an older
#: reader's recovery).
_KNOWN_OPS = ("submit", "claim", "cancel_request", "drain") + _TERMINAL_OPS


@dataclass
class JournalEntry:
    """One live job reconstructed by :meth:`JobJournal.replay`."""

    job: str
    address: str
    spec: Dict[str, Any]
    priority: int = 0
    client: Optional[str] = None
    #: True when a ``claim`` record followed the ``submit`` — the job
    #: was running when the process died and will resume from its unit
    #: checkpoint.
    in_flight: bool = False
    #: True when a ``cancel_request`` record followed the ``submit`` —
    #: a cancel was asked of the running job; recovery settles it
    #: cancelled.
    cancel_requested: bool = False


@dataclass
class JournalStats:
    """Lifetime accounting for ``/healthz`` and the tests."""

    records: int = 0
    bytes: int = 0
    compactions: int = 0
    torn: int = 0
    errors: int = 0
    #: Records accumulated since the last compaction — the
    #: journal's "lag" behind its minimal live representation.
    lag: int = 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "records": self.records,
            "bytes": self.bytes,
            "compactions": self.compactions,
            "torn": self.torn,
            "errors": self.errors,
            "lag": self.lag,
        }


class JobJournal:
    """Append-only journal of job lifecycle transitions (thread-safe).

    ``compact_every`` is the record-count threshold of
    :meth:`maybe_compact`.  Every append is ``fsync``-ed, so an
    acknowledged submission survives power loss, not just a process
    crash.
    """

    def __init__(self, path: str, compact_every: int = 256) -> None:
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        self.path = path
        self.compact_every = compact_every
        self.stats = JournalStats()
        self._lock = threading.Lock()
        self._appender = JsonlAppender(path, fsync=True)
        #: Set by a failed append, which may have left a partial line
        #: without its newline: the next record then starts on a fresh
        #: line instead of being glued onto the torn one.  The journal is
        #: its file's only writer, so this cannot split anyone's record.
        self._torn = False

    # -- writing ---------------------------------------------------------------

    def append(self, op: str, **fields: Any) -> None:
        """Journal one transition; raises ``OSError`` on a failed write.

        Callers that must stay alive on a full disk (the job queue)
        wrap this and count ``service.journal.errors`` — a journal
        write failure degrades durability, not availability.
        """
        record = {
            "format": _FORMAT,
            "kind": _KIND,
            "op": op,
            "at": time.time(),
            **fields,
        }
        with self._lock:
            try:
                written = self._appender.append(record, fresh_line=self._torn)
            except OSError:
                self.stats.errors += 1
                self._torn = True
                raise
            self._torn = False
            self.stats.records += 1
            self.stats.lag += 1
            self.stats.bytes += written

    def submit(
        self,
        job: str,
        address: str,
        spec: Dict[str, Any],
        priority: int = 0,
        client: Optional[str] = None,
        recovered: bool = False,
    ) -> None:
        self.append(
            "submit", job=job, address=address, spec=spec,
            priority=priority, client=client, recovered=recovered,
        )

    def claim(self, job: str) -> None:
        self.append("claim", job=job)

    def done(self, job: str, cache_hit: bool = False) -> None:
        self.append("done", job=job, cache_hit=cache_hit)

    def fail(self, job: str, error_type: Optional[str] = None) -> None:
        self.append("fail", job=job, error_type=error_type)

    def cancel(self, job: str) -> None:
        self.append("cancel", job=job)

    def drain(self, queued: int, running: int) -> None:
        """Informational shutdown marker (replay ignores it)."""
        self.append("drain", queued=queued, running=running)

    # -- reading ---------------------------------------------------------------

    def replay(self) -> List[JournalEntry]:
        """The jobs still live in the journal, in submission order.

        Torn tail lines, undecodable records, unknown ops, and terminal
        records for unknown jobs are skipped (counted in
        ``stats.torn``) — recovery never fails on a damaged journal, it
        recovers what it can.  A later ``submit`` for a job id already
        seen replaces the earlier one (recovery's re-admissions do
        this) but keeps its pending cancel request.
        """
        entries: "Dict[str, JournalEntry]" = {}
        order: List[str] = []
        if not os.path.exists(self.path):
            return []
        skipped = 0
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    skipped += 1  # torn tail from a hard interrupt
                    continue
                if (
                    not isinstance(record, dict)
                    or record.get("format") != _FORMAT
                    or record.get("kind") != _KIND
                ):
                    skipped += 1
                    continue
                op = record.get("op")
                if op not in _KNOWN_OPS:
                    skipped += 1
                    continue
                if op == "drain":
                    continue
                job = record.get("job")
                if not isinstance(job, str):
                    skipped += 1
                    continue
                if op == "submit":
                    spec = record.get("spec")
                    address = record.get("address")
                    if not isinstance(spec, dict) or not isinstance(
                        address, str
                    ):
                        skipped += 1
                        continue
                    earlier = entries.get(job)
                    if earlier is None:
                        order.append(job)
                    entries[job] = JournalEntry(
                        job=job,
                        address=address,
                        spec=spec,
                        priority=record.get("priority") or 0,
                        client=record.get("client"),
                        cancel_requested=(
                            earlier is not None and earlier.cancel_requested
                        ),
                    )
                elif op == "claim":
                    entry = entries.get(job)
                    if entry is not None:
                        entry.in_flight = True
                elif op == "cancel_request":
                    entry = entries.get(job)
                    if entry is not None:
                        entry.cancel_requested = True
                elif op in _TERMINAL_OPS:
                    if entries.pop(job, None) is not None:
                        order.remove(job)
        with self._lock:
            self.stats.torn += skipped
        return [entries[job] for job in order]

    # -- bounding --------------------------------------------------------------

    def compact(
        self, live: List[Tuple[JournalEntry, bool]]
    ) -> None:
        """Atomically rewrite the journal to exactly the live jobs.

        ``live`` pairs each entry with its *running* flag; running jobs
        get a ``claim`` record after their ``submit`` so a replay still
        sees them as in flight, and a pending cancel request keeps its
        ``cancel_request`` record.
        """
        records: List[Dict[str, Any]] = []
        now = time.time()
        for entry, running in live:
            records.append({
                "format": _FORMAT, "kind": _KIND, "op": "submit",
                "at": now, "job": entry.job, "address": entry.address,
                "spec": entry.spec, "priority": entry.priority,
                "client": entry.client, "recovered": False,
            })
            if running:
                records.append({
                    "format": _FORMAT, "kind": _KIND, "op": "claim",
                    "at": now, "job": entry.job,
                })
            if entry.cancel_requested:
                records.append({
                    "format": _FORMAT, "kind": _KIND,
                    "op": "cancel_request", "at": now, "job": entry.job,
                })
        with self._lock:
            self._rewrite(records)

    def maybe_compact(
        self,
        live_fn: Callable[[], List[Tuple[JournalEntry, bool]]],
    ) -> bool:
        """Compact when the record count warrants it; returns True if so.

        The policy: at least ``compact_every`` records have accumulated
        since the last rewrite, and the live set is strictly smaller
        than the lag (otherwise rewriting saves nothing).  ``live_fn``
        is only called when the threshold is met — building the live
        snapshot usually means taking the queue lock.
        """
        with self._lock:
            if self.stats.lag < self.compact_every:
                return False
        live = live_fn()
        with self._lock:
            if self.stats.lag <= len(live):
                return False
        self.compact(live)
        return True

    def _rewrite(self, records: List[Dict[str, Any]]) -> None:
        """Replace the file with ``records`` (caller holds the lock)."""
        self._appender.close()
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        _fsync_dir(os.path.dirname(self.path) or ".")
        self._appender = JsonlAppender(self.path, fsync=True)
        self._torn = False
        self.stats.compactions += 1
        self.stats.records = len(records)
        self.stats.lag = len(records)
        try:
            self.stats.bytes = os.path.getsize(self.path)
        except OSError:
            pass

    def size_bytes(self) -> int:
        """Current on-disk size (0 when the file does not exist yet)."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def close(self) -> None:
        with self._lock:
            self._appender.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _fsync_dir(path: str) -> None:
    """Sync a directory so a just-replaced file survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
