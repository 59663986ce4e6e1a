"""HTTP JSON API over the sweep service (stdlib ``http.server``).

Routes (see ``docs/SERVICE.md`` for the full reference):

=======  ==========================  ========================================
method   path                        semantics
=======  ==========================  ========================================
POST     ``/jobs``                   submit a JobSpec; 202 queued, 200 when
                                     coalesced into a live job, 429 when the
                                     queue refuses (structured rejection),
                                     400 on an invalid spec
GET      ``/jobs``                   summaries of every known job
GET      ``/jobs/<id>``              full job record incl. progress events
GET      ``/jobs/<id>/events``       live progress: SSE stream (Accept:
                                     text/event-stream or ``?stream=sse``,
                                     resumable via ``Last-Event-ID``) or
                                     JSON long-poll (``?after=N&wait=S``)
GET      ``/jobs/<id>/result``       the stored result payload; 409 + state
                                     while not DONE, 404 for unknown ids
POST     ``/jobs/<id>/cancel``       cancel (also ``DELETE /jobs/<id>``)
GET      ``/healthz``                liveness: version, uptime, queue depth,
                                     per-state job counts, store occupancy
                                     and eviction counters, per-worker
                                     heartbeat ages; 503 when every
                                     scheduler worker is dead
GET      ``/metrics``                the telemetry registry snapshot (JSON),
                                     or Prometheus text exposition with
                                     ``?format=prometheus`` / an Accept
                                     header asking for text
=======  ==========================  ========================================

:class:`SweepService` bundles queue + store + scheduler + HTTP server
into one object with ``start()``/``stop()``/``serve_forever()`` — the
``repro-partial-faults serve`` command is a thin wrapper around it.
The server is a ``ThreadingHTTPServer`` with one thread per connection,
which is why the queue, store, and metrics registry are all
lock-protected.  Connections are HTTP/1.1 and kept alive between
requests until the client closes them or they sit idle for
:data:`_IDLE_TIMEOUT` seconds; :meth:`SweepService.stop` closes the
rest and joins their threads.  Every request body is read before the
answer, so an early answer (a 429, a 404) leaves the connection in
step for the next request.  Answers go out with ``TCP_NODELAY``: an
answer is two writes (head, then body), and with Nagle's algorithm the
second would wait for the client's delayed ACK of the first, about
40 ms per request on a kept connection.

Telemetry is switched on at service start — the service's own counters
(``service.*``, with ``service.http.connections`` and a
``service.http.request_s.<route>`` latency histogram per route) are its
operational dashboard — and the stored reports stay byte-identical to
telemetry-off CLI output because
:func:`~repro.service.jobs.result_payload` strips the timing block.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .. import __version__, telemetry
from ..circuit.network import ensemble_cache_info, propagator_cache_info
from ..errors import QueueFullError, SpecValidationError
from ..telemetry import events as event_log
from ..telemetry import exposition
from .jobs import JobSpec, JobState
from .journal import JobJournal
from .queue import JobQueue
from .scheduler import Scheduler
from .store import ResultStore

__all__ = ["SweepService"]

_JSON = "application/json; charset=utf-8"
_SSE = "text/event-stream; charset=utf-8"

#: Seconds between SSE keepalive comments while a job is idle.  Short
#: enough that a vanished client is detected (write -> BrokenPipeError)
#: before it ties up a handler thread for long.
_SSE_KEEPALIVE = 15.0

#: Seconds a kept-alive connection may sit idle between requests before
#: the server closes it (a client reconnects on its next request).
#: Bounds the handler threads that idle clients hold.
_IDLE_TIMEOUT = 5.0


def _merge_cache_stats(snapshot: Dict[str, Any]) -> None:
    """Fold the solver cache statistics into a metrics snapshot.

    The propagator and ensemble caches keep authoritative lifetime
    statistics of their own (counted whether or not telemetry was
    enabled around a solve), so ``/metrics`` reads them at scrape time
    instead of relying on the ``solver.propagator_*`` event counters.
    Monotonic counts land under ``counters`` (rendered as Prometheus
    ``counter``), the sizes under ``gauges``.
    """
    counters = snapshot.setdefault("counters", {})
    gauges = snapshot.setdefault("gauges", {})
    for prefix, info in (
        ("solver.propagator_cache", propagator_cache_info()),
        ("solver.ensemble_cache", ensemble_cache_info()),
    ):
        counters[f"{prefix}.hits"] = info.hits
        counters[f"{prefix}.misses"] = info.misses
        counters[f"{prefix}.evictions"] = info.evictions
        gauges[f"{prefix}.currsize"] = info.currsize
        gauges[f"{prefix}.maxsize"] = info.maxsize


class _Handler(BaseHTTPRequestHandler):
    """Request handler; all state lives on ``self.server`` (the service)."""

    server_version = "repro-sweep-service/" + __version__
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    # -- plumbing --------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # requests are counted, not printed

    @property
    def service(self) -> "SweepService":
        return self.server.service  # type: ignore[attr-defined]

    def _send(self, status: int, payload: Dict[str, Any],
              extra_headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", _JSON)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        """The request body, ``Content-Length`` bytes.

        A body of unknown length (a malformed ``Content-Length``, a
        ``Transfer-Encoding``) closes the connection after the answer,
        since the next request's start cannot be found.
        """
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0 or "Transfer-Encoding" in self.headers:
            self.close_connection = True
            return b""
        return self.rfile.read(length) if length else b""

    def _route(self) -> Tuple[str, ...]:
        path = self.path.split("?", 1)[0].strip("/")
        return tuple(part for part in path.split("/") if part)

    def _query(self) -> Dict[str, str]:
        """Last-value-wins view of the query string."""
        return {
            key: values[-1]
            for key, values in parse_qs(urlparse(self.path).query).items()
        }

    def handle_one_request(self) -> None:
        """Wait at most :data:`_IDLE_TIMEOUT` seconds for a request line.

        The stdlib closes the connection when the wait times out.  The
        timeout is lifted once the request has arrived (:meth:`_serve`):
        on a socket with a timeout every send and receive polls first,
        and beside a job computing in the same process each poll costs
        another wait for the interpreter lock.  On a 2-core host a
        paced store hit beside cold jobs took about 30 ms with the
        timeout on every operation, 5 ms without.
        """
        self.connection.settimeout(_IDLE_TIMEOUT)
        super().handle_one_request()

    # -- verbs -----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._serve(self._get)

    def do_POST(self) -> None:  # noqa: N802
        self._serve(self._post)

    def do_DELETE(self) -> None:  # noqa: N802
        self._serve(self._delete)

    def _serve(
        self, verb: Callable[[Tuple[str, ...], bytes], Optional[str]]
    ) -> None:
        """Answer one request; time it under its route's histogram.

        The body is read first, whatever the answer: on a kept-alive
        connection an unread body would be parsed as the next request.
        ``verb`` returns the route name, ``None`` for a 404.
        """
        start = time.perf_counter()
        self.connection.settimeout(None)
        telemetry.count("service.http.requests")
        route = verb(self._route(), self._read_body())
        if route is not None:
            telemetry.observe(
                f"service.http.request_s.{route}", time.perf_counter() - start
            )

    def _get(self, parts: Tuple[str, ...], _body: bytes) -> Optional[str]:
        if parts == ("healthz",):
            payload = self.service.health()
            self._send(200 if payload["status"] == "ok" else 503, payload)
            return "healthz"
        if parts == ("metrics",):
            self._get_metrics()
            return "metrics"
        if parts == ("jobs",):
            self._send(200, {"jobs": self.service.queue.list_jobs()})
            return "jobs"
        if len(parts) == 2 and parts[0] == "jobs":
            job = self.service.queue.snapshot(parts[1])
            if job is None:
                self._send(404, {"error": "unknown-job", "id": parts[1]})
            else:
                self._send(200, job)
            return "job"
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            self._get_result(parts[1])
            return "result"
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
            self._get_events(parts[1])
            return "events"
        return self._not_found()

    def _post(self, parts: Tuple[str, ...], body: bytes) -> Optional[str]:
        if parts == ("jobs",):
            self._submit(body)
            return "submit"
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            self._cancel(parts[1])
            return "cancel"
        return self._not_found()

    def _delete(self, parts: Tuple[str, ...], _body: bytes) -> Optional[str]:
        if len(parts) == 2 and parts[0] == "jobs":
            self._cancel(parts[1])
            return "cancel"
        return self._not_found()

    def _not_found(self) -> None:
        self._send(404, {"error": "not-found", "path": self.path})

    # -- handlers --------------------------------------------------------------

    def _get_metrics(self) -> None:
        """JSON snapshot by default; Prometheus text when asked.

        Negotiation: ``?format=prometheus`` wins, else an ``Accept``
        header naming ``text/plain`` or ``openmetrics`` (a Prometheus
        scraper's default) selects the exposition format; JSON remains
        the fallback so existing clients are untouched.
        """
        accept = (self.headers.get("Accept") or "").lower()
        wants_text = (
            self._query().get("format") == "prometheus"
            or "text/plain" in accept
            or "openmetrics" in accept
        )
        snapshot = telemetry.get_metrics().snapshot()
        _merge_cache_stats(snapshot)
        if wants_text:
            self._send_text(
                200,
                exposition.render_prometheus(snapshot),
                exposition.CONTENT_TYPE,
            )
        else:
            self._send(200, snapshot)

    def _get_events(self, job_id: str) -> None:
        """Live progress for one job: SSE stream or JSON long-poll."""
        if self.service.queue.get(job_id) is None:
            self._send(404, {"error": "unknown-job", "id": job_id})
            return
        query = self._query()
        accept = (self.headers.get("Accept") or "").lower()
        if "text/event-stream" in accept or query.get("stream") == "sse":
            self._stream_events(job_id, query)
        else:
            self._poll_events(job_id, query)

    def _event_cursor(self, query: Dict[str, str]) -> int:
        """The resume cursor: ``Last-Event-ID`` header beats ``?after``."""
        raw = self.headers.get("Last-Event-ID") or query.get("after") or "0"
        try:
            return max(0, int(raw))
        except ValueError:
            return 0

    def _poll_events(self, job_id: str, query: Dict[str, str]) -> None:
        """Chunked-polling fallback: one bounded wait, one JSON page."""
        after = self._event_cursor(query)
        try:
            wait_s = min(30.0, max(0.0, float(query.get("wait") or 0.0)))
        except ValueError:
            wait_s = 0.0
        answer = self.service.queue.wait_events(
            job_id, after=after, timeout=wait_s
        )
        if answer is None:  # evicted from history between check and wait
            self._send(404, {"error": "unknown-job", "id": job_id})
            return
        events, overflow, terminal, dropped = answer
        record = self.service.queue.get(job_id)
        # ``next`` is the cursor for the follow-up request; an overflow
        # means seqs up to ``dropped`` are gone, so skip past them.
        next_cursor = events[-1]["seq"] if events else max(after, dropped)
        self._send(200, {
            "id": job_id,
            "events": events,
            "next": next_cursor,
            "overflow": overflow,
            "events_dropped": dropped,
            "terminal": terminal,
            "state": record.state.value if record is not None else None,
        })

    def _stream_events(self, job_id: str, query: Dict[str, str]) -> None:
        """Serve one SSE connection until the job settles.

        Frames carry ``id:`` (the event ``seq``, which is also the
        ``Last-Event-ID`` resume cursor), ``event:`` (the job event
        name), and ``data:`` (the full event object as JSON).  A ring-
        buffer overrun is announced as an id-less ``overflow`` frame;
        idle periods produce comment keepalives.  The stream is
        EOF-terminated (``Connection: close``) — no chunked encoding,
        so a plain ``curl`` renders it as it arrives.
        """
        after = self._event_cursor(query)
        telemetry.count("service.http.event_streams")
        self.send_response(200)
        self.send_header("Content-Type", _SSE)
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        overflow_sent = False
        try:
            while True:
                answer = self.service.queue.wait_events(
                    job_id, after=after, timeout=_SSE_KEEPALIVE
                )
                if answer is None:  # job evicted from history mid-stream
                    self._write_frame(
                        None, "gone", {"id": job_id, "event": "gone"}
                    )
                    return
                events, overflow, terminal, dropped = answer
                if overflow and not overflow_sent:
                    overflow_sent = True
                    self._write_frame(None, "overflow", {
                        "event": "overflow", "dropped": dropped,
                        "after": after,
                    })
                if overflow:
                    # The dropped range is gone for good; move the
                    # cursor past it or wait_events would keep
                    # reporting the same overflow immediately.
                    after = max(after, dropped)
                for event in events:
                    after = event["seq"]
                    self._write_frame(event["seq"], event["event"], event)
                if terminal and not events:
                    return
                if not events and not overflow:
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up

    def _write_frame(
        self, seq: Optional[int], event: str, data: Dict[str, Any]
    ) -> None:
        frame = ""
        if seq is not None:
            frame += f"id: {seq}\n"
        frame += f"event: {event}\n"
        frame += f"data: {json.dumps(data, sort_keys=True)}\n\n"
        self.wfile.write(frame.encode("utf-8"))
        self.wfile.flush()

    def _submit(self, body: bytes) -> None:
        try:
            if not body:
                raise ValueError("empty request body")
            data = json.loads(body.decode("utf-8"))
        except ValueError as exc:
            self._send(400, {"error": "invalid-json", "detail": str(exc)})
            return
        priority = 0
        if isinstance(data, dict) and "priority" in data:
            raw_priority = data.pop("priority")
            if not isinstance(raw_priority, int):
                self._send(400, {
                    "error": "invalid-spec",
                    "detail": "priority must be an integer",
                })
                return
            priority = raw_priority
        try:
            spec = JobSpec.from_json(data)
        except SpecValidationError as exc:
            self._send(400, {"error": "invalid-spec", "detail": str(exc)})
            return
        try:
            job, deduped = self.service.queue.submit(spec, priority=priority)
        except QueueFullError as exc:
            # Backpressure: a structured 429 the client can act on.
            self._send(
                429,
                {
                    "error": "queue-full",
                    "detail": str(exc),
                    "depth": exc.depth,
                    "limit": exc.limit,
                    "retry_after": exc.retry_after,
                },
                extra_headers={"Retry-After": f"{exc.retry_after:g}"},
            )
            return
        payload = self.service.queue.snapshot(job.id) or job.to_json()
        self._send(200 if deduped else 202, {
            "job": payload, "deduped": deduped,
        })

    def _get_result(self, job_id: str) -> None:
        job = self.service.queue.get(job_id)
        if job is None:
            self._send(404, {"error": "unknown-job", "id": job_id})
            return
        if job.state is not JobState.DONE:
            self._send(409, {
                "error": "not-done",
                "id": job_id,
                "state": job.state.value,
                "error_type": job.error_type,
                "detail": job.error,
            })
            return
        payload = self.service.store.get(job.address)
        if payload is None:
            # DONE but evicted/expired meanwhile: the client must
            # resubmit.  The queue checks the store on submission, so
            # the resubmitted spec enqueues a fresh computation instead
            # of coalescing onto this unservable record.
            self._send(410, {
                "error": "result-evicted",
                "id": job_id,
                "address": job.address,
            })
            return
        self._send(200, payload)

    def _cancel(self, job_id: str) -> None:
        job = self.service.queue.cancel(job_id)
        if job is None:
            self._send(404, {"error": "unknown-job", "id": job_id})
            return
        self._send(200, self.service.queue.snapshot(job_id) or {})


class _Server(ThreadingHTTPServer):
    """One handler thread per connection, tracked until it ends."""

    allow_reuse_address = True
    daemon_threads = True
    service: "SweepService"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self._open: Dict[socket.socket, threading.Thread] = {}
        self._open_lock = threading.Lock()

    def process_request(self, request: Any, client_address: Any) -> None:
        telemetry.count("service.http.connections")
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name="repro-service-connection",
            daemon=True,
        )
        with self._open_lock:
            self._open[request] = thread
        thread.start()

    def process_request_thread(
        self, request: Any, client_address: Any
    ) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._open_lock:
                self._open.pop(request, None)

    def close_connections(self) -> None:
        """Shut down every open connection and join its thread.

        Call after the accept loop has stopped.  An idle kept-alive
        connection ends at once: the shutdown turns its thread's wait
        for the next request into end of file.  A thread still
        answering (an SSE stream, a long poll) ends at its next write,
        or is left behind, a daemon, after 5 s.
        """
        with self._open_lock:
            open_now = list(self._open.items())
        for request, _ in open_now:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its client
        deadline = time.monotonic() + 5.0
        for _, thread in open_now:
            thread.join(max(0.0, deadline - time.monotonic()))


class SweepService:
    """Queue + store + scheduler + HTTP server, wired together.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port`/:attr:`url` after construction) — the test suite's
    default.  Use as a context manager for deterministic teardown::

        with SweepService(port=0) as service:
            client = ServiceClient(service.url)
            ...
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        queue_limit: int = 64,
        workers: int = 1,
        store_dir: Optional[str] = None,
        store_max: int = 128,
        store_ttl: Optional[float] = None,
        work_dir: Optional[str] = None,
        enable_telemetry: bool = True,
        trace_export: Optional[str] = None,
        executor: str = "thread",
        drain_timeout: float = 5.0,
    ) -> None:
        self.store = ResultStore(
            root=store_dir, max_entries=store_max, ttl=store_ttl
        )
        #: The job journal (WAL) is the work dir's one file: it is on
        #: exactly when a work dir is given.
        self.journal: Optional[JobJournal] = None
        if work_dir is not None:
            os.makedirs(work_dir, exist_ok=True)
            self.journal = JobJournal(
                os.path.join(work_dir, "jobs.journal")
            )
        self.drain_timeout = drain_timeout
        #: Jobs re-enqueued from the journal at the last start.
        self.recovered_jobs = 0
        self.recovered_in_flight = 0
        self._recovered = False
        # The queue consults the store so a DONE job whose result was
        # evicted/expired stops capturing resubmissions of its address.
        self.queue = JobQueue(
            limit=queue_limit,
            result_exists=self.store.contains,
            journal=self.journal,
        )
        self.scheduler = Scheduler(
            self.queue,
            self.store,
            workers=workers,
            trace_export=trace_export,
            executor=executor,
        )
        self.enable_telemetry = enable_telemetry
        self.started_at: Optional[float] = None
        self._httpd = _Server((host, port), _Handler)
        self._httpd.service = self
        self._serve_thread: Optional[threading.Thread] = None

    # -- addressing ------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "SweepService":
        """Start the scheduler and serve HTTP on a background thread."""
        if self.enable_telemetry:
            telemetry.enable()
        self.started_at = time.time()
        self.recover()
        self.scheduler.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def serve_forever(self) -> None:
        """Foreground variant used by ``repro-partial-faults serve``."""
        if self.enable_telemetry:
            telemetry.enable()
        self.started_at = time.time()
        self.recover()
        self.scheduler.start()
        try:
            self._httpd.serve_forever()
        finally:
            self._httpd.close_connections()
            self._drain()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.close_connections()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None
        self._drain()

    def request_shutdown(self) -> None:
        """Ask a foreground :meth:`serve_forever` to exit and drain.

        Safe to call from a signal handler's dispatch thread: it only
        wakes the serve loop; the drain itself runs in the serve thread
        (``serve_forever``'s ``finally``).
        """
        event_log.emit("service.shutdown_requested")
        threading.Thread(
            target=self._httpd.shutdown,
            name="repro-service-shutdown",
            daemon=True,
        ).start()

    def recover(self) -> None:
        """Replay the job journal and re-enqueue what a crash orphaned.

        Runs before the scheduler starts, so recovered jobs sit queued
        until the workers come up.  Every journaled job was admitted
        before the crash, so it comes back as itself under its own id
        (``JobQueue.submit(recovered=True)``).  The old records stay
        until one atomic compaction to the live set after the last
        re-admission, so a kill during recovery loses no job.  In-flight
        jobs re-run whole.  A job whose cancel
        request was journaled settles cancelled, and so does the earlier
        of two live jobs sharing an address (it ran with a cancel
        request pending).  Idempotent: the CLI runs it early to report
        recovery counts in its banner.
        """
        if self.journal is None or self._recovered:
            return
        self._recovered = True
        entries = self.journal.replay()
        owners = {entry.address: entry.job for entry in entries}
        for entry in entries:
            try:
                spec = JobSpec.from_json(entry.spec)
            except SpecValidationError:
                # A journaled spec this build no longer accepts.
                telemetry.count("service.journal.replay_errors")
                event_log.emit(
                    "service.journal.replay_error", job=entry.job
                )
                continue
            self.queue.submit(
                spec,
                priority=entry.priority,
                recovered=True,
                job_id=entry.job,
            )
            if entry.cancel_requested:
                # Kept on the queued job until the cancel below, so the
                # compaction in between keeps the request journaled.
                self.queue.get(entry.job).cancel_requested = True
            self.recovered_jobs += 1
            if entry.in_flight:
                self.recovered_in_flight += 1
                telemetry.count("service.journal.recovered_inflight")
            else:
                telemetry.count("service.journal.recovered_queued")
        self.queue.compact_journal()
        for entry in entries:
            if entry.cancel_requested or owners[entry.address] != entry.job:
                self.queue.cancel(entry.job)
        if entries:
            event_log.emit(
                "service.journal.recovered",
                jobs=self.recovered_jobs,
                in_flight=self.recovered_in_flight,
            )

    def _drain(self) -> None:
        """Graceful shutdown: finish running jobs, journal the rest.

        Running jobs get ``drain_timeout`` seconds to settle (their
        ``done`` records land in the journal); whatever is still queued
        or stuck stays journaled as live and is recovered by the next
        start.  The ``drain`` marker is informational — replay ignores
        it.
        """
        self.scheduler.stop(timeout=self.drain_timeout)
        if self.journal is None:
            return
        counts = self.queue.counts()
        try:
            self.journal.drain(
                queued=counts.get("queued", 0),
                running=counts.get("running", 0),
            )
        except OSError:
            pass
        self.journal.close()

    def __enter__(self) -> "SweepService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- health ----------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` document.

        ``status`` is ``"ok"`` while at least one scheduler worker
        thread is alive and ``"dead-workers"`` once all have died after
        start — the handler maps the latter to a 503, so a liveness
        probe restarts a service whose workers were lost (queued jobs
        would otherwise wait forever on a listening-but-dead service).
        ``"store-unreadable"`` (also 503) means the store directory
        cannot be listed.
        """
        uptime = (
            time.time() - self.started_at
            if self.started_at is not None else 0.0
        )
        started = self.started_at is not None
        alive = self.scheduler.running
        store_stats = self.store.stats()
        if not self.store.readable():
            status = "store-unreadable"
        elif alive or not started:
            status = "ok"
        else:
            status = "dead-workers"
        return {
            "status": status,
            "durability": {
                "journal": (
                    None if self.journal is None
                    else dict(
                        self.journal.stats.to_json(),
                        path=self.journal.path,
                    )
                ),
                "recovered_jobs": self.recovered_jobs,
                "recovered_in_flight": self.recovered_in_flight,
                "store_readable": self.store.readable(),
            },
            "version": __version__,
            "uptime_seconds": round(uptime, 3),
            "queue": {
                "depth": self.queue.depth(),
                "limit": self.queue.limit,
            },
            "jobs": self.queue.counts(),
            "store": store_stats,
            "workers": self.scheduler.workers,
            "scheduler": {
                "alive": alive,
                "executor": self.scheduler.executor.kind,
                "heartbeat_age_seconds": self.scheduler.heartbeats(),
            },
        }
