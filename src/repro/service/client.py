"""A small stdlib client for the sweep-service HTTP API.

:class:`ServiceClient` speaks HTTP/1.1 over ``http.client`` with JSON
encoding and the service's error conventions: a transport failure
raises :class:`ServiceUnavailableError` (refused, reset, timeout) and a
non-2xx answer :class:`ServiceResponseError` (the HTTP status and the
decoded error body attached).  Each thread that uses a client gets one
persistent connection of its own and keeps it across calls.  A kept
connection the server has closed since its last answer (idle timeout,
restart) fails on reuse; the request is then resent once on a fresh
connection, without a backoff pause.  Every request is safe to resend:
submission is idempotent by content address.

:meth:`wait` polls a job to a terminal state and returns the result
payload; :meth:`wait_or_resubmit` also resubmits the spec once when the
result is gone (410), which recomputes it.  Neither fetches a record it
already holds: a submission answered ``done`` goes straight to the
result, so a store hit through :meth:`submit_and_wait` (and
``repro-partial-faults submit --wait``) is two requests on one
connection, and the terminal record seen last is what it returns.

Live progress: :meth:`stream_events` consumes the SSE endpoint
(``GET /jobs/<id>/events``) on a connection of its own as a generator
of event dicts, resuming with ``Last-Event-ID`` across reconnects;
:meth:`events` is the JSON long-poll twin for environments where a
held-open connection is awkward.  ``submit --wait --follow`` renders
either into a live progress line.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Dict, Iterator, Optional, Tuple, Union
from urllib.parse import urlsplit

from ..errors import ReproError
from .jobs import JobSpec

__all__ = [
    "ServiceClient",
    "ServiceError",
    "ServiceResponseError",
    "ServiceUnavailableError",
]


class ServiceError(ReproError):
    """Base class of client-side service errors."""


class ServiceUnavailableError(ServiceError):
    """The service could not be reached at all (refused, DNS, timeout)."""

    def __init__(self, url: str, reason: str) -> None:
        self.url = url
        self.reason = reason
        super().__init__(f"cannot reach sweep service at {url}: {reason}")


class ServiceResponseError(ServiceError):
    """The service answered with an error status.

    ``status`` is the HTTP code, ``payload`` the decoded JSON error
    document (``{"error": ..., "detail": ...}``; a 429 rejection also
    carries ``depth``/``limit``/``retry_after``).
    """

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        self.status = status
        self.payload = payload
        detail = payload.get("detail") or payload.get("error") or "error"
        super().__init__(f"service returned {status}: {detail}")

    @property
    def retry_after(self) -> Optional[float]:
        """The back-off hint of a 429 rejection, if the payload has one."""
        value = self.payload.get("retry_after")
        return float(value) if isinstance(value, (int, float)) else None


class _PerThread(threading.local):
    """What one thread keeps of a :class:`ServiceClient`."""

    #: The kept connection.
    conn: Optional[http.client.HTTPConnection] = None
    #: The newest job record a submission or status poll answered.
    record: Optional[Dict[str, Any]] = None


class ServiceClient:
    """Talk to one sweep service instance.

    ``connect_retries``/``retry_backoff`` govern how the *blocking*
    conveniences (:meth:`wait`, :meth:`submit_and_wait`,
    :meth:`stream_events`) ride out a transient connection failure —
    refused/reset while the service restarts.  With the job journal on
    the server side, a restart re-enqueues the same job under the same
    id, so a client that keeps polling simply picks the job back up
    mid-recovery.  One-shot calls (:meth:`job`, :meth:`submit`, ...)
    stay fail-fast.

    Threads may share one client: each keeps its own connection and its
    own newest job record (the answer to its last submission or status
    poll), which :meth:`wait` starts from.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 30.0,
        client_id: Optional[str] = None,
        connect_retries: int = 5,
        retry_backoff: float = 0.5,
    ) -> None:
        if connect_retries < 0:
            raise ValueError("connect_retries must be >= 0")
        if retry_backoff <= 0:
            raise ValueError("retry_backoff must be > 0 seconds")
        self.url = url.rstrip("/")
        self.timeout = timeout
        # Sent as ``X-Client-Id`` on every request so the service's
        # rate limiter and per-client quota key on a stable identity
        # instead of the (possibly shared) remote address.
        self.client_id = client_id
        self.connect_retries = connect_retries
        self.retry_backoff = retry_backoff
        parts = urlsplit(self.url)
        self._connection_class = (
            http.client.HTTPSConnection if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._netloc = parts.netloc
        self._prefix = parts.path
        self._local = _PerThread()

    def _retrying(self, call: Any, deadline: Optional[float] = None) -> Any:
        """Run ``call`` riding out up to ``connect_retries`` connection
        failures with linear backoff; ``deadline`` (monotonic) caps the
        waiting so a retry burst cannot overshoot a caller's timeout.
        """
        attempts = 0
        while True:
            try:
                return call()
            except ServiceUnavailableError:
                attempts += 1
                if attempts > self.connect_retries:
                    raise
                pause = min(5.0, self.retry_backoff * attempts)
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise
                    pause = min(pause, remaining)
                time.sleep(pause)

    # -- transport -------------------------------------------------------------

    def _headers(self, **extra: str) -> Dict[str, str]:
        headers = dict(extra)
        if self.client_id:
            headers["X-Client-Id"] = self.client_id
        return headers

    def _exchange(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        accept: str = "application/json",
    ) -> Tuple[http.client.HTTPResponse, bytes]:
        """One request and its whole answer on this thread's connection.

        A reused connection that is reset or closed without an answer
        was closed by the server since its last answer; the request is
        resent once on a fresh connection.
        """
        headers = self._headers(Accept=accept)
        if body is not None:
            headers["Content-Type"] = "application/json"
        for resend in (False, True):
            conn = self._local.conn
            if conn is None:
                conn = self._local.conn = self._connection_class(
                    self._netloc, timeout=self.timeout
                )
            reused = conn.sock is not None
            try:
                conn.request(
                    method, self._prefix + path, body=body, headers=headers
                )
                response = conn.getresponse()
                return response, response.read()
            except (http.client.HTTPException, OSError) as exc:
                conn.close()
                stale = reused and isinstance(exc, ConnectionError)
                if resend or not stale:
                    raise ServiceUnavailableError(self.url, str(exc)) from None

    @staticmethod
    def _check(response: http.client.HTTPResponse, raw: bytes) -> None:
        """Raise :class:`ServiceResponseError` for a non-2xx answer."""
        if 200 <= response.status < 300:
            return
        try:
            payload = json.loads(raw.decode("utf-8"))
        except ValueError:
            payload = {
                "error": "http-error",
                "detail": f"HTTP Error {response.status}: {response.reason}",
            }
        raise ServiceResponseError(response.status, payload)

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        response, raw = self._exchange(method, path, data)
        self._check(response, raw)
        return json.loads(raw.decode("utf-8"))

    def close(self) -> None:
        """Close the calling thread's kept connection.

        A later request opens a new one.  Another thread's connection
        closes when that thread calls this, or when it ends.
        """
        if self._local.conn is not None:
            self._local.conn.close()

    # -- API calls -------------------------------------------------------------

    def submit(
        self,
        spec: Union[JobSpec, Dict[str, Any]],
        priority: int = 0,
    ) -> Dict[str, Any]:
        """POST the spec; returns ``{"job": ..., "deduped": ...}``."""
        body = spec.to_json() if isinstance(spec, JobSpec) else dict(spec)
        if priority:
            body["priority"] = priority
        answer = self._request("POST", "/jobs", body)
        self._local.record = answer["job"]
        return answer

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> Dict[str, Any]:
        return self._request("GET", "/jobs")

    def result(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")

    def metrics_prometheus(self) -> str:
        """The Prometheus text exposition of ``/metrics``."""
        response, raw = self._exchange(
            "GET", "/metrics?format=prometheus", accept="text/plain"
        )
        self._check(response, raw)
        return raw.decode("utf-8")

    def events(
        self,
        job_id: str,
        after: int = 0,
        wait: float = 0.0,
    ) -> Dict[str, Any]:
        """One JSON long-poll page of progress events (``seq > after``)."""
        return self._request(
            "GET", f"/jobs/{job_id}/events?after={int(after)}&wait={wait:g}"
        )

    def stream_events(
        self,
        job_id: str,
        after: int = 0,
        reconnect: int = 3,
    ) -> Iterator[Dict[str, Any]]:
        """Yield progress events live from the SSE endpoint.

        Generates each event's ``data`` object (the overflow marker
        appears as ``{"event": "overflow", ...}``) and returns when the
        stream ends — the server closes it once the job settles.  The
        stream holds a connection of its own, not the thread's kept
        one.  A dropped connection is retried up to ``reconnect``
        times, resuming from the last seen ``seq`` via
        ``Last-Event-ID``; the retries reset whenever the stream makes
        progress.
        """
        attempts = 0
        while True:
            conn = self._connection_class(self._netloc, timeout=self.timeout)
            try:
                conn.request(
                    "GET", self._prefix + f"/jobs/{job_id}/events?stream=sse",
                    headers=self._headers(**{
                        "Accept": "text/event-stream",
                        "Last-Event-ID": str(int(after)),
                    }),
                )
                response = conn.getresponse()
                if not 200 <= response.status < 300:
                    self._check(response, response.read())
                for data in self._parse_sse(response):
                    if isinstance(data.get("seq"), int):
                        after = data["seq"]
                        attempts = 0
                    yield data
                return  # clean EOF: the job is terminal
            except (http.client.HTTPException, OSError) as exc:
                attempts += 1
                if attempts > reconnect:
                    raise ServiceUnavailableError(
                        self.url, str(exc)
                    ) from None
                # Long enough for a restarting server to come back up
                # and finish journal recovery before we give up.
                time.sleep(min(5.0, self.retry_backoff * attempts))
            finally:
                conn.close()

    @staticmethod
    def _parse_sse(response: Any) -> Iterator[Dict[str, Any]]:
        """Decode one SSE byte stream into event ``data`` objects."""
        data_lines = []
        for raw in response:
            line = raw.decode("utf-8").rstrip("\r\n")
            if not line:  # blank line = frame boundary
                if data_lines:
                    try:
                        yield json.loads("\n".join(data_lines))
                    except ValueError:
                        pass  # a malformed frame is dropped, not fatal
                    data_lines = []
                continue
            if line.startswith(":"):
                continue  # keepalive comment
            if line.startswith("data:"):
                data_lines.append(line[len("data:"):].lstrip())

    # -- convenience -----------------------------------------------------------

    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = 600.0,
        poll: float = 0.25,
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; return its result payload.

        A ``done`` record of the job that this thread already holds (the
        answer to its submission) is not fetched again.  Raises
        :class:`ServiceResponseError` if the job FAILED or was
        CANCELLED (the job record rides in the error payload), and
        ``TimeoutError`` if it is still running after ``timeout``
        seconds.
        """
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        held = self._local.record or {}
        record = (
            held if (held.get("id"), held.get("state")) == (job_id, "done")
            else None
        )
        while True:
            if record is None:
                record = self._retrying(lambda: self.job(job_id), deadline)
            self._local.record = record
            state = record.get("state")
            if state == "done":
                return self._retrying(
                    lambda: self.result(job_id), deadline
                )
            if state in ("failed", "cancelled"):
                raise ServiceResponseError(
                    409, {"error": f"job-{state}", "detail": record.get(
                        "error") or f"job {job_id} is {state}",
                        "job": record},
                )
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {state} after {timeout:g} s"
                )
            time.sleep(poll)
            record = None

    def wait_or_resubmit(
        self,
        spec: Union[JobSpec, Dict[str, Any]],
        job_id: str,
        priority: int = 0,
        timeout: Optional[float] = 600.0,
        poll: float = 0.25,
    ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """:meth:`wait` for ``job_id``, resubmitting ``spec`` once on 410.

        Returns ``(record, payload)``: the terminal record, as last seen,
        of the job that served the payload, and the payload.  A 410
        ``result-evicted`` means the job finished but its stored result
        is gone: expired, evicted, or found damaged and quarantined by
        this very fetch.  The store no longer holds the address, so the
        resubmission recomputes it.  A second 410 raises.
        """
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        try:
            payload = self.wait(job_id, timeout=timeout, poll=poll)
            return self._local.record, payload
        except ServiceResponseError as exc:
            if exc.status != 410:
                raise
        submitted = self._retrying(
            lambda: self.submit(spec, priority=priority), deadline
        )
        job_id = submitted["job"]["id"]
        remaining = (
            max(0.0, deadline - time.monotonic())
            if deadline is not None else None
        )
        payload = self.wait(job_id, timeout=remaining, poll=poll)
        return self._local.record, payload

    def submit_and_wait(
        self,
        spec: Union[JobSpec, Dict[str, Any]],
        priority: int = 0,
        timeout: Optional[float] = 600.0,
        poll: float = 0.25,
    ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Submit and block; returns ``(job record, result payload)``.

        The record is the terminal one :meth:`wait_or_resubmit` saw
        last.  A store hit is therefore two requests: the submission,
        answered ``done``, and the result.  The submit retries transient
        connection failures (submission is idempotent — the content
        address dedups a re-POST of the same spec), so the call
        survives a service restart as long as the server journals its
        queue.
        """
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        submitted = self._retrying(
            lambda: self.submit(spec, priority=priority), deadline
        )
        return self.wait_or_resubmit(
            spec, submitted["job"]["id"], priority=priority,
            timeout=timeout, poll=poll,
        )
