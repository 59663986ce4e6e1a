"""A small stdlib client for the sweep-service HTTP API.

:class:`ServiceClient` wraps ``urllib.request`` with JSON encoding and
the service's error conventions: any non-2xx response raises
:class:`ServiceUnavailableError` (connection refused / timeout) or
:class:`ServiceResponseError` (a structured error payload, with the
HTTP status and the decoded body attached).  :meth:`wait` polls a job
to a terminal state and returns the result payload;
:meth:`wait_or_resubmit` also resubmits the spec once when the result
is gone (410), which recomputes it.  :meth:`submit_and_wait` and
``repro-partial-faults submit --wait`` both go through it.

Live progress: :meth:`stream_events` consumes the SSE endpoint
(``GET /jobs/<id>/events``) as a generator of event dicts, resuming
with ``Last-Event-ID`` across reconnects; :meth:`events` is the JSON
long-poll twin for environments where a held-open connection is
awkward.  ``submit --wait --follow`` renders either into a live
progress line.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, Optional, Tuple, Union

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

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        data = None
        headers = self._headers(Accept="application/json")
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read().decode("utf-8"))
            except (ValueError, OSError):
                payload = {"error": "http-error", "detail": str(exc)}
            raise ServiceResponseError(exc.code, payload) from None
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            reason = getattr(exc, "reason", None) or exc
            raise ServiceUnavailableError(self.url, str(reason)) from None
        return payload

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
        return self._request("POST", "/jobs", body)

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
        request = urllib.request.Request(
            self.url + "/metrics?format=prometheus",
            headers=self._headers(Accept="text/plain"),
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise ServiceResponseError(
                exc.code, {"error": "http-error", "detail": str(exc)}
            ) from None
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            reason = getattr(exc, "reason", None) or exc
            raise ServiceUnavailableError(self.url, str(reason)) from None

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
        stream ends — the server closes it once the job settles.  A
        dropped connection is retried up to ``reconnect`` times, resuming
        from the last seen ``seq`` via ``Last-Event-ID``; the retries
        reset whenever the stream makes progress.
        """
        attempts = 0
        while True:
            request = urllib.request.Request(
                self.url + f"/jobs/{job_id}/events?stream=sse",
                headers=self._headers(**{
                    "Accept": "text/event-stream",
                    "Last-Event-ID": str(int(after)),
                }),
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout
                ) as response:
                    for data in self._parse_sse(response):
                        if isinstance(data.get("seq"), int):
                            after = data["seq"]
                            attempts = 0
                        yield data
                return  # clean EOF: the job is terminal
            except urllib.error.HTTPError as exc:
                try:
                    payload = json.loads(exc.read().decode("utf-8"))
                except (ValueError, OSError):
                    payload = {"error": "http-error", "detail": str(exc)}
                raise ServiceResponseError(exc.code, payload) from None
            except (urllib.error.URLError, OSError, TimeoutError) as exc:
                attempts += 1
                if attempts > reconnect:
                    reason = getattr(exc, "reason", None) or exc
                    raise ServiceUnavailableError(
                        self.url, str(reason)
                    ) from None
                # Long enough for a restarting server to come back up
                # and finish journal recovery before we give up.
                time.sleep(min(5.0, self.retry_backoff * attempts))

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

        Raises :class:`ServiceResponseError` if the job FAILED or was
        CANCELLED (the job record rides in the error payload), and
        ``TimeoutError`` if it is still running after ``timeout``
        seconds.
        """
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            record = self._retrying(lambda: self.job(job_id), deadline)
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

    def wait_or_resubmit(
        self,
        spec: Union[JobSpec, Dict[str, Any]],
        job_id: str,
        priority: int = 0,
        timeout: Optional[float] = 600.0,
        poll: float = 0.25,
    ) -> Tuple[str, Dict[str, Any]]:
        """:meth:`wait` for ``job_id``, resubmitting ``spec`` once on 410.

        Returns ``(id of the job that served the payload, payload)``.
        A 410 ``result-evicted`` means the job finished but its stored
        result is gone: expired, evicted, or found damaged and
        quarantined by this very fetch.  The store no longer holds the
        address, so the resubmission recomputes it.  A second 410
        raises.
        """
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        try:
            return job_id, self.wait(job_id, timeout=timeout, poll=poll)
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
        return job_id, self.wait(job_id, timeout=remaining, poll=poll)

    def submit_and_wait(
        self,
        spec: Union[JobSpec, Dict[str, Any]],
        priority: int = 0,
        timeout: Optional[float] = 600.0,
        poll: float = 0.25,
    ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Submit and block; returns ``(job record, result payload)``.

        The submit and the final job fetch retry transient connection
        failures (submission is idempotent — the content address dedups
        a re-POST of the same spec), so the call survives a service
        restart as long as the server journals its queue.
        """
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        submitted = self._retrying(
            lambda: self.submit(spec, priority=priority), deadline
        )
        job_id, payload = self.wait_or_resubmit(
            spec, submitted["job"]["id"], priority=priority,
            timeout=timeout, poll=poll,
        )
        return self._retrying(lambda: self.job(job_id), deadline), payload
