"""Per-client rate limiting and quotas: the token bucket and the 429s."""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.errors import ClientQuotaError
from repro.service import (
    ServiceClient,
    ServiceResponseError,
    SweepService,
    TokenBucketLimiter,
)
from repro.service.jobs import JobSpec
from repro.service.queue import JobQueue

from .conftest import make_report


def _service(**kwargs):
    kwargs.setdefault("port", 0)
    return SweepService(**kwargs)


class TestTokenBucketLimiter:
    def test_burst_then_deny_with_retry_hint(self):
        limiter = TokenBucketLimiter(rate=2.0, burst=2)
        assert limiter.acquire("alice") is None
        assert limiter.acquire("alice") is None
        wait = limiter.acquire("alice")
        # The bucket is empty; the next token accrues in 1/rate seconds.
        assert wait is not None and 0.0 < wait <= 0.5

    def test_bucket_refills_over_time(self):
        limiter = TokenBucketLimiter(rate=50.0, burst=1)
        assert limiter.acquire("alice") is None
        wait = limiter.acquire("alice")
        assert wait is not None
        time.sleep(wait + 0.01)
        assert limiter.acquire("alice") is None

    def test_clients_are_independent(self):
        limiter = TokenBucketLimiter(rate=1.0, burst=1)
        assert limiter.acquire("alice") is None
        assert limiter.acquire("alice") is not None
        assert limiter.acquire("bob") is None  # bob has his own bucket

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TokenBucketLimiter(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucketLimiter(rate=1.0, burst=0)


class TestQueueQuota:
    def test_live_jobs_per_client_bounded(self, register_experiment):
        register_experiment("svc-quota-a")
        register_experiment("svc-quota-b")
        register_experiment("svc-quota-c")
        queue = JobQueue(client_quota=2)
        queue.submit(JobSpec("svc-quota-a"), client="alice")
        queue.submit(JobSpec("svc-quota-b"), client="alice")
        with pytest.raises(ClientQuotaError) as excinfo:
            queue.submit(JobSpec("svc-quota-c"), client="alice")
        assert excinfo.value.client == "alice"
        assert excinfo.value.live == 2 and excinfo.value.quota == 2
        # Another client — and an anonymous submission — are unaffected.
        queue.submit(JobSpec("svc-quota-c"), client="bob")

    def test_anonymous_submissions_bypass_quota(self, register_experiment):
        register_experiment("svc-quota-anon")
        register_experiment("svc-quota-anon2")
        queue = JobQueue(client_quota=1)
        queue.submit(JobSpec("svc-quota-anon"))
        queue.submit(JobSpec("svc-quota-anon2"))  # no client, no quota

    def test_duplicate_submission_coalesces_before_quota(
        self, register_experiment
    ):
        # Resubmitting the identical spec dedups onto the live job, so
        # it must not burn quota (it adds no load).
        register_experiment("svc-quota-dup")
        queue = JobQueue(client_quota=1)
        job, _ = queue.submit(JobSpec("svc-quota-dup"), client="alice")
        again, deduped = queue.submit(JobSpec("svc-quota-dup"), client="alice")
        assert deduped and again is job


class TestRateLimitOverHTTP:
    def test_burst_429_retry_after_then_success(self, register_experiment):
        register_experiment("svc-rate")
        # One token per 0.5 s: the three submissions below land well
        # inside one refill interval even on a loaded host.
        with _service(rate_limit=2.0, rate_burst=2) as service:
            client = ServiceClient(service.url, client_id="alice")
            client.submit({"experiment": "svc-rate"})
            client.submit({"experiment": "svc-rate"})
            with pytest.raises(ServiceResponseError) as excinfo:
                client.submit({"experiment": "svc-rate"})
            assert excinfo.value.status == 429
            assert excinfo.value.payload["error"] == "rate-limited"
            retry_after = excinfo.value.retry_after
            assert retry_after is not None and retry_after > 0
            time.sleep(retry_after + 0.05)
            answer = client.submit({"experiment": "svc-rate"})
            assert answer["deduped"] is True  # back in business
            snapshot = client.metrics()
            assert snapshot["counters"]["service.ratelimit.rejected"] >= 1
            assert snapshot["counters"]["service.ratelimit.allowed"] >= 3

    def test_429_carries_retry_after_header(self, register_experiment):
        register_experiment("svc-rate-hdr")
        with _service(rate_limit=0.5, rate_burst=1) as service:
            body = json.dumps({"experiment": "svc-rate-hdr"}).encode()
            headers = {
                "Content-Type": "application/json",
                "X-Client-Id": "alice",
            }
            request = urllib.request.Request(
                service.url + "/jobs", data=body, headers=headers,
                method="POST",
            )
            urllib.request.urlopen(request, timeout=10).close()
            request = urllib.request.Request(
                service.url + "/jobs", data=body, headers=headers,
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 429
            assert float(excinfo.value.headers["Retry-After"]) > 0

    def test_early_answers_leave_a_kept_connection_in_step(
        self, register_experiment
    ):
        # The 429 and the 404 are answered before the body would be
        # parsed.  An unread body stays in the socket, and the next
        # request on the connection is parsed from it (a 400 page).
        register_experiment("svc-rate-conn")
        body = json.dumps({"experiment": "svc-rate-conn"})
        headers = {"Content-Type": "application/json"}
        with _service(rate_limit=0.01, rate_burst=1) as service:
            conn = http.client.HTTPConnection(
                service.host, service.port, timeout=10
            )
            answers = []
            for method, path, data in (
                ("POST", "/jobs", body),
                ("POST", "/jobs", body),
                ("GET", "/healthz", None),
                ("POST", "/teapot", body),
                ("GET", "/healthz", None),
            ):
                conn.request(method, path, body=data, headers=headers)
                response = conn.getresponse()
                answers.append((response.status, json.loads(response.read())))
            conn.close()
        assert [status for status, _ in answers] == [202, 429, 200, 404, 200]
        assert answers[2][1]["status"] == answers[4][1]["status"] == "ok"

    def test_other_clients_have_their_own_bucket(self, register_experiment):
        register_experiment("svc-rate-iso")
        with _service(rate_limit=0.5, rate_burst=1) as service:
            alice = ServiceClient(service.url, client_id="alice")
            bob = ServiceClient(service.url, client_id="bob")
            alice.submit({"experiment": "svc-rate-iso"})
            with pytest.raises(ServiceResponseError):
                alice.submit({"experiment": "svc-rate-iso"})
            # Bob's bucket is untouched by Alice's exhaustion.
            answer = bob.submit({"experiment": "svc-rate-iso"})
            assert answer["deduped"] in (True, False)

    def test_healthz_reports_the_limiter(self, register_experiment):
        register_experiment("svc-rate-health")
        with _service(rate_limit=5.0, rate_burst=3) as service:
            client = ServiceClient(service.url, client_id="alice")
            client.submit({"experiment": "svc-rate-health"})
            health = client.healthz()
            assert health["ratelimit"] == {
                "rate": 5.0, "burst": 3, "clients": 1,
            }
            assert health["scheduler"]["executor"] == "thread"

    def test_unlimited_by_default(self, register_experiment):
        register_experiment("svc-rate-off")
        with _service() as service:
            client = ServiceClient(service.url, client_id="alice")
            for _ in range(5):
                client.submit({"experiment": "svc-rate-off"})
            assert client.healthz()["ratelimit"] is None


class TestQuotaOverHTTP:
    def test_quota_429_frees_up_when_the_job_finishes(
        self, register_experiment
    ):
        release = threading.Event()

        def blocker(spec):
            release.wait(15)
            return SimpleNamespace(report=make_report("blocker"))

        register_experiment("svc-hold", runner=blocker)
        register_experiment("svc-more")
        try:
            with _service(client_quota=1) as service:
                alice = ServiceClient(service.url, client_id="alice")
                bob = ServiceClient(service.url, client_id="bob")
                held = alice.submit({"experiment": "svc-hold"})
                with pytest.raises(ServiceResponseError) as excinfo:
                    alice.submit({"experiment": "svc-more"})
                assert excinfo.value.status == 429
                assert excinfo.value.payload["error"] == "quota-exceeded"
                assert excinfo.value.payload["quota"] == 1
                assert excinfo.value.retry_after is not None
                # Bob is not punished for Alice's backlog.
                bob.submit({"experiment": "svc-more"})
                release.set()
                alice.wait(held["job"]["id"], timeout=10)
                # Alice's slot is free again once her job settled.
                alice.submit({"experiment": "svc-more"})
        finally:
            release.set()
