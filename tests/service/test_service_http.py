"""End-to-end tests of the HTTP API (real sockets, real threads)."""

import json
import os
import threading
import time
from types import SimpleNamespace

import pytest

from repro import __version__
from repro.inject import StoreCorruptor
from repro.service import (
    ServiceClient,
    ServiceResponseError,
    ServiceUnavailableError,
    SweepService,
)

from .conftest import make_report


def _service(**kwargs):
    kwargs.setdefault("port", 0)  # ephemeral port; tests never collide
    return SweepService(**kwargs)


def _wait_state(client, job_id, state, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = client.job(job_id)
        if record["state"] == state:
            return record
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached {state}")


class TestDedupOverHTTP:
    def test_two_identical_posts_one_computation(self, register_experiment):
        calls = register_experiment("svc-http")
        with _service() as service:
            client = ServiceClient(service.url)
            first = client.submit({"experiment": "svc-http"})
            second = client.submit({"experiment": "svc-http"})
            assert second["deduped"] is True
            assert second["job"]["id"] == first["job"]["id"]
            assert second["job"]["address"] == first["job"]["address"]
            payload_a = client.wait(first["job"]["id"], timeout=10)
            payload_b = client.wait(second["job"]["id"], timeout=10)
            record = client.job(first["job"]["id"])
        assert payload_a == payload_b
        assert payload_a["address"] == first["job"]["address"]
        assert record["submissions"] == 2
        assert calls.count == 1  # the acceptance criterion: ONE computation

    def test_execution_hints_dedupe_too(self, register_experiment):
        calls = register_experiment("svc-hints")
        with _service() as service:
            client = ServiceClient(service.url)
            first = client.submit({"experiment": "svc-hints", "jobs": 1})
            second = client.submit({"experiment": "svc-hints", "jobs": 4})
            assert second["deduped"] is True
            client.wait(first["job"]["id"], timeout=10)
        assert calls.count == 1


class TestBackpressureOverHTTP:
    def test_full_queue_is_a_structured_429(self, register_experiment):
        release = threading.Event()

        def blocker(spec, resilience):
            release.wait(10)
            return SimpleNamespace(report=make_report("blocker"))

        register_experiment("svc-block", runner=blocker)
        filler_calls = register_experiment("svc-fill")
        register_experiment("svc-extra")
        try:
            with _service(queue_limit=1, workers=1) as service:
                client = ServiceClient(service.url)
                blocked = client.submit({"experiment": "svc-block"})
                # Wait until the worker claims it: RUNNING jobs hold no
                # admission slot, so exactly one more may queue.
                _wait_state(client, blocked["job"]["id"], "running")
                filler = client.submit({"experiment": "svc-fill"})
                with pytest.raises(ServiceResponseError) as err:
                    client.submit({"experiment": "svc-extra"})
                assert err.value.status == 429
                payload = err.value.payload
                assert payload["error"] == "queue-full"
                assert payload["depth"] == 1 and payload["limit"] == 1
                assert payload["retry_after"] > 0
                # Cancelling the queued filler frees its slot ...
                cancelled = client.cancel(filler["job"]["id"])
                assert cancelled["state"] == "cancelled"
                # ... so the rejected spec is now admitted.
                third = client.submit({"experiment": "svc-extra"})
                assert third["deduped"] is False
                release.set()
                client.wait(blocked["job"]["id"], timeout=10)
                client.wait(third["job"]["id"], timeout=10)
        finally:
            release.set()
        assert filler_calls.count == 0  # the cancelled job never ran


class TestErrorsOverHTTP:
    def test_unknown_job_is_404(self):
        with _service() as service:
            client = ServiceClient(service.url)
            with pytest.raises(ServiceResponseError) as err:
                client.job("nope")
            assert err.value.status == 404
            with pytest.raises(ServiceResponseError) as err:
                client.result("nope")
            assert err.value.status == 404
            with pytest.raises(ServiceResponseError) as err:
                client.cancel("nope")
            assert err.value.status == 404

    def test_unknown_route_is_404(self):
        with _service() as service:
            client = ServiceClient(service.url)
            with pytest.raises(ServiceResponseError) as err:
                client._request("GET", "/teapot")
            assert err.value.status == 404

    def test_invalid_spec_is_400(self):
        with _service() as service:
            client = ServiceClient(service.url)
            with pytest.raises(ServiceResponseError) as err:
                client.submit({"experiment": "no-such-experiment"})
            assert err.value.status == 400
            assert err.value.payload["error"] == "invalid-spec"
            with pytest.raises(ServiceResponseError) as err:
                client.submit({"experiment": "table1", "priority": "high"})
            assert err.value.status == 400

    def test_string_boolean_is_400(self):
        # "false" must not be truthy: a string flag is refused outright
        # instead of switching the marginal check on.
        with _service() as service:
            client = ServiceClient(service.url)
            with pytest.raises(ServiceResponseError) as err:
                client.submit(
                    {"experiment": "table1", "check_marginal": "false"}
                )
            assert err.value.status == 400
            assert err.value.payload["error"] == "invalid-spec"

    def test_result_before_done_is_409(self, register_experiment):
        def exploding(spec, resilience):
            raise RuntimeError("boom")

        register_experiment("svc-fail", runner=exploding)
        with _service() as service:
            client = ServiceClient(service.url)
            submitted = client.submit({"experiment": "svc-fail"})
            job_id = submitted["job"]["id"]
            with pytest.raises(ServiceResponseError):
                client.wait(job_id, timeout=10)  # FAILED surfaces here
            with pytest.raises(ServiceResponseError) as err:
                client.result(job_id)
            assert err.value.status == 409
            assert err.value.payload["state"] == "failed"
            assert err.value.payload["error_type"] == "RuntimeError"

    def test_evicted_result_is_410(self, register_experiment):
        register_experiment("svc-ev1")
        register_experiment("svc-ev2")
        with _service(store_max=1) as service:
            client = ServiceClient(service.url)
            first, _ = client.submit_and_wait(
                {"experiment": "svc-ev1"}, timeout=10
            )
            client.submit_and_wait({"experiment": "svc-ev2"}, timeout=10)
            with pytest.raises(ServiceResponseError) as err:
                client.result(first["id"])
            assert err.value.status == 410
            assert err.value.payload["error"] == "result-evicted"

    def test_unreachable_service(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=2.0)
        with pytest.raises(ServiceUnavailableError):
            client.healthz()


def _payload_bytes(payload):
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class TestResubmitOnEvictedResult:
    """``submit_and_wait`` resubmits once when the result route says 410."""

    def test_damaged_result_is_recomputed_byte_identical(
        self, tmp_path, register_experiment
    ):
        calls = register_experiment("svc-flip")
        store_dir = str(tmp_path / "store")
        with _service(store_dir=store_dir) as service:
            client = ServiceClient(service.url)
            first, payload = client.submit_and_wait(
                {"experiment": "svc-flip"}, timeout=10
            )
            StoreCorruptor(store_dir, seed=1).arm()
            second, again = client.submit_and_wait(
                {"experiment": "svc-flip"}, timeout=10
            )
        assert _payload_bytes(again) == _payload_bytes(payload)
        assert calls.count == 2
        assert second["id"] != first["id"]
        assert not second["cache_hit"]
        assert os.listdir(os.path.join(store_dir, "quarantine")) == [
            first["address"] + ".json"
        ]

    def test_a_second_410_raises(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:9")
        submitted = []

        def submit(spec, priority=0):
            submitted.append(spec)
            return {"job": {"id": "job-%d" % len(submitted)}}

        def gone(job_id, timeout=None, poll=None):
            raise ServiceResponseError(
                410, {"error": "result-evicted", "id": job_id}
            )

        monkeypatch.setattr(client, "submit", submit)
        monkeypatch.setattr(client, "wait", gone)
        with pytest.raises(ServiceResponseError) as err:
            client.submit_and_wait({"experiment": "svc-gone"}, timeout=5)
        assert err.value.status == 410
        assert err.value.payload["id"] == "job-2"
        assert len(submitted) == 2  # one resubmission, no loop


class TestHealthAndMetrics:
    def test_healthz_reports_version_uptime_and_queue(self):
        with _service(queue_limit=7, workers=2) as service:
            client = ServiceClient(service.url)
            health = client.healthz()
        assert health["status"] == "ok"
        assert health["version"] == __version__
        assert health["uptime_seconds"] >= 0
        assert health["queue"] == {"depth": 0, "limit": 7}
        assert health["workers"] == 2
        assert set(health["jobs"]) == {
            "queued", "running", "done", "failed", "cancelled",
        }
        assert health["store"]["entries"] == 0

    def test_metrics_exposes_service_counters(self, register_experiment):
        register_experiment("svc-metrics")
        with _service() as service:
            client = ServiceClient(service.url)
            client.submit_and_wait({"experiment": "svc-metrics"}, timeout=10)
            client.submit_and_wait({"experiment": "svc-metrics"}, timeout=10)
            metrics = client.metrics()
        counters = metrics["counters"]
        assert counters["service.jobs.submitted"] >= 1
        assert counters["service.jobs.deduped"] >= 1
        assert counters["service.jobs.completed"] >= 1
        assert counters["service.store.puts"] >= 1
        assert counters["service.store.hits"] >= 1
        assert counters["service.http.requests"] >= 4

    def test_metrics_exposes_solver_cache_stats(self, register_experiment):
        register_experiment("svc-cache-metrics")
        with _service() as service:
            client = ServiceClient(service.url)
            client.submit_and_wait(
                {"experiment": "svc-cache-metrics"}, timeout=10
            )
            metrics = client.metrics()
            prom = client.metrics_prometheus()
        # Scrape-time cache statistics are merged into the snapshot for
        # both caches, whatever the telemetry flag did during the solves.
        for prefix in ("solver.propagator_cache", "solver.ensemble_cache"):
            for stat in ("hits", "misses", "evictions"):
                assert metrics["counters"][f"{prefix}.{stat}"] >= 0
            assert metrics["gauges"][f"{prefix}.currsize"] >= 0
            assert metrics["gauges"][f"{prefix}.maxsize"] > 0
        assert "repro_solver_propagator_cache_hits_total" in prom
        assert "repro_solver_ensemble_cache_currsize" in prom

    def test_jobs_listing(self, register_experiment):
        register_experiment("svc-list")
        with _service() as service:
            client = ServiceClient(service.url)
            client.submit_and_wait({"experiment": "svc-list"}, timeout=10)
            listing = client.jobs()
        assert len(listing["jobs"]) == 1
        assert listing["jobs"][0]["state"] == "done"


class TestRealExperiment:
    def test_served_table1_report_is_byte_identical_to_direct_run(self):
        # Direct run first, while telemetry is off — exactly what the
        # classic CLI path prints for this configuration.
        from repro.circuit.defects import OpenLocation
        from repro.experiments.table1 import run_table1

        direct = run_table1(
            opens=(OpenLocation.CELL, OpenLocation.WORD_LINE), n_r=4, n_u=3
        )
        expected = direct.report.render()
        spec = {
            "experiment": "table1",
            "opens": ["CELL", "WORD_LINE"],
            "n_r": 4,
            "n_u": 3,
        }
        with _service() as service:
            client = ServiceClient(service.url)
            job, payload = client.submit_and_wait(spec, timeout=120)
            assert payload["report"] == expected
            assert payload["experiment"] == "table1"
            assert payload["address"] == job["address"]
            assert payload["rows"]  # the structured inventory rides along
            # Resubmission coalesces and serves the identical payload.
            job2, payload2 = client.submit_and_wait(spec, timeout=10)
            assert job2["id"] == job["id"]
            assert payload2 == payload
