"""Live progress: SSE streaming, long-polling, and health reporting."""

import time
from types import SimpleNamespace

import pytest

from repro.service import (
    ServiceClient, ServiceResponseError, SweepService,
)
from repro.service import jobs as jobs_module

from .conftest import make_report


def _service(**kwargs):
    kwargs.setdefault("port", 0)
    return SweepService(**kwargs)


def _slow_runner(delay):
    def runner(spec):
        time.sleep(delay)
        return SimpleNamespace(report=make_report(title="slow"))
    return runner


class TestJsonPolling:
    def test_page_has_cursor_state_and_ordered_seqs(self, register_experiment):
        register_experiment("evt-poll")
        with _service() as service:
            client = ServiceClient(service.url)
            job_id = client.submit({"experiment": "evt-poll"})["job"]["id"]
            client.wait(job_id, timeout=10.0)
            page = client.events(job_id)
            seqs = [e["seq"] for e in page["events"]]
            assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
            names = [e["event"] for e in page["events"]]
            assert names[0] == "queued" and names[-1] == "finished"
            assert page["terminal"] is True
            assert page["state"] == "done"
            assert page["overflow"] is False
            assert page["next"] == seqs[-1]
            # resuming from the cursor returns nothing new
            again = client.events(job_id, after=page["next"])
            assert again["events"] == [] and again["terminal"] is True

    def test_long_poll_wakes_on_new_event(self, register_experiment):
        register_experiment("evt-wait", runner=_slow_runner(0.4))
        with _service() as service:
            client = ServiceClient(service.url)
            job_id = client.submit({"experiment": "evt-wait"})["job"]["id"]
            # drain what exists now, then block for the next event
            first = client.events(job_id)
            start = time.monotonic()
            page = client.events(job_id, after=first["next"], wait=10.0)
            elapsed = time.monotonic() - start
            assert page["events"], "long-poll returned without an event"
            assert elapsed < 10.0
            client.wait(job_id, timeout=10.0)

    def test_unknown_job_is_404(self):
        with _service() as service:
            client = ServiceClient(service.url)
            with pytest.raises(ServiceResponseError) as err:
                client.events("j-nope")
            assert err.value.status == 404


class TestSseStreaming:
    def test_stream_yields_ordered_events_then_ends(self, register_experiment):
        register_experiment("evt-sse", runner=_slow_runner(0.2))
        with _service() as service:
            client = ServiceClient(service.url)
            job_id = client.submit({"experiment": "evt-sse"})["job"]["id"]
            received = list(client.stream_events(job_id))
            names = [e["event"] for e in received]
            assert "queued" in names and "started" in names
            assert names[-1] == "finished"
            seqs = [e["seq"] for e in received]
            assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_last_event_id_resumes_mid_stream(self, register_experiment):
        register_experiment("evt-resume")
        with _service() as service:
            client = ServiceClient(service.url)
            job_id = client.submit({"experiment": "evt-resume"})["job"]["id"]
            client.wait(job_id, timeout=10.0)
            everything = list(client.stream_events(job_id))
            assert len(everything) >= 2
            cutoff = everything[0]["seq"]
            resumed = list(client.stream_events(job_id, after=cutoff))
            assert [e["seq"] for e in resumed] == [
                e["seq"] for e in everything if e["seq"] > cutoff
            ]

    def test_overflow_marker_on_ring_buffer_overrun(
        self, register_experiment, monkeypatch
    ):
        monkeypatch.setattr(jobs_module, "EVENT_BUFFER", 3)
        register_experiment("evt-overflow", runner=_slow_runner(0.8))
        with _service() as service:
            client = ServiceClient(service.url)
            job_id = client.submit({"experiment": "evt-overflow"})["job"]["id"]
            job = service.queue.get(job_id)
            for index in range(10):
                service.queue.emit(job, "spam", index=index)
            received = list(client.stream_events(job_id))
            assert received[0]["event"] == "overflow"
            # more events (and drops) can land after the marker snapshot
            assert 0 < received[0]["dropped"] <= job.events_dropped
            # only the surviving tail follows the marker, still ordered
            seqs = [e["seq"] for e in received[1:]]
            assert min(seqs) > received[0]["dropped"]
            assert seqs == sorted(seqs)
            assert received[-1]["event"] == "finished"

    def test_plain_get_still_returns_json(self, register_experiment):
        # without an SSE Accept header the same path long-polls JSON
        register_experiment("evt-nego")
        with _service() as service:
            client = ServiceClient(service.url)
            job_id = client.submit({"experiment": "evt-nego"})["job"]["id"]
            client.wait(job_id, timeout=10.0)
            page = client.events(job_id)
            assert isinstance(page, dict) and "events" in page


class TestMetricsExposition:
    def test_prometheus_scrape_over_http(self, register_experiment):
        register_experiment("evt-prom")
        with _service() as service:
            client = ServiceClient(service.url)
            job_id = client.submit({"experiment": "evt-prom"})["job"]["id"]
            client.wait(job_id, timeout=10.0)
            text = client.metrics_prometheus()
            assert "# TYPE repro_service_http_requests_total counter" in text
            assert "# TYPE repro_service_jobs_submitted_total counter" in text
            # JSON stays the default for existing clients
            snapshot = client.metrics()
            assert "counters" in snapshot


class TestHealth:
    def test_healthz_reports_store_and_scheduler(self, register_experiment):
        register_experiment("evt-health")
        with _service(workers=2) as service:
            client = ServiceClient(service.url)
            health = client.healthz()
            assert health["status"] == "ok"
            store = health["store"]
            assert store["entries"] == 0
            assert store["max_entries"] == 128
            assert store["evictions"] == 0 and store["expired"] == 0
            scheduler = health["scheduler"]
            assert scheduler["alive"] is True
            assert len(scheduler["heartbeat_age_seconds"]) == 2

    def test_healthz_503_when_all_workers_dead(self, register_experiment):
        register_experiment("evt-dead")
        with _service(workers=1) as service:
            client = ServiceClient(service.url)
            assert client.healthz()["status"] == "ok"
            service.scheduler.stop()
            with pytest.raises(ServiceResponseError) as err:
                client.healthz()
            assert err.value.status == 503
            assert err.value.payload["status"] == "dead-workers"
            assert err.value.payload["scheduler"]["alive"] is False

    def test_store_eviction_counter_surfaces(self, register_experiment):
        register_experiment("evt-a", block="a")
        register_experiment("evt-b", block="b")
        with _service(store_max=1) as service:
            client = ServiceClient(service.url)
            for name in ("evt-a", "evt-b"):
                job_id = client.submit({"experiment": name})["job"]["id"]
                client.wait(job_id, timeout=10.0)
            assert client.healthz()["store"]["evictions"] == 1
