"""The client's kept-alive connections and the server's side of them.

A store hit is two requests on one connection; a thread keeps its
connection across calls, reopens it once when the server has closed it,
and never shares it with another thread; ``SweepService.stop()`` ends
every connection's handler thread.
"""

import threading
import time

import pytest

from repro import telemetry
from repro.service import ServiceClient, SweepService, api


def _service(**kwargs):
    kwargs.setdefault("port", 0)
    return SweepService(**kwargs)


def _counter(snapshot, name):
    return snapshot["counters"].get(name, 0)


def _calls(snapshot, route):
    histogram = snapshot["histograms"].get(f"service.http.request_s.{route}")
    return histogram["count"] if histogram else 0


def _connections():
    return telemetry.get_metrics().counter_value("service.http.connections")


def _handlers(before):
    """Connection handler threads started since ``before`` was taken."""
    return [
        t for t in threading.enumerate()
        if t not in before and t.name == "repro-service-connection"
    ]


def test_a_deduped_hit_is_two_requests_on_one_connection(
    register_experiment,
):
    register_experiment("svc-two")
    spec = {"experiment": "svc-two"}
    with _service() as service:
        cold = ServiceClient(service.url)
        _, first = cold.submit_and_wait(spec, timeout=10)
        # Each scrape is answered on the connection that sent the calls
        # before it, after their handler has timed them.
        before = cold.metrics()
        hit = ServiceClient(service.url)
        record, payload = hit.submit_and_wait(spec, timeout=10)
        after = hit.metrics()
    assert payload == first
    assert record["state"] == "done" and record["submissions"] == 2
    # The hit's two requests plus the scrape, on one new connection.
    assert _counter(after, "service.http.connections") - _counter(
        before, "service.http.connections") == 1
    assert _counter(after, "service.http.requests") - _counter(
        before, "service.http.requests") == 3
    assert {
        route: _calls(after, route) - _calls(before, route)
        for route in ("submit", "job", "result")
    } == {"submit": 1, "job": 0, "result": 1}


def test_one_client_survives_a_server_restart_without_backoff(
    register_experiment,
):
    register_experiment("svc-restart-conn")
    first = _service().start()
    port = first.port
    # A backoff pause of 5 s would show in the elapsed time below.
    client = ServiceClient(first.url, retry_backoff=5.0)
    client.healthz()
    first.stop()
    second = _service(port=port).start()
    try:
        opened = _connections()
        start = time.monotonic()
        assert client.healthz()["status"] == "ok"
        client.submit_and_wait(
            {"experiment": "svc-restart-conn"}, timeout=10, poll=0.01
        )
        assert time.monotonic() - start < 2.0
        assert _connections() - opened == 1  # the stale one, reopened
    finally:
        second.stop()


def test_threads_sharing_a_client_get_their_own_connections(
    register_experiment,
):
    names = [f"svc-thread-{k}" for k in range(4)]
    for name in names:
        register_experiment(name, block=f"output of {name}")
    with _service() as service:
        client = ServiceClient(service.url)
        expected = {
            name: client.submit_and_wait({"experiment": name}, timeout=10)[1]
            for name in names
        }
        opened = _connections()
        served = {name: [] for name in names}
        errors = []

        def hits(name):
            try:
                for _ in range(5):
                    served[name].append(client.submit_and_wait(
                        {"experiment": name}, timeout=10
                    )[1])
            except Exception as exc:  # surfaced by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=hits, args=(n,)) for n in names]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors
        assert _connections() - opened == len(names)
    for name in names:
        assert served[name] == [expected[name]] * 5
        assert f"output of {name}" in expected[name]["report"]


def test_sequential_hits_do_not_stall_on_delayed_acks(register_experiment):
    # Without TCP_NODELAY on the server each answer's second write waits
    # for the client's delayed ACK (about 40 ms), so 20 hits would take
    # at least 0.8 s.
    register_experiment("svc-nagle")
    spec = {"experiment": "svc-nagle"}
    with _service() as service:
        client = ServiceClient(service.url)
        client.submit_and_wait(spec, timeout=10)
        start = time.perf_counter()
        for _ in range(20):
            client.submit_and_wait(spec, timeout=10)
        elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"20 hits took {elapsed:.3f} s"


def test_stop_ends_the_handler_thread_of_a_kept_connection():
    before = set(threading.enumerate())
    service = _service().start()
    client = ServiceClient(service.url)
    client.healthz()  # the client keeps this connection open
    handlers = _handlers(before)
    assert len(handlers) == 1 and handlers[0].is_alive()
    service.stop()
    assert not handlers[0].is_alive()
    assert set(threading.enumerate()) <= before


@pytest.mark.parametrize("side", ["client closes", "server idles out"])
def test_a_closed_connection_ends_its_thread_and_is_reopened(
    monkeypatch, side
):
    if side == "server idles out":
        monkeypatch.setattr(api, "_IDLE_TIMEOUT", 1.0)
    before = set(threading.enumerate())
    with _service() as service:
        client = ServiceClient(service.url)
        client.healthz()
        handlers = _handlers(before)
        assert len(handlers) == 1
        if side == "client closes":
            client.close()
        handlers[0].join(timeout=5)
        assert not handlers[0].is_alive()
        opened = _connections()
        assert client.healthz()["status"] == "ok"
        assert _connections() - opened == 1
