"""Shared fixtures for the sweep-service tests.

The service switches process-global telemetry on; the suite-wide
``_telemetry_clean`` fixture (``tests/conftest.py``) restores the
disabled/empty state after every test.

``register_experiment`` installs throwaway experiment profiles into
:data:`repro.service.jobs.SERVICE_EXPERIMENTS` so lifecycle tests can
run instant (or deliberately slow/failing) jobs without touching the
electrical solver.

Every HTTP connection a test opens is closed after it
(``_close_connections``), so ``python -X dev -m pytest tests/service
-W always::ResourceWarning`` reports no unclosed socket.
"""

import http.client
import threading
from types import SimpleNamespace

import pytest

from repro.experiments.reporting import ExperimentReport
from repro.service.jobs import SERVICE_EXPERIMENTS, ExperimentProfile


def make_report(title="stub", block="stub output"):
    report = ExperimentReport(title)
    report.add_block(block)
    report.claim("stub claim", "paper", "measured", True)
    return report


@pytest.fixture(autouse=True)
def _close_connections(monkeypatch):
    """Close every connection the test's clients opened, after the test.

    A :class:`~repro.service.ServiceClient` keeps one connection per
    thread, and its ``close()`` ends only the calling thread's; a
    connection left to the garbage collector warns.  Clients built
    during the test connect through this tracking subclass.
    """
    opened = []

    class Tracked(http.client.HTTPConnection):
        def connect(self):
            opened.append(self)
            super().connect()

    monkeypatch.setattr(http.client, "HTTPConnection", Tracked)
    yield
    for conn in opened:
        conn.close()


@pytest.fixture
def register_experiment(monkeypatch):
    """Install a stub experiment; returns (name, call-counter record)."""

    def register(name, runner=None, block="stub output"):
        calls = SimpleNamespace(count=0, lock=threading.Lock())

        def default_runner(spec):
            with calls.lock:
                calls.count += 1
            return SimpleNamespace(
                report=make_report(title=name, block=block)
            )

        monkeypatch.setitem(
            SERVICE_EXPERIMENTS,
            name,
            ExperimentProfile(name, runner or default_runner),
        )
        return calls

    return register
