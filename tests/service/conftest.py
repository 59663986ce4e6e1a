"""Shared fixtures for the sweep-service tests.

The service switches process-global telemetry on; the suite-wide
``_telemetry_clean`` fixture (``tests/conftest.py``) restores the
disabled/empty state after every test.

``register_experiment`` installs throwaway experiment profiles into
:data:`repro.service.jobs.SERVICE_EXPERIMENTS` so lifecycle tests can
run instant (or deliberately slow/failing) jobs without touching the
electrical solver.
"""

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


@pytest.fixture
def register_experiment(monkeypatch):
    """Install a stub experiment; returns (name, call-counter record)."""

    def register(name, runner=None, block="stub output"):
        calls = SimpleNamespace(count=0, lock=threading.Lock())

        def default_runner(spec, resilience):
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
