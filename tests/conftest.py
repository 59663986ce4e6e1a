"""Suite-wide fixtures.

Telemetry is process-global, and several code paths switch it on (the
sweep service, ``--trace``/``--metrics-json`` CLI runs, tests that
count solver work).  Every test restores the disabled, empty state
afterwards, so no test's outcome depends on which tests ran before it
(a report renders a telemetry timing line only while telemetry is on).
"""

import pytest

from repro import telemetry


@pytest.fixture(autouse=True)
def _telemetry_clean():
    yield
    telemetry.disable()
    telemetry.reset()
