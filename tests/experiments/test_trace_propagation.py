"""Cross-process trace propagation: ``--jobs N`` traces stay one tree."""

import json
import time

import pytest

from repro import telemetry
from repro.circuit.defects import OpenLocation
from repro.experiments import table1
from repro.service import ServiceClient, SweepService

COARSE_OPENS = (OpenLocation.CELL, OpenLocation.BL_PRECHARGE_CELLS)
COARSE_NAMES = tuple(location.name for location in COARSE_OPENS)


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _assert_connected_tree(spans, root_name):
    """One trace id, unique span ids, one root, every parent resolvable."""
    assert spans, "empty trace"
    assert len({span["trace"] for span in spans}) == 1
    ids = {span["span"] for span in spans}
    assert len(ids) == len(spans), "duplicate span ids after adoption"
    roots = [span for span in spans if span["parent"] is None]
    assert len(roots) == 1, f"expected one root, got {roots}"
    assert roots[0]["name"] == root_name
    by_id = {span["span"]: span for span in spans}
    for span in spans:
        if span["parent"] is not None:
            parent = by_id.get(span["parent"])
            assert parent is not None, f"dangling parent in {span}"
            assert span["depth"] == parent["depth"] + 1
    return roots[0]


def test_jobs2_table1_exports_one_connected_tree(tmp_path):
    telemetry.reset()
    telemetry.enable()
    table1.run_table1(opens=COARSE_OPENS, n_r=3, n_u=3, jobs=2)
    telemetry.disable()
    path = str(tmp_path / "trace.jsonl")
    count = telemetry.get_tracer().export_jsonl(path)
    spans = _load(path)
    assert len(spans) == count
    _assert_connected_tree(spans, "experiment.table1")
    remote = [s for s in spans if s.get("attrs", {}).get("remote")]
    assert remote, "worker-process spans never came home"
    for span in remote:
        assert span["parent"] is not None
        assert span["duration"] is not None


def test_serial_run_has_no_remote_spans(tmp_path):
    telemetry.reset()
    telemetry.enable()
    table1.run_table1(opens=COARSE_OPENS, n_r=3, n_u=3, jobs=1)
    telemetry.disable()
    path = str(tmp_path / "trace.jsonl")
    telemetry.get_tracer().export_jsonl(path)
    spans = _load(path)
    _assert_connected_tree(spans, "experiment.table1")
    assert not any(s.get("attrs", {}).get("remote") for s in spans)


def test_served_job_exports_one_connected_tree(tmp_path):
    trace_path = str(tmp_path / "serve-trace.jsonl")
    with SweepService(port=0, trace_export=trace_path) as service:
        client = ServiceClient(service.url)
        job_id = client.submit({
            "experiment": "table1",
            "opens": list(COARSE_NAMES),
            "n_r": 3,
            "n_u": 3,
            "jobs": 2,
        })["job"]["id"]
        client.wait(job_id, timeout=300.0)
        record = client.job(job_id)
        # the scheduler appends the trace right after the job settles
        deadline = time.monotonic() + 10.0
        spans = []
        while time.monotonic() < deadline:
            try:
                spans = _load(trace_path)
            except OSError:
                spans = []
            if spans:
                break
            time.sleep(0.05)
    root = _assert_connected_tree(spans, "service.job")
    # the job record carries the correlation ids of its trace
    assert record["trace"] == root["trace"]
    assert record["root_span"] == root["span"]
    names = {span["name"] for span in spans}
    assert "experiment.table1" in names
    # The job ran beside the server's threads, so its jobs=2 hint ran in
    # process (repro.parallel.fork_safe): no span came from a worker.
    assert not any(s.get("attrs", {}).get("remote") for s in spans)
