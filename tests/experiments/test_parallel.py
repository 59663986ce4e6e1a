"""Parallel orchestration: determinism across jobs and caches.

The acceptance property for ``--jobs`` is strict: the Table 1 inventory
must be *identical* for any worker count, with the propagator cache on
or off.  These tests pin that on coarse grids (the full-resolution
equivalence is exercised by the benchmark suite).
"""

import pytest

from repro import telemetry
from repro.circuit.defects import OpenLocation
from repro.circuit.network import (
    propagator_cache_clear, propagator_cache_configure,
)
from repro.experiments import table1
from repro.parallel import AnalyzerSpec, parallel_map_ex

COARSE_OPENS = (
    OpenLocation.CELL,
    OpenLocation.BL_PRECHARGE_CELLS,
    OpenLocation.WORD_LINE,
)


def _square(x):
    return x * x


def test_parallel_map_preserves_payload_order():
    payloads = list(range(20))
    for jobs in (1, 4):
        results = parallel_map_ex(_square, payloads, jobs=jobs)
        assert results == [x * x for x in payloads]


def test_parallel_map_merges_worker_telemetry():
    telemetry.reset()
    telemetry.enable()
    try:
        parallel_map_ex(_observe_unit, [1.0, 2.0, 3.0], jobs=2)
        registry = telemetry.get_metrics()
        assert registry.counter_value("test.parallel_units") == 3
        hist = registry.snapshot()["histograms"]["test.parallel_sample"]
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(6.0)
        assert hist["min"] == 1.0 and hist["max"] == 3.0
    finally:
        telemetry.disable()
        telemetry.reset()


def _observe_unit(x):
    telemetry.count("test.parallel_units")
    telemetry.observe("test.parallel_sample", x)
    return x


def _inventory(result):
    return [
        (str(r.ffm_sim), str(r.ffm_com), r.open_number, r.completed_text,
         r.floating)
        for r in result.rows
    ]


def test_table1_inventory_identical_jobs_and_cache():
    kwargs = dict(opens=COARSE_OPENS, n_r=4, n_u=3)
    reference = _inventory(table1.run_table1(**kwargs))
    assert _inventory(table1.run_table1(jobs=4, **kwargs)) == reference
    propagator_cache_configure(enabled=False)
    propagator_cache_clear()
    try:
        assert _inventory(table1.run_table1(**kwargs)) == reference
    finally:
        propagator_cache_configure(enabled=True)


def test_analyzer_spec_roundtrip():
    spec = AnalyzerSpec(OpenLocation.CELL, grid_engine=False)
    analyzer = spec.build()
    assert analyzer.location is OpenLocation.CELL
    assert analyzer.grid_engine is False
