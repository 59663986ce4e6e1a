"""Parallel survey orchestration: determinism across jobs and caches.

The acceptance property for ``--jobs`` is strict: the Table 1 inventory,
the figure region maps, and the march verdicts must be *identical* for
any worker count, with the propagator cache on or off.  These tests pin
that on coarse grids (the full-resolution equivalence is exercised by
the benchmark suite).
"""

import pytest

from repro import telemetry
from repro.circuit.defects import OpenLocation
from repro.circuit.network import (
    propagator_cache_clear, propagator_cache_configure,
)
from repro.experiments import table1
from repro.experiments.march_pf import ELECTRICAL_POINTS, electrical_detection
from repro.march.library import MARCH_PF_PLUS
from repro.parallel import (
    AnalyzerSpec, FanoutStats, parallel_map, survey_locations,
)

COARSE_OPENS = (
    OpenLocation.CELL,
    OpenLocation.BL_PRECHARGE_CELLS,
    OpenLocation.WORD_LINE,
)


def _square(x):
    return x * x


def test_parallel_map_preserves_payload_order():
    payloads = list(range(20))
    assert parallel_map(_square, payloads, jobs=1) == [x * x for x in payloads]
    assert parallel_map(_square, payloads, jobs=4) == [x * x for x in payloads]


def test_parallel_map_merges_worker_telemetry():
    telemetry.reset()
    telemetry.enable()
    try:
        parallel_map(_observe_unit, [1.0, 2.0, 3.0], jobs=2)
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


def _survey_fingerprint(outcome):
    return {
        location: [
            (f.floating, f.probe_sos, f.ffm, f.region.labels)
            for f in findings
        ]
        for location, findings in outcome.findings.items()
    }


def test_survey_locations_identical_across_jobs():
    serial = survey_locations(COARSE_OPENS, jobs=1, n_r=4, n_u=3)
    fanned = survey_locations(COARSE_OPENS, jobs=4, n_r=4, n_u=3)
    assert _survey_fingerprint(serial) == _survey_fingerprint(fanned)
    assert serial.stats.observation_misses > 0


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


def test_electrical_detection_identical_across_jobs():
    points = ELECTRICAL_POINTS[:3]
    serial = electrical_detection(MARCH_PF_PLUS, points=points, jobs=1)
    fanned = electrical_detection(MARCH_PF_PLUS, points=points, jobs=3)
    assert serial == fanned


def test_fanout_stats_ratios():
    stats = FanoutStats(3, 1, 8, 2)
    assert stats.observation_hit_ratio == pytest.approx(0.75)
    assert stats.propagator_hit_ratio == pytest.approx(0.8)
    assert FanoutStats().observation_hit_ratio is None


def test_analyzer_spec_roundtrip():
    spec = AnalyzerSpec(OpenLocation.CELL, grid_engine=False)
    analyzer = spec.build()
    assert analyzer.location is OpenLocation.CELL
    assert analyzer.grid_engine is False
