"""Table 1's work unit is one open: pooled runs equal in-process runs.

Each open's surveys, completion searches and marginal checks run on one
analyzer as one unit.  A pool takes the costliest open first, but rows,
quarantined points and telemetry come back in location order, so the
report is byte-identical for any worker count.
"""

import os

import repro.parallel as par
from repro import telemetry
from repro.circuit.defects import OpenLocation
from repro.circuit.network import GuardPolicy
from repro.core.analysis import ColumnFaultAnalyzer, default_grid_for
from repro.experiments import table1
from repro.inject import SolverNaNInjector
from repro.parallel import default_jobs

COARSE = dict(n_r=4, n_u=3)
OPENS = (OpenLocation.CELL, OpenLocation.BL_PRECHARGE_CELLS,
         OpenLocation.WORD_LINE)
#: Three opens that share one (R_def, U) grid, so one injected point
#: trips a guard in each of them.
SAME_GRID = (OpenLocation.PRECHARGE, OpenLocation.BL_CELLS_REFERENCE,
             OpenLocation.SENSE_AMPLIFIER)


def test_pooled_run_matches_in_process_with_marginal_check():
    kwargs = dict(opens=OPENS, check_marginal=True, **COARSE)
    serial = table1.run_table1(jobs=1, **kwargs)
    pooled = table1.run_table1(jobs=2, **kwargs)
    assert pooled.rows == serial.rows
    assert pooled.report.render() == serial.report.render()
    assert "Marginal" in serial.report.render()


def test_pooled_run_matches_in_process_under_quarantine():
    grid = default_grid_for(SAME_GRID[0], **COARSE)
    target = (grid.r_values[1], grid.u_values[1])
    kwargs = dict(
        opens=SAME_GRID, guard_policy=GuardPolicy.QUARANTINE, **COARSE
    )
    with SolverNaNInjector(target=target):
        serial = table1.run_table1(jobs=1, **kwargs)
        pooled = table1.run_table1(jobs=2, **kwargs)
    assert {(p.r_def, p.u) for p in serial.quarantined} == {target}
    locations = [p.location for p in serial.quarantined]
    assert set(locations) == set(SAME_GRID)
    order = list(OpenLocation)
    assert locations == sorted(locations, key=order.index)
    assert pooled.quarantined == serial.quarantined
    assert pooled.rows == serial.rows
    assert pooled.report.render() == serial.report.render()


def test_costliest_open_is_submitted_first_rows_in_location_order(
    monkeypatch,
):
    submitted = []

    class RecordingPool(par.ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            _func, payload, _telemetry_on = args
            submitted.append(payload[0].location)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(par, "ProcessPoolExecutor", RecordingPool)
    result = table1.run_table1(opens=OPENS, jobs=2, **COARSE)
    # The word-line open stacks one member per (R_def, U) point.
    assert submitted[0] is OpenLocation.WORD_LINE
    assert sorted(submitted, key=OPENS.index) == list(OPENS)
    numbers = [row.open_number for row in result.rows]
    assert numbers == sorted(numbers)
    serial = table1.run_table1(opens=OPENS, jobs=1, **COARSE)
    assert result.rows == serial.rows


def test_threaded_caller_runs_in_process_whatever_jobs(monkeypatch):
    # A served job runs beside the server's threads, whose locks a
    # forked child would inherit in whatever state they are, so even an
    # explicit jobs=2 keeps its opens in the calling process.
    import threading

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a threaded caller must not fork")

    monkeypatch.setattr(par, "ProcessPoolExecutor", NoPool)
    results = []
    caller = threading.Thread(target=lambda: results.append(
        table1.run_table1(opens=OPENS, jobs=2, **COARSE)
    ))
    caller.start()
    caller.join()
    serial = table1.run_table1(opens=OPENS, jobs=1, **COARSE)
    assert results[0].report.render() == serial.report.render()


def test_survey_cost_ranks_the_word_line_open_first():
    costs = {
        location: ColumnFaultAnalyzer(
            location, grid=default_grid_for(location)
        ).survey_cost()
        for location in OpenLocation
    }
    assert max(costs, key=costs.get) is OpenLocation.WORD_LINE
    # Three sweep plans (both floating nodes, then both together).
    assert costs[OpenLocation.SENSE_AMPLIFIER] == (
        3 * costs[OpenLocation.CELL]
    )
    scalar = ColumnFaultAnalyzer(
        OpenLocation.CELL, grid=default_grid_for(OpenLocation.CELL),
        grid_engine=False,
    )
    assert scalar.survey_cost() == 16 * 12


def test_default_jobs_caps_at_units_and_stays_in_process_when_unsafe(
    monkeypatch,
):
    cores = len(os.sched_getaffinity(0))
    monkeypatch.setattr(par.threading, "active_count", lambda: 1)
    assert default_jobs(1) == 1
    assert default_jobs(9) == min(cores, 9)
    with SolverNaNInjector(at_solve=10 ** 9):
        assert default_jobs(9) == 1
    monkeypatch.setattr(par.threading, "active_count", lambda: 2)
    assert default_jobs(9) == 1


def test_pooled_telemetry_equals_in_process():
    def counters(jobs):
        telemetry.reset()
        telemetry.enable()
        try:
            table1.run_table1(opens=OPENS, jobs=jobs, **COARSE)
            snap = telemetry.get_metrics().snapshot()
        finally:
            telemetry.disable()
            telemetry.reset()
        return {
            name: value for name, value in snap["counters"].items()
            if name.startswith("analyzer.")
        }, snap["gauges"].get("analyzer.cache_size")

    assert counters(2) == counters(1)

