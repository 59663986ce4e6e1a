"""The lane-stacked march runner agrees with the scalar oracle.

:func:`repro.march.simulator.run_march_lanes` runs a defect population
as :class:`~repro.circuit.column.GridBatch` members (presets as lanes),
one work unit per ``(location, row)`` group, in process or on forked
workers; every ``(test, defect, preset)`` result must equal
:func:`run_march` on that defect's
:class:`~repro.memory.simulator.ElectricalMemory` — mismatch tuples,
``operations`` and the ``march.*`` counters alike — including when
members retire early, when a solver guard trip demotes a member, and
when both happen in one batch.
"""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import telemetry
from repro.circuit.defects import FloatingNode, OpenDefect, OpenLocation
from repro.circuit.network import (
    _install_solver_fault_hook,
    propagator_cache_clear,
)
from repro.core.analysis import _R_RANGES
from repro.march.library import IFA_13, MARCH_C_MINUS, MARCH_PF_PLUS, MATS_PLUS
from repro.march.notation import Direction, parse_march
from repro.march.simulator import run_march, run_march_lanes
from repro.memory.simulator import ElectricalMemory

PRESETS = (0.0, 3.3)


@pytest.fixture(autouse=True)
def _fresh_cache():
    propagator_cache_clear()
    yield
    propagator_cache_clear()


def scalar(test, defects, stop_at_first=False, either_as=Direction.UP,
           presets=PRESETS):
    """The oracle: one ElectricalMemory per (defect, preset)."""
    rows = []
    for defect in defects:
        row = []
        for preset in presets:
            memory = ElectricalMemory.with_defect(defect=defect, n_rows=3)
            for node in FloatingNode:
                memory.column.set_floating_voltage(node, preset)
            row.append(run_march(
                test, memory, either_as=either_as,
                stop_at_first=stop_at_first,
            ))
        rows.append(tuple(row))
    return rows


@st.composite
def open_defects(draw, location=None):
    if location is None:
        location = draw(st.sampled_from(list(OpenLocation)))
    lo, hi = _R_RANGES[location]
    log_r = draw(st.floats(math.log10(lo), math.log10(hi)))
    return OpenDefect(location, 10 ** log_r, row=draw(st.integers(0, 2)))


@pytest.mark.parametrize("location", list(OpenLocation), ids=str)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_lanes_equal_scalar_run_march(location, data):
    defects = data.draw(
        st.lists(open_defects(location), min_size=1, max_size=3)
    ) + data.draw(st.lists(open_defects(), max_size=1))
    test = data.draw(st.sampled_from((MATS_PLUS, MARCH_C_MINUS,
                                      MARCH_PF_PLUS)))
    stop_at_first = data.draw(st.booleans())
    either_as = data.draw(st.sampled_from((Direction.UP, Direction.DOWN)))
    (lanes,) = run_march_lanes(
        [test], defects, PRESETS, stop_at_first=stop_at_first,
        either_as=either_as,
    )
    assert lanes == scalar(test, defects, stop_at_first, either_as)


def _counted(fn):
    telemetry.enable()
    telemetry.reset()
    try:
        fn()
        return telemetry.get_metrics().snapshot()["counters"]
    finally:
        telemetry.disable()
        telemetry.reset()


@pytest.mark.parametrize("stop_at_first", [True, False])
def test_march_counters_match_the_scalar_path(stop_at_first):
    defects = [
        OpenDefect(OpenLocation.BL_PRECHARGE_CELLS, 1e6),
        OpenDefect(OpenLocation.BL_PRECHARGE_CELLS, 3e3),
        OpenDefect(OpenLocation.WORD_LINE, 3e7),
        OpenDefect(OpenLocation.SENSE_AMPLIFIER, 1e5),
    ]
    names = ("march.runs", "march.operations", "march.elements_applied")
    lanes = _counted(lambda: run_march_lanes(
        [MARCH_C_MINUS], defects, PRESETS, stop_at_first=stop_at_first
    ))
    oracle = _counted(lambda: scalar(MARCH_C_MINUS, defects, stop_at_first))
    assert {n: lanes.get(n) for n in names} == {
        n: oracle.get(n) for n in names
    }
    assert lanes["march.runs"] == len(defects) * len(PRESETS)
    if stop_at_first:
        assert lanes.get("column.grid_retired", 0) > 0


def test_healthy_device_and_pauses_run_scalar():
    defects = [None, OpenDefect(OpenLocation.CELL, 1e6)]
    counters = _counted(lambda: run_march_lanes([IFA_13], defects, PRESETS))
    assert counters.get("solver.grid_settles", 0) == 0
    assert run_march_lanes([IFA_13], defects, PRESETS) == [scalar(
        IFA_13, defects
    )]


def test_retire_drops_members_without_demoting():
    from repro.circuit.column import DRAMColumn, GridBatch

    location = OpenLocation.BL_PRECHARGE_CELLS
    r_values = (3e3, 1e5, 1e6)

    def batch_of(rs):
        column = DRAMColumn(n_rows=3, defect=OpenDefect(location, rs[0]))
        lanes = []
        for u in PRESETS:
            column.reset({})
            column.set_floating_voltage(FloatingNode.BIT_LINE, u)
            lanes.append(column.net.state_vector())
        column.reset({})
        return GridBatch(column, rs, np.stack(lanes, axis=1),
                         shared_stacks=False)

    batch = batch_of(r_values)
    batch.write(0, 1)
    batch.retire([1, 7])
    assert batch.active_members == [0, 2]
    assert batch.demoted == {}
    kept = batch_of((r_values[0], r_values[2]))
    kept.write(0, 1)
    assert np.array_equal(batch.read(1), kept.read(1))
    assert np.array_equal(batch.read(0), kept.read(0))


def test_demotion_beside_retirement_keeps_rows_aligned(monkeypatch):
    # B is demoted by a poisoned grid solve during the first write. D is
    # demoted during the read in which A and C first fail (A then
    # retires); D sits before them in the pool, so attributing that
    # read's rows to the members from before the read would hand A's
    # and C's failures to the wrong members.  Every result must still
    # equal the oracle, the demoted members through scalar re-runs.
    from repro.circuit.column import GridBatch

    location = OpenLocation.BL_PRECHARGE_CELLS
    b, d, a, c = 3e5, 2e3, 1e6, 1e5
    defects = [OpenDefect(location, r) for r in (b, d, a, c)]
    expected = scalar(MATS_PLUS, defects, stop_at_first=True)
    assert [row[0].operations for row in expected] == [6, 15, 6, 6]
    reads = [0]
    original_read = GridBatch.read

    def counting_read(self, row):
        reads[0] += 1
        return original_read(self, row)

    monkeypatch.setattr(GridBatch, "read", counting_read)
    poisoned = set()
    scalar_solves = []

    def hook(voltages, info):
        if not info.get("grid"):
            scalar_solves.append(info)
            return voltages
        r = info.get("member_r")
        # MATS+ reads first at op 4; A and C first fail at op 6.
        due = {b: reads[0] == 0, d: reads[0] == 2}
        if r in poisoned or not due.get(r):
            return voltages
        poisoned.add(r)
        out = np.array(voltages)
        out[0, 0] = np.nan
        return out

    results = []
    _install_solver_fault_hook(hook)
    try:
        counters = _counted(lambda: results.extend(run_march_lanes(
            [MATS_PLUS], defects, PRESETS, stop_at_first=True
        )[0]))
    finally:
        _install_solver_fault_hook(None)
    assert poisoned == {b, d}
    assert results == expected
    assert counters.get("column.grid_demotions") == 2
    assert counters.get("column.grid_retired", 0) >= 1
    assert counters.get("march.runs") == len(defects) * len(PRESETS)
    assert scalar_solves, "demoted members must re-run on the scalar path"


#: A population over four ``(location, row)`` groups, word line included,
#: with a healthy device among them.
POPULATION = [
    OpenDefect(OpenLocation.BL_PRECHARGE_CELLS, 1e6),
    OpenDefect(OpenLocation.WORD_LINE, 3e7),
    None,
    OpenDefect(OpenLocation.CELL, 3e5, row=1),
    OpenDefect(OpenLocation.BL_PRECHARGE_CELLS, 3e3),
    OpenDefect(OpenLocation.SENSE_AMPLIFIER, 1e5),
    OpenDefect(OpenLocation.WORD_LINE, 1e8),
]
#: Bit-line writes, a pause (scalar path) and reads.
DEL_PROBE = parse_march("{⇕(w1); Del; ⇕(r1,w0,r0)}", "Del probe")
MARCH_NAMES = ("march.runs", "march.operations", "march.elements_applied")


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("stop_at_first", [True, False])
def test_several_tests_equal_one_call_per_test_and_the_oracle(
    jobs, stop_at_first
):
    tests = (MATS_PLUS, DEL_PROBE, MARCH_C_MINUS)
    results = []
    together = _counted(lambda: results.extend(run_march_lanes(
        tests, POPULATION, PRESETS, stop_at_first=stop_at_first, jobs=jobs,
    )))
    oracle = []
    alone = _counted(lambda: oracle.extend(
        scalar(test, POPULATION, stop_at_first) for test in tests
    ))
    assert results == oracle
    assert results == [
        run_march_lanes(
            [test], POPULATION, PRESETS, stop_at_first=stop_at_first,
        )[0]
        for test in tests
    ]
    assert {n: together.get(n) for n in MARCH_NAMES} == {
        n: alone.get(n) for n in MARCH_NAMES
    }
    if stop_at_first:
        assert together.get("column.grid_retired", 0) > 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_guard_demotion_inside_a_unit_matches_the_oracle(jobs):
    # One grid solve of one word-line member turns NaN; its unit
    # demotes the member and re-runs it scalar, in whichever process
    # runs the unit, and the demotion counts reach the caller.
    target = POPULATION[6].resistance
    tests = (MATS_PLUS, MARCH_C_MINUS)
    expected = [scalar(test, POPULATION, True) for test in tests]
    poisoned = []

    def hook(voltages, info):
        if not info.get("grid") or info.get("member_r") != target:
            return voltages
        if poisoned:
            return voltages
        poisoned.append(info)
        out = np.array(voltages)
        out[0, 0] = np.nan
        return out

    results = []
    _install_solver_fault_hook(hook)
    try:
        counters = _counted(lambda: results.extend(run_march_lanes(
            tests, POPULATION, PRESETS, stop_at_first=True, jobs=jobs,
        )))
    finally:
        _install_solver_fault_hook(None)
    assert results == expected
    assert counters.get("column.grid_demotions") == 1
    assert counters.get("march.runs") == (
        len(tests) * len(POPULATION) * len(PRESETS)
    )


def test_word_line_unit_is_submitted_first(monkeypatch):
    # The word-line group is the smallest here, and the last to appear,
    # yet its gate dynamics make it the costliest unit.
    from concurrent.futures import ProcessPoolExecutor

    from repro import parallel

    submitted = []

    class Recording(ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append(args[1])  # (unit, payload, telemetry on)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", Recording)
    defects = [
        OpenDefect(OpenLocation.BL_PRECHARGE_CELLS, r)
        for r in (3e3, 1e5, 1e6, 3e6)
    ] + [
        OpenDefect(OpenLocation.SENSE_AMPLIFIER, 1e5),
        OpenDefect(OpenLocation.WORD_LINE, 3e7),
    ]
    (results,) = run_march_lanes(
        [MATS_PLUS], defects, PRESETS, stop_at_first=True, jobs=2
    )
    groups = [payload[1] for payload in submitted]
    assert [group[0].location for group in groups] == [
        OpenLocation.WORD_LINE, OpenLocation.BL_PRECHARGE_CELLS,
        OpenLocation.SENSE_AMPLIFIER,
    ]
    assert results == scalar(MATS_PLUS, defects, stop_at_first=True)


def test_threaded_caller_runs_in_process_whatever_jobs(monkeypatch):
    # A served job runs beside the server's threads, whose locks a
    # forked child would inherit in whatever state they are, so even an
    # explicit jobs=2 keeps its units in the calling process.
    import threading

    from repro import parallel

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a threaded caller must not fork")

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", NoPool)
    results = []
    caller = threading.Thread(target=lambda: results.extend(
        run_march_lanes(
            [MATS_PLUS], POPULATION, PRESETS, stop_at_first=True, jobs=2
        )[0]
    ))
    caller.start()
    caller.join()
    assert results == scalar(MATS_PLUS, POPULATION, stop_at_first=True)
