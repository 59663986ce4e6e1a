"""The array-first grid engine agrees with the scalar oracle.

Four layers are pinned here:

* :func:`repro.circuit.network._expm_stack` produces bit-identical
  exponentials to the scalar :func:`~repro.circuit.network._expm`;
* :meth:`NetworkEnsemble.run_grid` reproduces per-member
  :meth:`Network.run_batch` solves bit-exactly (shared propagator
  cache, stacked matmul) — as a Hypothesis property over random
  topologies, member resistances and initial states;
* sense-amp lane disagreement *forks* a :class:`GridBatch` member
  instead of demoting it, and the resulting region map is identical to
  the scalar analyzer's — including the word-line grid, whose points
  carry private gates;
* only members whose solves actually trip a guard are demoted, and the
  demoted members re-run through the scalar path.

Plus the prefix memo: :meth:`GridBatch.snapshot`/:meth:`~GridBatch.restore`
round-trip the mutable state, and a replayed prefix yields the same
observations as a cold execution.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import telemetry
from repro.circuit.defects import FloatingNode, OpenLocation
from repro.circuit.network import (
    Network,
    NetworkEnsemble,
    _expm,
    _expm_stack,
    propagator_cache_clear,
    _install_solver_fault_hook,
)
from repro.core.analysis import ColumnFaultAnalyzer, default_grid_for
from repro.core.fault_primitives import parse_sos


@pytest.fixture(autouse=True)
def _fresh_cache():
    propagator_cache_clear()
    yield
    propagator_cache_clear()


# -- stacked exponentials ------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(2, 6),
    st.integers(0, 2 ** 31 - 1),
)
def test_expm_stack_matches_scalar_expm_bitwise(m, n, seed):
    rng = np.random.default_rng(seed)
    mats = rng.uniform(-2.0, 2.0, size=(m, n, n))
    stacked = _expm_stack(mats)
    for i in range(m):
        assert np.array_equal(stacked[i], _expm(mats[i]))


# -- ensemble vs per-member scalar solves --------------------------------------

def _nodes(n):
    return [f"n{i}" for i in range(n)]


@st.composite
def ensemble_cases(draw):
    n = draw(st.integers(2, 4))
    n_members = draw(st.integers(1, 3))
    n_lanes = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    caps = rng.uniform(1e-14, 5e-13, size=n)
    v0 = rng.uniform(0.0, 3.3, size=(n_members, n, n_lanes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    shared = [
        (i, j, float(r))
        for (i, j), r in zip(pairs, rng.uniform(1e3, 1e6, len(pairs)))
        if draw(st.booleans())
    ]
    # The defect edge: same pair in every member, a different resistance
    # per member — exactly the grid engine's R_def axis.
    di, dj = pairs[draw(st.integers(0, len(pairs) - 1))]
    member_r = rng.uniform(1e3, 1e7, size=n_members)
    drive_v = float(rng.uniform(0.0, 3.3))
    duration = float(rng.uniform(1e-10, 1e-7))
    return (n, caps, v0, shared, (di, dj), member_r, drive_v, duration)


def _build_host(n, caps):
    net = Network()
    for name, c in zip(_nodes(n), caps):
        net.add_node(name, float(c))
    return net


@settings(max_examples=40, deadline=None)
@given(ensemble_cases())
def test_run_grid_matches_per_member_run_batch_bitwise(case):
    n, caps, v0, shared, (di, dj), member_r, drive_v, duration = case
    names = _nodes(n)
    host = _build_host(n, caps)
    ens = NetworkEnsemble(host, len(member_r))
    for i, j, r in shared:
        ens.connect(names[i], names[j], r)
    ens.drive(names[0], drive_v, 2e3)
    for m, r in enumerate(member_r):
        ens.connect_member(m, names[di], names[dj], float(r))
    result = ens.run_grid(duration, v0)
    assert result.tripped == {}
    for m, r in enumerate(member_r):
        ref = _build_host(n, caps)
        for i, j, rr in shared:
            ref.connect(names[i], names[j], rr)
        ref.drive(names[0], drive_v, 2e3)
        ref.connect(names[di], names[dj], float(r))
        expected = ref.run_batch(duration, v0[m])
        assert np.array_equal(np.asarray(result.voltages)[m], expected)


@settings(max_examples=20, deadline=None)
@given(ensemble_cases())
def test_run_grid_blocks_ragged_matches_same_width(case):
    n, caps, v0, shared, (di, dj), member_r, drive_v, duration = case
    names = _nodes(n)
    host = _build_host(n, caps)
    ens = NetworkEnsemble(host, len(member_r))
    for i, j, r in shared:
        ens.connect(names[i], names[j], r)
    ens.drive(names[0], drive_v, 2e3)
    for m, r in enumerate(member_r):
        ens.connect_member(m, names[di], names[dj], float(r))
    stacked = ens.run_grid(duration, v0)
    blocks = ens.run_grid_blocks(duration, [v0[m] for m in range(len(member_r))])
    assert blocks.tripped == {}
    for m in range(len(member_r)):
        assert np.array_equal(
            np.asarray(stacked.voltages)[m], np.asarray(blocks.voltages[m])
        )


def test_floating_ensemble_holds_charge():
    host = _build_host(3, [1e-13, 2e-13, 3e-13])
    ens = NetworkEnsemble(host, 2)
    v0 = np.arange(2 * 3 * 2, dtype=float).reshape(2, 3, 2)
    result = ens.run_grid(5e-9, v0)
    assert np.array_equal(np.asarray(result.voltages), v0)


# -- fault-hook driven guard trips: only the hit member demotes ----------------

def test_guard_trip_demotes_only_the_divergent_member():
    host = _build_host(2, [1e-13, 1e-13])
    ens = NetworkEnsemble(host, 3)
    ens.connect("n0", "n1", 1e4)
    ens.drive("n0", 1.0, 1e3)
    v0 = np.full((3, 2, 2), 0.5)

    def poison_member_one(voltages, info):
        if info.get("member") == 1:
            out = np.array(voltages)
            out[0, 0] = np.nan
            return out
        return voltages

    _install_solver_fault_hook(poison_member_one)
    try:
        result = ens.run_grid(1e-9, v0)
    finally:
        _install_solver_fault_hook(None)
    assert set(result.tripped) == {1}
    assert result.tripped[1] == "nan"
    clean = ens.run_grid(1e-9, v0)
    assert clean.tripped == {}
    for m in (0, 2):
        assert np.array_equal(
            np.asarray(result.voltages)[m], np.asarray(clean.voltages)[m]
        )


# -- GridBatch forking and analyzer identity -----------------------------------

def _labels(analyzer, sos, floating, grid):
    return analyzer.region_map(sos, floating, grid=grid).labels


@pytest.mark.parametrize(
    "location,floating,sos_text",
    [
        (OpenLocation.BL_PRECHARGE_CELLS, FloatingNode.BIT_LINE, "1r1"),
        (OpenLocation.CELL, FloatingNode.CELL, "0r0"),
        (OpenLocation.SENSE_AMPLIFIER, FloatingNode.BIT_LINE, "0w1"),
        (OpenLocation.WORD_LINE, FloatingNode.WORD_LINE, "1r1"),
    ],
)
def test_region_map_grid_equals_scalar(location, floating, sos_text):
    grid = default_grid_for(location, n_r=5, n_u=4)
    sos = parse_sos(sos_text)
    scalar = ColumnFaultAnalyzer(location, grid=grid, grid_engine=False)
    gridded = ColumnFaultAnalyzer(location, grid=grid, grid_engine=True)
    assert _labels(scalar, sos, floating, grid) == _labels(
        gridded, sos, floating, grid
    )


def test_lane_disagreement_forks_instead_of_demoting():
    # A full-width U axis across the sense threshold guarantees lanes of
    # one member disagree on the latch decision somewhere in the sweep.
    location = OpenLocation.BL_PRECHARGE_CELLS
    grid = default_grid_for(location, n_r=5, n_u=6)
    sos = parse_sos("1r1")
    telemetry.enable()
    telemetry.reset()
    try:
        gridded = ColumnFaultAnalyzer(location, grid=grid, grid_engine=True)
        grid_labels = _labels(gridded, sos, FloatingNode.BIT_LINE, grid)
        counters = telemetry.get_metrics().snapshot()["counters"]
    finally:
        telemetry.disable()
        telemetry.reset()
    assert counters.get("column.grid_forks", 0) > 0
    assert counters.get("column.grid_demotions", 0) == 0
    scalar = ColumnFaultAnalyzer(location, grid=grid, grid_engine=False)
    assert grid_labels == _labels(scalar, sos, FloatingNode.BIT_LINE, grid)


def test_full_survey_grid_equals_scalar():
    location = OpenLocation.BL_SENSEAMP_IO
    grid = default_grid_for(location, n_r=4, n_u=3)

    def fingerprint(grid_engine):
        analyzer = ColumnFaultAnalyzer(
            location, grid=grid, grid_engine=grid_engine
        )
        return [
            (f.location, f.floating, f.probe_sos, f.ffm, f.region.labels)
            for f in analyzer.survey()
        ]

    assert fingerprint(True) == fingerprint(False)


# -- snapshot/restore and the prefix memo --------------------------------------

def _fresh_batch(location=OpenLocation.BL_PRECHARGE_CELLS):
    from repro.circuit.column import GridBatch

    grid = default_grid_for(location, n_r=3, n_u=3)
    analyzer = ColumnFaultAnalyzer(location, grid=grid, grid_engine=True)
    column = analyzer.make_column(grid.r_values[0])
    data = {}
    lanes = []
    for u in grid.u_values:
        column.reset(data)
        column.set_floating_voltage(FloatingNode.BIT_LINE, u)
        lanes.append(column.net.state_vector())
    column.reset(data)
    return GridBatch(
        column, tuple(grid.r_values), np.stack(lanes, axis=1)
    ), analyzer


def test_snapshot_restore_round_trips_the_execution_state():
    batch, analyzer = _fresh_batch()
    snap = batch.snapshot()
    batch.write(analyzer.victim_row, 1)
    batch.read(analyzer.victim_row)
    after_ops = (batch.V.copy(), batch._fired.copy(), batch._value.copy())
    batch.restore(snap)
    assert np.array_equal(batch.V, snap[0])
    assert not batch._fired.any()
    # Replaying the same operations from the snapshot reproduces the
    # state bit for bit.
    batch.write(analyzer.victim_row, 1)
    batch.read(analyzer.victim_row)
    assert np.array_equal(batch.V, after_ops[0])
    assert np.array_equal(batch._fired, after_ops[1])
    assert np.array_equal(batch._value, after_ops[2])


def test_snapshot_refuses_demoted_batches():
    batch, _ = _fresh_batch()
    batch._demote_members([0], "guard")
    with pytest.raises(ValueError):
        batch.snapshot()
    with pytest.raises(ValueError):
        batch.restore((batch.V.copy(), batch._fired.copy(),
                       batch._value.copy(), {}))


def test_prefix_reuse_is_invisible_in_the_observations():
    # Two sequences sharing a two-op prefix: the second run resumes from
    # the memoized prefix state and must classify identically to a cold
    # analyzer that never shared anything.
    location = OpenLocation.BL_PRECHARGE_CELLS
    grid = default_grid_for(location, n_r=4, n_u=3)
    soses = [parse_sos("1w0r0"), parse_sos("1w0w1"), parse_sos("1w0r0r0")]

    telemetry.enable()
    telemetry.reset()
    try:
        warm = ColumnFaultAnalyzer(location, grid=grid, grid_engine=True)
        warm_maps = [
            _labels(warm, sos, FloatingNode.BIT_LINE, grid) for sos in soses
        ]
        counters = telemetry.get_metrics().snapshot()["counters"]
    finally:
        telemetry.disable()
        telemetry.reset()
    assert counters.get("analyzer.grid_prefix_reuses", 0) > 0
    for sos, warm_map in zip(soses, warm_maps):
        cold = ColumnFaultAnalyzer(location, grid=grid, grid_engine=True)
        assert _labels(cold, sos, FloatingNode.BIT_LINE, grid) == warm_map
