"""The array-first grid engine agrees with the scalar oracle.

Four layers are pinned here:

* :func:`repro.circuit.network._expm_stack` produces bit-identical
  exponentials to the scalar :func:`~repro.circuit.network._expm`, and
  :meth:`Network._augmented_stack` bit-identical system matrices to the
  scalar :meth:`Network._augmented_matrix`;
* :meth:`NetworkEnsemble.run_grid` (and a padded ``run_grid_array``
  stack) reproduces per-member :meth:`Network.run_batch` solves
  bit-exactly (shared propagator cache, stacked matmul) — as Hypothesis
  properties over random topologies, member resistances, lane counts
  and initial states;
* sense-amp lane disagreement *forks* a :class:`GridBatch` member
  instead of demoting it: after every phase each point equals
  ``run_batch`` over exactly its fork's lanes, and the resulting region
  map is identical to the scalar analyzer's — including the word-line
  grid, whose points carry their own gates (stepped as arrays,
  bit-identical to :class:`WordLineGate`);
* only members whose solves actually trip a guard are demoted, with the
  same guard names, counters and cache evictions on uniform and forked
  pools, and the demoted members re-run through the scalar path.

Plus the prefix memo: :meth:`GridBatch.snapshot`/:meth:`~GridBatch.restore`
round-trip the mutable state, and a replayed prefix yields the same
observations as a cold execution.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import telemetry
from repro.circuit.column import GridBatch
from repro.circuit.defects import FloatingNode, OpenLocation
from repro.circuit.network import (
    _G_MIN,
    Network,
    NetworkEnsemble,
    _expm,
    _expm_stack,
    ensemble_cache_info,
    propagator_cache_clear,
    propagator_cache_info,
    solver_guards_configure,
    _install_solver_fault_hook,
)
from repro.circuit.wordline import (
    WordLineGate,
    advance_gates,
    conduction_factors,
    decay_factors,
)
from repro.core.analysis import ColumnFaultAnalyzer, default_grid_for
from repro.core.fault_primitives import parse_sos


@pytest.fixture(autouse=True)
def _fresh_cache():
    propagator_cache_clear()
    yield
    propagator_cache_clear()


# -- stacked exponentials ------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 16),
    st.integers(2, 6),
    st.integers(0, 2 ** 31 - 1),
)
def test_expm_stack_matches_scalar_expm_bitwise(m, n, seed):
    """One stack mixes 0 to ~40 squarings and zero slices: members leave
    the Taylor loop at different terms and square different counts."""
    rng = np.random.default_rng(seed)
    # Diagonally dominant with a negative diagonal, like a network's
    # system matrix, so even the largest scales stay finite.
    mats = rng.uniform(-1.0, 1.0, size=(m, n, n))
    mats[:, range(n), range(n)] -= n
    scales = np.logspace(-1.0, 11.0, m) if m > 1 else np.ones(1)
    rng.shuffle(scales)
    scales[rng.random(m) < 0.2] = 0.0
    mats *= scales[:, None, None]
    stacked = _expm_stack(mats)
    for i in range(m):
        assert stacked[i].tobytes() == _expm(mats[i]).tobytes()


# -- stacked system matrices ---------------------------------------------------

#: Resistances whose conductance falls below _G_MIN sit beside ordinary
#: ones, so the builder's skip rule is exercised.
_resistances = st.one_of(
    st.floats(1e-3, 1e9), st.floats(2.0 / _G_MIN, 1e18)
)


@st.composite
def phase_keys(draw):
    """Same-size phase signatures with shared endpoints, parallel edges,
    edges below _G_MIN and several drivers on one node — in any order,
    since the builder must follow the key's own order."""
    n = draw(st.integers(2, 5))
    node = st.integers(0, n - 1)
    keys = []
    for _ in range(draw(st.integers(1, 5))):
        caps = tuple(draw(st.lists(
            st.floats(1e-16, 1e-12), min_size=n, max_size=n
        )))
        pairs = draw(st.lists(
            st.tuples(node, node).filter(lambda p: p[0] != p[1]), max_size=7
        ))
        # Parallel edges: repeat one pair with its own resistance.
        if pairs:
            pairs.append(pairs[0])
        edges = tuple(
            (min(a, b), max(a, b), draw(_resistances)) for a, b in pairs
        )
        drivers = [
            (draw(node), draw(st.floats(-1.0, 4.0)), draw(_resistances))
            for _ in range(draw(st.integers(0, 3)))
        ]
        # Several drivers on one node.
        if drivers:
            drivers.append((drivers[0][0], draw(st.floats(-1.0, 4.0)),
                            draw(_resistances)))
        duration = draw(st.floats(1e-12, 1e-6))
        keys.append((n, caps, edges, tuple(drivers), duration))
    return keys


@settings(max_examples=60, deadline=None)
@given(phase_keys())
def test_augmented_stack_matches_scalar_builder_bitwise(keys):
    stacked = Network._augmented_stack(keys)
    expected = np.stack([Network._augmented_matrix(key) for key in keys])
    assert stacked.tobytes() == expected.tobytes()


def test_augmented_stack_counts_ill_conditioning_like_the_scalar_builder():
    stiff = (3, (1e-15, 1e-15, 1e-15), ((0, 1, 1e-3), (1, 2, 1e14)), (), 1e-9)
    mild = (3, (1e-15, 1e-15, 1e-15), ((0, 1, 1e3), (1, 2, 2e3)), (), 1e-9)
    keys = [stiff, mild, stiff]

    def counted(build):
        telemetry.enable()
        telemetry.reset()
        try:
            build()
            counters = telemetry.get_metrics().snapshot()["counters"]
        finally:
            telemetry.disable()
            telemetry.reset()
        return counters.get("solver.guard_ill_conditioned", 0)

    solver_guards_configure(condition_checks=True)
    try:
        scalar = counted(lambda: [Network._augmented_matrix(k) for k in keys])
        stacked = counted(lambda: Network._augmented_stack(keys))
    finally:
        solver_guards_configure(condition_checks=False)
    assert scalar == stacked == 2


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
    ens.connect_members(names[di], names[dj], member_r)
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


@settings(max_examples=40, deadline=None)
@given(ensemble_cases(), st.data())
def test_padded_run_grid_array_matches_run_batch_over_real_lanes(case, data):
    # A forked phase hands the solver one stack padded to its widest
    # member; each member's real lanes (one lane included, which BLAS
    # solves as a matrix-vector product) must still come out exactly as
    # Network.run_batch gives them.
    n, caps, v0, shared, (di, dj), member_r, drive_v, duration = case
    names = _nodes(n)
    widths = np.array([
        data.draw(st.integers(1, v0.shape[2])) for _ in member_r
    ])
    padded = v0.copy()
    for m, w in enumerate(widths):
        padded[m, :, w:] = padded[m, :, w - 1:w]
    ens = NetworkEnsemble(_build_host(n, caps), len(member_r))
    for i, j, r in shared:
        ens.connect(names[i], names[j], r)
    ens.drive(names[0], drive_v, 2e3)
    ens.connect_members(names[di], names[dj], member_r)
    result = ens.run_grid_array(duration, padded, widths)
    assert result.tripped == {}
    for m, r in enumerate(member_r):
        ref = _build_host(n, caps)
        for i, j, rr in shared:
            ref.connect(names[i], names[j], rr)
        ref.drive(names[0], drive_v, 2e3)
        ref.connect(names[di], names[dj], float(r))
        expected = ref.run_batch(duration, v0[m, :, :widths[m]])
        got = np.asarray(result.voltages)[m]
        assert np.array_equal(got[:, :widths[m]], expected)
        # The padding repeats the last real lane.
        assert np.array_equal(
            got[:, widths[m]:],
            np.repeat(expected[:, -1:], v0.shape[2] - widths[m], axis=1),
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


def test_floating_word_line_on_a_cell_open_keeps_the_shared_gate():
    """Only a word-line open gives each point its own gate: on Open 1 a
    floating word line has no resistance behind it and follows its
    driver in the first phase, as in the scalar column (rows 2-4 of this
    map differed when every point charged its gate through R_def)."""
    location = OpenLocation.CELL
    grid = default_grid_for(location, n_r=5, n_u=4)
    sos = parse_sos("0r0")
    floating = (FloatingNode.WORD_LINE,)
    scalar = ColumnFaultAnalyzer(location, grid=grid, grid_engine=False)
    gridded = ColumnFaultAnalyzer(location, grid=grid, grid_engine=True)
    assert _labels(gridded, sos, floating, grid) == _labels(
        scalar, sos, floating, grid
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


#: Floating bit-line levels that split a member's latch decisions 1/5:
#: a forked phase then pads a one-lane group beside a five-lane one.
_SPLIT_LANES = (0.0, 2.0, 2.4, 2.8, 3.0, 3.3)


def _split_batch(stored=0):
    location = OpenLocation.BL_PRECHARGE_CELLS
    grid = default_grid_for(location, n_r=3, n_u=len(_SPLIT_LANES))
    analyzer = ColumnFaultAnalyzer(location, grid=grid, grid_engine=True)
    column = analyzer.make_column(grid.r_values[0])
    data = {analyzer.victim_row: stored}
    lanes = []
    for u in _SPLIT_LANES:
        column.reset(data)
        column.set_floating_voltage(FloatingNode.BIT_LINE, u)
        lanes.append(column.net.state_vector())
    column.reset(data)
    batch = GridBatch(column, (3e3, 1e5, 3e7), np.stack(lanes, axis=1))
    return batch, analyzer


def test_forked_tile_matches_run_batch_per_group_bitwise(monkeypatch):
    batch, analyzer = _split_batch()
    widths_seen = []
    phase = GridBatch._phase

    def checked(self, duration, active_row, precharge=False,
                sa_drive=False, write_value=None):
        before = self.V.copy()
        latch = (
            np.where(self._fired, self._value + 1, 0) if sa_drive
            else np.zeros(self._pt_member.size, dtype=int)
        )
        members, r_of = self._pt_member.copy(), self._pt_r.copy()
        phase(self, duration, active_row, precharge, sa_drive, write_value)
        assert not self.demoted
        groups = sorted(set(zip(members.tolist(), latch.tolist())))
        widths_seen.append([
            int(((members == m) & (latch == l)).sum()) for m, l in groups
        ])
        for m, l in groups:
            points = np.flatnonzero((members == m) & (latch == l))
            ref = analyzer.make_column(r_of[points[0]])
            ref.sa.fired, ref.sa.value = l > 0, (l - 1 if l else None)
            ref._apply_plan(ref._phase_plan(
                duration, active_row, precharge, sa_drive, write_value
            ))
            expected = ref.net.run_batch(duration, before[:, points])
            assert self.V[:, points].tobytes() == expected.tobytes()

    monkeypatch.setattr(GridBatch, "_phase", checked)
    victim = analyzer.victim_row
    batch.read(victim)
    batch.write(victim, 1)
    batch.read(victim)
    batch.write(victim, 0)
    # The tile forked into a lone lane beside a padded five-lane group.
    assert any(1 in w and 5 in w for w in widths_seen)


def _guard_run(poison, forked):
    """Read a preloaded 1 on the split tile while the fault hook writes
    ``poison`` into node 0 of one real lane of member 1's first solve —
    in the first (forked) sense phase, or in the (uniform) precharge.

    Returns what the guards did: the demoted members, the guard
    counters and the cache evictions.
    """
    batch, analyzer = _split_batch(stored=1)
    target_r = batch.r_values[1]
    fired = []

    def hook(v_t, info):
        if fired or info.get("member_r") != target_r:
            return v_t
        if forked and info["n_lanes"] == len(_SPLIT_LANES):
            return v_t
        fired.append(info["n_lanes"])
        out = np.array(v_t)
        out[0, -1] = poison
        return out

    before = (propagator_cache_info().evictions, ensemble_cache_info().evictions)
    telemetry.enable()
    telemetry.reset()
    _install_solver_fault_hook(hook)
    try:
        batch.read(analyzer.victim_row)
        counters = telemetry.get_metrics().snapshot()["counters"]
    finally:
        _install_solver_fault_hook(None)
        telemetry.disable()
        telemetry.reset()
    assert fired == ([1] if forked else [len(_SPLIT_LANES)])
    guards = {k: v for k, v in counters.items() if k.startswith("solver.guard")}
    evictions = (
        propagator_cache_info().evictions - before[0],
        ensemble_cache_info().evictions - before[1],
    )
    return batch.demoted, guards, evictions


@pytest.mark.parametrize("forked", [False, True], ids=["uniform", "forked"])
@pytest.mark.parametrize(
    "poison,guard",
    [(np.nan, "nan"), (np.inf, "nan"), (-np.inf, "nan"), (40.0, "rail")],
    ids=["nan", "+inf", "-inf", "rail"],
)
def test_guard_trip_pins_member_guard_counters_and_evictions(
    poison, guard, forked
):
    demoted, guards, evictions = _guard_run(poison, forked)
    assert demoted == {1: "guard"}
    assert guards == {"solver.guard_trips": 1, f"solver.guard_{guard}": 1}
    # The member's scalar propagator and the ensemble's stacked block.
    assert evictions == (1, 1)


# -- word-line gates as arrays -------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-1.0, 4.0),
            st.one_of(st.just(0.0), st.sampled_from([1e3, 5e4]),
                      st.floats(1e2, 1e9)),
        ),
        min_size=1, max_size=12,
    ),
    st.floats(1e-16, 1e-13),
    st.floats(1e-12, 1e-7),
    st.sampled_from([0.0, 3.3, 2.8]),
)
def test_array_gate_step_equals_wordline_gate_bitwise(gates, c, duration, driven):
    voltages = np.array([v for v, _ in gates])
    resistances = np.array([r for _, r in gates])
    x, decay = decay_factors(resistances, c, duration)
    end, mean = advance_gates(voltages, driven, x, decay)
    factors = conduction_factors(mean, 0.6, 2.8)
    for i, (v, r) in enumerate(gates):
        gate = WordLineGate(capacitance=c, resistance=r, voltage=v)
        gate_mean = gate.advance(driven, duration)
        assert np.float64(gate.voltage).tobytes() == end[i].tobytes()
        assert np.float64(gate_mean).tobytes() == mean[i].tobytes()
        assert (
            np.float64(gate.conduction(gate_mean, 0.6, 2.8)).tobytes()
            == factors[i].tobytes()
        )


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
