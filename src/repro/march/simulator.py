"""March test execution and detection qualification.

:func:`run_march` drives any object with the ``read(addr)``/
``write(addr, value)`` protocol (fault-free arrays, behavioural fault
machines, the electrical column model) and reports every read whose value
differs from the march-expected one.

:func:`run_march_lanes` runs marches over a whole population of open
defects on the electrical model at once: a march applies the same
operation schedule to every defect and only records read mismatches, so
defects at one location advance in lock-step as members of a
:class:`~repro.circuit.column.GridBatch`, with the floating presets as
lanes.  Each location is one work unit, run in process or on a forked
worker.  Its results equal :func:`run_march` on each defect's
:class:`~repro.memory.simulator.ElectricalMemory`, which stays the
oracle.

:func:`detects` qualifies *guaranteed* detection of a behavioural fault:
the paper's floating voltages mean a defective memory's initial state is
unknown, so the test must fail for **every** initial floating-node value,
every victim location and both resolutions of ``⇕`` elements.
:func:`escape_cases` decides those scenarios on each victim row's
projected operation stream: the fault machine only sees its victim's
operations and the values driven onto the victim's bit line.  One
:func:`run_march` per scenario on a fresh
:class:`~repro.memory.simulator.FaultyMemory` stays the oracle
(:func:`_simulated_escape_cases`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..circuit.column import DRAMColumn, GridBatch
from ..circuit.defects import FloatingNode, OpenDefect, OpenLocation
from ..circuit.technology import Technology, default_technology
from ..core.fault_primitives import FaultPrimitive
from ..memory.array import Topology
from ..memory.fault_machine import BehavioralFault, NodeKind
from ..memory.simulator import ElectricalMemory, FaultyMemory
from .notation import Direction, MarchPause, MarchTest

__all__ = [
    "Mismatch",
    "MarchResult",
    "run_march",
    "run_march_lanes",
    "rail_presets",
    "detects",
    "escape_cases",
    "detects_coupling",
]


@dataclass(frozen=True)
class Mismatch:
    """One failing read: where it happened and what was seen."""

    element_index: int
    address: int
    op_index: int
    expected: int
    observed: int


@dataclass(frozen=True)
class MarchResult:
    """Outcome of one march run."""

    test_name: str
    mismatches: Tuple[Mismatch, ...]
    operations: int

    @property
    def detected(self) -> bool:
        return bool(self.mismatches)


def run_march(
    test: MarchTest,
    memory,
    size: Optional[int] = None,
    either_as: Direction = Direction.UP,
    stop_at_first: bool = False,
) -> MarchResult:
    """Run a march test against a memory; collect read mismatches.

    ``memory`` needs ``read``/``write`` (and optionally ``tick``, called
    between elements to model idle precharge cycles).  ``either_as``
    resolves ``⇕`` elements.
    """
    n = size if size is not None else memory.size
    mismatches: List[Mismatch] = []
    operations = 0
    tick = getattr(memory, "tick", None)
    pause = getattr(memory, "pause", None)
    for ei, element in enumerate(test.elements):
        telemetry.count("march.elements_applied")
        if isinstance(element, MarchPause):
            if pause is not None:
                pause(element.seconds)
            continue
        for address in element.addresses(n, either_as):
            for oi, op in enumerate(element.ops):
                operations += 1
                if op.is_write:
                    memory.write(address, op.value)
                else:
                    observed = memory.read(address)
                    if observed != op.value:
                        mismatches.append(
                            Mismatch(ei, address, oi, op.value, observed)
                        )
                        if stop_at_first:
                            telemetry.count("march.runs")
                            telemetry.count("march.operations", operations)
                            return MarchResult(
                                test.name, tuple(mismatches), operations
                            )
        if tick is not None:
            tick()
    telemetry.count("march.runs")
    telemetry.count("march.operations", operations)
    return MarchResult(test.name, tuple(mismatches), operations)


def rail_presets(
    technology: Optional[Technology] = None,
) -> Tuple[float, float]:
    """The two floating presets that bound the reachable states: every
    floating node at ground, or at the technology's supply rail."""
    return (0.0, (technology or default_technology()).vdd)


def _run_point(
    test: MarchTest,
    defect,
    preset: float,
    technology: Optional[Technology],
    n_rows: int,
    stop_at_first: bool,
    either_as: Direction,
) -> MarchResult:
    """The scalar oracle: one defect, every floating node at ``preset``."""
    memory = ElectricalMemory.with_defect(
        defect=defect, technology=technology, n_rows=n_rows,
        floating=dict.fromkeys(FloatingNode, preset),
    )
    return run_march(
        test, memory, either_as=either_as, stop_at_first=stop_at_first
    )


def run_march_lanes(
    tests: Sequence[MarchTest],
    defects: Sequence[Optional[OpenDefect]],
    presets: Sequence[float],
    technology: Optional[Technology] = None,
    n_rows: int = 3,
    stop_at_first: bool = False,
    either_as: Direction = Direction.UP,
    jobs: Optional[int] = 1,
) -> List[List[Tuple[MarchResult, ...]]]:
    """Run marches over a defect population, under every floating preset.

    ``results[t][i][j]`` is the :class:`MarchResult` of ``tests[t]`` on
    ``defects[i]`` with every floating node preset to ``presets[j]``: the
    same value :func:`run_march` returns on that defect's
    :class:`~repro.memory.simulator.ElectricalMemory`, first mismatch and
    ``operations`` included, and the ``march.*`` counters advance as if
    it had run.

    Open defects sharing ``(location, row)`` form one work unit
    (:func:`_group_unit`): each test in turn runs them as one
    :class:`~repro.circuit.column.GridBatch`, members the resistances,
    lanes the presets.  A word-line open puts its resistance in the gate
    dynamics, so there every ``(defect, preset)`` point is a width-1
    member with a private gate.  With ``stop_at_first`` a member retires
    once all its lanes have failed.  ``jobs`` forked worker processes run
    the units, the costliest first (:func:`_unit_cost`); ``jobs=1`` runs
    them in process and ``None`` takes one worker per usable core
    (:func:`repro.parallel.default_jobs`).  A caller that cannot fork
    safely (:func:`repro.parallel.fork_safe`: other threads are running,
    as in the sweep service) runs them in process whatever ``jobs`` is.
    Results are filed by population index and telemetry merges in unit
    order, so the result is identical for any ``jobs``.  Everything the
    batch cannot carry runs through :func:`run_march` per point: members
    demoted by a solver guard trip (inside their unit), and, in the
    calling process, tests with ``Del`` elements (the batch has no idle
    leakage) and defects that are not true-line opens (``None`` is the
    healthy device).
    """
    from ..parallel import default_jobs, fork_safe, parallel_map_ex

    tests = tuple(tests)
    if not presets:
        return [[() for _ in defects] for _ in tests]
    results: List[List[List[Optional[MarchResult]]]] = [
        [[None] * len(presets) for _ in defects] for _ in tests
    ]
    stacked = [t for t, test in enumerate(tests) if not test.pauses]
    groups: Dict[Tuple[OpenLocation, int], List[int]] = {}
    for i, defect in enumerate(defects):
        batched = isinstance(defect, OpenDefect) and defect.on_true_line
        if batched and stacked:
            groups.setdefault((defect.location, defect.row), []).append(i)
        for t, test in enumerate(tests):
            if batched and not test.pauses:
                continue
            for j, preset in enumerate(presets):
                results[t][i][j] = _run_point(
                    test, defect, preset, technology, n_rows,
                    stop_at_first, either_as,
                )
    units = [[defects[i] for i in indices] for indices in groups.values()]
    if jobs is None:
        jobs = default_jobs(len(units))
    elif not fork_safe():
        jobs = 1
    outcome = parallel_map_ex(
        _group_unit,
        [
            ([tests[t] for t in stacked], group, presets, technology, n_rows,
             stop_at_first, either_as)
            for group in units
        ],
        jobs=jobs,
        strict=True,
        costs=[_unit_cost(group) for group in units],
    )
    for indices, per_test in zip(groups.values(), outcome.results):
        for t, lane_results in zip(stacked, per_test):
            for (g, j), result in lane_results.items():
                results[t][indices[g]][j] = result
    return [[tuple(row) for row in per_test] for per_test in results]


def _group_unit(payload) -> List[Dict[Tuple[int, int], MarchResult]]:
    """The work unit of :func:`run_march_lanes`: every test, in turn, over
    one ``(location, row)`` group.  A pure function of its payload, so a
    worker process reproduces the in-process result exactly."""
    tests, defects, presets, technology, n_rows, stop_at_first, either_as = (
        payload
    )
    return [
        _run_group(
            test, defects, presets, technology, n_rows, stop_at_first,
            either_as,
        )
        for test in tests
    ]


def _unit_cost(defects: Sequence[OpenDefect]) -> float:
    """Relative run time of one group's unit, to start the longest first.

    Phases cost most of a group's time whatever its size, and a
    word-line member's floating gate moves in every phase, so its batch
    rebuilds the stacked propagators other groups find in their memo.
    March PF+ over one group of 1 to 32 defects (2-core host) took 5-10
    times as long on the word line as on any other open, and one defect
    took a third of what 32 took.
    """
    weight = 10.0 if defects[0].location is OpenLocation.WORD_LINE else 1.0
    return weight * (10 + len(defects))


def _run_group(
    test: MarchTest,
    defects: List[OpenDefect],
    presets: Sequence[float],
    technology: Optional[Technology],
    n_rows: int,
    stop_at_first: bool,
    either_as: Direction,
) -> Dict[Tuple[int, int], MarchResult]:
    """Lock-step march over same-``(location, row)`` opens.

    Returns the result per ``(defect index, preset index)``.
    """
    row = defects[0].row
    host = DRAMColumn(technology, n_rows=n_rows, defect=defects[0])
    states, gate_inits = [], []
    for preset in presets:
        host.reset({})
        for node in FloatingNode:
            host.set_floating_voltage(node, preset)
        states.append(host.net.state_vector())
        gate_inits.append(host.gate_voltage(row))
    host.reset({})
    n_presets = len(presets)
    # slots[m][k]: the (defect, preset) point of member m, lane k.
    if defects[0].location is OpenLocation.WORD_LINE:
        points = [
            (i, j) for i in range(len(defects)) for j in range(n_presets)
        ]
        slots = [[point] for point in points]
        batch = GridBatch(
            host,
            [defects[i].resistance for i, _ in points],
            np.stack([states[j] for _, j in points])[:, :, None],
            gate_voltages=[gate_inits[j] for _, j in points],
            point_lanes=[[j] for _, j in points],
            shared_stacks=False,
        )
    else:
        slots = [
            [(i, j) for j in range(n_presets)] for i in range(len(defects))
        ]
        batch = GridBatch(
            host,
            [d.resistance for d in defects],
            np.stack(states, axis=1),
            shared_stacks=False,
        )
    n_lanes = batch.n_lanes
    found: Dict[Tuple[int, int], List[Mismatch]] = {}
    #: (member, lane) -> (operations, elements entered) at its first fail
    stopped: Dict[Tuple[int, int], Tuple[int, int]] = {}

    def read(ei: int, address: int, oi: int, expected: int,
             operations: int) -> None:
        """Read every point; record each point's mismatches (up to its
        first one under ``stop_at_first``, then retire finished members)."""
        observed = batch.read(address)
        members = batch.active_members
        for r, k in zip(*np.nonzero(observed != expected)):
            point = (members[r], int(k))
            if point in stopped:
                continue
            found.setdefault(point, []).append(
                Mismatch(ei, address, oi, expected, int(observed[r, k]))
            )
            if stop_at_first:
                stopped[point] = (operations, ei + 1)
        if stop_at_first:
            batch.retire(
                m for m in members
                if all((m, k) in stopped for k in range(n_lanes))
            )

    def execute() -> int:
        operations = 0
        for ei, element in enumerate(test.elements):
            for address in element.addresses(n_rows, either_as):
                for oi, op in enumerate(element.ops):
                    operations += 1
                    if op.is_write:
                        batch.write(address, op.value)
                    else:
                        read(ei, address, oi, op.value, operations)
                    if not batch.n_members:
                        return operations
            batch.precharge_cycle()
        return operations

    operations = execute()
    out: Dict[Tuple[int, int], MarchResult] = {}
    counts = [0, 0, 0]  # runs, operations, elements applied
    for m, member_slots in enumerate(slots):
        for k, (i, j) in enumerate(member_slots):
            if m in batch.demoted:
                out[i, j] = _run_point(
                    test, defects[i], presets[j], technology, n_rows,
                    stop_at_first, either_as,
                )
                continue
            ops, elements = stopped.get(
                (m, k), (operations, len(test.elements))
            )
            out[i, j] = MarchResult(
                test.name, tuple(found.get((m, k), ())), ops
            )
            counts[0] += 1
            counts[1] += ops
            counts[2] += elements
    telemetry.count("march.runs", counts[0])
    telemetry.count("march.operations", counts[1])
    telemetry.count("march.elements_applied", counts[2])
    return out


def detects(
    test: MarchTest,
    fp: FaultPrimitive,
    topology: Optional[Topology] = None,
    node_values: Sequence[Optional[int]] = (0, 1),
    kind: Optional[NodeKind] = None,
    both_either_directions: bool = True,
) -> bool:
    """Guaranteed detection of a fault primitive by a march test.

    True only if the test flags the fault for every victim address, every
    initial floating-node value in ``node_values`` and (by default) both
    resolutions of ``⇕`` elements.  This is the paper's criterion: a
    partial fault whose floating node happens to sit in the benign range
    must still be caught.

    Note on STATIC faults: a static node value that never sensitizes the
    fault makes the memory functionally fault-free, so no test can flag
    it; qualify those with ``node_values=(1,)`` (the active region) to ask
    "is the fault caught whenever it manifests?".
    """
    return not escape_cases(
        test, fp, topology, node_values, kind, both_either_directions
    )


def _directions(both_either_directions: bool) -> Tuple[Direction, ...]:
    return (
        (Direction.UP, Direction.DOWN) if both_either_directions
        else (Direction.UP,)
    )


def detects_coupling(
    test: MarchTest,
    ffm,
    topology: Optional[Topology] = None,
    adjacent_only: bool = False,
    both_either_directions: bool = True,
) -> bool:
    """Guaranteed detection of a two-cell coupling fault.

    Qualifies over every ordered (aggressor, victim) pair — or only
    physically adjacent same-column pairs when ``adjacent_only`` is set,
    matching bridge defects — and both ``⇕`` resolutions.  Coupling
    machines have no floating node, so no node sweep is needed.
    """
    from ..memory.coupling_machine import CouplingFault

    topology = topology or Topology(n_rows=4, n_cols=2)
    directions = _directions(both_either_directions)
    for aggressor in topology.addresses():
        for victim in topology.addresses():
            if aggressor == victim:
                continue
            if adjacent_only:
                if not topology.same_column(aggressor, victim):
                    continue
                if abs(topology.row_of(aggressor) - topology.row_of(victim)) != 1:
                    continue
            for either_as in directions:
                fault = CouplingFault(ffm, aggressor, victim, topology)
                memory = FaultyMemory(topology, fault)
                result = run_march(
                    test, memory, either_as=either_as, stop_at_first=True
                )
                if not result.detected:
                    return False
    return True


def escape_cases(
    test: MarchTest,
    fp: FaultPrimitive,
    topology: Optional[Topology] = None,
    node_values: Sequence[Optional[int]] = (0, 1),
    kind: Optional[NodeKind] = None,
    both_either_directions: bool = True,
) -> Tuple[Tuple[int, Optional[int], Direction], ...]:
    """The scenarios (victim, node value, ⇕ resolution) the test misses.

    Decided without simulating whole memories.  A fault machine only
    reacts to its victim's operations, to the values driven onto the
    victim's bit line and to the ticks between elements, so each victim
    row's projected stream (:func:`_row_streams`) decides every scenario
    of that row; the non-victim cells matter only when they fail the
    march themselves (:func:`_fails_fault_free`).  The result, order
    included, and the exceptions raised equal those of
    :func:`_simulated_escape_cases`, which runs one :func:`run_march`
    per scenario.
    """
    topology = topology or Topology(n_rows=4, n_cols=2)
    directions = _directions(both_either_directions)
    if not node_values:
        return ()  # no scenario builds a machine, so none can raise
    # Build a machine before any shortcut, so an FP whose node kind
    # cannot be inferred raises as the simulation would.
    sensitizing = BehavioralFault.from_fp(
        fp, 0, topology, kind=kind
    ).sensitizing_op
    telemetry.count(
        "march.qualified_scenarios",
        topology.size * len(node_values) * len(directions),
    )
    if topology.size > 1 and _fails_fault_free(test):
        # Some non-victim cell fails in every scenario.  Only a victim
        # read that trips the machine's missing-R assertion first could
        # change that, and only the full simulation can time it.
        if (sensitizing is not None and sensitizing.is_read
                and fp.read_value is None):
            return _simulated_escape_cases(
                test, fp, topology, node_values, kind, both_either_directions
            )
        return ()
    # Rows that see the same stream share its verdicts.
    distinct: Dict[_Stream, int] = {}
    stream_of: Dict[Tuple[int, Direction], int] = {}
    for either_as in directions:
        rows = _row_streams(test, topology.n_rows, either_as)
        for row, stream in enumerate(rows):
            stream_of[row, either_as] = distinct.setdefault(
                stream, len(distinct)
            )
    streams = list(distinct)
    verdicts: Dict[Tuple[int, Optional[int]], bool] = {}
    escapes: List[Tuple[int, Optional[int], Direction]] = []
    for victim in topology.addresses():
        row = victim // topology.n_cols
        for node_value in node_values:
            for either_as in directions:
                key = (stream_of[row, either_as], node_value)
                if key not in verdicts:
                    fault = BehavioralFault.from_fp(
                        fp, victim, topology, node_value=node_value,
                        kind=kind,
                    )
                    verdicts[key] = _escapes(fault, streams[key[0]])
                if verdicts[key]:
                    escapes.append((victim, node_value, either_as))
    return tuple(escapes)


def _fails_fault_free(test: MarchTest) -> bool:
    """Does a cell of a 0-filled fault-free memory fail the march?

    Every address receives the same operation sequence, so one cell
    answers for all of them, in either ⇕ resolution.
    """
    state = 0
    for element in test.march_elements:
        for op in element.ops:
            if op.is_write:
                state = op.value
            elif op.value != state:
                return True
    return False


#: A projected operation stream: ``(code, value)`` events.
_Stream = Tuple[Tuple[str, int], ...]

#: The precharge cycle that closes every operation-carrying element.
_TICK = ("t", 0)


def _row_streams(
    test: MarchTest, n_rows: int, either_as: Direction
) -> List[_Stream]:
    """Per victim row, the events its fault machine reacts to.

    In march order: the victim's own operations (``("r", expected)``,
    ``("w", value)``), the value left on its bit line by the column-mates
    an element visits before it (``("c", value)``: the element's last
    operation value, written, or restored by the sense amplifier on a
    march that fault-free cells pass) and one tick per non-``Del``
    element.  Column-mates visited after the victim drive the value the
    victim's own last operation left, unless that operation already
    failed.  Other columns never reach the machine, so every victim of
    a row sees the same stream.
    """
    top, bottom = 0, n_rows - 1
    leading_row = {  # the row an element visits first
        Direction.UP: top,
        Direction.DOWN: bottom,
        Direction.EITHER: top if either_as is Direction.UP else bottom,
    }
    streams: List[List[Tuple[str, int]]] = [[] for _ in range(n_rows)]
    for element in test.march_elements:
        own = tuple((op.kind, op.value) for op in element.ops) + (_TICK,)
        driven = (("c", element.ops[-1].value),) + own
        lead = leading_row[element.direction]
        for row, events in enumerate(streams):
            events.extend(own if row == lead else driven)
    return [tuple(events) for events in streams]


def _escapes(fault: BehavioralFault, stream: _Stream) -> bool:
    """Does ``fault`` pass one stream of :func:`_row_streams` with no
    victim read mismatching?  A column-mate event drives the bit line
    through a write to the victim's column-mate in the next row (a
    one-row topology has no column-mate, and its streams no such
    event)."""
    victim = fault.victim
    mate = (victim + fault.topology.n_cols) % fault.topology.size
    for code, value in stream:
        if code == "r":
            if fault.on_read(victim, value) != value:
                return False
        elif code == "w":
            fault.on_write(victim, value)
        elif code == "c":
            fault.on_write(mate, value)
        else:
            fault.tick()
    return True


def _simulated_escape_cases(
    test: MarchTest,
    fp: FaultPrimitive,
    topology: Optional[Topology] = None,
    node_values: Sequence[Optional[int]] = (0, 1),
    kind: Optional[NodeKind] = None,
    both_either_directions: bool = True,
) -> Tuple[Tuple[int, Optional[int], Direction], ...]:
    """The oracle of :func:`escape_cases`: one fresh
    :class:`~repro.memory.simulator.FaultyMemory` and one
    :func:`run_march` per (victim, node value, ⇕ resolution)."""
    topology = topology or Topology(n_rows=4, n_cols=2)
    escapes: List[Tuple[int, Optional[int], Direction]] = []
    for victim in topology.addresses():
        for node_value in node_values:
            for either_as in _directions(both_either_directions):
                fault = BehavioralFault.from_fp(
                    fp, victim, topology, node_value=node_value, kind=kind
                )
                memory = FaultyMemory(topology, fault)
                result = run_march(
                    test, memory, either_as=either_as, stop_at_first=True
                )
                if not result.detected:
                    escapes.append((victim, node_value, either_as))
    return tuple(escapes)
