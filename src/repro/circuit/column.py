"""Electrical model of one DRAM cell-array column (Fig. 2 of the paper).

The column contains, left to right along the true bit line (BT):
precharge devices, the memory cells, the reference cells, the sense
amplifier, the column select and the read/write circuitry.  The complement
bit line (BC) mirrors the structure and carries the reference cell used
when a BT cell is read.

Every memory operation is decomposed into phases, each simulated exactly
on a lumped RC network (:mod:`repro.circuit.network`):

1. **precharge** — BT/BC driven to ``v_precharge`` and equalized,
2. **share** — the addressed word line rises, cell and reference cell dump
   charge onto their bit lines,
3. **sense** — the SA latch fires on sufficient differential and restores
   full levels; the sensed value is forwarded to the output buffer through
   the column select; the reference cell is rewritten,
4. **write** (write operations only) — the write drivers overpower the
   latch from the IO side,
5. **wl off** — the word line falls and the cell isolates.

A single :class:`~repro.circuit.defects.OpenDefect` may be injected; the
open's resistance appears in the corresponding branch and bit-line
segments left floating by the open simply keep their charge — which is
precisely the behaviour partial faults feed on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..errors import SolverDivergenceError
from .bridges import BridgeDefect, BridgeLocation
from .defects import FloatingNode, OpenDefect, OpenLocation
from .network import Network, NetworkEnsemble
from .senseamp import SenseAmplifier
from .technology import Technology, default_technology
from .wordline import (
    WordLineGate,
    advance_gates,
    conduction_factors,
    decay_factors,
)

__all__ = [
    "DRAMColumn",
    "OperationRecord",
    "GridBatch",
]

#: Bit-line segments in physical order along BT.
_SEGMENTS = ("pre", "cells", "ref", "sa", "io")

#: Opens that split BT: open location -> index of the segment *right* of it.
_SPLIT_BEFORE = {
    OpenLocation.BL_PRECHARGE_CELLS: 1,
    OpenLocation.BL_CELLS_REFERENCE: 2,
    OpenLocation.BL_REFERENCE_SENSEAMP: 3,
    OpenLocation.BL_SENSEAMP_IO: 4,
}

#: Minimum transistor conduction still treated as a connection.
_MIN_CONDUCTION = 1e-6

#: Cap on a shared built-ensemble cache (see :class:`GridBatch`); oldest
#: entries are dropped first.
_ENS_CACHE_MAX = 4096

#: Cap on the memo of a batch with private stacks (the march runner's):
#: enough for the phase configurations one pool repeats.  Each entry
#: holds a stack of member propagators; on the ``screen`` benchmark
#: sample 16 entries add ~0.5 MB of peak RSS over no memo, 32 ~0.9 MB.
_PRIVATE_MEMO_MAX = 16


def _phase_name(
    active_row: Optional[int],
    precharge: bool,
    sa_drive: bool,
    write_value: Optional[int],
) -> str:
    """Human name of a phase configuration, for guard-trip diagnostics."""
    if precharge:
        return "precharge"
    if write_value is not None:
        return "write"
    if sa_drive:
        return "sense"
    if active_row is not None:
        return "share"
    return "wl_off"


class _PhasePlan(NamedTuple):
    """R_def-parametric declaration of one phase configuration.

    A phase's resistors and drivers depend on the defect resistance only
    through terms of the form ``base + R_def`` (``weighted`` entries); the
    topology, the gate trajectories and every other value are shared by all
    columns that differ only in ``R_def``.  Splitting the declaration from
    its application lets :class:`GridBatch` instantiate the same plan for a
    whole stack of resistances at once while the scalar path
    (:meth:`DRAMColumn._apply_plan`) stays bit-identical to the historical
    inline configuration.

    ``connects`` rows are ``(a, b, base, weighted, post)`` applied as
    ``connect(a, b, (base + R_def if weighted else base) + post)`` — the
    ``post`` term preserves the exact association of the precharge
    equalizer's two series resistors.  ``drives`` rows are
    ``(node, volts, base, weighted)``.  The sense-amp drive is kept
    symbolic (``sa_*`` fields) because its rails depend on the latch state,
    which is per-member in a grid.
    """

    connects: Tuple[Tuple[str, str, float, bool, float], ...]
    drives: Tuple[Tuple[str, float, float, bool], ...]
    sa_drive: bool
    sa_node: str
    sa_base: float
    sa_weighted: bool


@dataclass(frozen=True)
class OperationRecord:
    """Trace entry for one executed operation (useful in tests/debugging)."""

    kind: str
    row: int
    value: Optional[int]
    sa_fired: bool
    sa_value: Optional[int]
    read_result: Optional[int]
    differential: float


class DRAMColumn:
    """One defective (or fault-free) DRAM column with an operation API."""

    def __init__(
        self,
        technology: Optional[Technology] = None,
        n_rows: int = 3,
        defect: Optional[OpenDefect] = None,
    ) -> None:
        if n_rows < 1:
            raise ValueError("a column needs at least one row")
        if isinstance(defect, OpenDefect) and not defect.on_true_line:
            raise ValueError(
                "complementary defects are not simulated directly; simulate "
                "the true-line defect and complement the resulting faults"
            )
        if defect is not None and defect.row >= n_rows:
            raise ValueError("defect row outside the column")
        if (
            isinstance(defect, BridgeDefect)
            and defect.location is BridgeLocation.CELL_CELL
            and defect.partner_row >= n_rows
        ):
            raise ValueError("cell-cell bridge partner row outside the column")
        self.tech = technology or default_technology()
        self.n_rows = n_rows
        self.defect = defect
        self.sa = SenseAmplifier(offset=self.tech.sa_offset)
        self.history: List[OperationRecord] = []
        self._build()
        self.reset()

    # -- construction ---------------------------------------------------------

    def _seg_caps(self) -> Dict[str, float]:
        t = self.tech
        return {
            "pre": t.c_bl_precharge_stub,
            "cells": t.c_bl_cells,
            "ref": t.c_bl_reference,
            "sa": t.c_bl_senseamp,
            "io": t.c_bl_io,
        }

    def _build(self) -> None:
        t = self.tech
        split = None
        if isinstance(self.defect, OpenDefect):
            split = _SPLIT_BEFORE.get(self.defect.location)
        groups: List[Tuple[str, ...]]
        if split is None:
            groups = [_SEGMENTS]
        else:
            groups = [_SEGMENTS[:split], _SEGMENTS[split:]]
        caps = self._seg_caps()
        self.net = Network()
        self._seg_node: Dict[str, str] = {}
        self._bt_nodes: List[str] = []
        for i, group in enumerate(groups):
            name = "bt" if len(groups) == 1 else f"bt{i}"
            self.net.add_node(name, c=sum(caps[s] for s in group))
            self._bt_nodes.append(name)
            for seg in group:
                self._seg_node[seg] = name
        self.net.add_node("bc", c=t.c_bl_total)
        for row in range(self.n_rows):
            self.net.add_node(f"cell{row}", c=t.c_cell)
        self.net.add_node("ref", c=t.c_ref_cell)
        self.net.add_node("buf", c=t.c_out_buffer)
        self._gates = [
            WordLineGate(
                capacitance=t.c_wl_gate,
                resistance=self._defect_r(OpenLocation.WORD_LINE, row),
            )
            for row in range(self.n_rows)
        ]

    def _defect_r(self, location: OpenLocation, row: Optional[int] = None) -> float:
        """Open resistance contributed at a given location (0 if absent)."""
        d = self.defect
        if not isinstance(d, OpenDefect) or d.location is not location:
            return 0.0
        if row is not None and location in (OpenLocation.CELL, OpenLocation.WORD_LINE):
            return d.resistance if d.row == row else 0.0
        return d.resistance

    # -- state ---------------------------------------------------------------

    def reset(self, data: Optional[Dict[int, int]] = None) -> None:
        """Set every node to its nominal level; optionally preload cells.

        ``data`` maps row -> stored bit; unlisted rows hold 0.  The preload
        sets cell voltages *directly* (as if written before the defect
        mattered); use :meth:`write` to establish data through the
        defective circuit.
        """
        t = self.tech
        for node in self._bt_nodes:
            self.net.set_voltage(node, t.v_precharge)
        self.net.set_voltage("bc", t.v_precharge)
        data = data or {}
        for row in range(self.n_rows):
            value = data.get(row, 0)
            self.net.set_voltage(f"cell{row}", t.vdd if value else 0.0)
        self.net.set_voltage("ref", t.v_reference)
        self.net.set_voltage("buf", 0.0)
        for gate in self._gates:
            gate.voltage = 0.0
        self.sa.reset()
        self.history.clear()

    def set_floating_voltage(self, node: FloatingNode, voltage: float) -> None:
        """Initialize a floating voltage before applying an SOS.

        Which electrical node(s) the value lands on follows Section 2 of
        the paper: for bit-line opens it is the bit-line section left
        floating by the injected open (for a fault-free column, the whole
        bit line).
        """
        if node is FloatingNode.CELL:
            row = self.defect.row if self.defect is not None else 0
            self.net.set_voltage(f"cell{row}", voltage)
        elif node is FloatingNode.REFERENCE_CELL:
            self.net.set_voltage("ref", voltage)
        elif node is FloatingNode.OUTPUT_BUFFER:
            self.net.set_voltage("buf", voltage)
        elif node is FloatingNode.WORD_LINE:
            row = self.defect.row if self.defect is not None else 0
            self._gates[row].voltage = voltage
        elif node is FloatingNode.BIT_LINE:
            for name in self._floating_bt_nodes():
                self.net.set_voltage(name, voltage)
        else:  # pragma: no cover - exhaustive over the enum
            raise ValueError(f"unknown floating node {node!r}")

    def _floating_bt_nodes(self) -> Tuple[str, ...]:
        """BT nodes that float for the injected defect (all, if none)."""
        if not isinstance(self.defect, OpenDefect):
            return tuple(self._bt_nodes)
        loc = self.defect.location
        if loc in _SPLIT_BEFORE:
            # The section cut off from the precharge devices floats.
            return (self._bt_nodes[-1],)
        return tuple(self._bt_nodes)

    def cell_voltage(self, row: int) -> float:
        return self.net.voltage(f"cell{row}")

    def gate_voltage(self, row: int) -> float:
        return self._gates[row].voltage

    def buffer_voltage(self) -> float:
        return self.net.voltage("buf")

    def reference_voltage(self) -> float:
        return self.net.voltage("ref")

    def bitline_voltage(self, segment: str = "cells") -> float:
        return self.net.voltage(self._seg_node[segment])

    @property
    def state_threshold(self) -> float:
        """Cell voltage above which an ideal (defect-free) read returns 1."""
        t = self.tech
        k_cell = t.c_cell / (t.c_cell + t.c_bl_total)
        k_ref = t.c_ref_cell / (t.c_ref_cell + t.c_bl_total)
        return t.v_precharge + (t.v_reference - t.v_precharge) * k_ref / k_cell

    def logical_state(self, row: int) -> int:
        """The bit an ideal read of this cell would return (the FP's F)."""
        return 1 if self.cell_voltage(row) > self.state_threshold else 0

    # -- operations ------------------------------------------------------------

    def read(self, row: int) -> int:
        """Apply one read operation; return the output-buffer value."""
        return self._operation("r", row, None)

    def write(self, row: int, value: int) -> None:
        """Apply one write operation."""
        if value not in (0, 1):
            raise ValueError("written value must be 0 or 1")
        self._operation("w", row, value)

    def precharge_cycle(self) -> None:
        """Run one precharge/equalize cycle with no cell access.

        This is how state faults are probed: e.g. with a word-line open
        whose gate floats high, the cell is charged up by the bit-line
        precharge even though no operation addresses it (the paper's SF0
        mechanism for Open 9).
        """
        telemetry.count("column.precharge_cycles")
        self.sa.reset()
        self._phase(self.tech.t_precharge, active_row=None, precharge=True)
        self._phase(self.tech.t_wl_off, active_row=None)

    def idle(self, duration: float) -> None:
        """Let the column sit unclocked; cell charge leaks away.

        Every storage node decays toward ground through the intrinsic
        leakage resistance (temperature-dependent, see
        :attr:`Technology.effective_cell_leak`); a ``CELL_GROUND`` bridge
        defect adds its much stronger leak in parallel on the affected
        row.  Bit lines are assumed refreshed by the next precharge and
        are left untouched.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        if duration == 0:
            return
        import math as _math

        t = self.tech
        # Junction leakage — intrinsic and defect-induced alike — is a
        # thermal mechanism: both double every 10 C.
        thermal = 2.0 ** ((t.temperature - 25.0) / 10.0)
        for row in range(self.n_rows):
            conductance = 1.0 / t.effective_cell_leak
            if (
                isinstance(self.defect, BridgeDefect)
                and self.defect.location is BridgeLocation.CELL_GROUND
                and self.defect.row == row
            ):
                conductance += thermal / self.defect.resistance
            tau = t.c_cell / conductance
            factor = _math.exp(-duration / tau)
            self.net.set_voltage(
                f"cell{row}", self.net.voltage(f"cell{row}") * factor
            )
        tau_ref = t.effective_cell_leak * t.c_ref_cell
        self.net.set_voltage(
            "ref", self.net.voltage("ref") * _math.exp(-duration / tau_ref)
        )

    def _operation(self, kind: str, row: int, value: Optional[int]) -> Optional[int]:
        if not 0 <= row < self.n_rows:
            raise ValueError(f"row {row} outside 0..{self.n_rows - 1}")
        telemetry.count("column.reads" if kind == "r" else "column.writes")
        t = self.tech
        self.sa.reset()
        self._phase(t.t_precharge, active_row=None, precharge=True)
        self._phase(t.t_share, active_row=row)
        self.sa.sense(self._v_sa_true(), self.net.voltage("bc"))
        dv = self._v_sa_true() - self.net.voltage("bc")
        t_strobe = min(t.t_io_sample, t.t_sense)
        self._phase(t_strobe, active_row=row, sa_drive=True)
        self._update_buffer()
        self._phase(t.t_sense - t_strobe, active_row=row, sa_drive=True)
        read_result: Optional[int] = None
        if kind == "r":
            read_result = 1 if self.net.voltage("buf") > t.vdd / 2 else 0
        if kind == "w":
            assert value is not None
            self._phase(
                t.t_write / 2, active_row=row, sa_drive=True, write_value=value,
            )
            self.sa.maybe_flip(self._v_sa_true(), self.net.voltage("bc"))
            self._phase(
                t.t_write / 2, active_row=row, sa_drive=True, write_value=value,
            )
            self._update_buffer()
        self._phase(t.t_wl_off, active_row=None)
        self.history.append(
            OperationRecord(
                kind, row, value, self.sa.fired, self.sa.value, read_result, dv
            )
        )
        return read_result

    # -- phase machinery ----------------------------------------------------------

    def _update_buffer(self) -> None:
        """Second-stage IO amplifier: latch the IO-line differential.

        The read output buffer compares the column-selected true IO line
        against the complement line.  Below ``io_offset`` of differential
        (e.g. a stale, floating IO segment behind Open 8, or an undriven
        pair behind a dead sense amplifier) it keeps its previous state.
        """
        t = self.tech
        dv = self.net.voltage(self._seg_node["io"]) - self.net.voltage("bc")
        if abs(dv) >= t.io_offset:
            self.net.set_voltage("buf", t.vdd if dv > 0 else 0.0)

    def _v_sa_true(self) -> float:
        return self.net.voltage(self._seg_node["sa"])

    def _phase(
        self,
        duration: float,
        active_row: Optional[int],
        precharge: bool = False,
        sa_drive: bool = False,
        write_value: Optional[int] = None,
    ) -> None:
        self._apply_plan(
            self._phase_plan(duration, active_row, precharge, sa_drive,
                             write_value)
        )
        try:
            self.net.run(duration)
        except SolverDivergenceError as err:
            raise SolverDivergenceError(
                err.guard,
                err.message,
                phase=_phase_name(active_row, precharge, sa_drive, write_value),
                **err.context,
            ) from err

    def _plan_r(self) -> float:
        """The R_def substituted into ``weighted`` plan entries."""
        if isinstance(self.defect, OpenDefect):
            return self.defect.resistance
        return 0.0

    def _plan_weighted(
        self, location: OpenLocation, row: Optional[int] = None
    ) -> bool:
        """Whether a branch at ``location`` carries the open's resistance.

        Mirrors :meth:`_defect_r`, but as a flag: plan entries add the
        defect resistance symbolically (``base + R_def``) rather than
        baking a concrete value in, so one plan serves every member of a
        resistance grid.
        """
        d = self.defect
        if not isinstance(d, OpenDefect) or d.location is not location:
            return False
        if row is not None and location in (OpenLocation.CELL, OpenLocation.WORD_LINE):
            return d.row == row
        return True

    def _phase_plan(
        self,
        duration: float,
        active_row: Optional[int],
        precharge: bool = False,
        sa_drive: bool = False,
        write_value: Optional[int] = None,
        skip_gate_rows: Sequence[int] = (),
    ) -> _PhasePlan:
        """Build the R_def-parametric plan of one phase.

        This advances the word-line gate dynamics for the phase, so it must
        be called exactly once per simulated phase (whether the plan is
        then applied scalar or instantiated across a resistance grid).

        ``skip_gate_rows`` names rows whose gate the *caller* tracks (a
        grid batch with per-member word-line gates): their host gate is
        neither advanced nor turned into an access connect here.
        """
        t = self.tech
        connects: List[Tuple[str, str, float, bool, float]] = []
        drives: List[Tuple[str, float, float, bool]] = []
        # Bit-line split across the open (if any).
        if len(self._bt_nodes) == 2:
            assert self.defect is not None
            connects.append((self._bt_nodes[0], self._bt_nodes[1], 0.0, True, 0.0))
        # Bridges conduct in every phase: they add a branch, never gate one.
        if isinstance(self.defect, BridgeDefect):
            if self.defect.location is BridgeLocation.CELL_CELL:
                connects.append((
                    f"cell{self.defect.row}",
                    f"cell{self.defect.partner_row}",
                    self.defect.resistance, False, 0.0,
                ))
            elif self.defect.location is BridgeLocation.CELL_BITLINE:
                connects.append((
                    f"cell{self.defect.row}",
                    self._seg_node["cells"],
                    self.defect.resistance, False, 0.0,
                ))
            else:  # CELL_GROUND: a leak to substrate
                drives.append((
                    f"cell{self.defect.row}", 0.0, self.defect.resistance,
                    False,
                ))
        # Access transistors: gates follow their drivers (through a word-line
        # open, if present); conduction uses the phase-mean gate voltage.
        wl_high = active_row is not None and not precharge
        for row in range(self.n_rows):
            if row in skip_gate_rows:
                continue
            driven = t.v_wl_on if (wl_high and row == active_row) else 0.0
            mean_gate = self._gates[row].advance(driven, duration)
            factor = self._gates[row].conduction(mean_gate, t.v_threshold, t.v_wl_on)
            if factor > _MIN_CONDUCTION:
                connects.append((
                    f"cell{row}", self._seg_node["cells"],
                    t.r_access / factor,
                    self._plan_weighted(OpenLocation.CELL, row), 0.0,
                ))
        # Reference word line fires with every access.
        if wl_high:
            connects.append((
                "ref", "bc", t.r_access,
                self._plan_weighted(OpenLocation.REFERENCE_CELL), 0.0,
            ))
        if precharge:
            pre_weighted = self._plan_weighted(OpenLocation.PRECHARGE)
            drives.append((
                self._seg_node["pre"], t.v_precharge, t.r_precharge,
                pre_weighted,
            ))
            drives.append(("bc", t.v_precharge, t.r_precharge, False))
            connects.append((
                self._seg_node["pre"], "bc", t.r_precharge, pre_weighted,
                t.r_precharge,
            ))
            # The reference cells are re-initialized every precharge cycle.
            # The reference level is regenerated by sense-amp internal
            # devices, so an Open 7 (and an open inside the reference cell)
            # degrades this path — the paper's "reference cells depend on
            # the proper functionality of the sense amplifier".  At most one
            # of the two locations can host the (single) open, so the
            # weighted flag folds both into one ``base + R_def`` term.
            drives.append((
                "ref", t.v_reference, t.r_ref_restore,
                self._plan_weighted(OpenLocation.SENSE_AMPLIFIER)
                or self._plan_weighted(OpenLocation.REFERENCE_CELL),
            ))
        if write_value is not None:
            rail = t.vdd if write_value else 0.0
            drives.append((self._seg_node["io"], rail, t.r_write_driver, False))
            drives.append(("bc", t.vdd - rail, t.r_write_driver, False))
        return _PhasePlan(
            connects=tuple(connects),
            drives=tuple(drives),
            sa_drive=sa_drive,
            sa_node=self._seg_node["sa"],
            sa_base=t.r_senseamp,
            sa_weighted=self._plan_weighted(OpenLocation.SENSE_AMPLIFIER),
        )

    def _apply_plan(self, plan: _PhasePlan) -> None:
        """Instantiate a phase plan on the scalar network."""
        t = self.tech
        net = self.net
        net.clear_phase()
        r_def = self._plan_r()
        for a, b, base, weighted, post in plan.connects:
            r = base + r_def if weighted else base
            net.connect(a, b, r + post)
        for node, volts, base, weighted in plan.drives:
            net.drive(node, volts, base + r_def if weighted else base)
        if plan.sa_drive and self.sa.fired:
            rail = self.sa.rail(t.vdd)
            assert rail is not None
            r_sa = plan.sa_base + r_def if plan.sa_weighted else plan.sa_base
            net.drive(plan.sa_node, rail, r_sa)
            net.drive("bc", t.vdd - rail, r_sa)


class _TileSolve(NamedTuple):
    """A built phase configuration of one point pool (see
    :meth:`GridBatch._phase`): the ensemble with one member per
    same-configuration group, and ``members[g]``, the original member
    of group ``g``.

    A *forked* configuration (some member's lanes disagree on the latch
    state) also carries its padded layout: ``gather`` is the ``(G, W)``
    pool index of every group's lanes, each group padded to the widest
    by repeating its last lane; ``scatter`` maps each pool point to its
    position on the flat ``G * W`` lane axis; ``widths`` holds the real
    lane counts and ``forks`` the groups beyond one per member.
    """

    ensemble: NetworkEnsemble
    members: np.ndarray
    gather: Optional[np.ndarray] = None
    scatter: Optional[np.ndarray] = None
    widths: Optional[np.ndarray] = None
    forks: int = 0


class GridBatch:
    """Lock-step execution of one operation sequence over a (R_def × U) grid.

    A ``GridBatch`` vectorizes both axes of a sweep tile: each *member*
    is the same column topology with a different open resistance, and
    each member carries all U *lanes* (many initial states, one phase
    schedule).
    Internally the state is flat — one ``(n_nodes, n_points)`` matrix over
    every surviving ``(member, lane)`` point — advanced with one
    :meth:`NetworkEnsemble.run_grid_array` product per phase; sense-amp
    decisions, buffer latching and read results are elementwise over the
    points.

    The phase configuration comes from the host column's
    :meth:`DRAMColumn._phase_plan`: ``weighted`` plan entries are
    instantiated per member as ``base + R_def``, everything else is shared.
    Word-line opens put the resistance inside the nonlinear gate dynamics,
    so their members cannot share gate trajectories; they are accepted
    only with ``gate_voltages`` — each member's initial voltage of the
    defect row's floating gate, which then charges through the member's
    own ``R_def``.  The gates advance as one array per phase
    (:func:`~repro.circuit.wordline.advance_gates`) and become per-member
    access connects (the caller then makes every grid *point* its own
    width-1 member, since the gate trajectory depends on both ``R_def``
    and the floating ``U``).

    Lanes of one member disagreeing on the sense-amp decision does
    **not** demote anything: the member *forks* into sub-groups by latch state
    ``(fired, value)``, and each fork continues vectorized with its own
    sense-amp rail drive.  Per point the phase sequence is identical to
    what the scalar column would apply, so forking is pure execution
    strategy.  Only solver guard trips (``"guard"``) demote: the affected
    member is sliced out of the point pool and recorded in :attr:`demoted`
    by its original index, and the caller re-runs it through the scalar
    path, which stays the bit-exact oracle.  A caller that is done with
    some members (a march whose every lane has already failed) drops them
    with :meth:`retire`, which is not a demotion.

    ``shared_stacks=False`` keeps the stacked propagators private: they
    skip the process-global ensemble cache, and the batch's own memo of
    built ensembles (``ens_cache`` is then not shared) holds at most
    ``_PRIVATE_MEMO_MAX`` entries and is emptied whenever members leave
    the pool.  Member propagators still resolve through the scalar
    propagator cache.  The march runner sets it: a march repeats few
    phase configurations per pool, its pools shrink as members retire,
    and stacks kept beyond that would only hold memory.
    """

    def __init__(
        self,
        column: DRAMColumn,
        r_values: Sequence[float],
        initial_states,
        gate_voltages: Optional[Sequence[float]] = None,
        point_lanes: Optional[Sequence[Sequence[int]]] = None,
        ens_cache: Optional[Dict[tuple, _TileSolve]] = None,
        plan_cache: Optional[Dict[tuple, _PhasePlan]] = None,
        shared_stacks: bool = True,
    ) -> None:
        defect = column.defect
        if not isinstance(defect, OpenDefect):
            raise ValueError("GridBatch requires an open-defect host column")
        if defect.location is OpenLocation.WORD_LINE and gate_voltages is None:
            raise ValueError(
                "word-line opens put the defect resistance inside the gate "
                "dynamics; pass per-member initial gate voltages "
                "(gate_voltages) so each member carries its own gate "
                "trajectory"
            )
        self.column = column
        self.r_values = np.asarray(r_values, dtype=float)
        if self.r_values.ndim != 1 or self.r_values.size == 0:
            raise ValueError("r_values must be a non-empty 1-D sequence")
        n_nodes = len(column.net.node_names)
        V = np.array(initial_states, dtype=float)
        members = self.r_values.size
        if V.ndim == 2:
            # One shared initial state per lane: the presets and floating
            # initializations do not depend on R_def.
            V = np.broadcast_to(V, (members,) + V.shape).copy()
        if V.ndim != 3 or V.shape[:2] != (members, n_nodes):
            raise ValueError(
                f"initial_states has shape {V.shape}; expected "
                f"({members}, {n_nodes}, n_lanes)"
            )
        self.n_lanes = V.shape[2]
        # Flat member-major point pool: point p = (member, lane) with
        # member = _pt_member[p], lane = _pt_lane[p].  Demotion removes a
        # member's whole contiguous lane run, so the pool always reshapes
        # to (n_members, n_lanes) in member order.
        self.V = np.concatenate(list(V), axis=1)
        points = members * self.n_lanes
        self._pt_member = np.repeat(np.arange(members), self.n_lanes)
        if point_lanes is None:
            self._pt_lane = np.tile(np.arange(self.n_lanes), members)
        else:
            # Caller-defined lane identities (a word-line grid splits one
            # logical U axis into width-1 members; fault targeting still
            # needs each point's original U index).
            self._pt_lane = np.asarray(point_lanes, dtype=int).reshape(-1)
            if self._pt_lane.shape != (points,):
                raise ValueError(
                    f"point_lanes must hold {points} lane ids; got "
                    f"{self._pt_lane.shape}"
                )
        self._pt_r = self.r_values[self._pt_member]
        #: Gate voltage of each pool member's defect-row word line (None
        #: without a floating gate); rows follow the pool's members.
        self._gate_v: Optional[np.ndarray] = None
        self._gate_rows: Tuple[int, ...] = ()
        if gate_voltages is not None:
            self._gate_v = np.array(gate_voltages, dtype=float)
            if self._gate_v.shape != (members,):
                raise ValueError(
                    f"gate_voltages must hold one voltage per member "
                    f"({members}); got {self._gate_v.shape}"
                )
            self._gate_rows = (defect.row,)
        #: original member index -> demotion reason ("guard"/...)
        self.demoted: Dict[int, str] = {}
        self._fired = np.zeros(points, dtype=bool)
        self._value = np.zeros(points, dtype=int)
        # Shareable like ens_cache: a plan is a pure function of the phase
        # arguments for a fixed column configuration (host gates here are
        # memoryless: a word-line open's stateful gate lives in _gate_v
        # and is skipped via skip_gate_rows), so an analyzer hands every
        # batch the same dict.
        self._plan_cache: Dict[tuple, _PhasePlan] = (
            plan_cache if plan_cache is not None else {}
        )
        # Built-configuration cache.  Keys are content-addressed (phase
        # args + pool bytes + latch bytes + gate connects), so a caller
        # may share one dict across many batches — the analysis layer
        # does this per analyzer, letting every operation sequence of a
        # survey reuse the ensembles (and their propagator memos and fork
        # layouts) of the previous ones.
        self._ens_cache: Dict[tuple, _TileSolve] = (
            ens_cache if ens_cache is not None else {}
        )
        self._shared_stacks = shared_stacks
        self._ens_cache_max = (
            _ENS_CACHE_MAX if shared_stacks else _PRIVATE_MEMO_MAX
        )
        self._pool_token: Optional[tuple] = None
        net = column.net
        self._i_bc = net.node_index("bc")
        self._i_buf = net.node_index("buf")
        self._i_sa = net.node_index(column._seg_node["sa"])
        self._i_io = net.node_index(column._seg_node["io"])

    # -- member bookkeeping ----------------------------------------------------

    @property
    def n_members(self) -> int:
        return self._pt_member.size // self.n_lanes

    @property
    def active_members(self) -> List[int]:
        """Original indices of the members still in the pool, in order."""
        return self._pt_member[::self.n_lanes].tolist()

    def _demote_members(self, members, reason: str) -> None:
        doomed = sorted({int(m) for m in members})
        if not doomed:
            return
        for m in doomed:
            self.demoted[m] = reason
        telemetry.count("column.grid_demotions", len(doomed))
        self._drop_members(doomed)

    def retire(self, members) -> None:
        """Drop finished members from the pool without demoting them.

        Unlike a guard-trip demotion nothing is recorded in
        :attr:`demoted`: the caller already holds the members' results
        and needs no scalar re-run.  Members not in the pool are ignored.
        """
        done = sorted({int(m) for m in members}.intersection(
            self.active_members
        ))
        if not done:
            return
        telemetry.count("column.grid_retired", len(done))
        self._drop_members(done)

    def _drop_members(self, members: List[int]) -> None:
        if self._gate_v is not None:
            self._gate_v = self._gate_v[
                ~np.isin(self._pt_member[::self.n_lanes], members)
            ]
        keep = ~np.isin(self._pt_member, members)
        self.V = self.V[:, keep]
        self._pt_member = self._pt_member[keep]
        self._pt_lane = self._pt_lane[keep]
        self._pt_r = self._pt_r[keep]
        self._fired = self._fired[keep]
        self._value = self._value[keep]
        self._pool_token = None
        if not self._shared_stacks:
            # Every memo key names the old pool: none can hit again.
            self._ens_cache.clear()

    def snapshot(self) -> tuple:
        """Copy of the mutable execution state of an undemoted batch.

        Covers everything an operation mutates: the point-pool voltages,
        the sense-amp latches and the per-member word-line gate voltages.
        The pool layout itself is excluded — a snapshot is only valid for
        a batch whose pool is pristine, so demoted batches refuse.
        """
        if self.demoted:
            raise ValueError("cannot snapshot a batch with demoted members")
        gates = None if self._gate_v is None else self._gate_v.copy()
        return (self.V.copy(), self._fired.copy(), self._value.copy(), gates)

    def restore(self, snap: tuple) -> None:
        """Rewind to a :meth:`snapshot` taken from this batch's pristine
        pool (same construction arguments, nothing demoted since)."""
        if self.demoted:
            raise ValueError("cannot restore into a batch with demoted "
                             "members; rebuild it instead")
        V, fired, value, gates = snap
        if V.shape != self.V.shape:
            raise ValueError(
                f"snapshot pool shape {V.shape} does not match {self.V.shape}"
            )
        self.V = V.copy()
        self._fired = fired.copy()
        self._value = value.copy()
        if gates is not None:
            self._gate_v = gates.copy()

    def _rows(self, flat: np.ndarray) -> np.ndarray:
        """Reshape a per-point vector to (n_members, n_lanes)."""
        return flat.reshape(-1, self.n_lanes)

    def _pool_key(self) -> tuple:
        """Content hash of the surviving point pool (r values, members,
        lanes) — two batches with the same pool produce identical phase
        configurations for the same phase arguments."""
        if self._pool_token is None:
            self._pool_token = (
                self.r_values.tobytes(),
                self._pt_member.tobytes(),
                self._pt_lane.tobytes(),
            )
        return self._pool_token

    # -- lane state ------------------------------------------------------------

    def logical_states(self, row: int) -> np.ndarray:
        """Per-(member, lane) bit an ideal read of ``cell{row}`` returns."""
        i_cell = self.column.net.node_index(f"cell{row}")
        return self._rows(
            (self.V[i_cell] > self.column.state_threshold).astype(int)
        )

    # -- sense-amp points ------------------------------------------------------

    def _sa_reset(self) -> None:
        self._fired[:] = False
        self.column.sa.reset()

    def _sense(self) -> None:
        dv = self.V[self._i_sa] - self.V[self._i_bc]
        self._fired = np.abs(dv) >= self.column.sa.offset
        self._value = (dv > 0).astype(int)

    def _maybe_flip(self) -> None:
        dv = self.V[self._i_sa] - self.V[self._i_bc]
        crossed = self._fired & (
            ((self._value == 1) & (dv < 0)) | ((self._value == 0) & (dv > 0))
        )
        self._value[crossed] = 1 - self._value[crossed]
        late = ~self._fired & (np.abs(dv) >= self.column.sa.offset)
        self._fired |= late
        self._value[late] = (dv[late] > 0).astype(int)

    # -- phase / operation machinery -------------------------------------------

    def _groups(self, sa_drive: bool) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Partition the point pool into same-configuration groups.

        Without a sense-amp drive the configuration depends on ``R_def``
        only, so the groups are the members.  With one, each point's latch
        state selects its rails, so members fork by ``(fired, value)`` —
        the per-point equivalent of the scalar column reading its own
        latch.  Groups come in pool member order, and within a member
        unfired before fired-0 before fired-1; points inside a group keep
        pool order.

        Returns ``(order, starts, codes)``: the pool points listed group
        by group, where each group starts in ``order``, and each group's
        code ``3 * member position + latch`` (latch 0: not fired, 1:
        fired 0, 2: fired 1).
        """
        code = np.arange(self._pt_member.size) // self.n_lanes * 3
        if sa_drive:
            code += np.where(self._fired, self._value + 1, 0)
        order = np.argsort(code, kind="stable")
        sorted_code = code[order]
        first = np.empty(order.size, dtype=bool)
        first[0] = True
        np.not_equal(sorted_code[1:], sorted_code[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        return order, starts, sorted_code[starts]

    def _gate_step(
        self, duration: float, active_row: Optional[int], precharge: bool
    ) -> np.ndarray:
        """Advance every pool member's floating gate through one phase.

        Mirrors :meth:`DRAMColumn._phase_plan`'s gate loop for the defect
        row; returns each member's access-transistor resistance (``inf``
        where the transistor does not conduct).
        """
        t = self.column.tech
        mean = self._gate_v
        if duration > 0:
            x, decay = decay_factors(
                self._pt_r[::self.n_lanes], t.c_wl_gate, duration
            )
            wl_high = active_row is not None and not precharge
            driven = (
                t.v_wl_on if (wl_high and self._gate_rows[0] == active_row)
                else 0.0
            )
            self._gate_v, mean = advance_gates(self._gate_v, driven, x, decay)
        factor = conduction_factors(mean, t.v_threshold, t.v_wl_on)
        r_access = np.full(factor.shape, np.inf)
        np.divide(t.r_access, factor, out=r_access,
                  where=factor > _MIN_CONDUCTION)
        return r_access

    def _build(self, plan: _PhasePlan, gate_r: Optional[np.ndarray]) -> _TileSolve:
        """Instantiate a phase plan over the pool's groups."""
        col = self.column
        t = col.tech
        order, starts, codes = self._groups(plan.sa_drive)
        n_groups = starts.size
        first = order[starts]
        group_r = self._pt_r[first]
        fork: dict = {}
        if n_groups == self.n_members:
            # Uniform: the groups are the member runs, in pool order with
            # equal widths.
            lanes = self._pt_lane.reshape(n_groups, self.n_lanes)
        else:
            widths = np.diff(starts, append=order.size)
            width = int(widths.max())
            pad = np.minimum(np.arange(width), widths[:, None] - 1)
            gather = order[starts[:, None] + pad]
            scatter = np.empty(order.size, dtype=np.intp)
            scatter[order] = (
                np.repeat(np.arange(n_groups) * width - starts, widths)
                + np.arange(order.size)
            )
            lanes = [
                self._pt_lane[gather[g, :w]] for g, w in enumerate(widths)
            ]
            fork = dict(gather=gather, scatter=scatter, widths=widths,
                        forks=n_groups - self.n_members)
        ens = NetworkEnsemble(
            col.net, n_groups, member_meta=group_r.tolist(),
            member_lanes=lanes, stacked_cache=self._shared_stacks,
        )
        for a, b, base, weighted, post in plan.connects:
            if weighted:
                ens.connect_members(a, b, (base + group_r) + post)
            else:
                ens.connect(a, b, base + post)
        for node, volts, base, weighted in plan.drives:
            if weighted:
                ens.drive_members(node, volts, base + group_r)
            else:
                ens.drive(node, volts, base)
        if gate_r is not None:
            ens.connect_members(
                f"cell{self._gate_rows[0]}", col._seg_node["cells"],
                gate_r[codes // 3],
            )
        if plan.sa_drive:
            latch = codes % 3
            rails = np.where(latch == 2, t.vdd, 0.0)
            r_sa = (
                plan.sa_base + group_r if plan.sa_weighted
                else np.full(n_groups, plan.sa_base)
            )
            r_sa = np.where(latch > 0, r_sa, np.inf)
            ens.drive_members(plan.sa_node, rails, r_sa)
            ens.drive_members("bc", t.vdd - rails, r_sa)
        return _TileSolve(ens, self._pt_member[first], **fork)

    def _phase(
        self,
        duration: float,
        active_row: Optional[int],
        precharge: bool = False,
        sa_drive: bool = False,
        write_value: Optional[int] = None,
    ) -> None:
        col = self.column
        plan_args = (duration, active_row, precharge, sa_drive, write_value)
        # _gate_rows joins the key: the same analyzer hands out one shared
        # plan dict, but a floating-word-line batch skips the defect row's
        # host gate while a plain batch does not.
        plan_key = (plan_args, self._gate_rows)
        plan = self._plan_cache.get(plan_key)
        if plan is None:
            plan = col._phase_plan(*plan_args, skip_gate_rows=self._gate_rows)
            self._plan_cache[plan_key] = plan
        if self._pt_member.size == 0:
            return
        # Per-member word-line gates advance exactly once per phase (the
        # member may still fork into several groups; they all share the
        # member's gate trajectory).
        gate_r = (
            self._gate_step(duration, active_row, precharge)
            if self._gate_v is not None else None
        )
        # The whole configuration is a function of (plan, point pool,
        # per-point latch state, gate connects) — reuse the built
        # ensemble (and with it the instance propagator memo and the fork
        # layout) when that recurs.  For a fixed pool the latch byte
        # strings pin down both the fork partition and each group's
        # lanes; gate conduction factors saturate after a few phases, so
        # word-line ensembles recur too.
        ens_key: tuple = (plan_args, self._gate_rows, self._pool_key())
        if plan.sa_drive:
            ens_key += (self._fired.tobytes(), self._value.tobytes())
        if gate_r is not None:
            ens_key += (gate_r.tobytes(),)
        solve = self._ens_cache.get(ens_key)
        if solve is None:
            solve = self._build(plan, gate_r)
            if len(self._ens_cache) >= self._ens_cache_max:
                self._ens_cache.pop(next(iter(self._ens_cache)))
            self._ens_cache[ens_key] = solve
        n_nodes = self.V.shape[0]
        try:
            if solve.gather is None:
                # Uniform groups are the member runs, in pool order with
                # equal widths: feed the pool to the solver as a strided
                # (M, n, L) view — no gather, no scatter.
                v0 = self.V.reshape(n_nodes, -1, self.n_lanes).transpose(1, 0, 2)
                result = solve.ensemble.run_grid_array(duration, v0)
                self.V = np.asarray(result.voltages).transpose(1, 0, 2).reshape(
                    n_nodes, -1
                )
            else:
                # Forked: one padded (G, n, W) stack, one product.
                telemetry.count("column.grid_forks", solve.forks)
                v0 = self.V[:, solve.gather].transpose(1, 0, 2)
                result = solve.ensemble.run_grid_array(
                    duration, v0, solve.widths
                )
                self.V = np.asarray(result.voltages).transpose(1, 0, 2).reshape(
                    n_nodes, -1
                )[:, solve.scatter]
        except SolverDivergenceError as err:
            raise SolverDivergenceError(
                err.guard,
                err.message,
                phase=_phase_name(active_row, precharge, sa_drive, write_value),
                lanes=self.n_lanes,
                members=self.n_members,
                **err.context,
            ) from err
        if result.tripped:
            # A guard trip poisons the whole member (its scalar re-run
            # re-applies the configured guard policy per point).
            self._demote_members(
                {int(solve.members[g]) for g in result.tripped}, "guard"
            )

    def _update_buffer(self) -> None:
        t = self.column.tech
        dv = self.V[self._i_io] - self.V[self._i_bc]
        latch = np.abs(dv) >= t.io_offset
        buf = self.V[self._i_buf]
        buf[latch] = np.where(dv[latch] > 0, t.vdd, 0.0)

    def read(self, row: int) -> np.ndarray:
        """Apply one read to every member/lane; return the buffer values.

        The returned ``(n_members, n_lanes)`` matrix covers the members
        surviving *after* the read — align rows with
        :attr:`active_members`.
        """
        result = self._operation("r", row, None)
        assert result is not None
        return result

    def write(self, row: int, value: int) -> None:
        """Apply one write operation to every member/lane."""
        if value not in (0, 1):
            raise ValueError("written value must be 0 or 1")
        self._operation("w", row, value)

    def precharge_cycle(self) -> None:
        """Run one precharge/equalize cycle with no cell access (all points)."""
        telemetry.count("column.precharge_cycles", self._pt_member.size)
        self._sa_reset()
        self._phase(self.column.tech.t_precharge, active_row=None,
                    precharge=True)
        self._phase(self.column.tech.t_wl_off, active_row=None)

    def _operation(
        self, kind: str, row: int, value: Optional[int]
    ) -> Optional[np.ndarray]:
        # Mirrors DRAMColumn._operation phase for phase; every scalar
        # voltage comparison becomes an elementwise one over the points.
        col = self.column
        if not 0 <= row < col.n_rows:
            raise ValueError(f"row {row} outside 0..{col.n_rows - 1}")
        telemetry.count(
            "column.reads" if kind == "r" else "column.writes",
            self._pt_member.size,
        )
        t = col.tech
        self._sa_reset()
        self._phase(t.t_precharge, active_row=None, precharge=True)
        self._phase(t.t_share, active_row=row)
        self._sense()
        t_strobe = min(t.t_io_sample, t.t_sense)
        self._phase(t_strobe, active_row=row, sa_drive=True)
        self._update_buffer()
        self._phase(t.t_sense - t_strobe, active_row=row, sa_drive=True)
        read_result: Optional[np.ndarray] = None
        members_at_read: List[int] = []
        if kind == "r":
            read_result = self._rows(
                (self.V[self._i_buf] > t.vdd / 2).astype(int)
            )
            members_at_read = self.active_members
        if kind == "w":
            assert value is not None
            self._phase(
                t.t_write / 2, active_row=row, sa_drive=True, write_value=value,
            )
            self._maybe_flip()
            self._phase(
                t.t_write / 2, active_row=row, sa_drive=True, write_value=value,
            )
            self._update_buffer()
        self._phase(t.t_wl_off, active_row=None)
        if read_result is not None and members_at_read != self.active_members:
            # The trailing wl_off phase demoted members after the buffer
            # was sampled; realign the rows with the survivors.
            surviving = set(self.active_members)
            read_result = read_result[
                [i for i, m in enumerate(members_at_read) if m in surviving]
            ]
        return read_result
