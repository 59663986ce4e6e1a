"""Fault analysis by defect injection and electrical simulation.

This is the paper's Section 3 method.  For one open-defect location the
analyzer sweeps the ``(R_def, U)`` plane — defect resistance against the
initial value of a floating voltage — and classifies the faulty behaviour
at every grid point into a fault primitive / FFM, producing the region
maps of Figs. 3 and 4.

Execution semantics of an SOS (this subtlety is the heart of the paper):

* cell *initializations* (the leading ``1`` of ``1r1``) set cell voltages
  **directly**, as states — not through write operations.  A march test can
  only realize them with writes, which also precondition floating nodes;
  that mismatch is exactly why partial faults escape conventional tests;
* the floating voltage ``U`` is applied **after** the initializations and
  **before** the operations: it stands for the unknown charge left on the
  floating node by an arbitrary operation history;
* completing and sensitizing *operations* are then executed through the
  defective circuit, reads returning whatever the output buffer shows.

``F`` is the victim state an ideal read would return afterwards; ``R`` is
the result of the final victim read (when the SOS ends in one).

The paper's partial-fault rule is then applied to the resulting region
map: an FP observed only for a limited range of ``U`` is *partial* and
needs completing operations (searched for in
:mod:`repro.core.completion`).
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..circuit.column import DRAMColumn, GridBatch
from ..circuit.wordline import WordLineGate
from ..circuit.defects import FloatingNode, OpenDefect, OpenLocation, floating_nodes
from ..circuit import network as circuit_network
from ..circuit.network import GuardPolicy, solver_guards_configure, solver_guards_info
from ..circuit.technology import Technology, default_technology
from ..errors import SolverDivergenceError, SpecValidationError
from .fault_primitives import BITLINE_NEIGHBOR, SOS, VICTIM, FaultPrimitive, parse_sos
from .ffm import FFM, classify_fp
from .regions import FPRegionMap, QUARANTINED

__all__ = [
    "SweepGrid",
    "Observation",
    "PartialFaultFinding",
    "QuarantinedPoint",
    "CacheInfo",
    "ColumnFaultAnalyzer",
    "PROBE_SOSES",
    "default_grid_for",
    "current_operating_point",
]

#: The paper's Section 1 probe space: single-cell SOSes with at most one
#: operation (initial state alone, all four writes, both fault-free reads).
PROBE_SOSES: Tuple[str, ...] = ("0", "1", "0w0", "0w1", "1w0", "1w1", "0r0", "1r1")

#: The operating point currently being executed, or ``None`` outside a
#: solve.  ``u`` is a float for scalar execution; a grid tile sets
#: ``grid`` and carries tuples of its resistances and lane voltages.
#: This is how targeted fault injectors (``repro.inject``) hit one
#: specific grid point.
_CURRENT_POINT: Optional[Dict] = None

#: Bounds of the per-analyzer grid prefix memo: how many tiles keep a
#: live template batch, and how many step-prefix snapshots each retains.
#: A snapshot is one pool-sized float matrix (a few KB), so the worst
#: case stays around a megabyte per analyzer.
_PREFIX_TILES = 8
_PREFIX_SNAPS = 160


def current_operating_point() -> Optional[Dict]:
    """The ``{"r_def", "u", "location"}`` of the executing solve, if any."""
    return _CURRENT_POINT


def _check_axis(lo: float, hi: float, n: int) -> None:
    """Reject degenerate axis requests instead of silently truncating.

    ``n < 2`` with ``hi != lo`` used to return ``(lo,)`` — dropping the
    requested upper bound without a word, and (on the ``U`` axis) making
    every fault look ``U``-independent.  That mirrors the
    :meth:`SweepGrid.coarser` >=2-points guard.
    """
    if n < 1:
        raise ValueError(f"an axis needs at least one point; got n={n}")
    if n < 2 and hi != lo:
        raise ValueError(
            f"n={n} cannot span [{lo!r}, {hi!r}]: a single-point axis "
            "would silently drop the upper bound (use n >= 2)"
        )


def _log_space(lo: float, hi: float, n: int) -> Tuple[float, ...]:
    _check_axis(lo, hi, n)
    if n < 2:
        return (lo,)
    step = (math.log10(hi) - math.log10(lo)) / (n - 1)
    return tuple(10 ** (math.log10(lo) + i * step) for i in range(n))


def _lin_space(lo: float, hi: float, n: int) -> Tuple[float, ...]:
    _check_axis(lo, hi, n)
    if n < 2:
        return (lo,)
    step = (hi - lo) / (n - 1)
    return tuple(lo + i * step for i in range(n))


#: Region-of-interest resistance ranges per open location, mirroring the
#: bounded axes of the paper's figures (e.g. Fig. 4 tops out at 1 MOhm).
#: Outside these ranges an open degenerates: far below, the circuit is
#: healthy; far above, the branch is fully disconnected and no operation
#: can reach past it (so no completion can exist by construction).
_R_RANGES: Dict[OpenLocation, Tuple[float, float]] = {
    OpenLocation.CELL: (3e4, 1e6),
    OpenLocation.REFERENCE_CELL: (3e4, 1e7),
    OpenLocation.PRECHARGE: (3e3, 3e7),
    OpenLocation.BL_PRECHARGE_CELLS: (3e3, 3e7),
    OpenLocation.BL_CELLS_REFERENCE: (3e3, 3e7),
    OpenLocation.BL_REFERENCE_SENSEAMP: (3e3, 3e7),
    OpenLocation.SENSE_AMPLIFIER: (3e3, 3e7),
    OpenLocation.BL_SENSEAMP_IO: (3e3, 1e9),
    OpenLocation.WORD_LINE: (1e6, 1e10),
}


def _subsample(values: Tuple[float, ...], every: int) -> Tuple[float, ...]:
    """Every ``every``-th value, padded back to >= 2 points when possible."""
    picked = values[::every]
    if len(picked) >= 2 or len(values) < 2:
        return picked
    return (values[0], values[-1])


def _as_nodes(floating) -> Tuple[FloatingNode, ...]:
    if isinstance(floating, FloatingNode):
        return (floating,)
    return tuple(floating)


def default_grid_for(
    location: OpenLocation,
    n_r: int = 16,
    n_u: int = 12,
    vdd: float = 3.3,
    u_min: float = 0.0,
) -> SweepGrid:
    """The default ``(R_def, U)`` sweep window for one open location."""
    r_min, r_max = _R_RANGES[location]
    return SweepGrid.make(
        r_min=r_min, r_max=r_max, n_r=n_r, u_min=u_min, u_max=vdd, n_u=n_u
    )


@dataclass(frozen=True)
class SweepGrid:
    """The ``(R_def, U)`` grid of one fault analysis."""

    r_values: Tuple[float, ...]
    u_values: Tuple[float, ...]

    @classmethod
    def make(
        cls,
        r_min: float = 1e3,
        r_max: float = 1e8,
        n_r: int = 25,
        u_min: float = 0.0,
        u_max: float = 3.3,
        n_u: int = 12,
    ) -> "SweepGrid":
        """Log-spaced resistances, linearly spaced voltages."""
        if not (math.isfinite(r_min) and r_min > 0):
            raise SpecValidationError(
                "SweepGrid", "r_min", r_min, "a finite positive resistance",
                hint="the R axis is log-spaced",
            )
        if not (math.isfinite(r_max) and r_max >= r_min):
            raise SpecValidationError(
                "SweepGrid", "r_max", r_max, f"finite and >= r_min = {r_min}",
            )
        if not math.isfinite(u_min):
            raise SpecValidationError(
                "SweepGrid", "u_min", u_min, "a finite voltage"
            )
        if not (math.isfinite(u_max) and u_max >= u_min):
            raise SpecValidationError(
                "SweepGrid", "u_max", u_max, f"finite and >= u_min = {u_min}",
            )
        return cls(_log_space(r_min, r_max, n_r), _lin_space(u_min, u_max, n_u))

    def validate(self) -> "SweepGrid":
        """Check the axes for well-formedness; return ``self``.

        Raises :class:`~repro.errors.SpecValidationError` for empty axes,
        non-finite or non-positive resistances, non-finite voltages, or
        unsorted values (the region maps require ascending axes).
        """
        if not self.r_values:
            raise SpecValidationError(
                "SweepGrid", "r_values", self.r_values,
                "a non-empty ascending tuple of resistances",
            )
        if not self.u_values:
            raise SpecValidationError(
                "SweepGrid", "u_values", self.u_values,
                "a non-empty ascending tuple of voltages",
            )
        for r in self.r_values:
            if not (isinstance(r, (int, float)) and math.isfinite(r) and r > 0):
                raise SpecValidationError(
                    "SweepGrid", "r_values", r,
                    "finite positive resistances only",
                )
        for u in self.u_values:
            if not (isinstance(u, (int, float)) and math.isfinite(u)):
                raise SpecValidationError(
                    "SweepGrid", "u_values", u, "finite voltages only"
                )
        if list(self.r_values) != sorted(self.r_values):
            raise SpecValidationError(
                "SweepGrid", "r_values", self.r_values, "sorted ascending"
            )
        if list(self.u_values) != sorted(self.u_values):
            raise SpecValidationError(
                "SweepGrid", "u_values", self.u_values, "sorted ascending"
            )
        return self

    def coarser(self, every_r: int = 2, every_u: int = 2) -> "SweepGrid":
        """Subsampled grid (for the inner loop of the completion search).

        Each axis keeps at least two points (first and last of the
        original axis) whenever the original axis had two, so coarsening
        can never degenerate the partial-fault rule — a single-``U``
        column would make every fault look ``U``-independent.
        """
        return SweepGrid(
            _subsample(self.r_values, every_r),
            _subsample(self.u_values, every_u),
        )

    def signature(self) -> str:
        """Short stable digest of the exact grid points.

        Checkpoint unit keys embed this (see ``docs/ROBUSTNESS.md``), so
        resuming a sweep with a *different* grid never silently reuses
        results computed on the old one — the keys simply don't match
        and the units re-run.  ``repr`` of a float is its shortest exact
        form, so equal grids always digest identically.
        """
        payload = repr((self.r_values, self.u_values)).encode("ascii")
        return hashlib.sha1(payload).hexdigest()[:12]


@dataclass(frozen=True)
class Observation:
    """Result of executing one SOS at one ``(R_def, U)`` operating point.

    ``quarantined`` marks a point whose solve tripped a numerical guard
    under ``GuardPolicy.QUARANTINE``; its other fields are then
    meaningless (``faulty_value`` is ``-1``).
    """

    fp: Optional[FaultPrimitive]
    ffm: Optional[FFM]
    faulty_value: int
    read_value: Optional[int]
    quarantined: bool = False

    @property
    def is_faulty(self) -> bool:
        return self.fp is not None


def _label_of(obs: Observation, label: str):
    """The region-map label of one observation (see ``region_map``)."""
    if obs.quarantined:
        return QUARANTINED
    if obs.fp is None:
        return None
    if label == "fp":
        return obs.fp
    return obs.ffm if obs.ffm is not None else obs.fp.to_string()


@dataclass(frozen=True)
class QuarantinedPoint:
    """Full context of one grid point removed from a survey by a guard trip.

    Everything needed to replay the point later: where the defect sits,
    which floating voltages were initialized, the probing SOS, the exact
    ``(R_def, U)`` coordinates, the tripped guard, and the solver's own
    diagnostic (which includes the phase and offending nodes).
    """

    location: OpenLocation
    floating: Tuple[FloatingNode, ...]
    sos: str
    r_def: float
    u: float
    guard: str
    detail: str

    def __str__(self) -> str:
        nodes = "+".join(node.name for node in self.floating)
        return (
            f"{self.location.name} {self.sos!r} [{nodes}] "
            f"R={self.r_def:.3e} U={self.u:.3f}: {self.guard}"
        )


@dataclass(frozen=True)
class PartialFaultFinding:
    """One (possibly partial) fault observed while surveying a defect."""

    location: OpenLocation
    floating: Tuple[FloatingNode, ...]
    probe_sos: SOS
    ffm: FFM
    region: FPRegionMap

    @property
    def floating_label(self) -> str:
        """Human-readable floating-voltage name (Table 1 column)."""
        return " + ".join(str(node) for node in self.floating)

    @property
    def is_partial(self) -> bool:
        """The paper's rule: observed only for a limited range of ``U``."""
        return self.region.is_partial_label(self.ffm)

    @property
    def partial_fp(self) -> FaultPrimitive:
        """The canonical partial FP: probe SOS with the observed behaviour.

        ``F``/``R`` are taken from the canonical FP of the observed FFM.
        """
        from .ffm import canonical_fp

        return canonical_fp(self.ffm)


class CacheInfo(NamedTuple):
    """Observation-cache statistics (mirrors ``functools.lru_cache``)."""

    hits: int
    misses: int
    maxsize: Optional[int]
    currsize: int


class ColumnFaultAnalyzer:
    """Sweeps one open-defect location over the ``(R_def, U)`` plane.

    ``max_cache_entries`` bounds the per-analyzer observation cache; when
    the bound is hit the oldest entry is evicted (FIFO).  The default
    (``None``) keeps every observation, which is safe for single-defect
    surveys but grows without bound when one analyzer is reused across
    many grids — :meth:`cache_info` reports the size, :meth:`cache_clear`
    drops it.
    """

    def __init__(
        self,
        location: OpenLocation,
        technology: Optional[Technology] = None,
        n_rows: int = 3,
        victim_row: int = 0,
        grid: Optional[SweepGrid] = None,
        max_cache_entries: Optional[int] = None,
        grid_engine: bool = True,
        guard_policy: Optional[GuardPolicy] = None,
    ) -> None:
        if n_rows < 2:
            raise ValueError("the analyzer needs a bit-line neighbour row")
        if max_cache_entries is not None and max_cache_entries < 1:
            raise ValueError("max_cache_entries must be positive or None")
        self.location = location
        self.grid_engine = grid_engine
        self.technology = technology or default_technology()
        self.n_rows = n_rows
        self.victim_row = victim_row
        self.grid = grid or default_grid_for(
            location, vdd=self.technology.vdd
        )
        self.max_cache_entries = max_cache_entries
        # Observations keyed by ``(tag, R_def, U)``; the tag interns the
        # tile's ``(SOS, floating)`` pair, hashed once per tile.
        self._cache: Dict[Tuple[int, float, float], Observation] = {}
        self._tags: Dict[Tuple[SOS, Tuple[FloatingNode, ...]], int] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        # An explicit policy applies to the process-global solver guards,
        # so FALLBACK substepping works inside the network layer too (and
        # so workers rebuilt from an AnalyzerSpec behave like the parent).
        self.guard_policy = guard_policy
        if guard_policy is not None:
            solver_guards_configure(policy=guard_policy)
        self.quarantined: List[QuarantinedPoint] = []
        # Shared across every GridBatch this analyzer creates: phase plans
        # and pool layouts recur across operation sequences, so later
        # tiles reuse the ensembles (and propagators) built by earlier
        # ones.  Safe because the keys are content-addressed and the
        # analyzer's column topology/technology is fixed.
        self._grid_ens_cache: Dict[tuple, object] = {}
        self._grid_plan_cache: Dict[tuple, object] = {}
        # Tile-state memo for the completion search: candidate operation
        # sequences share long prefixes (probe ops + partial extensions),
        # so the pool state after each executed prefix is snapshotted and
        # later candidates resume from the longest cached prefix instead
        # of replaying it.  Keyed by everything that determines execution
        # from scratch (tile, presets, floating set, init mode); bounded
        # FIFO on both tiles and prefixes per tile.
        self._grid_prefix_cache: "OrderedDict[tuple, dict]" = OrderedDict()

    def _effective_policy(self) -> GuardPolicy:
        if self.guard_policy is not None:
            return self.guard_policy
        return solver_guards_info().policy

    # -- observation cache ----------------------------------------------------

    def cache_info(self) -> CacheInfo:
        """Hit/miss/size statistics of the observation cache."""
        return CacheInfo(
            self._cache_hits,
            self._cache_misses,
            self.max_cache_entries,
            len(self._cache),
        )

    def cache_clear(self) -> None:
        """Drop every cached observation and zero the statistics."""
        self._cache.clear()
        self._tags.clear()
        self._cache_hits = 0
        self._cache_misses = 0

    # -- plumbing -------------------------------------------------------------

    def _row_of(self, cell: str) -> int:
        """Map SOS cell labels onto physical rows of the column."""
        if cell == VICTIM:
            return self.victim_row
        if cell == BITLINE_NEIGHBOR:
            return (self.victim_row + 1) % self.n_rows
        # Named aggressors a, b, ... take the remaining rows in order.
        offset = 2 + (ord(cell[0]) - ord("a"))
        row = (self.victim_row + offset) % self.n_rows
        if row == self.victim_row:
            raise ValueError(f"not enough rows to place cell {cell!r}")
        return row

    def make_column(self, r_def: float) -> DRAMColumn:
        defect = OpenDefect(self.location, r_def, row=self.victim_row)
        return DRAMColumn(self.technology, n_rows=self.n_rows, defect=defect)

    def sweep_plans(self) -> Tuple[Tuple[FloatingNode, ...], ...]:
        """Floating-voltage sweeps for this open (Section 2/5 rules).

        Each plan is a tuple of nodes initialized *together* to the swept
        ``U``.  Opens whose floating voltages are physically correlated
        (the IO-side bit line and the output buffer it feeds, Open 8; the
        reference cell and buffer behind a dead sense amplifier, Open 7)
        additionally get a joint sweep — the paper likewise initializes
        all floating voltages of such defects.
        """
        nodes = floating_nodes(self.location)
        plans = [(node,) for node in nodes]
        if len(nodes) > 1:
            plans.append(tuple(nodes))
        return tuple(plans)

    # -- single-point execution ---------------------------------------------------

    def _preset_data(self, sos: SOS, init_via_write: bool) -> Dict[int, int]:
        """Cell preloads for one SOS (victim excluded when written instead)."""
        return {
            self._row_of(init.cell): init.value
            for init in sos.inits
            if not (init_via_write and init.cell == VICTIM)
        }

    def _classify(self, sos: SOS, faulty_value: int,
                  read_value: Optional[int]) -> Observation:
        fp = FaultPrimitive(sos, faulty_value, read_value)
        if not fp.is_faulty():
            return Observation(None, None, faulty_value, read_value)
        return Observation(fp, classify_fp(fp), faulty_value, read_value)

    def _execute_scalar(
        self, sos: SOS, r_def: float, u: float,
        floating: Tuple[FloatingNode, ...],
    ) -> Tuple[int, Optional[int]]:
        """Run one SOS at one operating point; return ``(F, R)``."""
        global _CURRENT_POINT
        telemetry.count("analyzer.sos_executions")
        _CURRENT_POINT = {
            "location": self.location, "r_def": r_def, "u": u,
        }
        try:
            return self._execute_scalar_inner(sos, r_def, u, floating)
        finally:
            _CURRENT_POINT = None

    def _execute_scalar_inner(
        self, sos: SOS, r_def: float, u: float,
        floating: Tuple[FloatingNode, ...],
    ) -> Tuple[int, Optional[int]]:
        column = self.make_column(r_def)
        # When the floating voltage *is* the victim's storage node, the
        # swept U is the cell voltage before initialization: the victim's
        # initialization must then happen through the defective circuit
        # (a write operation).  For every other floating node the
        # initializations are plain state presets, and U models the charge
        # an arbitrary earlier history left on the floating node.
        init_via_write = FloatingNode.CELL in floating
        column.reset(self._preset_data(sos, init_via_write))
        for node in floating:
            column.set_floating_voltage(node, u)
        ran_anything = False
        if init_via_write:
            for init in sos.inits:
                if init.cell == VICTIM:
                    column.write(self.victim_row, init.value)
                    ran_anything = True
        last_victim_read: Optional[int] = None
        if not sos.ops and not ran_anything:
            # State-fault probe: nothing addresses the cell, but precharge
            # cycles still run (the Open 9 SF mechanism).
            column.precharge_cycle()
        for op in sos.ops:
            row = self._row_of(op.cell)
            if op.is_write:
                column.write(row, op.value)
            else:
                result = column.read(row)
                if op.cell == VICTIM:
                    last_victim_read = result
        faulty_value = column.logical_state(self.victim_row)
        read_value = last_victim_read if sos.ends_in_read else None
        return faulty_value, read_value

    def _wordline_grid(self, floating: Tuple[FloatingNode, ...]) -> bool:
        """Whether this sweep needs per-point word-line gate tracking.

        Word-line opens put the defect resistance inside the nonlinear
        gate dynamics, and the swept ``U`` initializes the gate itself:
        every ``(R_def, U)`` point has its own gate trajectory.  The grid
        engine then makes each point a width-1 ensemble member carrying a
        private :class:`~repro.circuit.wordline.WordLineGate` instead of
        stacking one member per ``R_def``.
        """
        return (
            self.location is OpenLocation.WORD_LINE
            or FloatingNode.WORD_LINE in floating
        )

    def _execute_grid(
        self, sos: SOS, r_values: Sequence[float],
        u_values: Sequence[float], floating: Tuple[FloatingNode, ...],
    ) -> Tuple[Dict[int, List[Tuple[int, Optional[int]]]], Dict[int, str]]:
        """Run one SOS over a whole ``(R_def, U)`` tile in lock-step.

        Returns ``(outcomes, demoted)``: ``outcomes`` maps each surviving
        member index (position in ``r_values``) to its per-lane ``(F, R)``
        list; ``demoted`` maps members the grid could not finish (lane
        disagreement on the sense-amp decision, solver guard trips) to the
        demotion reason — the caller re-runs those per point through the
        scalar oracle.
        """
        global _CURRENT_POINT
        _CURRENT_POINT = {
            "location": self.location, "grid": True,
            "r_def": tuple(r_values), "u": tuple(u_values),
        }
        try:
            return self._execute_grid_inner(sos, r_values, u_values, floating)
        finally:
            _CURRENT_POINT = None

    def _execute_grid_inner(
        self, sos: SOS, r_values: Sequence[float],
        u_values: Sequence[float], floating: Tuple[FloatingNode, ...],
    ) -> Tuple[Dict[int, List[Tuple[int, Optional[int]]]], Dict[int, str]]:
        telemetry.count("analyzer.grid_tiles")
        init_via_write = FloatingNode.CELL in floating
        data = self._preset_data(sos, init_via_write)
        wl_grid = self._wordline_grid(floating)
        # The state-mutating step list: victim init writes (when the cell
        # itself floats), then the operations; an empty sequence still
        # runs one precharge cycle like the scalar column does.
        steps: List[tuple] = []
        if init_via_write:
            for init in sos.inits:
                if init.cell == VICTIM:
                    steps.append(("w", self.victim_row, init.value, False))
        if not sos.ops and not steps:
            steps.append(("pc",))
        for op in sos.ops:
            row = self._row_of(op.cell)
            if op.is_write:
                steps.append(("w", row, op.value, False))
            else:
                steps.append(("r", row, op.cell == VICTIM))
        # An installed fault hook targets individual solves, so replayed
        # prefixes would dodge (or double-take) injections: bypass the
        # memo entirely and execute from scratch.
        hook_active = circuit_network._FAULT_HOOK is not None
        base_key = (
            tuple(float(r) for r in r_values),
            tuple(float(u) for u in u_values),
            floating, tuple(sorted(data.items())), init_via_write,
        )
        entry = (
            None if hook_active else self._grid_prefix_cache.get(base_key)
        )
        last_victim_read: Optional[Tuple[List[int], np.ndarray]] = None
        if entry is not None:
            batch = entry["batch"]
            gate_row = entry["gate_row"]
            self._grid_prefix_cache.move_to_end(base_key)
            # Resume from the longest snapshotted prefix of the step list
            # (possibly all of it, when the same SOS recurs on the tile).
            start_k, snap = 0, entry["snap0"]
            snaps = entry["snaps"]
            for k in range(len(steps), 0, -1):
                hit = snaps.get(tuple(steps[:k]))
                if hit is not None:
                    start_k, snap = k, hit
                    snaps.move_to_end(tuple(steps[:k]))
                    break
            batch.restore(snap[0])
            last_victim_read = snap[1]
            telemetry.count("analyzer.grid_prefix_reuses")
            telemetry.count("analyzer.grid_prefix_steps_skipped", start_k)
        else:
            column = self.make_column(r_values[0])
            gate_row = (
                column.defect.row
                if wl_grid and column.defect is not None else None
            )
            # The initial states depend on U (and the presets) but not on
            # R_def, so one lane stack serves every member.
            lanes = []
            gate_inits: List[float] = []
            for u in u_values:
                column.reset(data)
                for node in floating:
                    column.set_floating_voltage(node, u)
                lanes.append(column.net.state_vector())
                if gate_row is not None:
                    gate_inits.append(column.gate_voltage(gate_row))
            column.reset(data)
            if gate_row is not None:
                # Word-line grid: the gate trajectory depends on both R_def
                # (charging resistance) and U (initial gate charge), so every
                # point becomes its own width-1 member with a private gate.
                t = column.tech
                n_u = len(u_values)
                member_r = tuple(float(r) for r in r_values for _ in u_values)
                states = np.stack(
                    [lanes[j] for _ in r_values for j in range(n_u)]
                )[:, :, None]
                member_gates = [
                    {gate_row: WordLineGate(
                        t.c_wl_gate, float(r), gate_inits[j],
                    )}
                    for r in r_values for j in range(n_u)
                ]
                point_lanes = [[j] for _ in r_values for j in range(n_u)]
                batch = GridBatch(
                    column, member_r, states,
                    member_gates=member_gates, point_lanes=point_lanes,
                    ens_cache=self._grid_ens_cache,
                    plan_cache=self._grid_plan_cache,
                )
            else:
                batch = GridBatch(
                    column, tuple(r_values), np.stack(lanes, axis=1),
                    ens_cache=self._grid_ens_cache,
                    plan_cache=self._grid_plan_cache,
                )
            start_k = 0
            if not hook_active:
                entry = {
                    "batch": batch, "gate_row": gate_row,
                    "snap0": (batch.snapshot(), None),
                    "snaps": OrderedDict(),
                }
                self._grid_prefix_cache[base_key] = entry
                while len(self._grid_prefix_cache) > _PREFIX_TILES:
                    self._grid_prefix_cache.popitem(last=False)
        store_snaps = entry is not None
        for i in range(start_k, len(steps)):
            step = steps[i]
            if step[0] == "w":
                batch.write(step[1], step[2])
            elif step[0] == "r":
                result = batch.read(step[1])
                if step[2]:
                    last_victim_read = (batch.active_members, result)
            else:
                batch.precharge_cycle()
            if store_snaps:
                if batch.demoted:
                    # The pool shrank: snapshots no longer line up with
                    # the batch, and the batch itself is no longer a
                    # valid template.  Drop the tile entry after the run.
                    store_snaps = False
                else:
                    snaps = entry["snaps"]
                    snaps[tuple(steps[:i + 1])] = (
                        batch.snapshot(), last_victim_read,
                    )
                    while len(snaps) > _PREFIX_SNAPS:
                        snaps.popitem(last=False)
        if entry is not None and batch.demoted:
            self._grid_prefix_cache.pop(base_key, None)
        faulty = batch.logical_states(self.victim_row).tolist()
        read_of: Dict[int, List[int]] = {}
        if sos.ends_in_read and last_victim_read is not None:
            members_at_read, reads = last_victim_read
            read_of = dict(zip(members_at_read, reads.tolist()))
        outcomes: Dict[int, List[Tuple[int, Optional[int]]]] = {}
        if gate_row is not None:
            # Width-1 members: member i*n_u + j holds point (r_i, u_j).
            # The caller's contract is per-R rows, so a row is returned
            # only when every one of its points survived; a row with any
            # demoted point re-runs scalar as a whole (guard trips only,
            # and the scalar re-run re-applies quarantine per point).
            n_u = len(u_values)
            point_f = {
                m: faulty[j][0] for j, m in enumerate(batch.active_members)
            }
            demoted_rows: Dict[int, str] = {}
            for i in range(len(r_values)):
                members = [i * n_u + j for j in range(n_u)]
                if all(m in point_f for m in members):
                    outcomes[i] = [
                        (
                            point_f[m],
                            read_of[m][0] if sos.ends_in_read else None,
                        )
                        for m in members
                    ]
                else:
                    reasons = [
                        batch.demoted[m] for m in members
                        if m in batch.demoted
                    ]
                    demoted_rows[i] = reasons[0] if reasons else "divergence"
            telemetry.count(
                "analyzer.sos_executions", len(outcomes) * len(u_values)
            )
            return outcomes, demoted_rows
        no_reads = [None] * len(u_values)
        for j, member in enumerate(batch.active_members):
            outcomes[member] = list(
                zip(faulty[j], read_of.get(member, no_reads))
            )
        # Counted on success only, per surviving member: demoted members
        # re-run scalar, and the scalar path does its own counting (keeps
        # executions == misses).
        telemetry.count(
            "analyzer.sos_executions", batch.n_members * len(u_values)
        )
        return outcomes, dict(batch.demoted)

    def observe_grid(
        self, sos: SOS, r_values: Sequence[float],
        u_values: Sequence[float], floating,
    ) -> List[List[Observation]]:
        """Observations for a whole ``(R_def, U)`` tile, one row per ``R``.

        Every point is looked up in the observation cache first; hits are
        returned as-is.  Rows are then grouped by the ``U`` lanes they
        miss, and each group runs as one
        :class:`~repro.circuit.column.GridBatch` over exactly those lanes
        (stacked propagators, one matmul per phase for the whole group):
        a full-miss group is the whole tile, a partly cached row a
        one-member tile over its missing lanes.  Word-line sweeps keep
        their width-1 members with private gates.  Members the grid
        demotes, and every miss when ``grid_engine`` is off, run per
        point through the scalar oracle with unchanged guard/quarantine
        semantics — results are identical either way, the grid is purely
        an execution strategy.

        Books are kept per tile: ``(SOS, floating)`` is interned once
        for the cache keys, each distinct ``(F, R)`` outcome is classified
        once (points with that outcome share the frozen observation), and
        counters and the cache-size gauge are written once with totals.
        """
        return self._observe_tile(
            sos, r_values, u_values, floating, self.grid_engine
        )

    def _observe_tile(
        self, sos: SOS, r_values: Sequence[float],
        u_values: Sequence[float], floating, grid_engine: bool,
    ) -> List[List[Observation]]:
        floating = _as_nodes(floating)
        r_values = tuple(r_values)
        u_values = tuple(u_values)
        tag = self._tags.setdefault((sos, floating), len(self._tags))
        cache = self._cache
        rows = [[cache.get((tag, r, u)) for u in u_values] for r in r_values]
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for i, row in enumerate(rows):
            missing = tuple(j for j, hit in enumerate(row) if hit is None)
            if missing:
                groups.setdefault(missing, []).append(i)
        calls = len(r_values) * len(u_values)
        misses = sum(len(lanes) * len(rs) for lanes, rs in groups.items())
        self._cache_hits += calls - misses
        self._cache_misses += misses
        # A zero total creates no counter, as per-point counting did not.
        for name, n in (
            ("analyzer.observe_calls", calls),
            ("analyzer.cache_hits", calls - misses),
            ("analyzer.cache_misses", misses),
        ):
            if n:
                telemetry.count(name, n)
        classified: Dict[Tuple[int, Optional[int]], Observation] = {}
        cap = self.max_cache_entries
        for lanes, members in groups.items():
            tile_u = tuple(u_values[j] for j in lanes)
            outcomes: Dict[int, List[Tuple[int, Optional[int]]]] = {}
            demoted: Dict[int, str] = {}
            if grid_engine:
                outcomes, demoted = self._execute_grid(
                    sos, [r_values[i] for i in members], tile_u, floating
                )
            for m, i in enumerate(members):
                r = r_values[i]
                lane_outcomes = outcomes.get(m)
                if lane_outcomes is None:
                    if grid_engine:
                        telemetry.count("analyzer.grid_demotions")
                        telemetry.count(
                            "analyzer.grid_fallback_points", len(tile_u)
                        )
                        if demoted.get(m) == "guard":
                            telemetry.count("solver.guard_batch_fallbacks")
                    lane_outcomes = self._execute_points(
                        sos, r, tile_u, floating
                    )
                for j, outcome in zip(lanes, lane_outcomes):
                    u = u_values[j]
                    if isinstance(outcome, SolverDivergenceError):
                        obs = self._quarantine(sos, r, u, floating, outcome)
                    else:
                        obs = classified.get(outcome)
                        if obs is None:
                            obs = classified[outcome] = self._classify(
                                sos, *outcome
                            )
                    if cap is not None and len(cache) >= cap:
                        cache.pop(next(iter(cache)))
                    cache[(tag, r, u)] = obs
                    rows[i][j] = obs
        if groups:
            telemetry.gauge("analyzer.cache_size", len(cache))
        return rows  # type: ignore[return-value]

    def _execute_points(
        self, sos: SOS, r_def: float, u_values: Sequence[float],
        floating: Tuple[FloatingNode, ...],
    ) -> List:
        """Run the scalar oracle at each ``U``; ``(F, R)`` per point.

        Under ``GuardPolicy.QUARANTINE`` a point whose solve trips a
        guard yields its :class:`SolverDivergenceError` instead, so only
        that point is quarantined.
        """
        outcomes: List = []
        for u in u_values:
            try:
                outcomes.append(self._execute_scalar(sos, r_def, u, floating))
            except SolverDivergenceError as err:
                if self._effective_policy() is not GuardPolicy.QUARANTINE:
                    raise
                outcomes.append(err)
        return outcomes

    def _quarantine(
        self, sos: SOS, r_def: float, u: float,
        floating: Tuple[FloatingNode, ...], err: SolverDivergenceError,
    ) -> Observation:
        """Record a guard trip as a quarantined point; return its marker."""
        point = QuarantinedPoint(
            location=self.location,
            floating=floating,
            sos=sos.to_string(),
            r_def=r_def,
            u=u,
            guard=err.guard,
            detail=str(err),
        )
        self.quarantined.append(point)
        telemetry.count("analyzer.quarantined_points")
        return Observation(None, None, -1, None, quarantined=True)

    def observe(
        self, sos: SOS, r_def: float, u: float, floating
    ) -> Observation:
        """Execute one SOS at one operating point; classify the behaviour.

        ``floating`` is one :class:`FloatingNode` or a tuple of them (all
        initialized to the same ``U``).  Under ``GuardPolicy.QUARANTINE``
        a solver guard trip is absorbed: the point is recorded on
        :attr:`quarantined` and a quarantined observation is returned.
        The point is a one-point tile run through the scalar oracle.
        """
        return self._observe_tile(sos, (r_def,), (u,), floating, False)[0][0]

    # -- region maps (Figs. 3 and 4) ---------------------------------------------

    def region_map(
        self,
        sos: SOS,
        floating,
        grid: Optional[SweepGrid] = None,
        label: str = "ffm",
    ) -> FPRegionMap:
        """Classify the whole ``(R_def, U)`` grid for one SOS.

        ``label`` selects what the map stores per point: ``"ffm"`` (the FFM,
        or the raw FP string when unclassifiable) or ``"fp"`` (the full FP).
        """
        if label not in ("ffm", "fp"):
            raise ValueError("label must be 'ffm' or 'fp'")
        grid = grid or self.grid
        telemetry.count(
            "analyzer.grid_points", len(grid.r_values) * len(grid.u_values)
        )
        tile = self.observe_grid(
            sos, grid.r_values, grid.u_values, floating
        )
        rows = tuple(
            tuple(_label_of(obs, label) for obs in column) for column in tile
        )
        return FPRegionMap(grid.r_values, grid.u_values, rows)

    # -- marginal-point detection ---------------------------------------------

    def marginal_points(
        self,
        sos: SOS,
        floating,
        region: FPRegionMap,
        epsilon: Optional[float] = None,
    ) -> Tuple[Tuple[float, float], ...]:
        """Region-boundary points whose label flips under ``±ε`` U jitter.

        For every boundary point of every observed label, the SOS is
        re-executed with the floating voltage nudged by ``±epsilon``
        (clamped to the map's U range); a point whose classification
        differs for either nudge is *marginal* — its region assignment is
        grid-resolution-fragile, the stress-condition sensitivity studied
        by Majhi et al.  The default ``epsilon`` is 2% of the U span.
        Returns the ``(r, u)`` coordinates of the marginal points.  The
        jittered points are labelled like ``region``: as full FPs when
        its labels are :class:`FaultPrimitive` objects (``label="fp"``),
        as FFMs otherwise.
        """
        floating = _as_nodes(floating)
        label = "fp" if any(
            isinstance(lab, FaultPrimitive) for lab in region.observed_labels
        ) else "ffm"
        u_lo, u_hi = region.u_values[0], region.u_values[-1]
        if epsilon is None:
            span = u_hi - u_lo
            epsilon = 0.02 * (span if span > 0 else self.technology.vdd)
        candidates: List[Tuple[int, int]] = []
        seen = set()
        for lab in region.observed_labels:
            if lab is QUARANTINED:
                continue
            for ij in region.boundary_points(lab):
                if ij not in seen:
                    seen.add(ij)
                    candidates.append(ij)
        marginal: List[Tuple[float, float]] = []
        for i, j in sorted(candidates):
            r = region.r_values[i]
            u = region.u_values[j]
            base = region.labels[i][j]
            for du in (-epsilon, epsilon):
                u_jit = min(max(u + du, u_lo), u_hi)
                if u_jit == u:
                    continue
                obs = self.observe(sos, r, u_jit, floating)
                if _label_of(obs, label) != base:
                    marginal.append((r, u))
                    telemetry.count("analyzer.marginal_points")
                    break
        return tuple(marginal)

    # -- the Section 5 survey -------------------------------------------------------

    def survey(
        self,
        floating: Optional[FloatingNode] = None,
        probes: Optional[Sequence[str]] = None,
        grid: Optional[SweepGrid] = None,
    ) -> List[PartialFaultFinding]:
        """Probe the defect with the single-cell SOS space; report findings.

        One finding is returned per (floating voltage, FFM) pair observed
        anywhere in the plane.  ``finding.is_partial`` applies the paper's
        rule.  When ``floating`` is None, all floating voltages prescribed
        for this open by the Section 2 rules are swept in turn.
        """
        if floating is not None:
            plans: Tuple[Tuple[FloatingNode, ...], ...] = (_as_nodes(floating),)
        else:
            plans = self.sweep_plans()
        probe_list = tuple(probes) if probes is not None else PROBE_SOSES
        findings: List[PartialFaultFinding] = []
        with telemetry.span(
            "analyzer.survey",
            location=self.location.name,
            plans=len(plans),
            probes=len(probe_list),
        ) as sp:
            for plan in plans:
                for text in probe_list:
                    sos = parse_sos(text) if isinstance(text, str) else text
                    region = self.region_map(sos, plan, grid=grid)
                    for observed in region.observed_labels:
                        if not isinstance(observed, FFM):
                            continue
                        findings.append(
                            PartialFaultFinding(
                                self.location, plan, sos, observed, region
                            )
                        )
            sp.set(findings=len(findings))
        return findings
