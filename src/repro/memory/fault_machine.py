"""Behavioural fault machines: completed FPs as operation-stream automata.

The electrical analysis (:mod:`repro.core.analysis`) tells us *which*
completed fault primitive a defect produces; qualifying march tests
against it needs a fast functional model.  A :class:`BehavioralFault`
executes the semantics of one (completed or partial) FP against the
operation stream of a march test:

* it tracks the **floating node** the fault depends on.  For bit-line
  completions (``[w0_BL]``-style) every write on the victim's column
  drives the node to the written value and every read re-drives it to the
  value returned (the sense amplifier restores the line).  For
  victim-targeted completions (``<[w1 w0] r0/1/1>``-style) the relevant
  history is the victim's own sequence of established values.  For
  *static* nodes (floating word lines, fully disconnected cells — the
  paper's ``Not possible`` entries) no operation moves the node at all;
* when the victim receives its sensitizing operation while the node is in
  the armed range and the victim holds the required state, the fault
  **triggers**: the stored value becomes ``F`` and (for read-sensitized
  faults) the read returns ``R``.

The initial node value is a constructor parameter; a march test detects
the fault *guaranteed* only if it fails for **every** initial node value —
exactly the paper's point about floating voltages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import List, Optional, Tuple

from ..core.fault_primitives import (
    BITLINE_NEIGHBOR,
    VICTIM,
    FaultPrimitive,
    Op,
)
from .array import Topology

__all__ = ["NodeKind", "BehavioralFault", "DataRetentionFault"]


class NodeKind(Enum):
    """What kind of floating node conditions the fault."""

    BITLINE = "bitline"
    """Driven by every write (and read restore) on the victim's column."""

    VICTIM_HISTORY = "victim-history"
    """Conditioned by the victim's own recent established values."""

    STATIC = "static"
    """Never moved by memory operations (floating word line)."""


def _infer_kind(fp: FaultPrimitive) -> NodeKind:
    cells = {op.cell for op in fp.sos.completing_ops}
    if not cells:
        return NodeKind.STATIC
    if cells == {VICTIM}:
        return NodeKind.VICTIM_HISTORY
    if cells == {BITLINE_NEIGHBOR}:
        return NodeKind.BITLINE
    raise ValueError(
        f"cannot infer a node kind for completing cells {sorted(cells)!r}"
    )


@dataclass
class BehavioralFault:
    """One victim cell governed by a (completed) fault primitive.

    Use :meth:`from_fp` to build the machine from a fault primitive; the
    raw constructor is for tests that want full control.
    """

    fp: FaultPrimitive
    victim: int
    topology: Topology
    kind: NodeKind
    node_value: Optional[int] = None
    state: int = 0
    triggered: bool = False
    _history: List[int] = field(default_factory=list)

    @classmethod
    def from_fp(
        cls,
        fp: FaultPrimitive,
        victim: int,
        topology: Topology,
        node_value: Optional[int] = None,
        kind: Optional[NodeKind] = None,
    ) -> "BehavioralFault":
        """Build the machine; ``node_value`` is the initial floating value.

        ``node_value=None`` leaves the node unknown: the fault cannot
        trigger until an operation drives the node (or never, for STATIC
        kinds — modelling the benign region of a partial fault).
        """
        kind = kind or _infer_kind(fp)
        init = fp.sos.init_value(VICTIM)
        state = init if init is not None else 0
        return cls(fp, topology.check(victim), topology, kind, node_value, state)

    # -- derived requirements ---------------------------------------------------

    @cached_property
    def sensitizing_op(self) -> Optional[Op]:
        """The last non-completing victim operation (None for state faults)."""
        plain = [
            op for op in self.fp.sos.ops
            if op.cell == VICTIM and not op.completing
        ]
        return plain[-1] if plain else None

    @cached_property
    def required_state(self) -> Optional[int]:
        """Victim state needed just before the sensitizing operation."""
        op = self.sensitizing_op
        if op is not None and op.is_read:
            return op.value
        # Write- or state-sensitized: the state just before the sensitizing
        # point is the initialization, or — when the initialization was
        # dropped (``<[w1 w0] r0/1/1>`` style) — whatever the completing
        # prefix establishes on the victim.
        init = self.fp.sos.init_value(VICTIM)
        if init is not None:
            return init
        completing = [o for o in self.fp.sos.completing_ops if o.cell == VICTIM]
        if completing:
            return completing[-1].value
        return None

    @cached_property
    def armed_value(self) -> Optional[int]:
        """Node value that sensitizes the fault.

        For bit-line completions, the value of the last completing write;
        for victim-history and static kinds this is unused / means
        "machine constructed active".
        """
        completing = self.fp.sos.completing_ops
        if not completing:
            return None
        return completing[-1].value

    @cached_property
    def required_history(self) -> Tuple[int, ...]:
        """Victim value pattern required for VICTIM_HISTORY faults."""
        return tuple(
            op.value for op in self.fp.sos.completing_ops if op.cell == VICTIM
        )

    # -- the operation protocol -----------------------------------------------------

    def on_write(self, address: int, value: int) -> int:
        """Process a write; return the value actually stored in the victim.

        For non-victim addresses the return value is meaningless (the
        caller stores ``value``); the machine only updates its node.
        """
        if address == self.victim:
            if self._write_triggers(value):
                self.triggered = True
                self.state = self.fp.faulty_value
            else:
                self.state = value
            self._record(value)
            self._maybe_state_fault()
        self._drive_node(address, value)
        return self.state

    def on_read(self, address: int, fault_free_value: int) -> int:
        """Process a read; return the value the memory outputs.

        ``fault_free_value`` is what the backing array holds for non-victim
        addresses; the victim's value is the machine's own state.
        """
        if address != self.victim:
            self._drive_node(address, fault_free_value)
            return fault_free_value
        result = self.state
        if self._read_triggers():
            self.triggered = True
            self.state = self.fp.faulty_value
            assert self.fp.read_value is not None
            result = self.fp.read_value
        self._record(result)
        self._drive_node(address, result)
        return result

    # -- internals -------------------------------------------------------------------

    def _same_column(self, address: int) -> bool:
        return self.topology.same_column(address, self.victim)

    def _drive_node(self, address: int, value: int) -> None:
        """A write/restore on the victim's column drives a BITLINE node."""
        if self.kind is NodeKind.BITLINE and self._same_column(address):
            self.node_value = value

    def _record(self, value: int) -> None:
        if self.kind is NodeKind.VICTIM_HISTORY:
            self._history.append(value)

    def _node_armed(self) -> bool:
        if self.kind is NodeKind.BITLINE:
            return self.node_value is not None and self.node_value == self.armed_value
        if self.kind is NodeKind.VICTIM_HISTORY:
            pattern = self.required_history
            return (
                len(pattern) > 0
                and tuple(self._history[-len(pattern):]) == pattern
            )
        # STATIC: armed when constructed with node_value=1 (active).
        return self.node_value == 1

    def _state_matches(self) -> bool:
        required = self.required_state
        return required is None or self.state == required

    def _read_triggers(self) -> bool:
        op = self.sensitizing_op
        if op is None or not op.is_read:
            return False
        return self._state_matches() and self._node_armed()

    def _write_triggers(self, value: int) -> bool:
        op = self.sensitizing_op
        if op is None or not op.is_write or op.value != value:
            return False
        return self._state_matches() and self._node_armed()

    def _maybe_state_fault(self) -> None:
        """State faults (op-less FPs) apply right after their prefix."""
        if self.sensitizing_op is not None:
            return
        if self.kind is NodeKind.VICTIM_HISTORY:
            if self._node_armed():
                self.triggered = True
                self.state = self.fp.faulty_value
        elif self.kind is NodeKind.STATIC and self._node_armed():
            if self._state_matches():
                self.triggered = True
                self.state = self.fp.faulty_value

    def tick(self) -> None:
        """Advance background time (precharge cycles without accesses).

        Static state faults (the Open 9 SF0: the cell charges during any
        precharge) apply on every tick while armed.
        """
        if self.kind is NodeKind.STATIC and self.sensitizing_op is None:
            if self._node_armed() and self._state_matches():
                self.triggered = True
                self.state = self.fp.faulty_value


@dataclass
class DataRetentionFault:
    """A leaky cell: it loses a stored 1 after too long without refresh.

    The classical DRF.  ``retention_time`` is how long the cell holds its
    1; every victim access (read restore or write) resets the clock.
    Only march ``Del`` elements advance time — operation time is orders
    of magnitude below retention times and is ignored.  The machine
    follows the ``on_read``/``on_write``/``pause`` protocol of
    :class:`~repro.memory.simulator.FaultyMemory`.
    """

    victim: int
    topology: Topology
    retention_time: float = 0.05
    lost_value: int = 1
    state: int = 0
    triggered: bool = False
    _unrefreshed: float = 0.0

    def __post_init__(self) -> None:
        self.topology.check(self.victim)
        if self.retention_time <= 0:
            raise ValueError("retention time must be positive")
        if self.lost_value not in (0, 1):
            raise ValueError("lost value must be 0 or 1")

    def on_write(self, address: int, value: int) -> int:
        if address == self.victim:
            self.state = value
            self._unrefreshed = 0.0
        return self.state

    def on_read(self, address: int, fault_free_value: int) -> int:
        if address != self.victim:
            return fault_free_value
        self._unrefreshed = 0.0     # the read restores the cell
        return self.state

    def pause(self, seconds: float) -> None:
        self._unrefreshed += seconds
        if self._unrefreshed >= self.retention_time and self.state == self.lost_value:
            self.triggered = True
            self.state = 1 - self.lost_value

    def tick(self) -> None:
        """Precharge cycles between elements: negligible time."""
