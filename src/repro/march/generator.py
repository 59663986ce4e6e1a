"""Constructive march-test generation for completed partial faults.

The paper constructs March PF by hand from Table 1's completed FPs.  This
module automates the construction: each completed fault primitive demands
a *detection idiom* —

* **read-sensitized, bit-line armed** (``<s_v [wa_BL] r s_v /F/R>``): march
  an element whose trailing operation writes the arming value ``a`` and
  whose leading operations read the victim while it still holds ``s``;
  the arming write of the previously visited column-mate then sensitizes
  the leading read.  A second read catches deceptive (DRDF-style) faults
  whose first read still returns the expected value.
* **write-sensitized, bit-line armed** (``<s_v [wa_BL] w x_v /F/->``): the
  element leads with the sensitizing write (armed the same way), reads the
  result back immediately, and re-arms with its trailing write.
* **victim-history** (``<[w1 w0] r0/1/1>`` style): a purely intra-address
  run — replay the completing pattern on each cell, apply the sensitizing
  operation, read back.

Idioms needing cross-address arming are emitted in both march directions
so first/last-visited cells of each column are covered too.  ``STATIC``
faults (floating word lines) admit no guaranteed-detection idiom — the
paper's ``Not possible`` — and are reported as uncoverable.

The generated test is verified by exhaustive simulation
(:func:`repro.march.coverage.coverage_matrix`) and can optionally be
greedily minimized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from ..core.fault_primitives import FaultPrimitive, VICTIM
from ..memory.array import Topology
from ..memory.fault_machine import NodeKind, _infer_kind
from .coverage import coverage_matrix
from .notation import Direction, MarchElement, MarchOp, MarchTest
from .simulator import _fails_fault_free, detects

__all__ = ["GeneratedMarch", "generate_march"]


def _r(value: int) -> MarchOp:
    return MarchOp("r", value)


def _w(value: int) -> MarchOp:
    return MarchOp("w", value)


@dataclass(frozen=True)
class GeneratedMarch:
    """Result of march generation."""

    test: MarchTest
    covered: Tuple[FaultPrimitive, ...]
    uncoverable: Tuple[FaultPrimitive, ...]
    verified: bool

    @property
    def ops_per_address(self) -> int:
        return self.test.ops_per_address


@dataclass(frozen=True)
class _Idiom:
    """One required element shape: (in-state, ops, out-state, cross)."""

    in_state: int
    ops: Tuple[MarchOp, ...]
    out_state: int
    cross_address: bool


def _idiom_for(fp: FaultPrimitive) -> Optional[_Idiom]:
    kind = _infer_kind(fp)
    sens = None
    plain = [op for op in fp.sos.ops if op.cell == VICTIM and not op.completing]
    if plain:
        sens = plain[-1]
    if kind is NodeKind.STATIC:
        return None
    if kind is NodeKind.VICTIM_HISTORY:
        pattern = tuple(
            op.value for op in fp.sos.completing_ops if op.cell == VICTIM
        )
        ops: List[MarchOp] = [_w(v) for v in pattern]
        if sens is None:
            expected = pattern[-1]
            ops.append(_r(expected))
        elif sens.is_read:
            ops.append(_r(sens.value))
            ops.append(_r(sens.value))
            expected = sens.value
        else:
            ops.append(_w(sens.value))
            ops.append(_r(sens.value))
            expected = sens.value
        return _Idiom(in_state=pattern[0], ops=tuple(ops), out_state=expected,
                      cross_address=False)
    # BITLINE-armed idioms.
    armed = fp.sos.completing_ops[-1].value
    if sens is None:
        # A bit-line-armed state fault: arm, let time pass, read back.
        state = fp.sos.init_value(VICTIM)
        assert state is not None
        return _Idiom(state, (_r(state), _r(state), _w(armed)), armed, True)
    if sens.is_read:
        state = sens.value
        return _Idiom(state, (_r(state), _r(state), _w(armed)), armed, True)
    state = fp.sos.init_value(VICTIM)
    assert state is not None
    return _Idiom(state, (_w(sens.value), _r(sens.value), _w(armed)), armed, True)


def generate_march(
    faults: Sequence[FaultPrimitive],
    name: str = "March gen",
    topology: Optional[Topology] = None,
    verify: bool = True,
    minimize: bool = False,
) -> GeneratedMarch:
    """Build (and verify) a march test detecting the given completed FPs."""
    topology = topology or Topology(n_rows=4, n_cols=2)
    idioms: List[_Idiom] = []
    covered: List[FaultPrimitive] = []
    uncoverable: List[FaultPrimitive] = []
    seen: Set[Tuple] = set()
    for fp in faults:
        idiom = _idiom_for(fp)
        if idiom is None:
            uncoverable.append(fp)
            continue
        covered.append(fp)
        key = (idiom.in_state, idiom.ops, idiom.out_state, idiom.cross_address)
        if key not in seen:
            seen.add(key)
            idioms.append(idiom)
    elements: List[MarchElement] = []
    state: Optional[int] = None

    def ensure_state(required: int) -> None:
        nonlocal state
        if state != required:
            elements.append(MarchElement(Direction.EITHER, (_w(required),)))
            state = required

    for idiom in idioms:
        directions = (
            (Direction.UP, Direction.DOWN) if idiom.cross_address
            else (Direction.EITHER,)
        )
        for direction in directions:
            ensure_state(idiom.in_state)
            elements.append(MarchElement(direction, idiom.ops))
            state = idiom.out_state
    if state is not None:
        elements.append(MarchElement(Direction.EITHER, (_r(state),)))
    test = MarchTest(name, tuple(elements))
    if minimize:
        test = _minimize(test, covered, topology)
    verified = True
    if verify:
        matrix = coverage_matrix((test,), covered, topology)
        verified = matrix.covers_all(test)
    return GeneratedMarch(test, tuple(covered), tuple(uncoverable), verified)


def _minimize(
    test: MarchTest,
    faults: Sequence[FaultPrimitive],
    topology: Topology,
) -> MarchTest:
    """Greedily drop elements while full coverage (and soundness) holds."""
    elements = list(test.elements)
    i = 0
    while i < len(elements) and len(elements) > 1:
        candidate_elements = elements[:i] + elements[i + 1:]
        candidate = MarchTest(test.name, tuple(candidate_elements))
        if _sound(candidate) and all(
            detects(candidate, fp, topology) for fp in faults
        ):
            elements = candidate_elements
        else:
            i += 1
    return MarchTest(test.name, tuple(elements))


def _sound(test: MarchTest) -> bool:
    """The test writes every cell before reading it (a march cannot
    assume the array's power-up state), and a fault-free memory passes
    it (no false positives)."""
    first = next((op for element in test.elements for op in element.ops), None)
    if first is not None and first.is_read:
        return False
    return not _fails_fault_free(test)
