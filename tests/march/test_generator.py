"""Tests for constructive march-test generation."""

import pytest

from repro.core.fault_primitives import parse_fp
from repro.march.generator import generate_march
from repro.march.notation import Direction
from repro.march.simulator import detects, run_march
from repro.memory.array import Topology
from repro.memory.simulator import FaultyMemory

TOPO = Topology(3, 2)

READ_FAULT = parse_fp("<1v [w0BL] r1v/0/0>")
WRITE_FAULT = parse_fp("<1v [w1BL] w0v/1/->")
HISTORY_FAULT = parse_fp("<[w1 w0] r0/1/1>")
STATE_FAULT = parse_fp("<[w1 w0]/1/->")
STATIC_FAULT = parse_fp("<0r0/0/1>")


class TestGeneration:
    def test_generated_test_verified(self):
        g = generate_march((READ_FAULT, WRITE_FAULT, HISTORY_FAULT), topology=TOPO)
        assert g.verified
        assert not g.uncoverable

    def test_generated_test_detects_each_fault(self):
        g = generate_march((READ_FAULT, HISTORY_FAULT), topology=TOPO,
                           verify=False)
        for fp in (READ_FAULT, HISTORY_FAULT):
            assert detects(g.test, fp, TOPO)

    def test_generated_test_is_sound(self):
        g = generate_march((READ_FAULT, WRITE_FAULT), topology=TOPO,
                           verify=False)
        for direction in (Direction.UP, Direction.DOWN):
            memory = FaultyMemory(TOPO)
            assert not run_march(g.test, memory, either_as=direction).detected

    def test_static_faults_reported_uncoverable(self):
        g = generate_march((READ_FAULT, STATIC_FAULT), topology=TOPO,
                           verify=False)
        assert STATIC_FAULT in g.uncoverable
        assert READ_FAULT in g.covered

    def test_complement_set_generates_too(self):
        faults = (READ_FAULT, READ_FAULT.complement())
        g = generate_march(faults, topology=TOPO)
        assert g.verified

    def test_state_fault_coverage(self):
        g = generate_march((STATE_FAULT,), topology=TOPO)
        assert g.verified and not g.uncoverable

    def test_minimize_keeps_coverage(self):
        faults = (READ_FAULT, WRITE_FAULT, HISTORY_FAULT, STATE_FAULT)
        full = generate_march(faults, topology=TOPO, verify=False)
        minimized = generate_march(faults, topology=TOPO, minimize=True)
        assert minimized.verified
        assert minimized.ops_per_address <= full.ops_per_address

    def test_duplicate_faults_share_idioms(self):
        one = generate_march((READ_FAULT,), topology=TOPO, verify=False)
        two = generate_march((READ_FAULT, READ_FAULT), topology=TOPO,
                             verify=False)
        assert one.ops_per_address == two.ops_per_address


def test_minimized_test_for_the_papers_completed_faults_writes_first():
    """Minimizing must not drop the initializing write: the greedy pass
    once returned ``{⇑(r0,r0,w1); ⇕(w0); …}`` for the paper's own 12
    completed FPs, which passes a 0-filled fault-free memory only."""
    from repro.experiments.table1 import PAPER_TABLE1

    faults = []
    for row in PAPER_TABLE1:
        if row.completed is None:
            continue
        fp = parse_fp(row.completed)
        for candidate in (fp, fp.complement()):
            if candidate not in faults:
                faults.append(candidate)
    assert len(faults) == 12
    generated = generate_march(faults, minimize=True)
    first = next(op for element in generated.test.elements for op in element.ops)
    assert first.is_write
    assert generated.verified and not generated.uncoverable
