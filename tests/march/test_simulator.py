"""Tests for march execution and detection qualification."""

import pytest

from repro import telemetry
from repro.core.fault_primitives import parse_fp
from repro.march.library import MARCH_PF_PLUS, MATS_PLUS, SCAN
from repro.march.notation import Direction, parse_march
from repro.march.simulator import (
    _simulated_escape_cases,
    detects,
    escape_cases,
    run_march,
)
from repro.memory.array import Topology
from repro.memory.fault_machine import BehavioralFault
from repro.memory.simulator import FaultyMemory

TOPO = Topology(4, 2)


def faulty(text, victim=0, node_value=None):
    fault = BehavioralFault.from_fp(
        parse_fp(text), victim, TOPO, node_value=node_value
    )
    return FaultyMemory(TOPO, fault)


class TestRunMarch:
    def test_counts_operations(self):
        memory = FaultyMemory(TOPO)
        result = run_march(MATS_PLUS, memory)
        assert result.operations == MATS_PLUS.operation_count(TOPO.size)

    def test_active_static_fault_detected_by_scan(self):
        memory = faulty("<0r0/0/1>", node_value=1)  # active IRF0
        result = run_march(SCAN, memory)
        assert result.detected

    def test_scan_write_disarms_bitline_fault(self):
        """SCAN's w0 sweep drives the bit line low before every r0, so the
        [w1_BL]-armed fault never triggers — the paper's escape mechanism."""
        memory = faulty("<0v [w1BL] r0v/1/1>", node_value=1)
        result = run_march(SCAN, memory)
        assert not result.detected

    def test_mismatch_records_location(self):
        memory = faulty("<0r0/0/1>", node_value=1)
        result = run_march(SCAN, memory)
        first = result.mismatches[0]
        assert first.expected != first.observed
        assert 0 <= first.address < TOPO.size

    def test_stop_at_first(self):
        memory = faulty("<0r0/0/1>", node_value=1)
        result = run_march(SCAN, memory, stop_at_first=True)
        assert len(result.mismatches) == 1

    def test_either_resolution_changes_order(self):
        test = parse_march("{⇕(w1); ⇕(r1)}")
        memory = FaultyMemory(TOPO)
        up = run_march(test, memory, either_as=Direction.UP)
        memory2 = FaultyMemory(TOPO)
        down = run_march(test, memory2, either_as=Direction.DOWN)
        assert not up.detected and not down.detected

    def test_explicit_size(self):
        memory = FaultyMemory(TOPO)
        result = run_march(MATS_PLUS, memory, size=4)
        assert result.operations == MATS_PLUS.ops_per_address * 4


class TestDetects:
    def test_march_pf_plus_detects_rdf1_completed(self):
        fp = parse_fp("<1v [w0BL] r1v/0/0>")
        assert detects(MARCH_PF_PLUS, fp, TOPO)

    def test_simple_test_misses_rdf1_completed(self):
        fp = parse_fp("<1v [w0BL] r1v/0/0>")
        simple = parse_march("{⇕(w1); ⇕(r1)}", "w1r1")
        assert not detects(simple, fp, TOPO)

    def test_escape_cases_name_the_scenarios(self):
        fp = parse_fp("<1v [w0BL] r1v/0/0>")
        simple = parse_march("{⇕(w1); ⇕(r1)}", "w1r1")
        escapes = escape_cases(simple, fp, TOPO)
        assert escapes
        victims = {victim for victim, _, _ in escapes}
        assert victims  # every victim escapes under some floating value

    def test_detection_requires_all_node_values(self):
        """A test catching the fault only when armed-by-luck must fail."""
        fp = parse_fp("<1v [w0BL] r1v/0/0>")
        single = Topology(1, 1)
        # A bare read: triggers only if the node happened to float low.
        lucky = parse_march("{⇕(r1)}", "lucky")
        assert detects(lucky, fp, single, node_values=(0,))
        assert not detects(lucky, fp, single, node_values=(0, 1))

    def test_static_fault_active_only_qualification(self):
        fp = parse_fp("<0r0/0/1>")
        assert detects(SCAN, fp, TOPO, node_values=(1,))
        assert not detects(SCAN, fp, TOPO, node_values=(0, 1))

    def test_default_topology(self):
        fp = parse_fp("<1v [w0BL] r1v/0/0>")
        assert detects(MARCH_PF_PLUS, fp)

    def test_unsound_march_is_caught_by_the_other_cells(self):
        """Cells besides the victim fail a march that a fault-free memory
        fails, so every scenario is flagged; a lone victim decides alone."""
        fp = parse_fp("<1v [w0BL] r1v/0/0>")
        unsound = parse_march("{⇕(r1)}", "unsound")
        assert escape_cases(unsound, fp, Topology(2, 1)) == ()
        lone = ((0, 1, Direction.UP), (0, 1, Direction.DOWN))
        assert escape_cases(unsound, fp, Topology(1, 1)) == lone
        assert _simulated_escape_cases(unsound, fp, Topology(1, 1)) == lone

    @pytest.mark.parametrize("fp, test, topology, node_values, misses", [
        # The sensitizing w1 leaves the cell at 0 but drives 1 onto the
        # bit line, so the rewrite that follows stores 1 and r1 passes.
        ("<0v [w0BL] w1v/0/->", "{⇕(w0,w1,w1,r1)}", Topology(1, 1), (0,),
         ((0, 0, Direction.UP), (0, 0, Direction.DOWN))),
        # The victim's r1 restores 1 onto the bit line its column-mate
        # left at 0, which arms the w0 that follows.
        ("<1v [w1BL] w0v/1/->", "{⇕(w1); ⇑(r1,w0); ⇑(r0)}",
         Topology(2, 1), (0, 1), ()),
        # An active floating-word-line state fault flips the cell in the
        # precharge after an element, with no write needed.
        ("<0/1/->", "{⇑(r0); ⇑(r0)}", Topology(2, 1), (1,), ()),
        # A ⇕ element resolved as ⇓ visits the bottom row first: its w0
        # arms the top-row victim, and the bottom-row victim escapes.
        ("<1v [w0BL] r1v/0/0>", "{⇑(w1); ⇕(r1,w0)}", Topology(2, 1), (0, 1),
         ((0, 0, Direction.UP), (0, 1, Direction.UP),
          (1, 0, Direction.DOWN), (1, 1, Direction.DOWN))),
    ])
    def test_projection_keeps_the_machine_semantics(
        self, fp, test, topology, node_values, misses
    ):
        for qualify in (escape_cases, _simulated_escape_cases):
            assert qualify(
                parse_march(test), parse_fp(fp), topology, node_values
            ) == misses

    def test_exceptions_survive_the_fault_free_shortcut(self):
        unsound = parse_march("{⇕(r0,r1)}", "unsound")
        mixed = parse_fp("<0v [w1v w1BL] r0v/1/1>")  # no node kind
        # A sensitizing read with no R: the machine asserts on trigger.
        no_read_value = parse_fp("<0r0 w1BL/1/->")
        for qualify in (escape_cases, _simulated_escape_cases):
            with pytest.raises(ValueError, match="node kind"):
                qualify(unsound, mixed, TOPO)
            with pytest.raises(AssertionError):
                qualify(unsound, no_read_value, TOPO, (1,))

    def test_qualification_counts_scenarios_not_runs(self):
        fp = parse_fp("<1v [w0BL] r1v/0/0>")
        telemetry.enable()
        telemetry.reset()
        try:
            escape_cases(MARCH_PF_PLUS, fp, TOPO)
            counters = telemetry.get_metrics().snapshot()["counters"]
        finally:
            telemetry.disable()
            telemetry.reset()
        assert counters["march.qualified_scenarios"] == TOPO.size * 2 * 2
        assert "march.runs" not in counters
