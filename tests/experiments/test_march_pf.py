"""Tests for the march-test experiment harness."""

import itertools

import pytest

from repro import telemetry
from repro.circuit.defects import OpenLocation
from repro.experiments.march_pf import (
    completed_fault_set,
    electrical_detection,
    run_march_pf,
)
from repro.march.coverage import coverage_matrix
from repro.march.generator import _sound
from repro.march.library import MARCH_PF, MARCH_PF_PLUS, MATS_PLUS, SCAN
from repro.march.notation import Direction, MarchElement, MarchTest
from repro.memory.array import Topology


class TestCompletedFaultSet:
    def test_sim_plus_com(self):
        faults = completed_fault_set()
        assert len(faults) == 18

    def test_contains_both_polarities(self):
        texts = {fp.to_string() for fp in completed_fault_set()}
        assert "<1v [w0BL] r1v/0/0>" in texts
        assert "<0v [w1BL] r0v/1/1>" in texts


def test_no_element_order_or_arrow_rescues_printed_march_pf():
    """Reordering the printed March PF's elements and choosing their
    arrows never lifts it above 6/18.

    All 24 element orders times 81 ⇑/⇓/⇕ assignments are tried.  A
    variant is kept when its first operation is a write and a fault-free
    memory passes it.  Without the write-first filter, 162 more variants
    reach 7/18, but they open with ``r0`` and so rely on the array's
    power-up 0, which a march test cannot assume.  If the printed test
    is corrupted, the corruption is inside its elements.
    """
    topology = Topology(4, 2)
    variants = []
    for order in itertools.permutations(MARCH_PF.elements):
        if not order[0].ops[0].is_write:
            continue
        for arrows in itertools.product(list(Direction), repeat=len(order)):
            variant = MarchTest("variant", tuple(
                MarchElement(arrow, element.ops)
                for arrow, element in zip(arrows, order)
            ))
            if _sound(variant):
                variants.append(variant)
    assert len(variants) == 162
    matrix = coverage_matrix(variants, completed_fault_set(), topology)
    assert {matrix.detection_count(v) for v in variants} == {6}


def test_only_the_electrical_cross_validation_runs_marches():
    """Coverage, minimization and the generator's soundness check decide
    without running a march; every ``run_march`` left is the electrical
    cross-validation's, one per floating preset of each defect point."""
    telemetry.enable()
    telemetry.reset()
    try:
        result = run_march_pf()
        counters = telemetry.get_metrics().snapshot()["counters"]
    finally:
        telemetry.disable()
        telemetry.reset()
    points = sum(len(verdicts) for verdicts in result.electrical.values())
    assert counters["march.runs"] == 2 * points == 36


class TestBehaviouralComparison:
    @pytest.fixture(scope="class")
    def result(self):
        return run_march_pf(
            tests=(SCAN, MATS_PLUS, MARCH_PF_PLUS),
            topology=Topology(3, 2),
            with_generator=False,
            with_electrical=False,
        )

    def test_march_pf_plus_covers_all(self, result):
        assert result.matrix.covers_all(MARCH_PF_PLUS)

    def test_baselines_miss(self, result):
        assert not result.matrix.covers_all(SCAN)
        assert not result.matrix.covers_all(MATS_PLUS)

    def test_report_renders(self, result):
        text = result.report.render()
        assert "March PF+" in text


class TestElectricalCrossValidation:
    def test_march_pf_plus_flags_open4(self):
        results = electrical_detection(
            MARCH_PF_PLUS,
            points=((OpenLocation.BL_PRECHARGE_CELLS, 3e5),),
        )
        assert all(results.values())

    def test_simple_test_misses_open4(self):
        results = electrical_detection(
            SCAN, points=((OpenLocation.BL_PRECHARGE_CELLS, 3e5),),
        )
        assert not all(results.values())
