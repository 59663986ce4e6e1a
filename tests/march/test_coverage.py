"""Tests for the coverage matrix."""

import pytest

from repro.core.fault_primitives import parse_fp
from repro.march.coverage import coverage_matrix
from repro.march.library import MARCH_C_MINUS, MARCH_PF_PLUS, SCAN
from repro.memory.array import Topology

FAULTS = (
    parse_fp("<1v [w0BL] r1v/0/0>"),
    parse_fp("<0v [w1BL] r0v/1/1>"),
    parse_fp("<[w1 w0] r0/1/1>"),
)
TOPO = Topology(3, 2)


@pytest.fixture(scope="module")
def matrix():
    return coverage_matrix((SCAN, MARCH_PF_PLUS), FAULTS, TOPO)


class TestCoverageMatrix:
    def test_shape(self, matrix):
        assert len(matrix.detected) == 2
        assert all(len(row) == len(FAULTS) for row in matrix.detected)

    def test_march_pf_plus_covers_all(self, matrix):
        assert matrix.covers_all(MARCH_PF_PLUS)
        assert matrix.detection_count(MARCH_PF_PLUS) == len(FAULTS)

    def test_scan_misses(self, matrix):
        assert not matrix.covers_all(SCAN)
        assert matrix.missed_by(SCAN)

    def test_missed_by_complete_cover_is_empty(self, matrix):
        assert matrix.missed_by(MARCH_PF_PLUS) == ()

    def test_best_tests(self, matrix):
        assert matrix.best_tests()[0] is MARCH_PF_PLUS

    def test_render_mentions_tests_and_ffms(self, matrix):
        text = matrix.render()
        assert "March PF+" in text
        assert "RDF1" in text and "RDF0" in text
        assert "3/3" in text

    def test_best_tests_prefers_cheaper(self):
        m = coverage_matrix((MARCH_PF_PLUS, MARCH_C_MINUS), FAULTS[:1], TOPO)
        assert m.covers_all(MARCH_C_MINUS)
        assert m.best_tests()[0] is MARCH_C_MINUS
