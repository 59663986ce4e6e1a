"""repro — partial faults in memory devices.

A production-quality reproduction of Z. Al-Ars & A. J. van de Goor,
*Modeling Techniques and Tests for Partial Faults in Memory Devices*
(DATE 2002): fault-primitive notation, an electrical DRAM-column model
with open-defect injection, the ``(R_def, U)``-plane fault analysis that
identifies partial faults, the completing-operation search, behavioural
fault machines, and a march-test engine with coverage qualification.

Quickstart::

    from repro import (
        ColumnFaultAnalyzer, OpenLocation, FloatingNode,
        parse_fp, complete_fault, MARCH_PF_PLUS, detects, Topology,
    )

    analyzer = ColumnFaultAnalyzer(OpenLocation.BL_PRECHARGE_CELLS)
    findings = analyzer.survey((FloatingNode.BIT_LINE,), probes=("1r1",))
    partial = next(f for f in findings if f.is_partial)
    outcome = complete_fault(analyzer, partial)
    print(outcome.describe())          # <1v [w0BL] r1v/0/0>
    assert detects(MARCH_PF_PLUS, outcome.completed_fp, Topology(4, 2))
"""

from .circuit.bridges import BridgeDefect, BridgeLocation
from .circuit.calibration import CalibrationResult, calibrate_to_paper
from .circuit.column import DRAMColumn
from .circuit.defects import FloatingNode, OpenDefect, OpenLocation, floating_nodes
from .circuit.technology import Technology, default_technology
from .core.analysis import (
    ColumnFaultAnalyzer,
    PartialFaultFinding,
    SweepGrid,
    default_grid_for,
)
from .core.bridge_analysis import BridgeFaultAnalyzer
from .core.complement import complement
from .core.diagnosis import (
    DiagnosisResult,
    SignatureDatabase,
    equivalence_class,
)
from .core.coupling import (
    CouplingFFM,
    canonical_coupling_fp,
    classify_two_cell_fp,
)
from .core.completion import CompletionOutcome, complete_fault
from .core.fault_primitives import (
    FaultPrimitive,
    Init,
    Op,
    OpKind,
    SOS,
    cumulative_single_cell_fp_count,
    enumerate_single_cell_fps,
    parse_fp,
    parse_sos,
    single_cell_fp_count,
)
from .core.ffm import FFM, canonical_fp, classify_fp
from .core.metrics import SOSMetrics, metrics_of, satisfied_relations
from .core.regions import FPRegionMap
from .march.coverage import CoverageMatrix, coverage_matrix
from .march.generator import GeneratedMarch, generate_march
from .march.library import (
    ALL_TESTS,
    BASELINE_TESTS,
    IFA_13,
    MARCH_C_MINUS,
    MARCH_PF,
    MARCH_PF_PLUS,
    MARCH_SS,
    MATS_PLUS,
    get_test,
)
from .march.notation import (
    Direction,
    MarchElement,
    MarchOp,
    MarchPause,
    MarchTest,
    parse_march,
)
from .march.simulator import (
    MarchResult,
    detects,
    detects_coupling,
    escape_cases,
    run_march,
)
from .memory.array import MemoryArray, Topology
from .memory.coupling_machine import CouplingFault
from .memory.fault_machine import BehavioralFault, DataRetentionFault, NodeKind
from .memory.simulator import ElectricalMemory, FaultyMemory
from .parallel import AnalyzerSpec

from . import telemetry

__version__ = "1.0.0"

__all__ = [
    "BehavioralFault",
    "BridgeDefect",
    "BridgeFaultAnalyzer",
    "CalibrationResult",
    "calibrate_to_paper",
    "BridgeLocation",
    "CouplingFFM",
    "CouplingFault",
    "DataRetentionFault",
    "DiagnosisResult",
    "SignatureDatabase",
    "equivalence_class",
    "IFA_13",
    "MarchPause",
    "canonical_coupling_fp",
    "classify_two_cell_fp",
    "detects_coupling",
    "AnalyzerSpec",
    "ColumnFaultAnalyzer",
    "CompletionOutcome",
    "CoverageMatrix",
    "DRAMColumn",
    "Direction",
    "ElectricalMemory",
    "FFM",
    "FPRegionMap",
    "FaultPrimitive",
    "FaultyMemory",
    "FloatingNode",
    "GeneratedMarch",
    "Init",
    "MarchElement",
    "MarchOp",
    "MarchResult",
    "MarchTest",
    "MemoryArray",
    "NodeKind",
    "Op",
    "OpKind",
    "OpenDefect",
    "OpenLocation",
    "PartialFaultFinding",
    "SOS",
    "SOSMetrics",
    "SweepGrid",
    "Technology",
    "telemetry",
    "Topology",
    "ALL_TESTS",
    "BASELINE_TESTS",
    "MARCH_C_MINUS",
    "MARCH_PF",
    "MARCH_PF_PLUS",
    "MARCH_SS",
    "MATS_PLUS",
    "canonical_fp",
    "classify_fp",
    "complement",
    "complete_fault",
    "coverage_matrix",
    "cumulative_single_cell_fp_count",
    "default_grid_for",
    "default_technology",
    "detects",
    "enumerate_single_cell_fps",
    "escape_cases",
    "floating_nodes",
    "generate_march",
    "get_test",
    "metrics_of",
    "parse_fp",
    "parse_march",
    "parse_sos",
    "run_march",
    "satisfied_relations",
    "single_cell_fp_count",
]
