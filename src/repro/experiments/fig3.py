"""Figure 3: bit-line open (Open 4), partial RDF1 and its completion.

Paper claims reproduced here:

* Fig. 3(a): applying ``S = 1r1`` with the floating bit-line voltage ``U``
  swept, the only substantial FP region is RDF1 (``<1r1/0/0>``); it exists
  only for *low* ``U`` (the paper: below about 2 V) and only above a
  defect-resistance threshold — i.e. RDF1 is a partial fault.
* Fig. 3(b): with the completing operation, ``S = 1_v [w0_BL] r1_v``, the
  fault region becomes independent of ``U``: above the threshold
  resistance the fault is sensitized for every initial bit-line voltage.

Absolute boundary values differ from the paper's SPICE model (EXPERIMENTS.md
tracks both); the claims asserted here are the qualitative region shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..circuit.defects import FloatingNode, OpenLocation
from ..circuit.network import GuardPolicy
from ..circuit.technology import Technology
from ..core.analysis import ColumnFaultAnalyzer, default_grid_for
from ..core.fault_primitives import parse_fp, parse_sos
from ..core.ffm import FFM
from ..core.regions import FPRegionMap
from .reporting import ExperimentReport, guards_block, instrumented

__all__ = ["Fig3Result", "run_fig3"]

#: The paper's completed FP for Fig. 3(b) / Table 1.
COMPLETED_FP_TEXT = "<1v [w0BL] r1v/0/0>"

#: The paper's approximate upper bound of the faulty U range in Fig. 3(a).
PAPER_MAX_FAULT_VOLTAGE = 2.0


@dataclass
class Fig3Result:
    """Both region maps plus the derived report."""

    partial_map: FPRegionMap
    completed_map: FPRegionMap
    report: ExperimentReport

    @property
    def max_fault_voltage(self) -> Optional[float]:
        return self.partial_map.max_fault_voltage(FFM.RDF1)

    @property
    def quarantined(self):
        """``(r, u)`` grid points either map quarantined (usually empty)."""
        return (
            self.partial_map.quarantined_points()
            + self.completed_map.quarantined_points()
        )


@instrumented("fig3")
def run_fig3(
    technology: Optional[Technology] = None,
    n_r: int = 16,
    n_u: int = 12,
    grid_engine: bool = True,
    guard_policy: Optional[GuardPolicy] = None,
) -> Fig3Result:
    """Regenerate Fig. 3(a) and 3(b).

    One analyzer builds both region maps, in process.
    ``guard_policy`` selects the solver-guard reaction per grid point;
    under ``GuardPolicy.QUARANTINE`` diverging points land in the maps
    as ``QUARANTINED`` labels and in the report's ``[guards]`` block.
    ``grid_engine=False`` disables the stacked ``(R_def, U)`` tile
    solver (every point runs through the scalar oracle) — the maps are
    identical.
    """
    grid = default_grid_for(OpenLocation.BL_PRECHARGE_CELLS, n_r=n_r, n_u=n_u)
    completed_fp = parse_fp(COMPLETED_FP_TEXT)
    analyzer = ColumnFaultAnalyzer(
        OpenLocation.BL_PRECHARGE_CELLS, technology=technology, grid=grid,
        grid_engine=grid_engine, guard_policy=guard_policy,
    )
    partial_map = analyzer.region_map(parse_sos("1r1"), FloatingNode.BIT_LINE)
    completed_map = analyzer.region_map(
        completed_fp.sos, FloatingNode.BIT_LINE
    )

    report = ExperimentReport("Figure 3 — bit-line open (Open 4), RDF1")
    report.add_block("Fig. 3(a): S = 1r1\n" + partial_map.render_ascii())
    report.add_block(
        f"Fig. 3(b): S = {completed_fp.sos}\n" + completed_map.render_ascii()
    )
    guards = guards_block(
        partial_map.quarantined_points() + completed_map.quarantined_points()
    )
    if guards is not None:
        report.add_block(guards)

    rdf1_seen = FFM.RDF1 in partial_map.observed_labels
    report.claim(
        "RDF1 observed for S=1r1",
        "RDF1 is the (only) FP region",
        f"labels: {[str(l) for l in partial_map.observed_labels]}",
        rdf1_seen,
    )
    partial = rdf1_seen and partial_map.is_partial_label(FFM.RDF1)
    max_u = partial_map.max_fault_voltage(FFM.RDF1) if rdf1_seen else None
    report.claim(
        "RDF1 only at low floating-BL voltage (partial fault)",
        f"fault vanishes above about {PAPER_MAX_FAULT_VOLTAGE} V",
        f"fault vanishes above {max_u:.2f} V" if max_u is not None else "absent",
        partial,
    )
    u_vals = partial_map.u_values
    low_thr = partial_map.threshold_resistance(FFM.RDF1, u_vals[0])
    report.claim(
        "RDF1 needs a minimum defect resistance",
        "no fault at small R_def",
        f"threshold at U=0: {low_thr:.3g} Ohm" if low_thr else "none",
        low_thr is not None and low_thr > partial_map.r_values[0],
    )
    completed_ok = (
        FFM.RDF1 in completed_map.observed_labels
        and completed_map.is_u_independent(FFM.RDF1)
        and not completed_map.is_partial_label(FFM.RDF1)
    )
    report.claim(
        "completing w0_BL removes the U dependence",
        "Fig. 3(b): region spans every initial BL voltage",
        "U-independent" if completed_ok else "still U-dependent",
        completed_ok,
    )
    return Fig3Result(partial_map, completed_map, report)


def main() -> None:  # pragma: no cover - CLI entry
    print(run_fig3().report.render())


if __name__ == "__main__":  # pragma: no cover
    main()
