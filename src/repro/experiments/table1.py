"""Table 1: partial faults observed in the DRAM defect simulation.

Runs the full Section 5 fault analysis — every open location of Fig. 2,
every floating voltage the Section 2 rules prescribe, the whole
single-cell probe space — applies the partial-fault rule, searches
completing operations, and derives the complementary (``Com.``) column by
data complement.  The resulting inventory is compared row by row against
the paper's printed Table 1.

Exact boundary physics differs from the authors' SPICE netlist, so some
rows match at the level of "same open, same fault family, completion of
the same kind" rather than verbatim; the comparison classifies each paper
row as ``exact`` / ``close`` / ``different`` / ``missing`` and lists the
additional partial faults our analysis finds (the paper's own Fig. 4
caption notes its results are simplified/truncated).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.defects import OpenLocation
from ..circuit.network import GuardPolicy
from ..circuit.technology import Technology
from ..core.analysis import QuarantinedPoint, default_grid_for
from ..core.completion import complete_fault
from ..core.fault_primitives import FaultPrimitive
from ..core.ffm import FFM
from .reporting import (
    ExperimentReport,
    format_table,
    guards_block,
    instrumented,
)

__all__ = [
    "InventoryRow",
    "PaperRow",
    "PAPER_TABLE1",
    "Table1Result",
    "run_table1",
    "REFERENCE_COMPLETED_FPS",
]

#: Completed FPs this model's full analysis produces (Sim column), kept as
#: a reference list so march-test experiments need not rerun the (slow)
#: electrical survey.  Regenerated/validated by run_table1 and the tests.
REFERENCE_COMPLETED_FPS: Tuple[str, ...] = (
    "<1v [w0BL] r1v/0/0>",   # RDF1, opens 3/4
    "<0v [w1BL] r0v/1/1>",   # RDF0, opens 3-7
    "<1v [w0BL] r1v/1/0>",   # IRF1, opens 5/6/7/8
    "<0v [w1BL] r0v/0/1>",   # IRF0, open 8
    "<0v [w1BL] w0v/1/->",   # WDF0, opens 5/6
    "<1v [w1BL] w0v/1/->",   # TF down, opens 5/6
    "<[w1 w0] r0/1/1>",      # RDF0, open 1 (victim-targeted completion)
    "<[w1 w0]/1/->",         # SF0, open 1
    "<[w1 w0] w0/1/->",      # WDF0, open 1
)


@dataclass(frozen=True)
class InventoryRow:
    """One partial fault found by this reproduction's analysis."""

    ffm_sim: FFM
    ffm_com: FFM
    open_number: int
    completed: Optional[FaultPrimitive]
    floating: str
    #: Count of region-boundary points whose classification flips under
    #: the ±ε U-jitter check; None when ``check_marginal`` did not run.
    marginal: Optional[int] = None

    @property
    def completed_text(self) -> str:
        return "Not possible" if self.completed is None else str(self.completed)


@dataclass(frozen=True)
class PaperRow:
    """One row of the paper's Table 1."""

    ffm_sim: str
    ffm_com: str
    opens: Tuple[int, ...]
    completed: Optional[str]  # None encodes "Not possible"
    floating: str

    @property
    def completed_text(self) -> str:
        return self.completed or "Not possible"


#: The paper's Table 1, transcribed.  The RDF1 row's open list is printed
#: as "Open 3 5" (OCR-ambiguous); it is encoded as opens 3-5.
PAPER_TABLE1: Tuple[PaperRow, ...] = (
    PaperRow("RDF0", "RDF1", (1,), "<[w1 w1 w0] r0/1/1>", "Memory cell"),
    PaperRow("RDF0", "RDF1", (5,), "<0v [w1BL] r0v/1/1>", "Bit line"),
    PaperRow("RDF0", "RDF1", (8,), "<0v [w1BL] r0v/1/1>", "Output buffer"),
    PaperRow("RDF1", "RDF0", (3, 4, 5), "<1v [w0BL] r1v/0/0>", "Bit line"),
    PaperRow("RDF1", "RDF0", (8,), "<1v [w0BL] r1v/0/0>", "Output buffer"),
    PaperRow("RDF1", "RDF0", (7,), "<1v [w0BL] r1v/0/0>", "Reference cell"),
    PaperRow("DRDF1", "DRDF0", (4,), "<1v [w1BL] r1v/0/1>", "Bit line"),
    PaperRow("IRF0", "IRF1", (8,), "<0v [w1BL] r0v/0/1>", "Output buffer"),
    PaperRow("IRF0", "IRF1", (9,), None, "Word line"),
    PaperRow("IRF1", "IRF0", (5,), "<1v [w0BL] r1v/1/0>", "Bit line"),
    PaperRow("WDF1", "WDF0", (4,), "<1v [w0BL] w1v/0/->", "Bit line"),
    PaperRow("TF^", "TFv", (1,), None, "Memory cell"),
    PaperRow("TFv", "TF^", (5,), "<1v [w1BL] w0v/1/->", "Bit line"),
    PaperRow("TFv", "TF^", (9,), None, "Word line"),
    PaperRow("SF0", "SF1", (9,), None, "Word line"),
)


@dataclass
class Table1Result:
    rows: List[InventoryRow]
    report: ExperimentReport
    matches: Dict[str, int]
    #: Grid points whose solve tripped a numerical guard under
    #: ``GuardPolicy.QUARANTINE`` (empty on a clean run).
    quarantined: List[QuarantinedPoint] = field(default_factory=list)


def _analyze_open(
    payload,
) -> Tuple[List[InventoryRow], List[QuarantinedPoint]]:
    """Table 1's work unit: the whole analysis of one open.

    One analyzer sweeps every floating-voltage plan, keeps the first
    partial finding of each ``(ffm, plan)``, searches its completion and,
    with ``check_marginal``, counts its marginal boundary points.
    Returns the open's inventory rows and the grid points its guards
    quarantined.  The unit is a pure function of its payload, so a
    worker process reproduces the in-process result exactly.
    """
    spec, max_extra_ops, check_marginal = payload
    analyzer = spec.build()
    rows: List[InventoryRow] = []
    seen: set = set()
    for plan in analyzer.sweep_plans():
        for finding in analyzer.survey(plan):
            if not finding.is_partial:
                continue
            key = (finding.ffm, plan)
            if key in seen:
                continue
            seen.add(key)
            outcome = complete_fault(
                analyzer,
                finding,
                max_extra_ops=max_extra_ops,
                grid=analyzer.grid.coarser(2, 2),
            )
            marginal = (
                len(analyzer.marginal_points(
                    finding.probe_sos, plan, finding.region
                ))
                if check_marginal else None
            )
            rows.append(
                InventoryRow(
                    ffm_sim=finding.ffm,
                    ffm_com=finding.ffm.complement(),
                    open_number=spec.location.number,
                    completed=outcome.completed_fp,
                    floating=finding.floating_label,
                    marginal=marginal,
                )
            )
    return rows, analyzer.quarantined


@instrumented("table1")
def run_table1(
    technology: Optional[Technology] = None,
    opens: Optional[Sequence[OpenLocation]] = None,
    n_r: int = 16,
    n_u: int = 12,
    max_extra_ops: int = 3,
    jobs: Optional[int] = None,
    grid_engine: bool = True,
    guard_policy: Optional[GuardPolicy] = None,
    check_marginal: bool = False,
) -> Table1Result:
    """Regenerate Table 1 by full defect-injection analysis.

    Each open is one work unit (:func:`_analyze_open`): its surveys,
    completion searches and marginal checks on one analyzer.  ``jobs``
    forked worker processes run the units, the costliest open first;
    ``jobs=1`` runs them in-process.  The default is one worker per
    usable core, at most one per open
    (:func:`repro.parallel.default_jobs`).  A caller that cannot fork
    safely (:func:`repro.parallel.fork_safe`: other threads are running,
    as in the sweep service) runs them in process whatever ``jobs`` is.
    Rows, quarantined points and telemetry are assembled in location
    order, so the result is identical for any ``jobs``.
    ``grid_engine=False`` disables the stacked ``(R_def, U)`` tile
    solver and runs every SOS per point through the scalar oracle (kept
    for benchmarks and ablations) — the inventory is identical either
    way.

    The fan-out is strict: an open that fails fails the run (a crashed
    served job re-runs whole, see ``docs/ROBUSTNESS.md``).

    ``guard_policy`` selects what a solver guard trip does at each grid
    point (``GuardPolicy.QUARANTINE`` records the point on
    ``result.quarantined`` and keeps going); ``check_marginal`` re-tests
    each finding's region-boundary points under ±ε U jitter and reports
    the flip count per inventory row.  Both default off, leaving the
    default run's output untouched.
    """
    from ..parallel import (
        AnalyzerSpec, default_jobs, fork_safe, parallel_map_ex,
    )

    locations = tuple(opens) if opens is not None else tuple(OpenLocation)
    specs = [
        AnalyzerSpec(
            location,
            technology=technology,
            grid=default_grid_for(location, n_r=n_r, n_u=n_u),
            grid_engine=grid_engine,
            guard_policy=guard_policy,
        ).validate()
        for location in locations
    ]
    if jobs is None:
        jobs = default_jobs(len(specs))
    elif not fork_safe():
        jobs = 1
    results = parallel_map_ex(
        _analyze_open,
        [(spec, max_extra_ops, check_marginal) for spec in specs],
        jobs=jobs,
        costs=[spec.build().survey_cost() for spec in specs],
    )
    rows: List[InventoryRow] = []
    quarantined: List[QuarantinedPoint] = []
    for open_rows, open_quarantined in results:
        rows.extend(open_rows)
        quarantined.extend(open_quarantined)
    report, matches = _compare(
        rows, locations, quarantined=quarantined,
        check_marginal=check_marginal,
    )
    return Table1Result(rows, report, matches, quarantined=quarantined)


def _compare(
    rows: Sequence[InventoryRow],
    locations: Sequence[OpenLocation],
    quarantined: Sequence[QuarantinedPoint] = (),
    check_marginal: bool = False,
) -> Tuple[ExperimentReport, Dict[str, int]]:
    report = ExperimentReport(
        "Table 1 — partial faults observed in DRAM simulation"
    )
    headers = ["Sim. FFM", "Com. FFM", "Open", "Completed FP",
               "Initialized volt."]
    ordered = sorted(rows, key=lambda r: (r.open_number, str(r.ffm_sim)))
    cells = [
        [str(r.ffm_sim), str(r.ffm_com), f"Open {r.open_number}",
         r.completed_text, r.floating]
        for r in ordered
    ]
    if check_marginal:
        headers.append("Marginal")
        for row_cells, r in zip(cells, ordered):
            row_cells.append("-" if r.marginal is None else str(r.marginal))
    report.add_block(format_table(headers, cells))
    marginal_total = (
        sum(r.marginal or 0 for r in rows) if check_marginal else None
    )
    guards = guards_block(quarantined, marginal=marginal_total)
    if guards is not None:
        report.add_block(guards)

    analyzed_numbers = {loc.number for loc in locations}
    matches = {"exact": 0, "close": 0, "family": 0, "different": 0,
               "missing": 0}
    details = []
    for paper_row in PAPER_TABLE1:
        relevant = [n for n in paper_row.opens if n in analyzed_numbers]
        if not relevant:
            continue
        grade = "missing"
        for n in relevant:
            same_ffm = [
                r for r in rows
                if r.open_number == n and str(r.ffm_sim) == paper_row.ffm_sim
            ]
            for row in same_ffm:
                if (row.completed is None) == (paper_row.completed is None):
                    if paper_row.completed is not None and (
                        row.completed_text == paper_row.completed_text
                    ):
                        grade = "exact"
                    else:
                        grade = _best(grade, "close")
                else:
                    grade = _best(grade, "different")
            if not same_ffm:
                # Same open, same sensitizing operation, different F/R
                # detail (e.g. the paper's RDF1 against this model's IRF1:
                # the read fails identically, only the cell-destruction
                # flag differs — a boundary-physics detail).
                family = [
                    r for r in rows
                    if r.open_number == n
                    and _sens_class(str(r.ffm_sim)) ==
                    _sens_class(paper_row.ffm_sim)
                ]
                if family:
                    grade = _best(grade, "family")
        matches[grade] += 1
        details.append(
            (paper_row.ffm_sim, "/".join(map(str, relevant)),
             paper_row.completed_text, grade)
        )
    report.add_block(
        "Paper-row agreement:\n"
        + format_table(("Sim. FFM", "Open(s)", "Paper completed", "grade"),
                       details)
    )

    partial_opens = {r.open_number for r in rows}
    report.claim(
        "partial faults occur with most analyzed defects",
        "most opens exhibit partial faults",
        f"opens with partial faults: {sorted(partial_opens)}",
        len(partial_opens) >= max(1, len(analyzed_numbers) - 3),
    )
    wl_rows = [r for r in rows if r.open_number == 9]
    report.claim(
        "floating word lines cannot be completed",
        "all Open 9 entries are 'Not possible'",
        f"{sum(r.completed is None for r in wl_rows)}/{len(wl_rows)} not possible"
        if wl_rows else "open 9 not analyzed",
        bool(wl_rows) and all(r.completed is None for r in wl_rows)
        if 9 in analyzed_numbers else True,
    )
    completable = [r for r in rows if r.completed is not None]
    report.claim(
        "completing operations exist for the non-state faults",
        "all FFM types except SFs can be completed for some defect",
        f"{len(completable)}/{len(rows)} inventory rows completed",
        bool(completable),
    )
    agreement = matches["exact"] + matches["close"] + matches["family"]
    total = sum(matches.values())
    report.claim(
        "row-level agreement with the paper's Table 1",
        f"{total} paper rows (within analyzed opens)",
        f"exact={matches['exact']} close={matches['close']} "
        f"family={matches['family']} different={matches['different']} "
        f"missing={matches['missing']}",
        total == 0 or agreement >= total * 0.6,
    )
    return report, matches


#: FFM -> sensitizing-operation class ("the r1 fails", "the w0 fails", ...).
_SENS_CLASSES = {
    "RDF0": "r0", "DRDF0": "r0", "IRF0": "r0",
    "RDF1": "r1", "DRDF1": "r1", "IRF1": "r1",
    "TF^": "w1", "WDF1": "w1",
    "TFv": "w0", "WDF0": "w0",
    "SF0": "s0", "SF1": "s1",
}


def _sens_class(ffm_name: str) -> str:
    return _SENS_CLASSES[ffm_name]


def _best(current: str, candidate: str) -> str:
    order = {"missing": 0, "different": 1, "family": 2, "close": 3,
             "exact": 4}
    return candidate if order[candidate] > order[current] else current


def main() -> None:  # pragma: no cover - CLI entry
    print(run_table1().report.render())


if __name__ == "__main__":  # pragma: no cover
    main()
