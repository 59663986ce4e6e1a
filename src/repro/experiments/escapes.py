"""Test-escape analysis: the industrial cost of partial faults.

The paper's practical argument is that partial faults *escape* production
tests: a defective device passes because the floating voltage happened to
sit in the benign range during test, then fails in the field when an
unlucky operation history arms it.  This experiment quantifies that:

* a defect population is sampled (location uniform over the Fig. 2 opens,
  resistance log-uniform over each location's relevant range — the
  standard spot-defect assumption that defect size, hence bridge/open
  strength, is log-distributed);
* every sampled defect is screened by each march test **electrically**,
  with the floating voltages preset adversarially *benignly* (the
  worst case for the tester: the state that hides partial faults);
* a defect counts as a **field failure** if any test detects it under
  *any* floating preset (i.e. the defect is functionally visible at all);
* a test's **escape rate** is the fraction of field failures it passes.

Expected shape: March PF+ escapes ~none of the visible defects;
conventional tests without the completing-operation structure escape a
substantial fraction — exactly the population the paper's method targets.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..circuit.defects import FloatingNode, OpenDefect, OpenLocation
from ..circuit.technology import Technology
from ..core.analysis import _R_RANGES
from ..march.library import (
    MARCH_B,
    MARCH_C_MINUS,
    MARCH_PF,
    MARCH_PF_PLUS,
    MARCH_SS,
    MATS_PLUS,
)
from ..march.notation import MarchTest
from ..march.simulator import rail_presets, run_march, run_march_lanes
from ..memory.simulator import ElectricalMemory
from .reporting import ExperimentReport, format_table, instrumented

__all__ = ["EscapeResult", "run_escapes", "sample_defects"]


def sample_defects(
    n: int, seed: int = 2002, locations: Optional[Sequence[OpenLocation]] = None
) -> List[OpenDefect]:
    """Sample a defect population (location uniform, R log-uniform)."""
    rng = random.Random(seed)
    locations = list(locations or OpenLocation)
    defects = []
    for _ in range(n):
        location = rng.choice(locations)
        lo, hi = _R_RANGES[location]
        log_r = rng.uniform(math.log10(lo), math.log10(hi))
        defects.append(OpenDefect(location, 10 ** log_r))
    return defects


def _screen(
    test: MarchTest,
    defect: OpenDefect,
    preset: float,
    technology: Optional[Technology],
    n_rows: int,
) -> bool:
    """True when the test flags the defect under this floating preset.

    The scalar oracle for one point; ``run_escapes(grid_engine=False)``
    screens the population with it.
    """
    memory = ElectricalMemory.with_defect(
        defect=defect, technology=technology, n_rows=n_rows
    )
    for node in FloatingNode:
        memory.column.set_floating_voltage(node, preset)
    return run_march(test, memory, stop_at_first=True).detected


@dataclass
class EscapeResult:
    population: int
    field_failures: int
    escape_rates: Dict[str, float]
    report: ExperimentReport


@instrumented("escapes")
def run_escapes(
    n_defects: int = 120,
    technology: Optional[Technology] = None,
    tests: Sequence[MarchTest] = (
        MATS_PLUS, MARCH_B, MARCH_PF, MARCH_C_MINUS, MARCH_SS,
        MARCH_PF_PLUS,
    ),
    seed: int = 2002,
    n_rows: int = 3,
    grid_engine: bool = True,
) -> EscapeResult:
    """Run the Monte-Carlo escape analysis.

    Each test screens the whole population in one lane-stacked run
    (:func:`~repro.march.simulator.run_march_lanes`); ``grid_engine=False``
    screens one defect and preset at a time instead.  The report is
    identical either way.
    """
    defects = sample_defects(n_defects, seed=seed)
    # A tester cannot control floating nodes: guaranteed screening means
    # the test must flag the defect under both rail presets.
    presets = rail_presets(technology)
    report = ExperimentReport(
        "Escape analysis — defect population vs. march tests"
    )
    # screened[test][i]: per-preset verdicts of defect i.
    screened: Dict[str, List[List[bool]]] = {}
    for test in tests:
        if grid_engine:
            screened[test.name] = [
                [result.detected for result in row]
                for row in run_march_lanes(
                    test, defects, presets, technology, n_rows,
                    stop_at_first=True,
                )
            ]
        else:
            screened[test.name] = [
                [
                    _screen(test, defect, preset, technology, n_rows)
                    for preset in presets
                ]
                for defect in defects
            ]
    detected: Dict[str, List[bool]] = {test.name: [] for test in tests}
    visible: List[bool] = []
    per_open_visible: Dict[int, int] = {}
    for i, defect in enumerate(defects):
        per_preset = {name: rows[i] for name, rows in screened.items()}
        verdicts = {name: all(hits) for name, hits in per_preset.items()}
        is_visible = any(any(hits) for hits in per_preset.values())
        visible.append(is_visible)
        if is_visible:
            per_open_visible[defect.location.number] = (
                per_open_visible.get(defect.location.number, 0) + 1
            )
        for name, verdict in verdicts.items():
            detected[name].append(verdict)

    field_failures = sum(visible)
    escape_rates: Dict[str, float] = {}
    rows = []
    for test in tests:
        caught = sum(
            d for d, v in zip(detected[test.name], visible) if v
        )
        escaped = field_failures - caught
        rate = escaped / field_failures if field_failures else 0.0
        escape_rates[test.name] = rate
        rows.append(
            (test.name, f"{test.ops_per_address}N", caught, escaped,
             f"{rate:6.1%}")
        )
    report.add_block(
        f"population: {n_defects} sampled opens, "
        f"{field_failures} functionally visible (field failures)\n"
        + format_table(
            ("test", "cost", "caught", "escaped", "escape rate"), rows
        )
    )
    report.add_block(
        "visible defects per open location: "
        + ", ".join(
            f"Open {k}: {v}" for k, v in sorted(per_open_visible.items())
        )
    )

    # Each claim is made only when the tests it is about were screened.
    if MARCH_PF_PLUS.name in escape_rates:
        report.claim(
            "March PF+ screens the population",
            "completing operations close the partial-fault escapes",
            f"escape rate {escape_rates['March PF+']:.1%}",
            escape_rates["March PF+"] <= 0.02,
        )

    arming_free = [
        name for name in escape_rates
        if name in ("MATS+", "March B", "March PF")
    ]
    if arming_free:
        worst_arming_free = max(escape_rates[name] for name in arming_free)
        report.add_block(
            "March C- and March SS already embed the "
            "read-after-opposite-write\n"
            "idiom across address boundaries, so they screen this "
            "*open-defect*\n"
            "population by accident; they still lack guaranteed coverage "
            "of the\n"
            "write-sensitized completed FPs (see the march experiment).  "
            "The\n"
            "tests without the idiom — MATS+, March B and the printed "
            "March PF —\n"
            "ship the partial-fault population."
        )
        report.claim(
            "tests without the arming structure ship defective parts",
            "partial faults escape tests lacking completing operations",
            f"{'/'.join(arming_free)} escape "
            f"{', '.join(f'{escape_rates[n]:.0%}' for n in arming_free)}",
            worst_arming_free >= 0.10,
        )
    report.claim(
        "a meaningful defect population is visible at all",
        "the sampled R ranges produce faulty behaviour",
        f"{field_failures}/{n_defects} visible",
        field_failures >= n_defects * 0.3,
    )
    return EscapeResult(n_defects, field_failures, escape_rates, report)


def main() -> None:  # pragma: no cover - CLI entry
    print(run_escapes().report.render())


if __name__ == "__main__":  # pragma: no cover
    main()
