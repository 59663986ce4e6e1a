"""Defect diagnosis from march fail signatures.

The fault analysis maps defects to faulty behaviour; diagnosis inverts
the map.  A *signature* is the normalized set of failing reads a
diagnostic march test produces, collected under both floating-voltage
presets (the presets disambiguate partial faults: the same open fails
differently depending on the initial floating state, and that difference
is characteristic of the floating node involved).

:class:`SignatureDatabase` builds a dictionary by simulating every open
location over a log grid of resistances — the same defect-injection
machinery the Table 1 survey uses — and diagnoses an unknown device by
nearest-signature lookup (exact match first, then Jaccard similarity over
the mismatch sets).  This is the classical fault-dictionary approach,
driven entirely by the electrical model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..circuit.defects import FloatingNode, OpenDefect, OpenLocation
from ..circuit.technology import Technology
from ..march.library import MARCH_PF_PLUS
from ..march.notation import MarchTest
from ..march.simulator import (
    MarchResult,
    rail_presets,
    run_march,
    run_march_lanes,
)
from ..memory.simulator import ElectricalMemory
from .analysis import _R_RANGES

__all__ = [
    "Signature",
    "Candidate",
    "DiagnosisResult",
    "SignatureDatabase",
    "EQUIVALENCE_CLASSES",
    "equivalence_class",
]

#: Electrically indistinguishable location groups.  Several opens float
#: the *same* node (the SA-side bit-line section for Opens 3-6; the
#: victim's access path for Opens 1 and 9), so their march fail
#: signatures coincide and no test-based diagnosis can separate them —
#: physical failure analysis must take over inside a class.  Diagnosis is
#: therefore evaluated at class granularity.
EQUIVALENCE_CLASSES: Dict["OpenLocation", str] = {
    OpenLocation.CELL: "cell-access",
    OpenLocation.WORD_LINE: "cell-access",
    OpenLocation.PRECHARGE: "bit-line",
    OpenLocation.BL_PRECHARGE_CELLS: "bit-line",
    OpenLocation.BL_CELLS_REFERENCE: "bit-line",
    OpenLocation.BL_REFERENCE_SENSEAMP: "bit-line",
    OpenLocation.SENSE_AMPLIFIER: "sense-amp",
    OpenLocation.BL_SENSEAMP_IO: "forwarding",
    OpenLocation.REFERENCE_CELL: "reference",
}


def equivalence_class(location: OpenLocation) -> str:
    """The diagnosis granularity a march signature can resolve."""
    return EQUIVALENCE_CLASSES[location]

Signature = FrozenSet[Tuple[float, int, int, int, int]]
"""Normalized fail set: (preset, element, address, op index, observed)."""


@dataclass(frozen=True)
class Candidate:
    """One diagnosis candidate: a defect location and resistance range."""

    location: OpenLocation
    r_min: float
    r_max: float
    similarity: float

    @property
    def equivalence_class(self) -> str:
        return equivalence_class(self.location)

    def __str__(self) -> str:
        return (
            f"{self.location} ({self.equivalence_class}) "
            f"R in [{self.r_min:.2g}, {self.r_max:.2g}] "
            f"(similarity {self.similarity:.2f})"
        )


@dataclass(frozen=True)
class DiagnosisResult:
    """Ranked diagnosis candidates for one observed signature."""

    signature: Signature
    candidates: Tuple[Candidate, ...]

    @property
    def best(self) -> Optional[Candidate]:
        return self.candidates[0] if self.candidates else None

    @property
    def healthy(self) -> bool:
        """An empty signature: the device passed the diagnostic test."""
        return not self.signature

    @property
    def top_candidates(self) -> Tuple[Candidate, ...]:
        """All candidates tied at the best similarity.

        Exact ties are common and physically meaningful: e.g. a fully
        disconnected forwarding open (Open 8 at very high R) fails exactly
        the reads a floating bit line fails, so both classes are returned.
        """
        if not self.candidates:
            return ()
        best = self.candidates[0].similarity
        return tuple(c for c in self.candidates if c.similarity >= best - 1e-12)

    @property
    def top_classes(self) -> Tuple[str, ...]:
        """Equivalence classes of the tied-best candidates."""
        seen: List[str] = []
        for candidate in self.top_candidates:
            if candidate.equivalence_class not in seen:
                seen.append(candidate.equivalence_class)
        return tuple(seen)


def _jaccard(a: Signature, b: Signature) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


class SignatureDatabase:
    """Fault dictionary: signatures of simulated defects.

    The dictionary is built in one lane-stacked march run over every
    entry (:func:`~repro.march.simulator.run_march_lanes`);
    ``grid_engine=False`` simulates one defect at a time instead, with
    identical signatures.
    """

    def __init__(
        self,
        test: MarchTest = MARCH_PF_PLUS,
        technology: Optional[Technology] = None,
        n_rows: int = 3,
        points_per_decade: int = 2,
        locations: Optional[Sequence[OpenLocation]] = None,
        grid_engine: bool = True,
    ) -> None:
        self.test = test
        self.technology = technology
        self.n_rows = n_rows
        self.grid_engine = grid_engine
        self._entries: List[Tuple[Signature, OpenLocation, float]] = []
        self._build(points_per_decade, locations or tuple(OpenLocation))

    @property
    def presets(self) -> Tuple[float, float]:
        """The two floating presets that stimulate partial faults."""
        return rail_presets(self.technology)

    # -- construction ---------------------------------------------------------

    def _build(
        self, points_per_decade: int, locations: Sequence[OpenLocation]
    ) -> None:
        defects: List[OpenDefect] = []
        for location in locations:
            lo, hi = _R_RANGES[location]
            decades = math.log10(hi) - math.log10(lo)
            n_points = max(2, int(round(decades * points_per_decade)) + 1)
            for i in range(n_points):
                log_r = math.log10(lo) + i * (math.log10(hi) - math.log10(lo)) / (
                    n_points - 1
                )
                defects.append(OpenDefect(location, 10 ** log_r))
        for defect, signature in zip(defects, self.signatures_of(defects)):
            if signature:
                self._entries.append(
                    (signature, defect.location, defect.resistance)
                )

    def _signature(self, results: Sequence[MarchResult]) -> Signature:
        """Normalize one device's per-preset march results."""
        return frozenset(
            (preset, m.element_index, m.address, m.op_index, m.observed)
            for preset, result in zip(self.presets, results)
            for m in result.mismatches
        )

    def signature_of(self, defect: Optional[OpenDefect]) -> Signature:
        """Collect the diagnostic signature of a (possibly absent) defect.

        Runs the scalar electrical memory, one preset at a time.
        """
        results = []
        for preset in self.presets:
            memory = ElectricalMemory.with_defect(
                defect=defect, technology=self.technology, n_rows=self.n_rows
            )
            for node in FloatingNode:
                memory.column.set_floating_voltage(node, preset)
            results.append(run_march(self.test, memory))
        return self._signature(results)

    def signatures_of(
        self, defects: Sequence[Optional[OpenDefect]]
    ) -> List[Signature]:
        """Signatures of many devices, in one lane-stacked march run."""
        if not self.grid_engine:
            return [self.signature_of(defect) for defect in defects]
        return [
            self._signature(results)
            for results in run_march_lanes(
                self.test, defects, self.presets, self.technology,
                self.n_rows,
            )
        ]

    # -- lookup ----------------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._entries)

    def diagnose(self, signature: Signature, top: int = 3) -> DiagnosisResult:
        """Rank defect candidates for an observed signature."""
        if not signature:
            return DiagnosisResult(signature, ())
        scored: Dict[OpenLocation, List[Tuple[float, float]]] = {}
        for entry_signature, location, resistance in self._entries:
            similarity = _jaccard(signature, entry_signature)
            scored.setdefault(location, []).append((similarity, resistance))
        candidates: List[Candidate] = []
        for location, hits in scored.items():
            best = max(s for s, _ in hits)
            if best <= 0.0:
                continue
            threshold = best * 0.999
            matched_r = [r for s, r in hits if s >= threshold]
            candidates.append(
                Candidate(location, min(matched_r), max(matched_r), best)
            )
        candidates.sort(key=lambda c: (-c.similarity, c.location.number))
        return DiagnosisResult(signature, tuple(candidates[:top]))

    def diagnose_defect(self, defect: Optional[OpenDefect],
                        top: int = 3) -> DiagnosisResult:
        """Convenience: signature collection + lookup in one call."""
        return self.diagnose(self.signature_of(defect), top=top)
