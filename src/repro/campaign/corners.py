"""Stress-corner matrices: declarative voltage/temperature/timing axes.

Whether a weak open *appears* as a partial fault — and whether it can
*complete* to a full FP — depends on the electrical operating point:
supply voltage sets the signal margins, junction temperature sets the
leakage that discharges floating nodes, and the cycle time sets how far
a slow RC transient gets within each phase.  A *corner matrix* is the
cross product of a few such stress axes, in the spirit of industrial
stress-condition test evaluation (Majhi et al., "Memory Testing Under
Different Stress Conditions: An Industrial Evaluation", arXiv 0710.4693):
every corner is one operating point, expanded into a concrete
:class:`~repro.circuit.technology.Technology` variant and from there
into a distinct content-addressed
:class:`~repro.service.jobs.JobSpec`.

Three axis kinds are understood:

``vdd``
    Supply scale factor.  Scales the supply *and* the levels derived
    from it (:data:`VDD_SCALED_FIELDS`) together, the way a real supply
    droop moves the whole ladder — scaling ``vdd`` alone would trip
    :meth:`Technology.scaled`'s validation (precharge above the rail)
    rather than model anything physical.
``temperature``
    Absolute junction temperature in Celsius.  Enters the model through
    ``Technology.effective_cell_leak`` (leakage doubles every 10 C).
``cycle``
    Cycle-time scale factor applied to the phase durations in
    :data:`CYCLE_SCALED_FIELDS`.  ``t_wl_off`` is deliberately *not*
    scaled: word-line fall settling is a device constant, not a timing
    budget the test engineer shortens.

A corner whose every axis sits at its nominal value expands to an
*empty* override set: its ``JobSpec`` carries ``technology=None`` and is
therefore byte-for-byte (and address-for-address) the plain, non-campaign
job — the property the nominal-corner report comparison rests on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..circuit.technology import Technology, default_technology
from ..errors import SpecValidationError
from ..service.jobs import JobSpec

__all__ = [
    "VDD_SCALED_FIELDS",
    "CYCLE_SCALED_FIELDS",
    "DEFAULT_CORNERS_SPEC",
    "Corner",
    "CornerAxis",
    "CornerMatrix",
]

#: Fields that ride the supply rail: scaling ``vdd`` scales them all.
VDD_SCALED_FIELDS: Tuple[str, ...] = (
    "vdd", "v_precharge", "v_reference", "v_wl_on",
)

#: Phase durations the cycle-time axis compresses or stretches.
CYCLE_SCALED_FIELDS: Tuple[str, ...] = (
    "t_precharge", "t_share", "t_sense", "t_write", "t_io_sample",
)

#: Axis names understood by :class:`CornerMatrix`.
_AXIS_NAMES = ("vdd", "temperature", "cycle")

#: The CLI's default matrix: nominal plus a low-supply and a fast-cycle
#: stress corner (both verified to change the Table 1 inventory).
DEFAULT_CORNERS_SPEC = "vdd=1.0,0.8;cycle=1.0,0.5"


@dataclass(frozen=True)
class CornerAxis:
    """One stress axis: a name and the values the matrix crosses."""

    name: str
    values: Tuple[float, ...]

    def validate(self) -> "CornerAxis":
        if self.name not in _AXIS_NAMES:
            raise SpecValidationError(
                "CornerAxis", "name", self.name,
                "one of " + ", ".join(_AXIS_NAMES),
            )
        if not self.values:
            raise SpecValidationError(
                "CornerAxis", self.name, self.values,
                "at least one value",
            )
        for value in self.values:
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not math.isfinite(value)
            ):
                raise SpecValidationError(
                    "CornerAxis", self.name, value, "a finite number"
                )
            if self.name in ("vdd", "cycle") and value <= 0:
                raise SpecValidationError(
                    "CornerAxis", self.name, value,
                    "a scale factor > 0",
                )
        if len(set(self.values)) != len(self.values):
            raise SpecValidationError(
                "CornerAxis", self.name, self.values,
                "distinct values (duplicates would expand to identical "
                "corners)",
            )
        return self


@dataclass(frozen=True)
class Corner:
    """One operating point: axis settings plus the overrides they imply.

    ``settings`` keeps the (axis, value) pairs in matrix order for
    display; ``overrides`` is the sorted Technology field/value tuple
    that rides into the :class:`~repro.service.jobs.JobSpec` content
    address.  A nominal corner has an empty override set.
    """

    name: str
    settings: Tuple[Tuple[str, float], ...]
    overrides: Tuple[Tuple[str, float], ...]

    @property
    def stressed(self) -> bool:
        return bool(self.overrides)

    def technology(
        self, base: Optional[Technology] = None
    ) -> Technology:
        """The resolved (validated) Technology of this corner."""
        base = base if base is not None else default_technology()
        if not self.overrides:
            return base
        return base.scaled(**dict(self.overrides))

    def job_spec(self, base: JobSpec) -> JobSpec:
        """``base`` retargeted at this corner (validated).

        The nominal corner returns a spec with ``technology=None`` —
        the identical content address as the plain, non-campaign job.
        """
        return replace(
            base, technology=self.overrides or None
        ).validate()


def _axis_overrides(
    name: str, value: float, base: Technology
) -> Dict[str, float]:
    """The Technology overrides one axis setting implies (empty when
    the setting is the base's nominal value)."""
    if name == "vdd":
        if value == 1.0:
            return {}
        return {f: getattr(base, f) * value for f in VDD_SCALED_FIELDS}
    if name == "temperature":
        if value == base.temperature:
            return {}
        return {"temperature": float(value)}
    if value == 1.0:  # cycle
        return {}
    return {f: getattr(base, f) * value for f in CYCLE_SCALED_FIELDS}


def _setting_token(name: str, value: float) -> str:
    if name == "vdd":
        return f"vdd=x{value:g}"
    if name == "temperature":
        return f"temp={value:g}C"
    return f"cycle=x{value:g}"


@dataclass(frozen=True)
class CornerMatrix:
    """The cross product of stress axes, in declaration order."""

    axes: Tuple[CornerAxis, ...]

    @classmethod
    def from_spec(cls, text: str) -> "CornerMatrix":
        """Parse ``"vdd=1.0,0.8;temperature=25,85;cycle=1.0,0.5"``.

        Semicolons separate axes, commas separate an axis's values.
        Raises :class:`~repro.errors.SpecValidationError` on an unknown
        axis, a repeated axis, an unparsable value, or an empty spec.
        """
        axes = []
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            name, eq, rest = part.partition("=")
            name = name.strip()
            if not eq or not rest.strip():
                raise SpecValidationError(
                    "CornerMatrix", "spec", part,
                    "an 'axis=v1,v2,...' segment",
                )
            try:
                values = tuple(
                    float(v) for v in rest.split(",") if v.strip()
                )
            except ValueError:
                raise SpecValidationError(
                    "CornerMatrix", name, rest,
                    "comma-separated numbers",
                ) from None
            axes.append(CornerAxis(name, values))
        return cls(tuple(axes)).validate()

    def validate(self) -> "CornerMatrix":
        if not self.axes:
            raise SpecValidationError(
                "CornerMatrix", "axes", self.axes, "at least one axis"
            )
        seen = set()
        for axis in self.axes:
            axis.validate()
            if axis.name in seen:
                raise SpecValidationError(
                    "CornerMatrix", "axes", axis.name,
                    "each axis at most once",
                )
            seen.add(axis.name)
        return self

    @property
    def size(self) -> int:
        n = 1
        for axis in self.axes:
            n *= len(axis.values)
        return n

    def corners(
        self, base: Optional[Technology] = None
    ) -> Tuple[Corner, ...]:
        """Expand into corners, base-technology overrides resolved.

        Every corner's override set is validated through
        :meth:`Technology.scaled`, so an unphysical axis value fails
        here — before any job is built or submitted.
        """
        base = base if base is not None else default_technology()
        corners = []
        for combo in itertools.product(
            *(axis.values for axis in self.axes)
        ):
            settings = tuple(
                (axis.name, value)
                for axis, value in zip(self.axes, combo)
            )
            overrides: Dict[str, float] = {}
            tokens = []
            for axis, value in zip(self.axes, combo):
                contributed = _axis_overrides(axis.name, value, base)
                overrides.update(contributed)
                if contributed:
                    tokens.append(_setting_token(axis.name, value))
            if overrides:
                base.scaled(**overrides)  # fail fast on a bad corner
            corners.append(Corner(
                name=",".join(tokens) if tokens else "nominal",
                settings=settings,
                overrides=tuple(sorted(overrides.items())),
            ))
        return tuple(corners)

    def job_specs(
        self,
        base: JobSpec,
        technology: Optional[Technology] = None,
    ) -> Tuple[Tuple[Corner, JobSpec], ...]:
        """Every corner paired with its content-addressed job spec."""
        return tuple(
            (corner, corner.job_spec(base))
            for corner in self.corners(technology)
        )
