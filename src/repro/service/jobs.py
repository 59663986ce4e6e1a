"""Job specifications and content addressing for the sweep service.

A :class:`JobSpec` names one experiment run — which experiment, which
open locations, which sweep grid, which execution flags — in a plain,
JSON-round-trippable form.  Its :attr:`~JobSpec.address` is a *content
address*: a stable digest of every field that can change the result,
with the sweep grids folded in through
:meth:`~repro.core.analysis.SweepGrid.signature` (the same digest the
checkpoint unit keys embed, see ``docs/ROBUSTNESS.md``).  Two
submissions with the same address are the same computation, so the
queue coalesces them into one job and the result store serves repeats
without recomputation (``docs/SERVICE.md``).

Execution *hints* — ``jobs`` (worker-process count) and
``grid_engine`` — are deliberately **excluded** from the address: the
fan-out and the stacked ``(R_def, U)`` grid solver are bit-identical to
their serial/scalar twins (see ``docs/PERFORMANCE.md``), so a 1-worker
and an 8-worker submission of the same sweep rightly dedupe to one
result.

:data:`SERVICE_EXPERIMENTS` is the registry the scheduler dispatches
on: every CLI experiment is servable; the sweep experiments accept grid
overrides, ``table1`` also the completion-search depth and the marginal
check.  :func:`result_payload` converts a runner's result object into
the JSON document the result store keeps — with the rendered report
*without* the telemetry timing block, so a served report is
byte-identical to the direct CLI run's output.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import uuid
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..circuit.defects import OpenLocation
from ..circuit.network import GuardPolicy
from ..circuit.technology import Technology, default_technology
from ..core.analysis import default_grid_for
from ..errors import SpecValidationError
from ..io import dump_fp, dump_quarantined_point

__all__ = [
    "EVENT_BUFFER",
    "ExperimentProfile",
    "Job",
    "JobSpec",
    "JobState",
    "SERVICE_EXPERIMENTS",
    "result_payload",
]


@dataclass(frozen=True)
class ExperimentProfile:
    """How the service runs (and addresses) one experiment.

    ``sweep`` experiments take grid overrides (``n_r``/``n_u``) whose
    resolved per-location grid signatures enter the content address;
    ``takes_opens``/``takes_completion`` gate the ``table1``-only spec
    fields.  ``run`` receives the validated spec plus the resilience
    bundle and returns the experiment's result object (``.report``
    carries the rendered output).
    """

    name: str
    run: Callable[["JobSpec", Any], Any]
    sweep: bool = False
    takes_opens: bool = False
    takes_completion: bool = False
    #: The runner threads a per-job :class:`Technology` through the
    #: electrical model (stress-corner campaigns, docs/CAMPAIGNS.md).
    takes_technology: bool = False
    default_n_r: int = 0
    default_n_u: int = 0


def _run_table1(spec: "JobSpec", resilience: Any) -> Any:
    from ..experiments.table1 import run_table1

    return run_table1(
        technology=spec.resolved_technology(),
        opens=spec.locations() or None,
        n_r=spec.resolved_n_r(),
        n_u=spec.resolved_n_u(),
        max_extra_ops=spec.resolved_max_extra_ops(),
        jobs=spec.jobs,
        grid_engine=spec.grid_engine,
        resilience=resilience,
        guard_policy=spec.resolved_guard_policy(),
        check_marginal=spec.check_marginal,
    )


def _run_fig3(spec: "JobSpec", resilience: Any) -> Any:
    from ..experiments.fig3 import run_fig3

    return run_fig3(
        technology=spec.resolved_technology(),
        n_r=spec.resolved_n_r(),
        n_u=spec.resolved_n_u(),
        grid_engine=spec.grid_engine,
        guard_policy=spec.resolved_guard_policy(),
    )


def _run_fig4(spec: "JobSpec", resilience: Any) -> Any:
    from ..experiments.fig4 import run_fig4

    return run_fig4(
        technology=spec.resolved_technology(),
        n_r=spec.resolved_n_r(),
        n_u=spec.resolved_n_u(),
        grid_engine=spec.grid_engine,
        guard_policy=spec.resolved_guard_policy(),
    )


def _run_march(spec: "JobSpec", resilience: Any) -> Any:
    from ..experiments.march_pf import run_march_pf

    return run_march_pf(
        technology=spec.resolved_technology(),
        guard_policy=spec.resolved_guard_policy(),
    )


def _run_escapes(spec: "JobSpec", resilience: Any) -> Any:
    from ..experiments.escapes import run_escapes

    return run_escapes(grid_engine=spec.grid_engine, jobs=spec.jobs)


def _run_diagnosis(spec: "JobSpec", resilience: Any) -> Any:
    from ..experiments.diagnosis import run_diagnosis

    return run_diagnosis(grid_engine=spec.grid_engine, jobs=spec.jobs)


def _plain_runner(module: str, func: str) -> Callable[["JobSpec", Any], Any]:
    def run(spec: "JobSpec", resilience: Any) -> Any:
        import importlib

        return getattr(importlib.import_module(module), func)()

    return run


#: Experiments the service can execute, by JobSpec.experiment name.
#: Mirrors the CLI's experiment set; tests may register extra entries.
SERVICE_EXPERIMENTS: Dict[str, ExperimentProfile] = {
    "table1": ExperimentProfile(
        "table1", _run_table1, sweep=True, takes_opens=True,
        takes_completion=True, takes_technology=True,
        default_n_r=16, default_n_u=12,
    ),
    "fig3": ExperimentProfile(
        "fig3", _run_fig3, sweep=True, takes_technology=True,
        default_n_r=16, default_n_u=12,
    ),
    "fig4": ExperimentProfile(
        "fig4", _run_fig4, sweep=True, takes_technology=True,
        default_n_r=20, default_n_u=12,
    ),
    "march": ExperimentProfile("march", _run_march, takes_technology=True),
    "fp-space": ExperimentProfile(
        "fp-space", _plain_runner("repro.experiments.fp_space", "run_fp_space")
    ),
    "ablation": ExperimentProfile(
        "ablation", _plain_runner("repro.experiments.ablation", "run_ablation")
    ),
    "bridges": ExperimentProfile(
        "bridges", _plain_runner("repro.experiments.bridges", "run_bridges")
    ),
    "retention": ExperimentProfile(
        "retention",
        _plain_runner("repro.experiments.retention", "run_retention"),
    ),
    "escapes": ExperimentProfile("escapes", _run_escapes),
    "diagnosis": ExperimentProfile("diagnosis", _run_diagnosis),
}

#: Completion-search depth run_table1 defaults to; resolved into the
#: address so a submission overriding it is a different computation.
_DEFAULT_MAX_EXTRA_OPS = 3


@dataclass(frozen=True)
class JobSpec:
    """One service job: an experiment plus everything that shapes it.

    ``opens`` holds :class:`~repro.circuit.defects.OpenLocation` *names*
    (``None`` = every location), keeping the spec JSON-native; the same
    goes for ``guard_policy`` (a :class:`GuardPolicy` value string).
    ``n_r``/``n_u``/``max_extra_ops`` of ``None`` mean the experiment's
    own defaults — :meth:`canonical` resolves them, so an explicit
    default and an omitted field address identically.
    """

    experiment: str
    opens: Optional[Tuple[str, ...]] = None
    n_r: Optional[int] = None
    n_u: Optional[int] = None
    max_extra_ops: Optional[int] = None
    guard_policy: Optional[str] = None
    check_marginal: bool = False
    #: Technology overrides for stress-corner jobs: field-name/value
    #: pairs applied over :func:`default_technology` via
    #: ``Technology.scaled()``.  ``None`` is the nominal corner.  The
    #: overrides shape every solve, so they ARE part of the content
    #: address — two corners never dedupe onto each other.  A mapping
    #: passed to the constructor is normalized to sorted pairs, so
    #: key order never changes the address.
    technology: Optional[Tuple[Tuple[str, float], ...]] = None
    #: Execution hints — identical results for any value (docs/PERFORMANCE.md),
    #: therefore NOT part of the content address.  ``jobs`` applies to
    #: ``table1``, ``escapes`` and ``diagnosis`` jobs (the default, 1,
    #: runs them in the job's own process; ``escapes`` and ``diagnosis``
    #: stay there whenever other threads run beside the job); the other
    #: experiments run in process.
    jobs: int = 1
    grid_engine: bool = True

    def __post_init__(self) -> None:
        overrides = self.technology
        if overrides is None:
            return
        try:
            overrides = tuple(sorted(dict(overrides).items()))
        except (TypeError, ValueError, AttributeError):
            return  # left as-is; validate() reports the bad shape
        object.__setattr__(self, "technology", overrides or None)

    # -- validation ------------------------------------------------------------

    def profile(self) -> ExperimentProfile:
        profile = SERVICE_EXPERIMENTS.get(self.experiment)
        if profile is None:
            raise SpecValidationError(
                "JobSpec", "experiment", self.experiment,
                "one of " + ", ".join(sorted(SERVICE_EXPERIMENTS)),
            )
        return profile

    def validate(self) -> "JobSpec":
        """Check every field against the experiment's profile; return self."""
        profile = self.profile()
        for flag in ("check_marginal", "grid_engine"):
            value = getattr(self, flag)
            if not isinstance(value, bool):
                raise SpecValidationError(
                    "JobSpec", flag, value, "a boolean (true or false)"
                )
        if self.opens is not None:
            if not profile.takes_opens:
                raise SpecValidationError(
                    "JobSpec", "opens", self.opens,
                    f"nothing — {self.experiment} has no open-location "
                    "selection",
                )
            for name in self.opens:
                if name not in OpenLocation.__members__:
                    raise SpecValidationError(
                        "JobSpec", "opens", name,
                        "OpenLocation names ("
                        + ", ".join(OpenLocation.__members__) + ")",
                    )
        for grid_field in ("n_r", "n_u"):
            value = getattr(self, grid_field)
            if value is None:
                continue
            if not profile.sweep:
                raise SpecValidationError(
                    "JobSpec", grid_field, value,
                    f"nothing — {self.experiment} has no sweep grid",
                )
            if not isinstance(value, int) or value < 2:
                raise SpecValidationError(
                    "JobSpec", grid_field, value, "an integer >= 2",
                    hint="each grid axis needs at least two points",
                )
        if self.max_extra_ops is not None:
            if not profile.takes_completion:
                raise SpecValidationError(
                    "JobSpec", "max_extra_ops", self.max_extra_ops,
                    f"nothing — {self.experiment} runs no completion search",
                )
            if not isinstance(self.max_extra_ops, int) or self.max_extra_ops < 0:
                raise SpecValidationError(
                    "JobSpec", "max_extra_ops", self.max_extra_ops,
                    "an integer >= 0",
                )
        if self.check_marginal and not profile.takes_completion:
            raise SpecValidationError(
                "JobSpec", "check_marginal", self.check_marginal,
                "False — only table1 has the marginal-point check",
            )
        if self.guard_policy is not None:
            try:
                GuardPolicy(self.guard_policy)
            except ValueError:
                raise SpecValidationError(
                    "JobSpec", "guard_policy", self.guard_policy,
                    "one of " + ", ".join(p.value for p in GuardPolicy),
                ) from None
        if self.technology is not None:
            if not profile.takes_technology:
                raise SpecValidationError(
                    "JobSpec", "technology", dict(self.technology),
                    f"nothing — {self.experiment} takes no technology "
                    "overrides",
                )
            known_fields = {f.name for f in dataclass_fields(Technology)}
            for name, value in self.technology:
                if name not in known_fields:
                    raise SpecValidationError(
                        "JobSpec", "technology", name,
                        "Technology field names ("
                        + ", ".join(sorted(known_fields)) + ")",
                    )
                if not isinstance(value, (int, float)) or isinstance(
                    value, bool
                ):
                    raise SpecValidationError(
                        "JobSpec", "technology", value,
                        f"a number for field {name!r}",
                    )
            # Building the corner re-validates the derived Technology,
            # so an inconsistent override set (vdd below v_precharge,
            # non-positive timing, ...) fails at submission time.
            self.resolved_technology()
        if (
            not isinstance(self.jobs, int)
            or isinstance(self.jobs, bool)
            or self.jobs < 1
        ):
            raise SpecValidationError(
                "JobSpec", "jobs", self.jobs, "an integer >= 1"
            )
        return self

    # -- resolved views --------------------------------------------------------

    def locations(self) -> Tuple[OpenLocation, ...]:
        """The open locations this job analyzes (sweep experiments)."""
        if not self.profile().takes_opens:
            return ()
        if self.opens is None:
            return tuple(OpenLocation)
        return tuple(OpenLocation[name] for name in self.opens)

    def resolved_n_r(self) -> int:
        return self.n_r if self.n_r is not None else self.profile().default_n_r

    def resolved_n_u(self) -> int:
        return self.n_u if self.n_u is not None else self.profile().default_n_u

    def resolved_max_extra_ops(self) -> int:
        if self.max_extra_ops is not None:
            return self.max_extra_ops
        return _DEFAULT_MAX_EXTRA_OPS

    def resolved_guard_policy(self) -> Optional[GuardPolicy]:
        return GuardPolicy(self.guard_policy) if self.guard_policy else None

    def resolved_technology(self) -> Optional[Technology]:
        """The stress-corner :class:`Technology`, or ``None`` (nominal).

        The derived instance is re-validated by ``Technology.scaled()``;
        unknown field names surface as :class:`SpecValidationError`.
        """
        if self.technology is None:
            return None
        try:
            return default_technology().scaled(**dict(self.technology))
        except TypeError as exc:
            raise SpecValidationError(
                "JobSpec", "technology", dict(self.technology), str(exc)
            ) from None

    def grid_signatures(self) -> Dict[str, str]:
        """Per-location sweep-grid digests, via ``SweepGrid.signature()``.

        The default grid depends on the location (its natural resistance
        range), so the address carries one signature per analyzed
        location — exactly the digests the checkpoint unit keys embed.
        """
        profile = self.profile()
        if not profile.sweep:
            return {}
        n_r, n_u = self.resolved_n_r(), self.resolved_n_u()
        if profile.takes_opens:
            locations = self.locations()
        else:
            # Figs. 3/4 sweep fixed locations; the grid parameters still
            # shape every map, so digest the canonical default grid.
            locations = (OpenLocation.BL_PRECHARGE_CELLS,)
        return {
            location.name: default_grid_for(
                location, n_r=n_r, n_u=n_u
            ).signature()
            for location in locations
        }

    # -- content address -------------------------------------------------------

    def canonical(self) -> Dict[str, Any]:
        """The computation identity: every result-shaping field, resolved.

        Execution hints (``jobs``, ``grid_engine``) are absent by design;
        grids appear as their point-exact signatures.
        """
        profile = self.profile()
        payload: Dict[str, Any] = {"experiment": self.experiment}
        if profile.takes_opens:
            payload["opens"] = sorted(
                location.name for location in self.locations()
            )
        if profile.sweep:
            payload["grids"] = self.grid_signatures()
        if profile.takes_completion:
            payload["max_extra_ops"] = self.resolved_max_extra_ops()
            payload["check_marginal"] = self.check_marginal
        payload["guard_policy"] = self.guard_policy
        # Stress-corner overrides shape every electrical solve; absent
        # for the nominal corner so pre-existing addresses are stable
        # (and a corner job with no overrides IS the nominal job).
        if self.technology is not None:
            payload["technology"] = {
                name: float(value) for name, value in self.technology
            }
        return payload

    @property
    def address(self) -> str:
        """Stable content address of this computation (hex digest)."""
        blob = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        ).encode("ascii")
        return hashlib.sha256(blob).hexdigest()[:16]

    # -- JSON round trip -------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "opens": list(self.opens) if self.opens is not None else None,
            "n_r": self.n_r,
            "n_u": self.n_u,
            "max_extra_ops": self.max_extra_ops,
            "guard_policy": self.guard_policy,
            "check_marginal": self.check_marginal,
            "technology": (
                dict(self.technology) if self.technology is not None else None
            ),
            "jobs": self.jobs,
            "grid_engine": self.grid_engine,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "JobSpec":
        if not isinstance(data, dict):
            raise SpecValidationError(
                "JobSpec", "body", data, "a JSON object"
            )
        known = {
            "experiment", "opens", "n_r", "n_u", "max_extra_ops",
            "guard_policy", "check_marginal", "technology", "jobs",
            "batch_u", "grid_engine",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecValidationError(
                "JobSpec", "body", unknown[0],
                "only the fields " + ", ".join(sorted(known)),
            )
        if "experiment" not in data:
            raise SpecValidationError(
                "JobSpec", "experiment", None, "a named experiment"
            )
        opens = data.get("opens")
        if opens is not None:
            if not isinstance(opens, (list, tuple)) or not all(
                isinstance(name, str) for name in opens
            ):
                raise SpecValidationError(
                    "JobSpec", "opens", opens, "a list of OpenLocation names"
                )
            opens = tuple(opens)
        technology = data.get("technology")
        if technology is not None and not isinstance(technology, dict):
            raise SpecValidationError(
                "JobSpec", "technology", technology,
                "an object of Technology field overrides",
            )
        # ``batch_u`` switched a since-removed U-axis batching engine.
        # It is still accepted, and ignored, so that journal records
        # written before its removal replay instead of being dropped.
        batch_u = data.get("batch_u", True)
        if not isinstance(batch_u, bool):
            raise SpecValidationError(
                "JobSpec", "batch_u", batch_u, "a boolean (true or false)"
            )
        spec = cls(
            experiment=data["experiment"],
            opens=opens,
            n_r=data.get("n_r"),
            n_u=data.get("n_u"),
            max_extra_ops=data.get("max_extra_ops"),
            guard_policy=data.get("guard_policy"),
            check_marginal=data.get("check_marginal", False),
            technology=technology,
            jobs=data.get("jobs", 1),
            grid_engine=data.get("grid_engine", True),
        )
        return spec.validate()

    def with_jobs(self, jobs: int) -> "JobSpec":
        """The same computation under a different worker count."""
        return replace(self, jobs=jobs)


# -- job records ----------------------------------------------------------------

class JobState(Enum):
    """Lifecycle of a queued computation."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


#: Per-job event ring-buffer size.  A fine-grained fan-out (one event
#: per completed unit) can emit thousands of events; the buffer keeps
#: the most recent ones and counts the rest in ``events_dropped`` so an
#: SSE consumer that fell behind sees an explicit overflow marker
#: instead of a silent gap.
EVENT_BUFFER = 256


@dataclass
class Job:
    """One admitted computation and its progress record.

    Mutable fields are guarded by the owning queue's lock; handlers read
    a :meth:`to_json` snapshot taken under that lock.  ``events`` is the
    progress trail the scheduler appends to (queued, started, cache-hit,
    per-unit progress, resilience summary, finished/failed/cancelled) —
    a bounded ring buffer whose entries carry a monotone ``seq``, the
    resume cursor of the SSE endpoint (``Last-Event-ID``).
    """

    spec: JobSpec
    address: str
    priority: int = 0
    id: str = field(default_factory=lambda: uuid.uuid4().hex[:12])
    state: JobState = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    cancel_requested: bool = False
    #: Identical submissions coalesced into this job (>= 1).
    submissions: int = 1
    #: The submitting client (``X-Client-Id`` header or remote address);
    #: quota accounting counts live jobs per client.
    client: Optional[str] = None
    #: True when the result came from the store without recomputation.
    cache_hit: bool = False
    #: True when this job was re-enqueued from the job journal after a
    #: restart (it resumes from its unit checkpoint, not from scratch).
    recovered: bool = False
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: Monotone sequence number of the latest event (0 = none yet).
    event_seq: int = 0
    #: Events pushed out of the ring buffer (their seqs are 1..dropped).
    events_dropped: int = 0
    #: Trace correlation, set by the scheduler when telemetry is on.
    trace_id: Optional[str] = None
    root_span: Optional[int] = None

    def emit(self, event: str, **detail: Any) -> None:
        """Append one progress event (timestamped, sequenced, bounded)."""
        self.event_seq += 1
        self.events.append({
            "seq": self.event_seq, "at": time.time(), "event": event,
            **detail,
        })
        while len(self.events) > EVENT_BUFFER:
            self.events.pop(0)
            self.events_dropped += 1

    @property
    def duration(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def to_json(self, verbose: bool = True) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "id": self.id,
            "experiment": self.spec.experiment,
            "address": self.address,
            "state": self.state.value,
            "priority": self.priority,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "duration": self.duration,
            "submissions": self.submissions,
            "client": self.client,
            "cache_hit": self.cache_hit,
            "recovered": self.recovered,
            "cancel_requested": self.cancel_requested,
            "error": self.error,
            "error_type": self.error_type,
            "event_seq": self.event_seq,
            "events_dropped": self.events_dropped,
            "trace": self.trace_id,
            "root_span": self.root_span,
        }
        if verbose:
            payload["spec"] = self.spec.to_json()
            payload["events"] = list(self.events)
        return payload


# -- result payloads ------------------------------------------------------------

_PAYLOAD_FORMAT = "repro-v1"

#: Module-level guard: result_payload temporarily clears report.timing.
_RENDER_LOCK = threading.Lock()


def result_payload(spec: JobSpec, result: Any) -> Dict[str, Any]:
    """The JSON document stored (and served) for one finished job.

    ``report`` is rendered with the telemetry timing block suppressed —
    the service keeps telemetry on for its own counters, but a stored
    report must be byte-identical to the direct CLI run's (telemetry
    off) output, and wall times have no place in a content-addressed
    document anyway.  Structured extras ride along per experiment:
    ``table1`` adds its inventory rows (completed FPs via the
    :mod:`repro.io` codec), and a guarded experiment
    (``table1``/``fig3``/``fig4``/``march``) any points it quarantined.
    """
    report = getattr(result, "report", result)
    with _RENDER_LOCK:
        saved_timing = getattr(report, "timing", None)
        report.timing = None
        try:
            rendered = report.render()
        finally:
            report.timing = saved_timing
    payload: Dict[str, Any] = {
        "format": _PAYLOAD_FORMAT,
        "kind": "job-result",
        "experiment": spec.experiment,
        "address": spec.address,
        "report": rendered,
        "claims": [
            {
                "name": claim.name,
                "paper": claim.paper,
                "measured": claim.measured,
                "holds": claim.holds,
            }
            for claim in report.claims
        ],
        "holding": report.holding,
        "all_hold": report.all_hold,
    }
    rows = getattr(result, "rows", None)
    if spec.experiment == "table1" and rows is not None:
        payload["rows"] = [
            {
                "ffm_sim": row.ffm_sim.name,
                "ffm_com": row.ffm_com.name,
                "open": row.open_number,
                "completed": (
                    None if row.completed is None else dump_fp(row.completed)
                ),
                "completed_text": row.completed_text,
                "floating": row.floating,
                "marginal": row.marginal,
            }
            for row in rows
        ]
    quarantined = getattr(result, "quarantined", None)
    if quarantined:
        payload["quarantined"] = [
            _quarantined_json(point) for point in quarantined
        ]
    return payload


def _quarantined_json(point: Any) -> Any:
    """One quarantined entry as JSON: a Table 1 grid point with its
    replay context, a Fig. 3/4 ``(r, u)`` grid point, or a march
    cross-validation ``"<test>: <defect point>"`` label."""
    if isinstance(point, tuple):
        r_def, u = point
        return {"r_def": float(r_def), "u": float(u)}
    if isinstance(point, str):
        return point
    return dump_quarantined_point(point)
