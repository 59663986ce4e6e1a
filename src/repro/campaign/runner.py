"""Campaign orchestration: a corner matrix run as a fleet of sweep jobs.

:func:`run_matrix_campaign` expands a :class:`~.corners.CornerMatrix`
into per-corner content-addressed job specs and executes them either

* **in-process** — each corner's experiment runs through its service
  profile (:meth:`JobSpec.profile`) on a bounded thread pool, or
* **against a live service** (``service_url``) — each corner becomes a
  ``POST /jobs`` through :class:`~repro.service.client.ServiceClient`;
  the service's content-address dedup, journal recovery and result
  store then apply unchanged, because the corner's technology overrides
  ride inside the spec.

Either way a finished corner's payload is the exact
:func:`~repro.service.jobs.result_payload` document, so the nominal
corner's ``payload["report"]`` is byte-identical to a direct,
non-campaign run of the same spec.

A corner is the campaign's unit of recovery: ``checkpoint_path``
appends one record per *finished corner job* keyed by content address,
and ``resume=True`` reloads those records so a killed campaign re-runs
only the corners still missing (a corner that was running re-runs
whole).  Progress is observable as ``campaign.*`` telemetry
counters/spans and structured events (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .. import telemetry
from ..errors import ReproError, SpecValidationError
from ..experiments.reporting import ExperimentReport
from ..io import CheckpointStore
from ..march.library import MARCH_PF
from ..march.notation import MarchTest
from ..service.jobs import JobSpec, result_payload
from ..telemetry import events
from .corners import CornerMatrix
from .masking import PartiallyStuckAtCode
from .report import analyze_corner, build_artifact, render_report

__all__ = [
    "CampaignConfig",
    "CampaignError",
    "CampaignResult",
    "run_matrix_campaign",
]


#: The experiment every corner runs.
_EXPERIMENT = "table1"


class CampaignError(ReproError):
    """One or more corner jobs failed after every recovery attempt."""


@dataclass
class CampaignConfig:
    """Everything :func:`run_matrix_campaign` needs.

    ``jobs`` is the fan-out *inside* each corner's sweep;
    ``corner_jobs`` bounds how many corners run concurrently.  Every
    corner runs Table 1: the cross-corner analysis needs the inventory
    rows that only the Table 1 payload carries.
    """

    matrix: CornerMatrix
    opens: Optional[Tuple[str, ...]] = None
    n_r: Optional[int] = None
    n_u: Optional[int] = None
    max_extra_ops: Optional[int] = None
    guard_policy: Optional[str] = None
    jobs: int = 1
    corner_jobs: int = 1
    march_test: MarchTest = MARCH_PF
    code: PartiallyStuckAtCode = field(
        default_factory=lambda: PartiallyStuckAtCode(8)
    )
    service_url: Optional[str] = None
    priority: int = 0
    timeout: Optional[float] = 600.0
    checkpoint_path: Optional[str] = None
    resume: bool = False

    def validate(self) -> "CampaignConfig":
        if self.corner_jobs < 1:
            raise SpecValidationError(
                "CampaignConfig", "corner_jobs", self.corner_jobs,
                ">= 1",
            )
        if self.resume and not self.checkpoint_path:
            raise SpecValidationError(
                "CampaignConfig", "resume", self.resume,
                "a checkpoint_path to resume from",
            )
        self.matrix.validate()
        self.code.validate()
        self.base_spec()  # validates jobs/opens/grid fields
        return self

    def base_spec(self) -> JobSpec:
        """The corner-independent (nominal) job spec."""
        return JobSpec(
            experiment=_EXPERIMENT,
            opens=self.opens,
            n_r=self.n_r,
            n_u=self.n_u,
            max_extra_ops=self.max_extra_ops,
            guard_policy=self.guard_policy,
            jobs=self.jobs,
        ).validate()


@dataclass
class CampaignResult:
    """A finished campaign: per-corner entries in matrix order."""

    entries: List[Dict[str, Any]]
    artifact: Dict[str, Any]
    report: ExperimentReport
    executed: int
    resumed: int

    def payload_for(self, corner_name: str) -> Dict[str, Any]:
        for entry in self.entries:
            if entry["corner"] == corner_name:
                return entry["payload"]
        raise KeyError(corner_name)


def _checkpoint_key(spec: JobSpec) -> str:
    return f"campaign|{spec.experiment}|{spec.address}"


def _execute_local(spec: JobSpec) -> Dict[str, Any]:
    """Run one corner job in-process; returns its result payload."""
    return result_payload(spec, spec.profile().run(spec))


def _execute_service(
    spec: JobSpec, config: CampaignConfig
) -> Dict[str, Any]:
    """Submit one corner job to the live service and await its payload."""
    from ..service.client import ServiceClient

    client = ServiceClient(config.service_url)
    try:
        _record, payload = client.submit_and_wait(
            spec, priority=config.priority, timeout=config.timeout
        )
    finally:
        client.close()
    return payload


def _resumable(value: Any, spec: JobSpec) -> bool:
    """A checkpointed corner payload is trusted only when it is a
    job-result document for exactly this content address."""
    return (
        isinstance(value, dict)
        and value.get("kind") == "job-result"
        and value.get("address") == spec.address
    )


def run_matrix_campaign(config: CampaignConfig) -> CampaignResult:
    """Execute the corner matrix and build the cross-corner report.

    Raises :class:`CampaignError` naming every failed corner once all
    scheduled corners have settled (finished corners are checkpointed
    first, so the retry re-runs only what is missing).
    """
    config.validate()
    base = config.base_spec()
    pairs = config.matrix.job_specs(base)
    mode = "service" if config.service_url else "local"
    telemetry.count("campaign.corners", len(pairs))
    events.emit(
        "campaign.started",
        experiment=_EXPERIMENT,
        corners=len(pairs),
        mode=mode,
    )
    store = (
        CheckpointStore(config.checkpoint_path)
        if config.checkpoint_path else None
    )
    try:
        loaded = store.load() if (store and config.resume) else {}
        payloads: Dict[str, Dict[str, Any]] = {}
        resumed = 0
        for corner, spec in pairs:
            value = loaded.get(_checkpoint_key(spec))
            if spec.address not in payloads and _resumable(value, spec):
                payloads[spec.address] = value
                resumed += 1
        if resumed:
            telemetry.count("campaign.jobs.resumed", resumed)
        # Distinct corners always have distinct addresses (the
        # overrides are part of the content address); the dedup below
        # only collapses *identical* corner specs, mirroring the
        # service's queue-level dedup on the local path.
        pending: List[Tuple[Any, JobSpec]] = []
        seen = set(payloads)
        for corner, spec in pairs:
            if spec.address not in seen:
                seen.add(spec.address)
                pending.append((corner, spec))

        failures: List[Tuple[str, BaseException]] = []

        def run_corner(corner, spec) -> None:
            with telemetry.span(
                "campaign.job", corner=corner.name, address=spec.address
            ):
                try:
                    if mode == "service":
                        payload = _execute_service(spec, config)
                    else:
                        payload = _execute_local(spec)
                except Exception as exc:
                    telemetry.count("campaign.jobs.failed")
                    events.emit(
                        "campaign.job.failed",
                        corner=corner.name,
                        address=spec.address,
                        error_type=type(exc).__name__,
                    )
                    failures.append((corner.name, exc))
                    return
            payloads[spec.address] = payload
            if store is not None:
                store.record(_checkpoint_key(spec), payload)
            telemetry.count("campaign.jobs.completed")
            events.emit(
                "campaign.job.finished",
                corner=corner.name,
                address=spec.address,
            )

        with telemetry.span(
            "campaign.run",
            experiment=_EXPERIMENT,
            corners=len(pairs),
            mode=mode,
        ) as span:
            if pending:
                workers = min(config.corner_jobs, len(pending))
                if workers == 1:
                    for corner, spec in pending:
                        run_corner(corner, spec)
                else:
                    with ThreadPoolExecutor(
                        max_workers=workers
                    ) as pool:
                        list(pool.map(
                            lambda pair: run_corner(*pair), pending
                        ))
            span.set(
                executed=len(pending) - len(failures),
                resumed=resumed,
                failed=len(failures),
            )
            if failures:
                failures.sort(key=lambda item: item[0])
                detail = "; ".join(
                    f"{name}: {type(exc).__name__}: {exc}"
                    for name, exc in failures
                )
                events.emit(
                    "campaign.finished",
                    ok=False,
                    failed=[name for name, _ in failures],
                )
                raise CampaignError(
                    f"{len(failures)} corner job(s) failed "
                    f"({detail}); finished corners are checkpointed — "
                    "re-run with resume to retry only the rest"
                ) from failures[0][1]
            entries = [
                analyze_corner(
                    corner, spec.address, payloads[spec.address],
                    march_test=config.march_test, code=config.code,
                )
                for corner, spec in pairs
            ]
    finally:
        if store is not None:
            store.close()
    artifact = build_artifact(
        entries,
        experiment=_EXPERIMENT,
        march_test=config.march_test,
        code=config.code,
    )
    report = render_report(artifact)
    events.emit(
        "campaign.finished", ok=True, corners=len(pairs),
        resumed=resumed,
    )
    return CampaignResult(
        entries=entries,
        artifact=artifact,
        report=report,
        executed=len(pending) - len(failures),
        resumed=resumed,
    )
