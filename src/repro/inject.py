"""Deterministic fault-injection campaigns against the solver guards.

The DAVOS FPGA toolkit structures dependability evaluation as a
*campaign*: a seeded faultload says what to break, where and when; the
workload runs once per fault; and every run is classified by how the
system reacted.  This module is the simulation-level analogue for the
guard rails of ``repro.circuit.network`` (see ``docs/ROBUSTNESS.md``):

* :class:`SolverNaNInjector` — overwrite a node voltage with NaN in the
  solver output, either at one ``(R_def, U)`` operating point of a sweep
  (via :func:`repro.core.analysis.current_operating_point`) or at the
  N-th solve.  Proves the ``nan`` result guard.
* :class:`VoltagePerturbationInjector` — add seeded noise to every node
  voltage; amplitudes beyond the rail margin prove the ``rail`` hull
  guard, small ones exercise the masked/benign path.
* :class:`PropagatorCacheCorruptor` — poison entries already resident in
  the process-global propagator cache; the next application produces
  non-finite voltages, and the guard must both trip and evict the
  poisoned entry.
* :class:`CheckpointTailTruncator` — chop a seeded number of bytes off a
  checkpoint store's tail, simulating a crash mid-append; the torn line
  must be skipped on resume, never half-parsed.

Three more target the sweep *service*'s durability layer (see
``docs/SERVICE.md``):

* :class:`StoreCorruptor` — flip a byte in (or truncate) seeded-chosen
  result documents of a :class:`~repro.service.store.ResultStore`
  directory; the store's sha256 digest check must quarantine, never
  serve, the damaged copy, and the client's resubmission recomputes it.
* :class:`JournalTailTruncator` — the checkpoint truncator retargeted at
  a :class:`~repro.service.journal.JobJournal` file; replay must skip
  the torn record and recover every intact submission.
* :class:`ProcessKiller` — deliver ``SIGKILL`` (or any signal) to a
  service process mid-job, simulating a hard crash; a restart on the
  same ``--work-dir`` must resume the journaled job from its unit
  checkpoints.

Every injector is a context manager (armed on enter, disarmed on exit —
also by :func:`run_injection_campaign`) and fully deterministic under
its ``seed``: the same seed fires the same faults at the same solves.
Injectors never install over each other: arming while another hook is
armed raises :class:`~repro.errors.InjectionError`.

:func:`run_injection_campaign` runs one workload per injector, snapshots
the ``solver.guard_*`` / ``analyzer.quarantined_points`` / ``parallel.*``
telemetry counters around each run, and classifies the outcome with
DAVOS-style verdicts (``dormant`` / ``masked`` / ``contained`` /
``detected`` / ``escaped``) — not to be confused with the
*stress-corner sweep campaigns* of :mod:`repro.campaign`, which
orchestrate fleets of real experiment jobs across operating corners
rather than injecting faults into one run (see docs/CAMPAIGNS.md).
"""

from __future__ import annotations

import os
import random
import signal
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import telemetry
from .circuit import network
from .errors import InjectionError

__all__ = [
    "FaultInjector",
    "SolverNaNInjector",
    "VoltagePerturbationInjector",
    "PropagatorCacheCorruptor",
    "CheckpointTailTruncator",
    "StoreCorruptor",
    "JournalTailTruncator",
    "ProcessKiller",
    "InjectionResult",
    "CampaignReport",
    "run_injection_campaign",
]

#: Counter prefixes snapshotted around every campaign run.
_WATCHED_COUNTERS = (
    "solver.guard_",
    "analyzer.quarantined_points",
    "parallel.",
    "service.store.",
    "service.journal.",
)


class FaultInjector:
    """One fault mechanism: armed on ``__enter__``, disarmed on ``__exit__``.

    Subclasses implement :meth:`arm` / :meth:`disarm` and bump
    :attr:`fires` each time the fault actually perturbs something (a
    fault that never fires classifies as ``dormant``).
    """

    name = "injector"

    def __init__(self) -> None:
        self.fires = 0

    def arm(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def disarm(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def __enter__(self) -> "FaultInjector":
        self.arm()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.disarm()
        return False


class _HookInjector(FaultInjector):
    """Base for injectors that ride the solver fault-hook seam."""

    def arm(self) -> None:
        if network._FAULT_HOOK is not None:
            raise InjectionError(
                f"cannot arm {self.name}: another solver fault hook is "
                "already installed (injectors do not stack)"
            )
        self.fires = 0
        network._install_solver_fault_hook(self._hook)

    def disarm(self) -> None:
        if network._FAULT_HOOK is not None:
            network._install_solver_fault_hook(None)

    def _hook(
        self, v_t: np.ndarray, info: dict
    ) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError


class SolverNaNInjector(_HookInjector):
    """Overwrite one node voltage with NaN in the solver output.

    ``target=(r_def, u)`` fires whenever the analyzer's current operating
    point matches (in a batched solve, only the matching ``U`` lane is
    corrupted — the other lanes must survive).  ``at_solve=N`` fires at
    the N-th solve (1-based) regardless of operating point.  At least one
    trigger is required.  ``node`` picks the corrupted node row.
    """

    name = "solver-nan"

    def __init__(
        self,
        target: Optional[Tuple[float, float]] = None,
        at_solve: Optional[int] = None,
        node: int = 0,
    ) -> None:
        super().__init__()
        if target is None and at_solve is None:
            raise InjectionError(
                "SolverNaNInjector needs a trigger: target=(r_def, u) "
                "and/or at_solve=N"
            )
        if at_solve is not None and at_solve < 1:
            raise InjectionError("at_solve is 1-based; must be >= 1")
        self.target = target
        self.at_solve = at_solve
        self.node = node
        self.solves = 0

    def _lanes_to_hit(self, info: dict) -> List[int]:
        """Lane indices to corrupt for this solve ([] = do not fire)."""
        if self.at_solve is not None and self.solves == self.at_solve:
            return [0]
        if self.target is None:
            return []
        from .core.analysis import current_operating_point

        point = current_operating_point()
        if point is None:
            return []
        r_target, u_target = self.target
        if point.get("grid"):
            # A grid solve calls the hook once per ensemble member with
            # that member's (n_nodes, n_lanes) block; the member's defect
            # resistance rides in the hook info (matching by member index
            # would break once demotions renumber the stack).  Forked
            # members carry only a subset of the U lanes, advertised as
            # original lane indices in info["lanes"].
            if info.get("member_r") != r_target:
                return []
            u = point["u"]
            lanes = info.get("lanes")
            if lanes is not None and isinstance(u, tuple):
                return [
                    j for j, lane in enumerate(lanes)
                    if u[lane] == u_target
                ]
        elif point["r_def"] != r_target:
            return []
        u = point["u"]
        if isinstance(u, tuple):
            return [i for i, value in enumerate(u) if value == u_target]
        return [0] if u == u_target else []

    def _hook(self, v_t: np.ndarray, info: dict) -> np.ndarray:
        self.solves += 1
        lanes = self._lanes_to_hit(info)
        if not lanes:
            return v_t
        self.fires += 1
        corrupted = np.array(v_t, dtype=float, copy=True)
        row = self.node % info["n_nodes"]
        if corrupted.ndim == 1:
            corrupted[row] = np.nan
        else:
            for lane in lanes:
                corrupted[row, lane] = np.nan
        return corrupted


class VoltagePerturbationInjector(_HookInjector):
    """Add seeded uniform noise to every node voltage of a solve.

    ``amplitude`` is the half-width of the perturbation in volts; beyond
    the guard's ``rail_margin`` it can push voltages outside the
    source/initial-state hull and must trip the ``rail`` guard.
    ``at_solve=N`` restricts the noise to the N-th solve (default: every
    solve).  The noise stream is ``random.Random(seed)``, so a campaign
    re-run perturbs identically.
    """

    name = "voltage-perturbation"

    def __init__(
        self,
        amplitude: float,
        seed: int = 0,
        at_solve: Optional[int] = None,
        always_positive: bool = True,
    ) -> None:
        super().__init__()
        if not amplitude > 0:
            raise InjectionError("amplitude must be > 0 volts")
        if at_solve is not None and at_solve < 1:
            raise InjectionError("at_solve is 1-based; must be >= 1")
        self.amplitude = amplitude
        self.seed = seed
        self.at_solve = at_solve
        self.always_positive = always_positive
        self._rng = random.Random(seed)
        self.solves = 0

    def arm(self) -> None:
        super().arm()
        self._rng = random.Random(self.seed)
        self.solves = 0

    def _hook(self, v_t: np.ndarray, info: dict) -> np.ndarray:
        self.solves += 1
        if self.at_solve is not None and self.solves != self.at_solve:
            return v_t
        self.fires += 1
        flat = np.array(v_t, dtype=float, copy=True).reshape(-1)
        for i in range(flat.size):
            noise = self._rng.uniform(0.0, self.amplitude)
            if not self.always_positive:
                noise = noise * self._rng.choice((-1.0, 1.0))
            flat[i] += noise
        return flat.reshape(np.asarray(v_t).shape)


class PropagatorCacheCorruptor(FaultInjector):
    """Poison resident propagator-cache entries with NaN.

    ``arm()`` overwrites one matrix element in up to ``n_entries``
    seeded-chosen cached propagators.  The next solve that hits a
    poisoned entry produces non-finite voltages; the ``nan`` guard must
    trip *and* evict the entry, so a subsequent recompute heals the
    cache.  Arming with an empty cache raises
    :class:`~repro.errors.InjectionError` (nothing to corrupt — run the
    workload once first, or pre-warm).
    """

    name = "propagator-corruption"

    def __init__(self, seed: int = 0, n_entries: int = 1) -> None:
        super().__init__()
        if n_entries < 1:
            raise InjectionError("n_entries must be >= 1")
        self.seed = seed
        self.n_entries = n_entries
        self.corrupted_keys: List[tuple] = []

    def arm(self) -> None:
        cache = network._PROPAGATORS._data
        if not cache:
            raise InjectionError(
                "propagator cache is empty: warm it up before arming "
                "PropagatorCacheCorruptor"
            )
        rng = random.Random(self.seed)
        keys = sorted(cache.keys(), key=repr)
        rng.shuffle(keys)
        self.corrupted_keys = []
        for key in keys[: self.n_entries]:
            phi, offset = cache[key]
            poisoned = np.array(phi, dtype=float, copy=True)
            flat_index = rng.randrange(poisoned.size)
            poisoned.reshape(-1)[flat_index] = np.nan
            cache[key] = (poisoned, offset)
            self.corrupted_keys.append(key)
            self.fires += 1

    def disarm(self) -> None:
        # Drop any poisoned entry the guards did not already evict, so a
        # later clean run cannot trip over leftover campaign damage.
        for key in self.corrupted_keys:
            network._PROPAGATORS.evict(key)
        self.corrupted_keys = []


class CheckpointTailTruncator(FaultInjector):
    """Truncate the tail of a checkpoint file, as a mid-append crash would.

    ``arm()`` removes a seeded number of bytes from the end of ``path``
    (at least 1, at most ``max_bytes``, and never the whole file unless
    it is smaller than that).  :class:`~repro.io.CheckpointStore` must
    skip the torn final line and resume from the intact prefix.
    """

    name = "checkpoint-truncation"

    def __init__(self, path: str, seed: int = 0, max_bytes: int = 64) -> None:
        super().__init__()
        if max_bytes < 1:
            raise InjectionError("max_bytes must be >= 1")
        self.path = path
        self.seed = seed
        self.max_bytes = max_bytes
        self.bytes_dropped = 0

    def arm(self) -> None:
        try:
            size = os.path.getsize(self.path)
        except OSError as exc:
            raise InjectionError(
                f"cannot truncate checkpoint {self.path!r}: {exc}"
            ) from exc
        if size == 0:
            raise InjectionError(
                f"checkpoint {self.path!r} is empty: nothing to truncate"
            )
        rng = random.Random(self.seed)
        drop = min(size, rng.randint(1, self.max_bytes))
        with open(self.path, "rb+") as fh:
            fh.truncate(size - drop)
        self.bytes_dropped = drop
        self.fires += 1

    def disarm(self) -> None:
        pass


class StoreCorruptor(FaultInjector):
    """Damage result documents at rest in a result-store directory.

    ``arm()`` picks up to ``n_entries`` seeded-chosen ``*.json``
    documents directly under ``root`` (the store directory — the
    quarantine subdirectory is never touched) and, per ``mode``, either
    flips one byte in place (``"flip"``, bit-rot) or chops a seeded
    number of tail bytes (``"truncate"``, a torn write).  The store's
    digest verification must quarantine the damaged copy on the next
    read or index rebuild — counted under ``service.store.corrupt`` —
    the result route then answers 410, and
    :meth:`~repro.service.client.ServiceClient.submit_and_wait`
    resubmits once and gets a recomputed, byte-identical payload.
    """

    name = "store-corruption"

    def __init__(
        self,
        root: str,
        seed: int = 0,
        n_entries: int = 1,
        mode: str = "flip",
    ) -> None:
        super().__init__()
        if n_entries < 1:
            raise InjectionError("n_entries must be >= 1")
        if mode not in ("flip", "truncate"):
            raise InjectionError(
                f"mode must be 'flip' or 'truncate', not {mode!r}"
            )
        self.root = root
        self.seed = seed
        self.n_entries = n_entries
        self.mode = mode
        self.corrupted_paths: List[str] = []

    def arm(self) -> None:
        try:
            names = sorted(
                name for name in os.listdir(self.root)
                if name.endswith(".json")
                and os.path.isfile(os.path.join(self.root, name))
            )
        except OSError as exc:
            raise InjectionError(
                f"cannot list result store {self.root!r}: {exc}"
            ) from exc
        if not names:
            raise InjectionError(
                f"result store {self.root!r} holds no documents: "
                "nothing to corrupt"
            )
        rng = random.Random(self.seed)
        rng.shuffle(names)
        self.corrupted_paths = []
        for name in names[: self.n_entries]:
            path = os.path.join(self.root, name)
            size = os.path.getsize(path)
            if size == 0:
                continue
            with open(path, "rb+") as fh:
                if self.mode == "truncate":
                    fh.truncate(size - min(size, rng.randint(1, 64)))
                else:
                    offset = rng.randrange(size)
                    fh.seek(offset)
                    byte = fh.read(1)
                    fh.seek(offset)
                    fh.write(bytes((byte[0] ^ 0xFF,)))
            self.corrupted_paths.append(path)
            self.fires += 1

    def disarm(self) -> None:
        # Damage stays on disk on purpose: the digest check owns the
        # cleanup (quarantine + recompute), and leaving the evidence
        # is exactly what lets a test assert it happened.
        pass


class JournalTailTruncator(CheckpointTailTruncator):
    """Truncate the tail of a job journal, as a crash mid-append would.

    Identical mechanics to :class:`CheckpointTailTruncator` — the
    journal shares the checkpoint store's append discipline — but named
    separately so campaign reports distinguish which durability file was
    hurt.  :meth:`repro.service.journal.JobJournal.replay` must skip the
    torn record (counted in ``stats.torn``) and keep every intact
    submission.
    """

    name = "journal-truncation"


class ProcessKiller(FaultInjector):
    """Deliver a signal (default ``SIGKILL``) to a service process.

    The harshest crash model: no handler runs, no drain, no flush —
    exactly what the journal's per-record fsync and the checkpoint
    store's torn-tail recovery exist for.  ``arm()`` sends the signal
    once; refuses ``pid <= 1`` and the calling process itself (a typo'd
    pid must not kill the test runner or, worse, init).
    """

    name = "process-kill"

    def __init__(self, pid: int, sig: Optional[int] = None) -> None:
        super().__init__()
        if pid <= 1:
            raise InjectionError(
                f"refusing to signal pid {pid} (must be > 1)"
            )
        if pid == os.getpid():
            raise InjectionError(
                "refusing to signal the calling process itself"
            )
        self.pid = pid
        self.sig = signal.SIGKILL if sig is None else sig

    def arm(self) -> None:
        try:
            os.kill(self.pid, self.sig)
        except OSError as exc:
            raise InjectionError(
                f"cannot signal pid {self.pid}: {exc}"
            ) from exc
        self.fires += 1

    def disarm(self) -> None:
        pass


@dataclass
class InjectionResult:
    """One campaign run: which fault, what happened, what the guards saw."""

    injector: str
    fired: int
    verdict: str
    error: Optional[str] = None
    detail: str = ""
    counters: Dict[str, int] = field(default_factory=dict)
    workload_result: Any = None


@dataclass
class CampaignReport:
    """All runs of one campaign, with the DAVOS-style verdict tally."""

    results: List[InjectionResult] = field(default_factory=list)

    @property
    def verdicts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for result in self.results:
            tally[result.verdict] = tally.get(result.verdict, 0) + 1
        return tally

    @property
    def all_guarded(self) -> bool:
        """True when every fired fault was contained or detected."""
        return all(
            result.verdict in ("contained", "detected")
            for result in self.results
            if result.fired
        )

    def render(self) -> str:
        lines = ["[injection campaign]"]
        for result in self.results:
            counters = "  ".join(
                f"{name}={value}"
                for name, value in sorted(result.counters.items())
            )
            line = (
                f"  {result.injector}: {result.verdict} "
                f"(fired {result.fired}x"
                + (f", {result.error}" if result.error else "")
                + ")"
            )
            if counters:
                line += f"  [{counters}]"
            if result.detail:
                line += f"  {result.detail}"
            lines.append(line)
        tally = "  ".join(
            f"{verdict}={count}"
            for verdict, count in sorted(self.verdicts.items())
        )
        lines.append(f"  verdicts: {tally}")
        return "\n".join(lines)


def _counter_snapshot() -> Dict[str, int]:
    registry = telemetry.get_metrics()
    snapshot = registry.snapshot().get("counters", {})
    return {
        name: value
        for name, value in snapshot.items()
        if any(name.startswith(prefix) or name == prefix.rstrip(".")
               for prefix in _WATCHED_COUNTERS)
    }


def _classify(
    fired: int, guard_delta: int, error: Optional[BaseException]
) -> str:
    if fired == 0:
        return "dormant"
    if guard_delta > 0:
        return "detected" if error is not None else "contained"
    if error is not None:
        return "escaped"
    return "masked"


def run_injection_campaign(
    injectors: Sequence[FaultInjector],
    workload: Callable[[], Any],
    expect: Optional[Callable[[Any], bool]] = None,
) -> CampaignReport:
    """Run ``workload`` once per injector and classify every outcome.

    Telemetry is enabled for the duration (restored afterwards) so the
    guard counters around each run are observable.  Exceptions raised by
    the workload are captured into the run's :class:`InjectionResult`,
    never propagated — a campaign always reports.  ``expect`` optionally
    validates the workload result; a fired fault whose run returns a
    result failing ``expect`` with no guard trip is an ``escaped``
    verdict even without an exception (silent corruption, the worst
    outcome a guard can miss).

    Verdicts: ``dormant`` (fault never fired), ``masked`` (fired, no
    guard trip, output fine), ``contained`` (guard tripped and the run
    completed — quarantine/fallback absorbed it), ``detected`` (guard
    tripped and raised), ``escaped`` (fired and corrupted the run with
    no guard trip).
    """
    report = CampaignReport()
    was_enabled = telemetry.enabled()
    telemetry.enable()
    try:
        for injector in injectors:
            before = _counter_snapshot()
            error: Optional[BaseException] = None
            result: Any = None
            try:
                with injector:
                    result = workload()
            except InjectionError:
                raise
            except Exception as exc:
                error = exc
            after = _counter_snapshot()
            deltas = {
                name: value - before.get(name, 0)
                for name, value in after.items()
                if value != before.get(name, 0)
            }
            guard_delta = sum(
                delta for name, delta in deltas.items()
                if name.startswith("solver.guard_")
            )
            verdict = _classify(injector.fires, guard_delta, error)
            detail = ""
            if (
                verdict == "masked"
                and expect is not None
                and not expect(result)
            ):
                verdict = "escaped"
                detail = "workload result failed the expectation check"
            report.results.append(
                InjectionResult(
                    injector=injector.name,
                    fired=injector.fires,
                    verdict=verdict,
                    error=type(error).__name__ if error else None,
                    detail=detail or (str(error) if error else ""),
                    counters=deltas,
                    workload_result=result,
                )
            )
    finally:
        if not was_enabled:
            telemetry.disable()
    return report

