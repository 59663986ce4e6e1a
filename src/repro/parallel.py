"""Process-parallel orchestration of per-location work units.

Two fan-outs use it, each with one work unit per open location:

* Table 1 (:func:`repro.experiments.table1.run_table1`): one open's
  surveys, completion searches and marginal checks, on one analyzer
  rebuilt from an :class:`AnalyzerSpec`;
* lane-stacked march populations
  (:func:`repro.march.simulator.run_march_lanes`, which the escape
  screen and the diagnosis dictionary run): every test, in turn, over
  the defects of one ``(location, row)`` group, as one lock-step batch.

Both win on a multi-core host because each fan-out holds about a second
of work, in units that share nothing: a Table 1 open takes 0.02-0.4 s
and a march unit 0.04-0.65 s (2-core host; layers 3 and 3b of
``docs/PERFORMANCE.md``).  Figs. 3/4 and the march cross-validation are
too small to gain from worker processes (a region map is tens of
milliseconds, less than forking a worker) and run in process.  Every
unit is a *pure function* of its pickled payload: a worker runs it and
returns plain result objects.  That purity is what makes ``--jobs N``
deterministic: the result of a unit does not depend on which worker ran
it, how warm that worker's propagator cache was, or in what order units
completed; the parent always merges results in payload order.  Workers
fork (:func:`default_jobs` gives the worker count of a run without an
explicit one).

``jobs=1`` never touches a process pool: :func:`parallel_map_ex`
degrades to an in-process loop over the same units, so the output is
byte-identical for any worker count.

Purity is also what makes the fan-out *resilient* (see
``docs/ROBUSTNESS.md``): a unit that crashed, timed out, or died with
its worker can simply run again — same payload, same result.  The
orchestrator layers four recovery mechanisms on top of the pool, all
governed by a :class:`RetryPolicy`:

* **retry with exponential backoff** — a raising unit is resubmitted up
  to ``max_retries`` times;
* **per-unit timeouts** — a wedged unit stops being waited on after
  ``unit_timeout`` seconds and is treated as failed (retried or fallen
  back) instead of hanging the whole run;
* **in-process fallback** — after the retry budget, or when the pool
  itself breaks (``BrokenProcessPool``: a worker was OOM-killed or
  segfaulted), remaining units run in the parent process;
* **checkpointing** — finished unit results append to a
  :class:`~repro.io.CheckpointStore` JSONL file as they complete, and a
  later run with the same store skips them, reproducing the identical
  inventory after a hard interrupt.

A unit that fails even the fallback is surfaced as a structured
:class:`UnitFailure` (in :class:`MapOutcome` and the CLI's
``[resilience]`` summary), not as a bare traceback.  Only Table 1 takes
a policy and a checkpoint store; the march fan-out is strict, so its
first unit error propagates to the caller.

Telemetry: each worker records into its own process-global registry
(reset before every unit) and ships the snapshot back with the result;
the parent folds the snapshots into its registry in submission order via
:meth:`~repro.telemetry.metrics.MetricsRegistry.merge_snapshot`.
Counters and histograms therefore aggregate exactly.  Worker *spans*
ride the same channel: each unit ships its tracer state
(:meth:`~repro.telemetry.tracer.Tracer.export_state`) back with the
snapshot, and the parent re-parents the unit's span tree under the
trace context captured when the fan-out started
(:meth:`~repro.telemetry.tracer.Tracer.adopt_state`) — a ``--jobs N``
JSONL export is one connected tree.  The recovery paths count as
``parallel.retries`` / ``parallel.timeouts`` /
``parallel.fallback_units`` / ``parallel.pool_breaks`` /
``parallel.failures`` / ``parallel.resumed_units``.

Live progress: callers (the sweep scheduler's SSE feed) may register a
per-thread listener via :func:`add_progress_listener`; the fan-out then
reports unit completions, retries, timeouts, fallbacks, and resumes as
they happen.  With no listener registered the hooks cost one
thread-local read.  The same milestones go to the structured event log
(:mod:`repro.telemetry.events`) when one is configured.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

from . import telemetry
from .telemetry import events
from .circuit import network as circuit_network
from .circuit.defects import OpenLocation
from .circuit.network import GuardPolicy
from .circuit.technology import Technology
from .core.analysis import ColumnFaultAnalyzer, SweepGrid
from .errors import CheckpointMismatchError, SpecValidationError
from .io import CHECKPOINT_CODECS, CheckpointStore

__all__ = [
    "AnalyzerSpec",
    "RetryPolicy",
    "Resilience",
    "UnitFailure",
    "MapOutcome",
    "ResilienceLog",
    "default_jobs",
    "fork_safe",
    "drain_resilience_log",
    "parallel_map_ex",
    "add_progress_listener",
    "remove_progress_listener",
]


# -- live progress hooks -------------------------------------------------------
#
# Listeners are *per-thread*: the sweep scheduler registers one around the
# experiment call it runs for a job, and concurrent jobs (other scheduler
# threads) never see each other's events.  A listener is a callable
# ``(kind: str, info: dict) -> None``; it must not raise (exceptions are
# swallowed so a broken observer cannot fail the fan-out).

_progress_local = threading.local()


def _progress_listeners() -> List[Callable[[str, Dict[str, Any]], None]]:
    listeners = getattr(_progress_local, "listeners", None)
    if listeners is None:
        listeners = _progress_local.listeners = []
    return listeners


def add_progress_listener(
    listener: Callable[[str, Dict[str, Any]], None],
) -> None:
    """Register a fan-out progress observer for the calling thread."""
    _progress_listeners().append(listener)


def remove_progress_listener(
    listener: Callable[[str, Dict[str, Any]], None],
) -> None:
    """Unregister a previously added observer (no-op if absent)."""
    try:
        _progress_listeners().remove(listener)
    except ValueError:
        pass


def _notify_progress(kind: str, **info: Any) -> None:
    listeners = getattr(_progress_local, "listeners", None)
    if not listeners:
        return
    for listener in list(listeners):
        try:
            listener(kind, info)
        except Exception:  # noqa: BLE001 — observers must not kill the run
            pass


@dataclass(frozen=True)
class AnalyzerSpec:
    """Everything needed to rebuild a :class:`ColumnFaultAnalyzer`.

    Workers receive this instead of a live analyzer: the analyzer holds
    an unbounded observation cache and a live network, neither of which
    should cross a process boundary.
    """

    location: OpenLocation
    technology: Optional[Technology] = None
    n_rows: int = 3
    victim_row: int = 0
    grid: Optional[SweepGrid] = None
    grid_engine: bool = True
    guard_policy: Optional[GuardPolicy] = None

    def build(self) -> ColumnFaultAnalyzer:
        return ColumnFaultAnalyzer(
            self.location,
            technology=self.technology,
            n_rows=self.n_rows,
            victim_row=self.victim_row,
            grid=self.grid,
            grid_engine=self.grid_engine,
            guard_policy=self.guard_policy,
        )

    def validate(self) -> "AnalyzerSpec":
        """Check the spec before any worker touches it; return ``self``.

        Raises :class:`~repro.errors.SpecValidationError` with the exact
        field, so a bad fan-out dies before spawning processes rather
        than as ``n_units`` identical worker tracebacks.
        """
        if not isinstance(self.location, OpenLocation):
            raise SpecValidationError(
                "AnalyzerSpec", "location", self.location,
                "an OpenLocation member",
            )
        if not isinstance(self.n_rows, int) or self.n_rows < 2:
            raise SpecValidationError(
                "AnalyzerSpec", "n_rows", self.n_rows, "an integer >= 2",
                hint="the analyzer needs a bit-line neighbour row",
            )
        if (
            not isinstance(self.victim_row, int)
            or not 0 <= self.victim_row < self.n_rows
        ):
            raise SpecValidationError(
                "AnalyzerSpec", "victim_row", self.victim_row,
                f"an integer in [0, n_rows = {self.n_rows})",
            )
        if self.technology is not None:
            self.technology.validate()
        if self.grid is not None:
            self.grid.validate()
        if self.guard_policy is not None and not isinstance(
            self.guard_policy, GuardPolicy
        ):
            raise SpecValidationError(
                "AnalyzerSpec", "guard_policy", self.guard_policy,
                "a GuardPolicy member or None",
            )
        return self


# -- resilience policy and records ---------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """How the fan-out reacts when a unit raises, times out, or its
    worker dies.

    ``max_retries`` resubmissions per unit, sleeping
    ``backoff * backoff_factor**(attempt-1)`` seconds (capped at
    ``backoff_max``) before each; ``unit_timeout`` seconds before an
    in-flight pooled unit is abandoned and treated as failed (``None``
    disables; in-process execution is never interrupted); ``fallback``
    runs a unit in the parent process after its retry budget — and every
    remaining unit when the pool itself breaks.
    """

    max_retries: int = 1
    backoff: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    unit_timeout: Optional[float] = None
    fallback: bool = True

    def delay(self, failed_attempts: int) -> float:
        """Backoff before resubmitting after ``failed_attempts`` failures."""
        return min(
            self.backoff * self.backoff_factor ** max(0, failed_attempts - 1),
            self.backoff_max,
        )


#: The fail-fast contract of ``strict=True``: no retries, no fallback —
#: the first unit error propagates to the caller.
_STRICT_POLICY = RetryPolicy(max_retries=0, fallback=False)


@dataclass(frozen=True)
class UnitFailure:
    """One unit that failed after every recovery attempt."""

    key: str
    index: int
    error_type: str
    message: str
    attempts: int
    duration: float


@dataclass
class MapOutcome:
    """What :func:`parallel_map_ex` produced for one fan-out.

    ``results`` is payload-ordered; a unit that ultimately failed (only
    possible in non-strict mode) holds ``None`` and appears in
    ``failures``.  ``resumed`` counts units skipped because the
    checkpoint store already held their result.
    """

    results: List[Any]
    failures: List[UnitFailure] = field(default_factory=list)
    resumed: int = 0


@dataclass
class Resilience:
    """Bundled resilience configuration threaded through the experiment
    harnesses (CLI: ``--max-retries``/``--unit-timeout`` build the
    policy, ``--checkpoint``/``--resume`` the store)."""

    policy: RetryPolicy = field(default_factory=RetryPolicy)
    checkpoint: Optional[CheckpointStore] = None


@dataclass
class ResilienceLog:
    """Recovery events accumulated since the last drain (CLI summary)."""

    failures: List[UnitFailure] = field(default_factory=list)
    retries: int = 0
    resumed: int = 0
    fallbacks: int = 0
    pool_breaks: int = 0
    timeouts: int = 0

    def any(self) -> bool:
        return bool(
            self.failures or self.retries or self.resumed
            or self.fallbacks or self.pool_breaks or self.timeouts
        )


#: Per-thread recovery-event accumulators.  The orchestration side of a
#: fan-out (retry bookkeeping, fallback execution, failure records) runs
#: entirely in the thread that called :func:`parallel_map_ex`, so a
#: thread-local log attributes every event to exactly the fan-out that
#: caused it — concurrent sweep-service jobs on different scheduler
#: threads (or in different worker processes) can no longer cross-talk.
_session_local = threading.local()


def _session_log() -> ResilienceLog:
    log = getattr(_session_local, "log", None)
    if log is None:
        log = _session_local.log = ResilienceLog()
    return log


def _grid_signature_of(key: str) -> Optional[str]:
    """The ``grid=<sig>`` segment of a ``|``-separated unit key, if any."""
    for part in key.split("|"):
        if part.startswith("grid="):
            return part[len("grid="):]
    return None


def _mask_grid(key: str) -> str:
    return "|".join(
        "grid=*" if part.startswith("grid=") else part
        for part in key.split("|")
    )


def _check_checkpoint_signatures(
    checkpoint: CheckpointStore, stored_keys, expected_keys
) -> None:
    """Refuse to resume against a store written with another sweep grid.

    A stored key that matches an expected key in everything *but* its
    ``grid=<sig>`` segment means the same unit was checkpointed under
    different sweep parameters — resuming would silently blend results
    from two grids (the old behaviour re-ran the unit, leaving the stale
    sibling entries in place to strike on the next grid change).  Raises
    :class:`~repro.errors.CheckpointMismatchError` naming both
    signatures and the file.
    """
    expected_set = set(expected_keys)
    expected_by_mask = {
        _mask_grid(key): key
        for key in expected_keys
        if _grid_signature_of(key) is not None
    }
    for stored in stored_keys:
        if stored in expected_set or _grid_signature_of(stored) is None:
            continue
        match = expected_by_mask.get(_mask_grid(stored))
        if match is not None:
            raise CheckpointMismatchError(
                path=str(checkpoint.path),
                expected_signature=_grid_signature_of(match) or "",
                found_signature=_grid_signature_of(stored) or "",
                key=stored,
            )


def drain_resilience_log() -> ResilienceLog:
    """Return and reset the calling thread's recovery-event accumulator.

    The log is **per thread**: it holds exactly the events of fan-outs
    this thread orchestrated since its last drain, so concurrent callers
    (sweep-service scheduler workers) each read an exact ledger of their
    own job's recoveries.
    """
    log = _session_log()
    _session_local.log = ResilienceLog()
    return log


# -- the generic fan-out -------------------------------------------------------

def _fork_context():
    """The ``fork`` start context, or ``None`` where workers cannot fork:
    no fork start method, or this process is itself a daemonic worker
    (which may not have children)."""
    if multiprocessing.current_process().daemon:
        return None
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def fork_safe() -> bool:
    """Whether this process can fork workers safely: it can fork at all,
    and no other thread is running (a forked child inherits their locks
    in whatever state they are)."""
    return _fork_context() is not None and threading.active_count() <= 1


def default_jobs(n_units: int) -> int:
    """Worker count of a fan-out run without an explicit ``jobs``.

    One worker per usable core, at most one per unit.  Runs stay
    in-process where workers cannot fork safely (:func:`fork_safe`),
    and while a solver fault hook (:mod:`repro.inject`) is installed:
    the hook counts its solves and fires in its own process, so workers
    would each count their own.
    """
    if not fork_safe() or circuit_network._FAULT_HOOK is not None:
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — no affinity API
        cores = os.cpu_count() or 1
    return max(1, min(cores, n_units))


def _run_unit(func: Callable[[Any], Any], payload: Any,
              telemetry_on: bool) -> Tuple[Any, Optional[dict], Optional[dict]]:
    """Worker-side wrapper: run one unit, capture its telemetry state.

    The worker's registry and tracer are reset before the unit so that
    each returned snapshot/trace covers exactly one unit — workers are
    reused across units, and cumulative state would double-count on
    merge.  Returns ``(result, metrics snapshot, tracer state)``; the
    parent merges the snapshot and adopts the spans
    (:meth:`~repro.telemetry.tracer.Tracer.adopt_state`) under the
    fan-out's trace context.
    """
    if not telemetry_on:
        return func(payload), None, None
    telemetry.reset()
    telemetry.enable()
    try:
        result = func(payload)
    finally:
        telemetry.disable()
    return (
        result,
        telemetry.get_metrics().snapshot(),
        telemetry.get_tracer().export_state(),
    )


class _FanoutRun:
    """Shared state of one :func:`parallel_map_ex` execution."""

    def __init__(self, func, payloads, policy, checkpoint, keys, codec,
                 outcome, strict):
        self.func = func
        self.payloads = payloads
        self.policy = policy
        self.checkpoint = checkpoint
        self.keys = keys
        self.codec = codec
        self.outcome = outcome
        self.strict = strict
        self.attempts: Dict[int, int] = {}
        self.first_start: Dict[int, float] = {}
        self.snapshots: Dict[int, dict] = {}
        self.trace_states: Dict[int, dict] = {}
        self.completed: set = set()
        self.telemetry_on = telemetry.enabled()
        # Captured up front, in the submitting thread: worker spans are
        # re-parented under whatever span was open when the fan-out began
        # (the experiment's root span, or the scheduler's service.job).
        self.trace_parent = telemetry.current_context()

    def key_of(self, index: int) -> str:
        return self.keys[index] if self.keys is not None else f"unit-{index}"

    def finish(self, index: int, result: Any) -> None:
        self.outcome.results[index] = result
        self.completed.add(index)
        if self.checkpoint is not None:
            self.checkpoint.record(self.key_of(index), result, self.codec)
        _notify_progress(
            "unit.done",
            key=self.key_of(index), index=index,
            done=len(self.completed), total=len(self.payloads),
        )

    def note_retry(self, index: int) -> None:
        telemetry.count("parallel.retries")
        _session_log().retries += 1
        _notify_progress(
            "unit.retry",
            key=self.key_of(index), index=index,
            attempt=self.attempts.get(index, 1),
        )
        events.emit(
            "parallel.unit.retry",
            key=self.key_of(index), attempt=self.attempts.get(index, 1),
        )

    def merge_snapshots(self) -> None:
        """Fold collected worker snapshots and spans in, in submission order.

        Called on the success path *and* before a strict-mode raise, so
        telemetry gathered from units that did complete is never lost
        when a later unit fails (the pre-resilience orchestrator dropped
        both the snapshots and the finished results on that path).
        """
        if not self.telemetry_on:
            return
        registry = telemetry.get_metrics()
        for index in sorted(self.snapshots):
            registry.merge_snapshot(self.snapshots.pop(index))
        tracer = telemetry.get_tracer()
        for index in sorted(self.trace_states):
            tracer.adopt_state(
                self.trace_states.pop(index), self.trace_parent
            )

    def fail(self, index: int, exc: BaseException) -> None:
        """Record a unit's final failure; in strict mode, raise it.

        The raised exception carries the fan-out's progress so callers
        can salvage it: ``partial_results`` maps payload index to the
        result of every unit that did finish, ``unit_failures`` lists
        the structured failure records.
        """
        failure = UnitFailure(
            key=self.key_of(index),
            index=index,
            error_type=type(exc).__name__,
            message=str(exc),
            attempts=self.attempts.get(index, 1),
            duration=time.monotonic() - self.first_start.get(
                index, time.monotonic()
            ),
        )
        self.outcome.failures.append(failure)
        _session_log().failures.append(failure)
        telemetry.count("parallel.failures")
        _notify_progress(
            "unit.failed",
            key=failure.key, index=index, error=failure.error_type,
        )
        events.emit(
            "parallel.unit.failed",
            key=failure.key, error=failure.error_type,
            message=failure.message, attempts=failure.attempts,
        )
        if self.strict:
            self.merge_snapshots()
            exc.partial_results = {
                i: self.outcome.results[i] for i in sorted(self.completed)
            }
            exc.unit_failures = list(self.outcome.failures)
            raise exc

    def run_in_process(self, index: int, with_retries: bool) -> None:
        """Execute one unit in the parent (serial mode, or fallback)."""
        self.first_start.setdefault(index, time.monotonic())
        while True:
            self.attempts[index] = self.attempts.get(index, 0) + 1
            try:
                result = self.func(self.payloads[index])
            except Exception as exc:  # noqa: BLE001 — unit code is arbitrary
                if with_retries and (
                    self.attempts[index] <= self.policy.max_retries
                ):
                    self.note_retry(index)
                    time.sleep(self.policy.delay(self.attempts[index]))
                    continue
                self.fail(index, exc)
                return
            self.finish(index, result)
            return


def _run_pool(run: _FanoutRun, pending: List[int], jobs: int) -> None:
    """Pooled execution with retry, timeout, and pool-break recovery."""
    policy = run.policy
    inflight: Dict[Any, Tuple[int, float]] = {}  # future -> (index, start)
    delayed: List[Tuple[float, int]] = []        # (ready time, index) heap
    fallback_queue: List[int] = []
    broken_indices: List[int] = []
    broken = False
    timed_out = False
    pool = ProcessPoolExecutor(
        max_workers=min(jobs, len(pending)), mp_context=_fork_context()
    )

    def submit(index: int) -> bool:
        """Submit one unit; on a broken pool, queue it for recovery."""
        nonlocal broken
        run.attempts[index] = run.attempts.get(index, 0) + 1
        run.first_start.setdefault(index, time.monotonic())
        try:
            future = pool.submit(
                _run_unit, run.func, run.payloads[index], run.telemetry_on
            )
        except (BrokenProcessPool, RuntimeError):
            broken = True
            broken_indices.append(index)
            return False
        inflight[future] = (index, time.monotonic())
        return True

    def unit_failed(index: int, exc: BaseException) -> None:
        if run.attempts[index] <= policy.max_retries:
            run.note_retry(index)
            heapq.heappush(
                delayed,
                (time.monotonic() + policy.delay(run.attempts[index]), index),
            )
        elif policy.fallback:
            fallback_queue.append(index)
        else:
            run.fail(index, exc)

    try:
        for pos, index in enumerate(pending):
            if not submit(index):
                broken_indices.extend(pending[pos + 1:])
                break
        while (inflight or delayed) and not broken:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, index = heapq.heappop(delayed)
                if not submit(index):
                    break
            if broken:
                break
            if not inflight:
                if delayed:
                    time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                    continue
                break
            wait_timeout: Optional[float] = None
            if delayed:
                wait_timeout = max(0.0, delayed[0][0] - now)
            if policy.unit_timeout is not None:
                next_deadline = min(
                    start + policy.unit_timeout
                    for _, start in inflight.values()
                )
                until = max(0.0, next_deadline - now)
                wait_timeout = (
                    until if wait_timeout is None
                    else min(wait_timeout, until)
                )
            done, _ = wait(
                set(inflight), timeout=wait_timeout,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                index, _start = inflight.pop(future)
                try:
                    result, snap, tstate = future.result()
                except BrokenProcessPool:
                    broken = True
                    broken_indices.append(index)
                except Exception as exc:  # noqa: BLE001
                    unit_failed(index, exc)
                else:
                    if snap:
                        run.snapshots[index] = snap
                    if tstate:
                        run.trace_states[index] = tstate
                    run.finish(index, result)
            if broken:
                break
            if policy.unit_timeout is not None:
                now = time.monotonic()
                for future, (index, start) in list(inflight.items()):
                    if now - start < policy.unit_timeout:
                        continue
                    future.cancel()
                    del inflight[future]
                    timed_out = True
                    telemetry.count("parallel.timeouts")
                    _session_log().timeouts += 1
                    _notify_progress(
                        "unit.timeout", key=run.key_of(index), index=index,
                    )
                    events.emit(
                        "parallel.unit.timeout",
                        key=run.key_of(index),
                        timeout_s=policy.unit_timeout,
                    )
                    unit_failed(index, TimeoutError(
                        f"unit {run.key_of(index)!r} exceeded "
                        f"{policy.unit_timeout} s"
                    ))
        if broken:
            telemetry.count("parallel.pool_breaks")
            _session_log().pool_breaks += 1
            _notify_progress("pool.broken")
            events.emit("parallel.pool.broken")
            broken_indices.extend(index for index, _ in inflight.values())
            inflight.clear()
            while delayed:
                broken_indices.append(heapq.heappop(delayed)[1])
            broken_exc = BrokenProcessPool(
                "a worker process died; the pool cannot be reused"
            )
            for index in sorted(set(broken_indices)):
                if policy.fallback:
                    fallback_queue.append(index)
                else:
                    run.fail(index, broken_exc)
    finally:
        # A timed-out unit may still be running in its worker; don't
        # block on it.  cancel_futures also drops anything still queued
        # (there is nothing queued unless we are bailing out anyway).
        pool.shutdown(wait=not (timed_out or broken), cancel_futures=True)
    run.merge_snapshots()
    for index in sorted(set(fallback_queue)):
        telemetry.count("parallel.fallback_units")
        _session_log().fallbacks += 1
        _notify_progress("unit.fallback", key=run.key_of(index), index=index)
        events.emit("parallel.unit.fallback", key=run.key_of(index))
        run.run_in_process(index, with_retries=False)


def parallel_map_ex(
    func: Callable[[Any], Any],
    payloads: Sequence[Any],
    jobs: int = 1,
    policy: Optional[RetryPolicy] = None,
    checkpoint: Optional[CheckpointStore] = None,
    keys: Optional[Sequence[str]] = None,
    codec: str = "json",
    strict: bool = False,
    costs: Optional[Sequence[float]] = None,
) -> MapOutcome:
    """Map ``func`` over ``payloads`` with recovery and checkpointing.

    ``func`` must be a module-level callable and every payload/result
    must pickle; with ``jobs <= 1`` units run in-process (retry and
    fallback still apply; ``unit_timeout`` does not — nothing can
    interrupt the parent).
    Pooled workers fork (where the platform can).  ``costs`` estimates
    each unit's run time: a pool takes the costliest unit first, so the
    longest unit does not start last.  In-process runs keep payload
    order, and results and telemetry come back in payload order either
    way.

    ``checkpoint`` requires ``keys``: one stable, unique identifier per
    payload.  Units whose key the store already holds are *resumed* —
    their recorded result is returned without executing anything — and
    each newly finished unit is appended to the store immediately, so an
    interrupted run resumes from whatever completed.  ``codec`` names
    the :data:`~repro.io.CHECKPOINT_CODECS` dump/load pair for results.

    ``strict=True`` is the fail-fast contract: the first unit
    error that survives the policy's retries/fallback is raised (with
    ``partial_results`` and ``unit_failures`` attached, and the worker
    telemetry collected so far merged).  ``strict=False`` records a
    :class:`UnitFailure` instead and leaves ``None`` in that result
    slot.
    """
    payloads = list(payloads)
    n = len(payloads)
    if policy is None:
        policy = _STRICT_POLICY if strict else RetryPolicy()
    if keys is not None:
        keys = list(keys)
        if len(keys) != n:
            raise ValueError("keys must parallel payloads one-to-one")
        if len(set(keys)) != n:
            raise ValueError("unit keys must be unique")
    elif checkpoint is not None:
        raise ValueError("a checkpoint store needs stable unit keys")
    if codec not in CHECKPOINT_CODECS:
        raise ValueError(f"unknown checkpoint codec {codec!r}")
    outcome = MapOutcome(results=[None] * n)
    done = [False] * n
    if checkpoint is not None:
        existing = checkpoint.load()
        _check_checkpoint_signatures(checkpoint, existing.keys(), keys)
        for index, key in enumerate(keys):
            if key in existing:
                outcome.results[index] = existing[key]
                done[index] = True
        outcome.resumed = sum(done)
        if outcome.resumed:
            telemetry.count("parallel.resumed_units", outcome.resumed)
            _session_log().resumed += outcome.resumed
            _notify_progress("units.resumed", count=outcome.resumed, total=n)
            events.emit("parallel.units.resumed", count=outcome.resumed)
    pending = [index for index in range(n) if not done[index]]
    if not pending:
        return outcome
    if costs is not None and jobs > 1:
        pending.sort(key=lambda index: -costs[index])
    run = _FanoutRun(
        func, payloads, policy, checkpoint, keys, codec, outcome, strict
    )
    run.completed.update(index for index in range(n) if done[index])
    if jobs <= 1 or len(pending) <= 1:
        for index in pending:
            run.run_in_process(index, with_retries=True)
    else:
        _run_pool(run, pending, jobs)
    return outcome
