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

The fan-out is strict: a unit that raises, or whose worker dies
(``BrokenProcessPool``), fails the run, and the first such error
propagates to the caller.  Recovery lives one level up, at the job: the
sweep service journals every admitted job and re-runs a crashed one
whole after a restart (``docs/ROBUSTNESS.md``).  A whole default
Table 1 re-run costs about a second more than resuming its finished
units would, which is why no unit-level retry or checkpoint exists.

Telemetry: each worker records into its own process-global registry
(reset before every unit) and ships the snapshot back with the result;
the parent folds the snapshots into its registry in payload order via
:meth:`~repro.telemetry.metrics.MetricsRegistry.merge_snapshot`.
Counters and histograms therefore aggregate exactly.  Worker *spans*
ride the same channel: each unit ships its tracer state
(:meth:`~repro.telemetry.tracer.Tracer.export_state`) back with the
snapshot, and the parent re-parents the unit's span tree under the
trace context captured when the fan-out started
(:meth:`~repro.telemetry.tracer.Tracer.adopt_state`) — a ``--jobs N``
JSONL export is one connected tree.  When a unit fails, the units that
finished before it are merged first.

Live progress: callers (the sweep scheduler's SSE feed) may register a
per-thread listener via :func:`add_progress_listener`; the fan-out then
reports each unit completion as a ``unit.done`` event carrying
``index``, ``done`` and ``total``.  With no listener registered the hook
costs one thread-local read.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import telemetry
from .circuit import network as circuit_network
from .circuit.defects import OpenLocation
from .circuit.network import GuardPolicy
from .circuit.technology import Technology
from .core.analysis import ColumnFaultAnalyzer, SweepGrid
from .errors import SpecValidationError

__all__ = [
    "AnalyzerSpec",
    "default_jobs",
    "fork_safe",
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


def _merge_units(
    states: Dict[int, Tuple[dict, dict]], parent: Any
) -> None:
    """Fold worker snapshots and span trees home, in payload order."""
    registry = telemetry.get_metrics()
    tracer = telemetry.get_tracer()
    for index in sorted(states):
        snapshot, trace_state = states[index]
        registry.merge_snapshot(snapshot)
        tracer.adopt_state(trace_state, parent)


def parallel_map_ex(
    func: Callable[[Any], Any],
    payloads: Sequence[Any],
    jobs: int = 1,
    costs: Optional[Sequence[float]] = None,
) -> List[Any]:
    """Map ``func`` over ``payloads``; return the results in payload order.

    ``func`` must be a module-level callable and every payload and
    result must pickle.  With ``jobs <= 1`` (or a single payload) units
    run in process, in payload order.  Otherwise up to ``jobs`` forked
    workers run them (where the platform can fork), and ``costs``, an
    estimate of each unit's run time, puts the costliest unit first so
    the longest one does not start last.

    The first unit error is raised: the unit's own exception, or
    ``BrokenProcessPool`` when a worker died.  The telemetry of the
    units that finished before it is merged first; units not yet
    started are cancelled.
    """
    payloads = list(payloads)
    total = len(payloads)
    results: List[Any] = [None] * total
    done = 0

    def finish(index: int, result: Any) -> None:
        nonlocal done
        results[index] = result
        done += 1
        _notify_progress("unit.done", index=index, done=done, total=total)

    if jobs <= 1 or total <= 1:
        for index, payload in enumerate(payloads):
            finish(index, func(payload))
        return results
    order = list(range(total))
    if costs is not None:
        order.sort(key=lambda index: -costs[index])
    telemetry_on = telemetry.enabled()
    # Captured in the submitting thread: worker spans are re-parented
    # under whatever span was open when the fan-out began (the
    # experiment's root span, or the scheduler's service.job).
    parent = telemetry.current_context()
    states: Dict[int, Tuple[dict, dict]] = {}
    pool = ProcessPoolExecutor(
        max_workers=min(jobs, total), mp_context=_fork_context()
    )
    try:
        futures = {
            pool.submit(_run_unit, func, payloads[index], telemetry_on): index
            for index in order
        }
        for future in as_completed(futures):
            index = futures[future]
            result, snapshot, trace_state = future.result()
            if telemetry_on:
                states[index] = (snapshot, trace_state)
            finish(index, result)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        _merge_units(states, parent)
    return results
