"""Command-line interface: regenerate the paper's tables and figures.

Installed as ``repro-partial-faults``::

    repro-partial-faults fig3          # Fig. 3 region maps
    repro-partial-faults fig4          # Fig. 4 region maps
    repro-partial-faults table1        # Table 1 inventory (slow)
    repro-partial-faults fp-space      # Section 4 numbers
    repro-partial-faults march         # march coverage comparison
    repro-partial-faults ablation      # design-choice ablations
    repro-partial-faults bridges       # Section 2 bridge check
    repro-partial-faults retention     # leakage/temperature extension
    repro-partial-faults escapes       # Monte-Carlo test-escape analysis
    repro-partial-faults diagnosis     # fault-dictionary diagnosis
    repro-partial-faults all           # everything

``--jobs N`` fans table1, escapes and diagnosis out over N worker
processes, one open location per unit; the output is identical for any
N (see ``docs/PERFORMANCE.md``).  It defaults to one worker per usable
core, at most one per location.  The other experiments run in process;
passing ``--jobs`` or a resilience flag with them, or a resilience flag
with escapes or diagnosis, prints a one-line notice.

Resilience flags (any of them enables the recovery layer of
``docs/ROBUSTNESS.md`` for table1)::

    --checkpoint FILE    append completed opens to FILE (JSONL) as they
                         finish, so an interrupted run can resume
    --resume FILE        skip opens already recorded in FILE (implies
                         checkpointing new opens to the same FILE)
    --max-retries N      retry a crashed/timed-out unit N times before
                         falling back in-process (default 1)
    --unit-timeout SEC   cancel a unit still running after SEC seconds
                         and retry it

With a resilience flag set, a ``[resilience]`` summary (retries,
fallbacks, resumed and failed units) is printed after table1.  Without
these flags the output is byte-identical to earlier releases.

Guard-rail flags (see ``docs/ROBUSTNESS.md``)::

    --guard-policy P     reaction to a numerical solver-guard trip:
                         raise (default), quarantine (record the grid
                         point, keep going), fallback (retry the phase
                         in shorter sub-steps)
    --check-marginal     re-test region-boundary points under U jitter
                         and flag classification flips (table1)

With either flag set, a ``[guards]`` summary line follows each guarded
experiment.  Errors exit with distinct statuses: an invalid spec
(:class:`~repro.errors.SpecValidationError`) prints one line and exits
2; solver divergence or another reproduction failure exits 3.

Service mode (see ``docs/SERVICE.md``)::

    repro-partial-faults serve         # job queue + result store + HTTP API
    repro-partial-faults submit table1 --wait
                                       # run an experiment through a server

``serve`` starts the sweep service of :mod:`repro.service`: submitted
jobs are deduplicated by content address, executed (table1 through the
parallel fan-out with retry/checkpoint resilience), and their results
cached in a TTL/LRU store, so repeated submissions are served without
recomputing.
``submit`` posts one job (optionally ``--wait``-ing for and printing
the report, which is byte-identical to the direct CLI run's;
``--follow`` additionally renders the job's live progress events on
stderr while waiting).  ``serve --trace FILE`` appends the service's
span trace — including re-parented worker-process spans — to FILE as
each job settles, and ``--log-json FILE`` (on ``serve`` and the classic
invocations alike) writes the structured event log of
``docs/OBSERVABILITY.md``.
``--version`` prints the package version.  The classic single-shot
experiment invocations are completely unaffected by service mode.

Campaign mode (see ``docs/CAMPAIGNS.md``)::

    repro-partial-faults campaign run --corners "vdd=1.0,0.8;cycle=1.0,0.5"
                                       # stress-corner matrix -> report
    repro-partial-faults campaign report --json campaign.json
                                       # re-render a saved campaign

``campaign run`` expands a declarative corner matrix (supply scale,
junction temperature, cycle-time stress) into per-corner jobs — each a
distinct content address — executes them in-process or against a live
``serve`` instance (``--service-url``), and prints the cross-corner
appeared/completed/escaped/absorbed report.  ``--checkpoint FILE`` /
``--resume FILE`` give campaigns their own corner-level resume.

Observability flags (any of them switches telemetry on for the run; see
``docs/OBSERVABILITY.md`` for metric names and formats)::

    --trace FILE         write the span trace as JSONL (one span per line)
    --metrics-json FILE  dump the metrics registry as JSON, including
                         derived ratios (analyzer cache hit ratio)
    --profile            run the experiments under cProfile and print the
                         hottest functions afterwards
    --log-json FILE      append structured JSONL events (experiment
                         lifecycle, retries, quarantines) to FILE; unlike
                         the flags above it does not by itself switch the
                         ``[telemetry]`` summary on

With a telemetry flag set, a one-line ``[telemetry]`` timing summary is
printed after each experiment.  ``repro-partial-faults all`` always
records telemetry, ends with a summary table (experiment, claims held,
wall time) built from the experiment spans, and on failure prints a
one-line diagnosis naming the failing experiment(s) before exiting
non-zero.  Runs without any telemetry flag print exactly the same report
output as before these flags existed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional

from . import __version__, telemetry
from .circuit.network import GuardPolicy
from .errors import ReproError, SpecValidationError
from .experiments import (
    ablation, bridges, diagnosis, escapes, fig3, fig4, fp_space, march_pf,
    retention, table1,
)
from .experiments.reporting import format_table
from .io import CheckpointStore
from .parallel import Resilience, RetryPolicy, drain_resilience_log
from .telemetry import events as event_log
from .telemetry import profiled

#: Experiment runners; each takes the ``--jobs`` worker count (``None``
#: when not given: the fanned experiment's own default), the resilience
#: configuration, the guard options and the grid-engine switch (the
#: experiments without a parallel fan-out / solver surface simply ignore
#: them) and returns the experiment's result object (``.report`` carries
#: the rendered output).
_EXPERIMENTS: Dict[
    str, Callable[[Optional[int], object, object, bool, bool], object]
] = {
    "fig3": lambda jobs, res, gp, mg, ge: fig3.run_fig3(
        guard_policy=gp, grid_engine=ge
    ),
    "fig4": lambda jobs, res, gp, mg, ge: fig4.run_fig4(
        guard_policy=gp, grid_engine=ge
    ),
    "table1": lambda jobs, res, gp, mg, ge: table1.run_table1(
        jobs=jobs, resilience=res, guard_policy=gp, check_marginal=mg,
        grid_engine=ge,
    ),
    "fp-space": lambda jobs, res, gp, mg, ge: fp_space.run_fp_space(),
    "march": lambda jobs, res, gp, mg, ge: march_pf.run_march_pf(
        guard_policy=gp
    ),
    "ablation": lambda jobs, res, gp, mg, ge: ablation.run_ablation(),
    "bridges": lambda jobs, res, gp, mg, ge: bridges.run_bridges(),
    "retention": lambda jobs, res, gp, mg, ge: retention.run_retention(),
    "escapes": lambda jobs, res, gp, mg, ge: escapes.run_escapes(
        grid_engine=ge, jobs=jobs
    ),
    "diagnosis": lambda jobs, res, gp, mg, ge: diagnosis.run_diagnosis(
        grid_engine=ge, jobs=jobs
    ),
}

#: Experiments with a worker-process fan-out: ``--jobs`` applies to
#: these only.
_FANNED = frozenset({"diagnosis", "escapes", "table1"})

#: Fanned experiments whose units retry, time out and checkpoint: the
#: resilience flags apply to these only.
_RESILIENT = frozenset({"table1"})

#: Experiments whose runners accept ``--guard-policy`` (the rest never
#: touch the analog solver, or only through these).
_GUARDED = frozenset({"fig3", "fig4", "table1", "march"})

#: Experiments that route through the vectorized grid engine
#: (``--no-grid-engine`` applies to these): the sweeps stack the
#: ``(R_def, U)`` grid, escapes and diagnosis stack their defect
#: populations as lane-stacked march runs.  The ``march`` experiment's
#: cross-validation runs its defect points one by one on the scalar
#: solver.
_GRIDDED = frozenset({"diagnosis", "escapes", "fig3", "fig4", "table1"})


def _derived_metrics(registry: telemetry.MetricsRegistry) -> Dict[str, object]:
    """Ratios that only make sense once the raw counters are final."""
    hits = registry.counter_value("analyzer.cache_hits")
    misses = registry.counter_value("analyzer.cache_misses")
    total = hits + misses
    return {
        "analyzer.cache_hit_ratio": (hits / total) if total else None,
    }


def _probe_writable(path: str) -> None:
    """Check ``path`` can be opened for writing without leaving litter.

    Raises ``OSError`` if the path is unwritable.  A file the probe
    itself created (the path did not exist before) is removed again, so
    a run that later fails for another reason leaves no stray empty
    trace/metrics/checkpoint files behind.
    """
    existed = os.path.exists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        try:
            os.remove(path)
        except OSError:
            pass


def _ignored(flags: List[str]) -> str:
    """``"--a is ignored"`` or ``"--a and --b are ignored"``."""
    return (
        " and ".join(flags)
        + (" is" if len(flags) == 1 else " are")
        + " ignored"
    )


def _resilience_summary(name: str) -> List[str]:
    """Render and reset the session resilience log for one experiment."""
    log = drain_resilience_log()
    lines = [
        f"[resilience] {name}: {len(log.failures)} failed, "
        f"{log.retries} retried, {log.fallbacks} ran in-process, "
        f"{log.resumed} resumed from checkpoint, "
        f"{log.pool_breaks} pool breaks, {log.timeouts} timeouts"
    ]
    for failure in log.failures:
        lines.append(
            f"[resilience]   FAILED {failure.key or failure.index}: "
            f"{failure.error_type} after {failure.attempts} attempts "
            f"({failure.message})"
        )
    return lines


def _summary_table() -> str:
    """The ``all``-mode closing table, built from the experiment spans."""
    rows = []
    for span in telemetry.get_tracer().spans_named("experiment"):
        attrs = span.attrs
        name = attrs.get("experiment", span.name)
        held = f"{attrs.get('claims_held', '?')}/{attrs.get('claims', '?')}"
        wall = f"{span.duration:.2f} s" if span.duration is not None else "?"
        rows.append((name, held, wall))
    return format_table(("experiment", "claims held", "wall time"), rows)


def _serve_main(argv) -> int:
    """``repro-partial-faults serve`` — run the sweep service."""
    from .parallel import RetryPolicy
    from .service import SweepService

    parser = argparse.ArgumentParser(
        prog="repro-partial-faults serve",
        description="Serve the fault-analysis engine over HTTP: a "
        "deduplicating job queue, scheduler workers, and a "
        "content-addressed result store (see docs/SERVICE.md).",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"repro-partial-faults {__version__}",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8765,
                        help="TCP port (default 8765; 0 = ephemeral)")
    parser.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="queued-job admission bound; beyond it submissions get a "
        "structured 429 (default 64)",
    )
    parser.add_argument(
        "--workers", "--service-workers", dest="workers", type=int,
        default=1, metavar="N",
        help="concurrent scheduler jobs (each may fan out further per "
        "its spec's jobs field; default 1)",
    )
    parser.add_argument(
        "--executor", choices=("thread", "process"), default="thread",
        help="where claimed jobs execute: 'thread' runs them on the "
        "scheduler's own worker threads, 'process' isolates each job "
        "in a worker process (default thread)",
    )
    parser.add_argument(
        "--rate-limit", type=float, default=None, metavar="RATE",
        help="per-client token-bucket submission limit in jobs/second, "
        "keyed on the X-Client-Id header (default: unlimited)",
    )
    parser.add_argument(
        "--rate-burst", type=int, default=None, metavar="N",
        help="token-bucket burst size (default: max(1, int(RATE)))",
    )
    parser.add_argument(
        "--client-quota", type=int, default=None, metavar="N",
        help="max live (queued + running) jobs one client may own "
        "(default: unlimited)",
    )
    parser.add_argument(
        "--store-dir", metavar="DIR", default=None,
        help="persist results under DIR (default: in-memory only)",
    )
    parser.add_argument(
        "--store-max", type=int, default=128, metavar="N",
        help="result-store entry cap before LRU eviction (default 128)",
    )
    parser.add_argument(
        "--store-ttl", type=float, default=None, metavar="SECONDS",
        help="expire stored results after SECONDS (default: never)",
    )
    parser.add_argument(
        "--work-dir", metavar="DIR", default=None,
        help="keep per-job unit checkpoints and the job journal under "
        "DIR so a failed or interrupted table1 job resumes from its "
        "completed opens and a killed service re-enqueues its jobs on "
        "restart",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="on SIGTERM/SIGINT, wait up to SECONDS for running jobs "
        "to finish before exiting; unfinished jobs stay journaled and "
        "recover on the next start (default 30)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=1, metavar="N",
        help="per-unit retry budget inside each job's fan-out (default 1)",
    )
    parser.add_argument(
        "--unit-timeout", type=float, default=None, metavar="SECONDS",
        help="cancel a sweep unit still running after SECONDS (default: "
        "no timeout)",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="append the telemetry span trace to FILE as JSONL after "
        "each job settles (worker-process spans included, re-parented "
        "under their job's service.job span)",
    )
    parser.add_argument(
        "--log-json", metavar="FILE", default=None,
        help="append structured JSONL events (job lifecycle, store "
        "eviction, retries) to FILE",
    )
    args = parser.parse_args(argv)
    if args.port < 0:
        parser.error("--port must be >= 0")
    if args.queue_limit < 1:
        parser.error("--queue-limit must be >= 1")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.store_max < 1:
        parser.error("--store-max must be >= 1")
    if args.store_ttl is not None and args.store_ttl <= 0:
        parser.error("--store-ttl must be > 0")
    if args.max_retries < 0:
        parser.error("--max-retries must be >= 0")
    if args.rate_limit is not None and args.rate_limit <= 0:
        parser.error("--rate-limit must be > 0")
    if args.rate_burst is not None and args.rate_burst < 1:
        parser.error("--rate-burst must be >= 1")
    if args.rate_burst is not None and args.rate_limit is None:
        parser.error("--rate-burst requires --rate-limit")
    if args.client_quota is not None and args.client_quota < 1:
        parser.error("--client-quota must be >= 1")
    if args.unit_timeout is not None and args.unit_timeout <= 0:
        parser.error("--unit-timeout must be > 0")
    if args.drain_timeout < 0:
        parser.error("--drain-timeout must be >= 0")
    for path in (args.trace, args.log_json):
        if path:
            try:
                _probe_writable(path)
            except OSError as exc:
                parser.error(f"cannot write {path}: {exc}")
    if args.log_json:
        event_log.configure(args.log_json)
    try:
        service = SweepService(
            host=args.host,
            port=args.port,
            queue_limit=args.queue_limit,
            workers=args.workers,
            store_dir=args.store_dir,
            store_max=args.store_max,
            store_ttl=args.store_ttl,
            work_dir=args.work_dir,
            retry_policy=RetryPolicy(
                max_retries=args.max_retries, unit_timeout=args.unit_timeout
            ),
            trace_export=args.trace,
            executor=args.executor,
            rate_limit=args.rate_limit,
            rate_burst=args.rate_burst,
            client_quota=args.client_quota,
            drain_timeout=args.drain_timeout,
        )
    except OSError as exc:
        print(f"repro-partial-faults serve: cannot bind "
              f"{args.host}:{args.port}: {exc}", file=sys.stderr)
        return 3
    print(f"[serve] repro sweep service v{__version__} listening on "
          f"{service.url}", flush=True)
    print(f"[serve] queue limit {args.queue_limit}, {args.workers} "
          f"{args.executor} worker(s), store max {args.store_max}"
          + (f", ttl {args.store_ttl:g} s" if args.store_ttl else "")
          + (f", store dir {args.store_dir}" if args.store_dir else "")
          + (f", work dir {args.work_dir}" if args.work_dir else ""),
          flush=True)
    service.recover()
    if service.journal is not None:
        print(f"[serve] job journal at {service.journal.path}", flush=True)
    if service.recovered_jobs:
        print(f"[serve] recovered {service.recovered_jobs} job(s) from "
              f"the journal ({service.recovered_in_flight} mid-run)",
              flush=True)
    if args.rate_limit is not None:
        burst = (args.rate_burst if args.rate_burst is not None
                 else max(1, int(args.rate_limit)))
        print(f"[serve] rate limit {args.rate_limit:g} submission(s)/s "
              f"per client (burst {burst})", flush=True)
    if args.client_quota is not None:
        print(f"[serve] client quota {args.client_quota} live job(s)",
              flush=True)
    if args.trace:
        print(f"[serve] appending span trace to {args.trace}", flush=True)
    if args.log_json:
        print(f"[serve] appending event log to {args.log_json}", flush=True)
    # SIGTERM (the deploy/orchestrator stop signal) drains gracefully:
    # running jobs get --drain-timeout seconds to settle, everything
    # else stays journaled and recovers on the next start.  Only wired
    # when serve runs on the main thread (signal module requirement).
    import signal
    import threading as _threading

    def _on_sigterm(signum, frame):
        print("[serve] SIGTERM; draining and shutting down", flush=True)
        service.request_shutdown()

    if _threading.current_thread() is _threading.main_thread():
        try:
            signal.signal(signal.SIGTERM, _on_sigterm)
        except (ValueError, OSError):
            pass
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("[serve] interrupted; shutting down", flush=True)
        service.scheduler.stop()
    finally:
        event_log.close()
    return 0


def _render_event(event: Dict[str, object]) -> Optional[str]:
    """One progress event as a short human-readable phrase."""
    name = str(event.get("event") or "?")
    if name == "progress":
        kind = str(event.get("kind") or "progress")
        done, total = event.get("done"), event.get("total")
        if isinstance(done, int) and isinstance(total, int) and total:
            return f"{kind} {done}/{total} units"
        return kind
    if name == "overflow":
        return f"overflow: {event.get('dropped', 0)} event(s) dropped"
    if name == "resilience":
        return (
            f"resilience: {event.get('retries', 0)} retried, "
            f"{event.get('fallbacks', 0)} ran in-process, "
            f"{event.get('failures', 0)} failed"
        )
    if name == "error":
        return f"error: {event.get('error_type', 'Exception')}"
    return name


def _follow_job(client, job_id: str) -> None:
    """Render a job's SSE progress stream as a live stderr line.

    On a tty the line is carriage-return-overwritten in place;
    otherwise each event prints on its own line.  A stream that cannot
    be established or drops for good degrades silently — the caller's
    ``wait()`` still settles the job.
    """
    from .service import ServiceError

    tty = sys.stderr.isatty()
    width = 0
    wrote = False
    try:
        for event in client.stream_events(job_id):
            text = _render_event(event)
            if text is None:
                continue
            line = f"[follow] {job_id}: {text}"
            if tty:
                pad = " " * max(0, width - len(line))
                sys.stderr.write("\r" + line + pad)
                width = max(width, len(line))
            else:
                sys.stderr.write(line + "\n")
            sys.stderr.flush()
            wrote = True
    except ServiceError as exc:
        sys.stderr.write(f"[follow] event stream unavailable ({exc}); "
                         "falling back to polling\n")
    finally:
        if tty and wrote:
            sys.stderr.write("\n")
        sys.stderr.flush()


def _submit_main(argv) -> int:
    """``repro-partial-faults submit`` — run one job through a server."""
    from .circuit.defects import OpenLocation
    from .service import (
        SERVICE_EXPERIMENTS, JobSpec, ServiceClient, ServiceError,
    )

    parser = argparse.ArgumentParser(
        prog="repro-partial-faults submit",
        description="Submit one experiment job to a running sweep "
        "service (repro-partial-faults serve); see docs/SERVICE.md.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"repro-partial-faults {__version__}",
    )
    parser.add_argument(
        "experiment", choices=sorted(SERVICE_EXPERIMENTS),
        help="which experiment to run",
    )
    parser.add_argument(
        "--url", default=None, metavar="URL",
        help="service base URL (overrides --host/--port)",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="service host (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8765,
                        help="service port (default 8765)")
    parser.add_argument(
        "--opens", nargs="+", metavar="NAME", default=None,
        choices=sorted(OpenLocation.__members__),
        help="open locations to analyze (table1; default: all nine)",
    )
    parser.add_argument(
        "--n-r", type=int, default=None, metavar="N",
        help="resistance-axis points (sweep experiments; default: the "
        "experiment's own)",
    )
    parser.add_argument(
        "--n-u", type=int, default=None, metavar="N",
        help="voltage-axis points (sweep experiments)",
    )
    parser.add_argument(
        "--max-extra-ops", type=int, default=None, metavar="N",
        help="completion-search depth (table1)",
    )
    parser.add_argument(
        "--guard-policy",
        choices=[policy.value for policy in GuardPolicy],
        default=None,
        help="numerical-guard reaction inside the job (docs/ROBUSTNESS.md)",
    )
    parser.add_argument(
        "--check-marginal", action="store_true",
        help="re-test boundary points under U jitter (table1)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes inside a table1 job's fan-out "
        "(execution hint: does not change the result or the job's "
        "address)",
    )
    parser.add_argument(
        "--priority", type=int, default=0, metavar="P",
        help="queue priority; higher runs first (default 0)",
    )
    parser.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its report",
    )
    parser.add_argument(
        "--follow", action="store_true",
        help="with --wait (implied): render the job's live progress "
        "events on stderr while it runs, streamed over SSE",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="--wait deadline (default 600)",
    )
    parser.add_argument(
        "--poll", type=float, default=0.25, metavar="SECONDS",
        help="--wait poll interval (default 0.25)",
    )
    parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="with --wait: also write the full result payload to FILE",
    )
    parser.add_argument(
        "--client-id", metavar="ID", default=None,
        help="identify this client to the service's rate limiter and "
        "quota (sent as the X-Client-Id header; default: none, the "
        "service falls back to the remote address)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.timeout <= 0:
        parser.error("--timeout must be > 0")
    if args.poll <= 0:
        parser.error("--poll must be > 0")
    url = args.url or f"http://{args.host}:{args.port}"
    try:
        spec = JobSpec(
            experiment=args.experiment,
            opens=tuple(args.opens) if args.opens else None,
            n_r=args.n_r,
            n_u=args.n_u,
            max_extra_ops=args.max_extra_ops,
            guard_policy=args.guard_policy,
            check_marginal=args.check_marginal,
            jobs=args.jobs,
        ).validate()
    except SpecValidationError as exc:
        print(f"repro-partial-faults submit: invalid spec: {exc}",
              file=sys.stderr)
        return 2
    client = ServiceClient(url, client_id=args.client_id)
    try:
        submitted = client.submit(spec, priority=args.priority)
        job = submitted["job"]
        print(
            f"[submit] job {job['id']} {job['state']} "
            f"address={job['address']}"
            + (" (deduplicated into existing job)"
               if submitted.get("deduped") else ""),
            file=sys.stderr, flush=True,
        )
        if not (args.wait or args.follow):
            print(job["id"])
            return 0
        if args.follow:
            _follow_job(client, job["id"])
        record, payload = client.wait_or_resubmit(
            spec, job["id"], priority=args.priority,
            timeout=args.timeout, poll=args.poll,
        )
    except ServiceError as exc:
        print(f"repro-partial-faults submit: {exc}", file=sys.stderr)
        return 3
    except TimeoutError as exc:
        print(f"repro-partial-faults submit: {exc}", file=sys.stderr)
        return 3
    finally:
        client.close()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    print(payload["report"])
    print()
    print(
        f"[submit] job {record['id']} done"
        + (" (served from result store)" if record.get("cache_hit")
           else f" in {record.get('duration') or 0:.2f} s"),
        file=sys.stderr, flush=True,
    )
    return 0


def _campaign_main(argv) -> int:
    """``repro-partial-faults campaign`` — stress-corner matrices.

    ``campaign run`` expands a corner matrix into per-corner jobs
    (in-process, or against a live service with ``--service-url``) and
    prints the cross-corner report; ``campaign report`` re-renders a
    saved campaign JSON document.  See docs/CAMPAIGNS.md.
    """
    from .campaign import (
        DEFAULT_CORNERS_SPEC,
        CampaignConfig,
        CornerMatrix,
        render_report,
        run_matrix_campaign,
    )
    from .circuit.defects import OpenLocation

    parser = argparse.ArgumentParser(
        prog="repro-partial-faults campaign",
        description="Run a stress-corner x masking campaign over the "
        "Table 1 inventory (docs/CAMPAIGNS.md).",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"repro-partial-faults {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser(
        "run", help="expand the corner matrix and execute every job",
    )
    run_parser.add_argument(
        "--corners", default=DEFAULT_CORNERS_SPEC, metavar="SPEC",
        help="corner matrix as 'axis=v1,v2;...' over the axes vdd "
        "(supply scale), temperature (junction Celsius) and cycle "
        f"(cycle-time scale); default '{DEFAULT_CORNERS_SPEC}'",
    )
    run_parser.add_argument(
        "--opens", nargs="+", metavar="NAME", default=None,
        choices=sorted(OpenLocation.__members__),
        help="open locations to analyze (default: all nine)",
    )
    run_parser.add_argument(
        "--n-r", type=int, default=None, metavar="N",
        help="resistance-axis points per sweep",
    )
    run_parser.add_argument(
        "--n-u", type=int, default=None, metavar="N",
        help="voltage-axis points per sweep",
    )
    run_parser.add_argument(
        "--max-extra-ops", type=int, default=None, metavar="N",
        help="completion-search depth",
    )
    run_parser.add_argument(
        "--guard-policy",
        choices=[policy.value for policy in GuardPolicy], default=None,
        help="numerical-guard reaction inside each corner job",
    )
    run_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes inside each corner's sweep fan-out "
        "(execution hint; default 1)",
    )
    run_parser.add_argument(
        "--corner-jobs", type=int, default=1, metavar="N",
        help="corners executed concurrently (default 1)",
    )
    run_parser.add_argument(
        "--service-url", metavar="URL", default=None,
        help="submit the corner jobs to a running sweep service "
        "instead of executing in-process",
    )
    run_parser.add_argument(
        "--client-id", metavar="ID", default=None,
        help="X-Client-Id sent with every service submission",
    )
    run_parser.add_argument(
        "--priority", type=int, default=0, metavar="P",
        help="service queue priority (default 0)",
    )
    run_parser.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="per-corner service wait deadline (default 600)",
    )
    run_parser.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="append each finished corner's payload to FILE (JSONL) "
        "so a killed campaign can be resumed with --resume",
    )
    run_parser.add_argument(
        "--resume", metavar="FILE", default=None,
        help="skip corners already recorded in FILE and checkpoint "
        "new ones to it",
    )
    run_parser.add_argument(
        "--work-dir", metavar="DIR", default=None,
        help="keep per-corner sweep-unit checkpoints under DIR "
        "(in-process execution only)",
    )
    run_parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the campaign JSON document to FILE "
        "(re-renderable with 'campaign report')",
    )

    report_parser = sub.add_parser(
        "report", help="re-render a saved campaign JSON document",
    )
    report_parser.add_argument(
        "--json", metavar="FILE", required=True,
        help="campaign document written by 'campaign run --json'",
    )

    args = parser.parse_args(argv)
    if args.command == "report":
        try:
            with open(args.json, encoding="utf-8") as fh:
                artifact = json.load(fh)
        except (OSError, ValueError) as exc:
            print(
                f"repro-partial-faults campaign: cannot read "
                f"{args.json}: {exc}", file=sys.stderr,
            )
            return 2
        try:
            report = render_report(artifact)
        except SpecValidationError as exc:
            print(
                f"repro-partial-faults campaign: invalid document: "
                f"{exc}", file=sys.stderr,
            )
            return 2
        print(report.render())
        print()
        return 0 if report.all_hold else 1

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.corner_jobs < 1:
        parser.error("--corner-jobs must be >= 1")
    if args.timeout <= 0:
        parser.error("--timeout must be > 0")
    if args.priority and not args.service_url:
        parser.error("--priority requires --service-url")
    if args.work_dir and args.service_url:
        parser.error(
            "--work-dir applies to in-process execution only (the "
            "service keeps its own unit checkpoints via serve "
            "--work-dir)"
        )
    if args.resume and args.checkpoint and args.resume != args.checkpoint:
        parser.error(
            "--resume and --checkpoint name different files; --resume "
            "already appends new corners to the file it reads"
        )
    if args.resume and not os.path.exists(args.resume):
        parser.error(f"--resume {args.resume}: no such checkpoint file")
    checkpoint_path = args.resume or args.checkpoint
    for path in (checkpoint_path, args.json):
        if path:
            try:
                _probe_writable(path)
            except OSError as exc:
                parser.error(f"cannot write {path}: {exc}")
    try:
        config = CampaignConfig(
            matrix=CornerMatrix.from_spec(args.corners),
            opens=tuple(args.opens) if args.opens else None,
            n_r=args.n_r,
            n_u=args.n_u,
            max_extra_ops=args.max_extra_ops,
            guard_policy=args.guard_policy,
            jobs=args.jobs,
            corner_jobs=args.corner_jobs,
            service_url=args.service_url,
            client_id=args.client_id,
            priority=args.priority,
            timeout=args.timeout,
            checkpoint_path=checkpoint_path,
            resume=bool(args.resume),
            work_dir=args.work_dir,
        ).validate()
    except SpecValidationError as exc:
        print(
            f"repro-partial-faults campaign: invalid spec: {exc}",
            file=sys.stderr,
        )
        return 2
    print(
        f"[campaign] {config.matrix.size} corner(s), "
        + ("service " + args.service_url if args.service_url
           else "in-process") + " execution",
        file=sys.stderr, flush=True,
    )
    try:
        result = run_matrix_campaign(config)
    except SpecValidationError as exc:
        print(
            f"repro-partial-faults campaign: invalid spec: {exc}",
            file=sys.stderr,
        )
        return 2
    except ReproError as exc:
        print(f"repro-partial-faults campaign: {exc}", file=sys.stderr)
        return 3
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result.artifact, fh, indent=2, sort_keys=True)
    print(result.report.render())
    print()
    print(
        f"[campaign] {result.executed} corner job(s) executed, "
        f"{result.resumed} resumed from checkpoint",
        file=sys.stderr, flush=True,
    )
    return 0 if result.report.all_hold else 1


def main(argv=None) -> int:
    """Entry point for the ``repro-partial-faults`` console script."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # Service subcommands route before the experiment parser so that the
    # classic invocations (and their output) stay untouched.
    if argv[:1] == ["serve"]:
        return _serve_main(argv[1:])
    if argv[:1] == ["submit"]:
        return _submit_main(argv[1:])
    if argv[:1] == ["campaign"]:
        return _campaign_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-partial-faults",
        description="Reproduce the partial-fault paper's tables and figures.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"repro-partial-faults {__version__}",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate (also: the 'serve' and "
        "'submit' service subcommands of docs/SERVICE.md and the "
        "'campaign' stress-corner subcommand of docs/CAMPAIGNS.md)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write the telemetry span trace to FILE as JSONL",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="FILE",
        default=None,
        help="write the telemetry metrics snapshot to FILE as JSON",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the hottest functions",
    )
    parser.add_argument(
        "--log-json",
        metavar="FILE",
        default=None,
        help="append structured JSONL events (experiment lifecycle, "
        "unit retries, quarantines) to FILE; see docs/OBSERVABILITY.md",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for table1, escapes and diagnosis, one "
        "open location per unit; the output is identical for any N "
        "(default: one per usable core, at most one per location); the "
        "other experiments run in process and print a notice",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="FILE",
        default=None,
        help="append each completed table1 open to FILE (JSONL) as it "
        "finishes, so an interrupted run can be resumed with --resume",
    )
    parser.add_argument(
        "--resume",
        metavar="FILE",
        default=None,
        help="skip table1 opens already recorded in FILE and "
        "checkpoint new ones to it; the final output is identical to an "
        "uninterrupted run",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retry a crashed or timed-out table1 unit up to N times "
        "before running it in-process (default 1 when any resilience "
        "flag is set)",
    )
    parser.add_argument(
        "--unit-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="cancel a table1 unit still running after SECONDS and "
        "retry it (default: no timeout)",
    )
    parser.add_argument(
        "--guard-policy",
        choices=[policy.value for policy in GuardPolicy],
        default=None,
        help="what a numerical solver-guard trip does: 'raise' stops "
        "the run (the default behaviour), 'quarantine' records the "
        "diverging grid point and keeps going, 'fallback' retries the "
        "phase in shorter sub-steps (see docs/ROBUSTNESS.md)",
    )
    parser.add_argument(
        "--check-marginal",
        action="store_true",
        help="re-test region-boundary grid points under a small "
        "floating-voltage jitter and flag classification flips "
        "(table1 only; other experiments print a notice)",
    )
    parser.add_argument(
        "--no-grid-engine",
        action="store_true",
        help="disable the vectorized grid solver ((R_def, U) sweeps and "
        "lane-stacked march populations) and run the scalar oracle "
        "instead (ablation/debug; the output is identical, see "
        "docs/PERFORMANCE.md)",
    )
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.max_retries is not None and args.max_retries < 0:
        parser.error("--max-retries must be >= 0")
    if args.unit_timeout is not None and args.unit_timeout <= 0:
        parser.error("--unit-timeout must be > 0")
    if args.resume and args.checkpoint and args.resume != args.checkpoint:
        parser.error(
            "--resume and --checkpoint name different files; --resume "
            "already appends new units to the file it reads"
        )
    if args.resume and not os.path.exists(args.resume):
        parser.error(f"--resume {args.resume}: no such checkpoint file")
    checkpoint_path = args.resume or args.checkpoint
    resilience_flags = (
        checkpoint_path is not None
        or args.max_retries is not None
        or args.unit_timeout is not None
    )
    # The flags only a fanned (resilient) experiment reads, as the user
    # gave them.
    jobs_flags = [f"--jobs {args.jobs}"] if (args.jobs or 1) > 1 else []
    resilience_given = [
        flag for flag, given in (
            ("--checkpoint", args.checkpoint is not None),
            ("--resume", args.resume is not None),
            ("--max-retries", args.max_retries is not None),
            ("--unit-timeout", args.unit_timeout is not None),
        ) if given
    ]
    # Fail on unwritable output paths now, not after minutes of
    # simulation — without leaving behind empty files the run never wrote.
    for path in (args.trace, args.metrics_json, args.log_json,
                 checkpoint_path):
        if path:
            try:
                _probe_writable(path)
            except OSError as exc:
                parser.error(f"cannot write {path}: {exc}")
    guard_policy = (
        GuardPolicy(args.guard_policy) if args.guard_policy else None
    )
    run_all = args.experiment == "all"
    names = sorted(_EXPERIMENTS) if run_all else [args.experiment]
    telemetry_flags = bool(args.trace or args.metrics_json or args.profile)
    use_telemetry = telemetry_flags or run_all
    if use_telemetry:
        telemetry.reset()
        telemetry.enable()
    if args.log_json:
        event_log.configure(args.log_json)
        event_log.emit(
            "cli.run.started", experiments=names, jobs=args.jobs,
        )
    resilience = None
    if resilience_flags:
        policy = RetryPolicy(
            max_retries=1 if args.max_retries is None else args.max_retries,
            unit_timeout=args.unit_timeout,
        )
        store = (
            CheckpointStore(checkpoint_path) if checkpoint_path else None
        )
        resilience = Resilience(policy=policy, checkpoint=store)
        drain_resilience_log()  # start each run with a clean slate
    failed: List[str] = []

    def run_experiments() -> None:
        for name in names:
            if name not in _FANNED and jobs_flags + resilience_given:
                print(
                    f"[note] {name} has no parallel fan-out; "
                    + _ignored(jobs_flags + resilience_given)
                    + " and it runs serially (fanned experiments: "
                    + ", ".join(sorted(_FANNED)) + ")"
                )
                print()
            elif name not in _RESILIENT and resilience_given:
                print(
                    f"[note] {name} has no unit recovery; "
                    + _ignored(resilience_given)
                    + " (resilient experiments: "
                    + ", ".join(sorted(_RESILIENT)) + ")"
                )
                print()
            if guard_policy is not None and name not in _GUARDED:
                print(
                    f"[note] {name} does not use the analog solver; "
                    f"--guard-policy {args.guard_policy} is ignored "
                    "(guarded experiments: "
                    + ", ".join(sorted(_GUARDED)) + ")"
                )
                print()
            if args.check_marginal and name != "table1":
                print(
                    f"[note] {name} has no marginal-point check; "
                    "--check-marginal applies to table1 only"
                )
                print()
            if args.no_grid_engine and name not in _GRIDDED:
                print(
                    f"[note] {name} does not use the grid engine; "
                    "--no-grid-engine is ignored (gridded experiments: "
                    + ", ".join(sorted(_GRIDDED)) + ")"
                )
                print()
            start = time.perf_counter()
            result = _EXPERIMENTS[name](
                args.jobs, resilience if name in _RESILIENT else None,
                guard_policy, args.check_marginal,
                not args.no_grid_engine,
            )
            elapsed = time.perf_counter() - start
            report = getattr(result, "report", result)
            print(report.render())
            print()
            if resilience is not None and name in _RESILIENT:
                for line in _resilience_summary(name):
                    print(line)
                print()
            if (
                (guard_policy is not None or args.check_marginal)
                and name in _GUARDED
            ):
                quarantined = getattr(result, "quarantined", ()) or ()
                print(
                    f"[guards] {name}: policy="
                    f"{(guard_policy or GuardPolicy.RAISE).value}, "
                    f"{len(quarantined)} grid point(s) quarantined"
                )
                print()
            if telemetry_flags:
                print(
                    f"[telemetry] {name}: {elapsed:.3f} s, "
                    f"{report.holding}/{len(report.claims)} claims held"
                )
                print()
            if not report.all_hold:
                failed.append(name)

    try:
        if args.profile:
            with profiled() as prof:
                run_experiments()
            print(prof.report())
            print()
        else:
            run_experiments()
    except SpecValidationError as exc:
        # A malformed spec is a usage problem: one actionable line, no
        # traceback, distinct exit status.
        print(f"repro-partial-faults: invalid spec: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        # Solver divergence (under GuardPolicy.RAISE), checkpoint
        # mismatches and other runtime failures of the reproduction.
        print(f"repro-partial-faults: {exc}", file=sys.stderr)
        return 3
    finally:
        if resilience is not None and resilience.checkpoint is not None:
            resilience.checkpoint.close()
        if args.log_json:
            event_log.emit("cli.run.finished", failed=sorted(failed))
            event_log.close()
        if use_telemetry:
            telemetry.disable()
    if args.trace:
        n_spans = telemetry.get_tracer().export_jsonl(args.trace)
        print(f"[telemetry] wrote {n_spans} spans to {args.trace}")
    if args.metrics_json:
        registry = telemetry.get_metrics()
        payload = registry.snapshot()
        payload["derived"] = _derived_metrics(registry)
        with open(args.metrics_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"[telemetry] wrote metrics to {args.metrics_json}")
    if args.log_json:
        print(f"[events] wrote structured log to {args.log_json}")
    if run_all:
        print(_summary_table())
        if failed:
            print(
                "FAILED: claims do not hold in: " + ", ".join(sorted(failed))
            )
    return 0 if not failed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
