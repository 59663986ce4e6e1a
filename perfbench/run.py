#!/usr/bin/env python3
"""Benchmark of the partial-fault reproduction, end to end and per layer.

    python3 perfbench/run.py [--workload W|all] [--seed N] [--seconds S]
                             [--trace [0|1]] [--out FILE]

Four workloads (see ``perfbench/README.md`` for why each exists):

``sweep``         cold Table 1 + Fig. 3 + Fig. 4 at seeded temperature
                  corners, one fresh interpreter per corner;
``screen``        escapes (120 defects), diagnosis and March PF at their
                  default sizes, one fresh interpreter per sample, with
                  seeded defect populations;
``served-hit``    store hits against ``repro-partial-faults serve``
                  restarted over a populated store;
``served-mixed``  cold Table 1 jobs back to back beside store hits paced
                  at 10/s.

Every run prints its end-to-end metrics (``--trace 0``) or per-layer
metrics (``--trace 1``) as a table, appends one result record to
``--out`` and prints, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Outputs are
checked against golden digests (``perfbench/golden.json``) and against
their own first-served bytes; any mismatch fails the run (exit 1).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

import stats
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BENCHMARK = ROOT / "BENCHMARK.json"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 2002
#: One workload's invocation must end within 180 s; past this the run
#: fails instead of measuring fewer inputs.
DEADLINE_S = 170.0
CHILD_TIMEOUT_S = 120.0
JOB_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0

#: ``--seconds`` fixes the work of a run: every seed gets the same number
#: of inputs, whatever the speed of the host or of the program.  The
#: rates make a run measure for about ``--seconds`` on a quiet 2-core
#: host, so that all four workloads stay under 2.5 minutes even when the
#: host runs 1.4 times slower.
SWEEP_CORNERS_PER_S = 0.4
SCREEN_SAMPLES_PER_S = 0.05
HITS_PER_S = 50
COLD_JOBS_PER_S = 0.4

#: Set-ups timed per sweep/screen run: every sample's own, topped up
#: with import-only interpreter starts, so ``setup_s`` is a median.
MIN_SETUPS = 6
#: Server starts over the populated store; the last one serves.
SERVER_STARTS = 5
PACED_HITS_PER_S = 10.0
POLL_S = 0.02

NOMINAL_C = 25.0
CORNER_C = (25.0, 85.0)
COARSE = {"n_r": 8, "n_u": 6}
#: The screening experiments' own default seeds.
NOMINAL_SCREEN = {"escapes_seed": 2002, "diagnosis_seed": 7}
OPEN_NAMES = (
    "CELL", "REFERENCE_CELL", "PRECHARGE", "BL_PRECHARGE_CELLS",
    "BL_CELLS_REFERENCE", "BL_REFERENCE_SENSEAMP", "SENSE_AMPLIFIER",
    "BL_SENSEAMP_IO", "WORD_LINE",
)
#: Claims that hold for every seeded screening input, beside the
#: golden digests of nominal inputs (March PF has no seeded input).
INVARIANT_CLAIMS = {
    "escapes": ("March PF+ screens the population",),
    "diagnosis": ("a healthy device diagnoses clean",),
}
EXPERIMENTS = ("table1", "fig3", "fig4", "escapes", "diagnosis", "march_pf")

#: Per-workload metrics named by the benchmark's issue, with their units.
#: Each is recorded beside the end-to-end metrics of ``BENCHMARK.json``
#: and ``compare.py`` gives it a verdict with bound ``NAMED_BOUND``, the
#: bound of ``latency_ms`` (see the README for why it is not 0.10);
#: ``error_rate`` regresses on any increase.
NAMED_METRICS = {
    "sweep": {"sweep_s": "s"},
    "screen": {"escapes_s": "s", "diagnosis_s": "s", "march_pf_s": "s"},
    "served-hit": {"hit_p50_ms": "ms", "hit_p99_ms": "ms"},
    "served-mixed": {"cold_p50_s": "s", "busy_hit_p50_ms": "ms"},
}
NAMED_BOUND = 0.25


class BenchError(Exception):
    """A failure that ends a workload early."""


# -- seeded inputs --------------------------------------------------------------


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _corners(rng: random.Random, n: int, taken=()) -> list:
    """``n`` distinct seeded temperatures (°C), none nominal or in ``taken``."""
    corners: list = []
    while len(corners) < n:
        corner = round(rng.uniform(*CORNER_C), 2)
        if corner != NOMINAL_C and corner not in corners and corner not in taken:
            corners.append(corner)
    return corners


def sweep_plan(seed: int, n: int) -> list:
    """Temperature of each sweep sample; sample 0 is nominal."""
    return [NOMINAL_C] + _corners(_rng("sweep", seed), n - 1)


def screen_plan(seed: int, n: int) -> list:
    """Experiment seeds of each screen sample.

    A screen sample takes about 20 s, so a run of the default length
    holds one.  Sample 0 is therefore nominal at the default seed only,
    so that other seeds screen other defect populations.
    """
    rng = _rng("screen", seed)
    plan = [{"escapes_seed": rng.randrange(1, 2**31),
             "diagnosis_seed": rng.randrange(1, 2**31)} for _ in range(n)]
    if seed == DEFAULT_SEED:
        plan[0] = dict(NOMINAL_SCREEN)
    return plan


def _job(experiment: str, temperature=None, opens=None) -> dict:
    spec = {"experiment": experiment, **COARSE}
    if temperature is not None:
        spec["technology"] = {"temperature": temperature}
    if opens is not None:
        spec["opens"] = list(opens)
    return spec


def served_plan(workload: str, seed: int, n_hits: int, n_cold: int = 0) -> dict:
    """Warm set, hit order and cold corners of a served workload.

    The warm set has 12 addresses: nominal coarse Table 1, Fig. 3 and
    Fig. 4, then three seeded corners with a one-open Table 1, Fig. 3
    and Fig. 4 each.  Cold jobs are full coarse Table 1 runs at corners
    the warm set does not use, so each is a new address.
    """
    rng = _rng(workload, seed)
    warm = [_job("table1"), _job("fig3"), _job("fig4")]
    warm_corners = _corners(rng, 3)
    for corner in warm_corners:
        warm += [
            _job("table1", corner, opens=[rng.choice(OPEN_NAMES)]),
            _job("fig3", corner),
            _job("fig4", corner),
        ]
    hits = [rng.randrange(len(warm)) for _ in range(n_hits)]
    cold = [_job("table1", c) for c in _corners(rng, n_cold, warm_corners)]
    return {"warm": warm, "hits": hits, "cold": cold}


# -- small helpers ----------------------------------------------------------------


def _digest(data) -> str:
    if not isinstance(data, str):
        data = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def _count(n: float) -> int:
    return max(1, int(round(n)))


class Tally:
    """Attempted operations and the failures among them."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.attempted = 0
        self.failures: list = []
        self._lock = threading.Lock()

    def op(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failures.append(what)
        return ok

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time: the run's work did not fit "
                             f"{DEADLINE_S:g} s")
        return left


# -- sweep and screen: one fresh interpreter per sample --------------------------


def _child(spec: dict, tally: Tally) -> tuple:
    """Run ``sample.py`` once; return ``(spawn time, wall seconds, output)``."""
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sample.py"), json.dumps(spec)],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=min(CHILD_TIMEOUT_S, tally.remaining()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"sample {spec} timed out") from None
    wall = time.monotonic() - spawn
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise BenchError(f"sample {spec} exited {proc.returncode}: {tail}")
    return spawn, wall, json.loads(proc.stdout.strip().splitlines()[-1])


def _sampled(kind: str, inputs: list, nominal: dict, golden: dict,
             tally: Tally, trace_file) -> dict:
    """Run the samples of ``sweep`` or ``screen``; collect their numbers."""
    _child({"kind": f"probe-{kind}"}, tally)  # fills the bytecode cache
    setups = []
    for _ in range(MIN_SETUPS - len(inputs)):
        spawn, _, out = _child({"kind": f"probe-{kind}"}, tally)
        setups.append(out["ready"] - spawn)
    latency, rss, digests, layers = [], [], [], []
    per_call: dict = {}
    for index, sample_inputs in enumerate(inputs):
        spec = {"kind": kind, "sample": index, "trace": trace_file,
                **sample_inputs}
        spawn, _, out = _child(spec, tally)
        setups.append(out["ready"] - spawn)
        rss.append(out["rss_kb"])
        calls = out["calls"]
        latency.append(1000 * sum(c["seconds"] for c in calls.values()))
        for name, call in calls.items():
            per_call.setdefault(name, []).append(call["seconds"])
            _check_call(kind, name, call, sample_inputs == nominal
                        or name == "march_pf", golden, tally)
        digests.append({
            "sample": index, "inputs": sample_inputs,
            "outputs": {n: c["digest"] for n, c in calls.items()},
        })
        if "layers" in out:
            layers.append(out["layers"])
    if kind == "sweep":
        named = {"sweep_s": (median(latency) / 1000, "s", len(latency))}
    else:
        named = {f"{name}_s": (median(values), "s", len(values))
                 for name, values in per_call.items()}
    total = sum(latency) / 1000
    result = {
        "setup": setups, "latency_ms": latency, "ops": len(latency),
        "peak_rss_mb": max(rss) / 1024.0, "named": named,
        "digests": digests,
        "shares": {name: sum(v) / total for name, v in per_call.items()},
        "samples": {"setup_s": setups, "latency_ms": latency,
                    **{f"{n}_s": v for n, v in per_call.items()}},
    }
    if layers:
        merged = tracing.merge(layers)
        own = sum(t[2] for t in merged["totals"].values())
        extra = {"trace.coverage_ratio": own / total}
        result["layers"] = layer_metrics(merged, len(latency), extra)
    return result


def _check_call(kind, name, call, nominal, golden, tally) -> None:
    """Golden digest for nominal inputs; the claims for every input."""
    where = f"{kind} {name}"
    if nominal:
        want = golden.get(kind, {}).get(name)
        tally.op(call["digest"] == want,
                 f"{where}: report digest {call['digest'][:12]} != golden "
                 f"{str(want)[:12]}")
    if kind == "sweep":
        failing = [c for c, holds in call["claims"].items() if not holds]
        tally.op(not failing, f"{where}: claims fail: {failing}")
    else:
        for claim in INVARIANT_CLAIMS.get(name, ()):
            tally.op(call["claims"].get(claim) is True,
                     f"{where}: claim {claim!r} does not hold")


def run_sweep(seed, seconds, golden, tally, trace_file):
    temps = sweep_plan(seed, _count(seconds * SWEEP_CORNERS_PER_S))
    return _sampled("sweep", [{"temperature": t} for t in temps],
                    {"temperature": NOMINAL_C}, golden, tally, trace_file)


def run_screen(seed, seconds, golden, tally, trace_file):
    plan = screen_plan(seed, _count(seconds * SCREEN_SAMPLES_PER_S))
    return _sampled("screen", plan, NOMINAL_SCREEN, golden, tally, trace_file)


# -- served workloads -------------------------------------------------------------


class Server:
    """One ``repro-partial-faults serve`` process over a work directory."""

    def __init__(self, base: Path, label: str, trace_file) -> None:
        self.base = base
        self.label = label
        self.trace_file = trace_file
        self.summary_path = base / f"{label}.summary.json"
        self.proc = None
        self.client = None

    def start(self, tally: Tally) -> float:
        """Spawn the server; return seconds until ``/healthz`` answers 200."""
        from repro.service.client import (
            ServiceClient, ServiceResponseError, ServiceUnavailableError,
        )

        args = ["--port", "0", "--store-dir", str(self.base / "store"),
                "--work-dir", str(self.base / "work")]
        if self.trace_file:
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   str(self.summary_path), self.trace_file, self.label, *args]
        else:
            cmd = [sys.executable, "-m", "repro.cli", "serve", *args]
        log = open(self.base / f"{self.label}.log", "w")
        spawn = time.monotonic()
        try:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                stderr=log, text=True,
            )
        finally:
            log.close()
        url = None
        for line in self.proc.stdout:
            if "listening on " in line:
                url = line.split("listening on ", 1)[1].strip()
                break
        if url is None:
            raise BenchError(f"server {self.label} exited before listening")
        self.client = ServiceClient(url, timeout=30.0)
        while True:
            try:
                self.client.healthz()
                return time.monotonic() - spawn
            except (ServiceUnavailableError, ServiceResponseError):
                if self.proc.poll() is not None:
                    raise BenchError(f"server {self.label} died at start")
                tally.remaining()
                time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()

    def summary(self):
        try:
            with open(self.summary_path, encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None


def _request(client, spec: dict, tally: Tally):
    """One ``submit_and_wait``; returns ``(seconds, record, payload, wall)``."""
    start = time.perf_counter()
    record, payload = client.submit_and_wait(
        spec, poll=POLL_S, timeout=min(JOB_TIMEOUT_S, tally.remaining()),
    )
    return time.perf_counter() - start, record, payload, time.time()


def _fill(server: Server, warm: list, golden: dict, tally: Tally) -> list:
    """Serve every warm-set address once; return its first-served digests."""
    first = []
    for spec in warm:
        _, record, payload, _ = _request(server.client, spec, tally)
        first.append(_digest(payload))
        if "technology" not in spec and "opens" not in spec:
            want = golden.get("served", {}).get(spec["experiment"])
            tally.op(first[-1] == want,
                     f"served nominal {spec['experiment']}: payload digest "
                     f"{first[-1][:12]} != golden {str(want)[:12]}")
        else:
            tally.op(record.get("state") == "done",
                     f"warm-set job {spec} ended {record.get('state')}")
    return first


def _hit(client, plan, index, first, tally):
    """One warm-set hit, checked against its first-served bytes."""
    try:
        seconds, record, payload, received = _request(
            client, plan["warm"][index], tally)
    except BenchError:
        raise
    except Exception as exc:  # a failed request is a failed op, not a crash
        tally.op(False, f"hit on warm[{index}]: {type(exc).__name__}: {exc}")
        return None
    tally.op(_digest(payload) == first[index],
             f"hit on warm[{index}] served different bytes")
    return seconds, record, received


def _job_split(record: dict, received: float) -> dict:
    return {
        "queue_wait": record["started_at"] - record["submitted_at"],
        "run": record["finished_at"] - record["started_at"],
        "notify": received - record["finished_at"],
    }


def _served(workload, seed, seconds, golden, tally, trace_file):
    """Shared set-up of both served workloads; runs the workload body."""
    n_hits = _count(seconds * HITS_PER_S) if workload == "served-hit" else 0
    n_cold = (_count(seconds * COLD_JOBS_PER_S)
              if workload == "served-mixed" else 0)
    plan = served_plan(workload, seed, max(n_hits, 10_000), n_cold)
    base = OUT / "tmp" / f"{workload}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    recorder = uninstall = None
    servers = []
    try:
        # Untimed: compute the warm set once, then restart over the store.
        filler = Server(base, "fill", None)
        servers.append(filler)
        filler.start(tally)
        first = _fill(filler, plan["warm"], golden, tally)
        filler.stop()
        setups = []
        for k in range(SERVER_STARTS):
            server = Server(base, f"start-{k}", trace_file)
            servers.append(server)
            setups.append(server.start(tally))
            tally.op(True, "")
            if k < SERVER_STARTS - 1:
                server.stop()
        # Untimed: after a restart the first submission of an address
        # queues a job that the scheduler serves from the store; later
        # ones dedupe onto it.  Binding every address first keeps that
        # queue trip (behind a cold job, in served-mixed) out of the hits.
        for index in range(len(plan["warm"])):
            _hit(server.client, plan, index, first, tally)
        if trace_file:
            recorder = tracing.Recorder(sample="client")
            uninstall = tracing.install(recorder, tracing.CLIENT_LAYERS)
        body = _hit_body if workload == "served-hit" else _mixed_body
        result = body(server, plan, n_hits, first, tally)
        scraped = server.client.metrics()["counters"]
        rss = server.peak_rss_mb()
    finally:
        if uninstall is not None:
            uninstall()
        for each in servers:
            each.stop()
        summaries = [s.summary() or {} for s in servers if s.label != "fill"]
        shutil.rmtree(base, ignore_errors=True)
    result.update(setup=setups, peak_rss_mb=rss)
    result["samples"]["setup_s"] = setups
    result["digests"] = [
        {"sample": f"warm[{i}]", "inputs": spec, "outputs": {"payload": d}}
        for i, (spec, d) in enumerate(zip(plan["warm"], first))
    ] + result.get("digests", [])
    extra = result.pop("extra")
    if recorder is None:
        return result
    recorder.write_spans(trace_file, process="client")
    merged = tracing.merge(summaries)
    for name in ("submit", "status", "result"):
        durations = [e - s for _, _, n, s, e, _ in recorder.spans
                     if n == f"service.client.{name}"]
        extra[f"service.client.{name}_ms"] = (
            1000 * median(durations) if durations else 0.0)
    client_s = sum(t[1] for t in recorder.summary()["totals"].values())
    extra["trace.coverage_ratio"] = client_s / result.pop("op_seconds")
    deduped = scraped.get("service.jobs.deduped", 0)
    submitted = scraped.get("service.jobs.submitted", 0)
    extra["service.dedup_ratio"] = (
        deduped / (deduped + submitted) if deduped + submitted else 0.0)
    result["layers"] = layer_metrics(merged, result["ops"], extra)
    return result


def _splits_extra(splits: list) -> dict:
    extra = {}
    for key in ("queue_wait", "run", "notify"):
        values = [s[key] for s in splits]
        extra[f"service.{key}_s"] = median(values) if values else 0.0
    return extra


def _tail(name: str, ms: list) -> dict:
    """``name_p<q>_ms`` for the highest tail with ten samples beyond it."""
    q = stats.tail_percentile(len(ms))
    if q is None:
        return {}
    return {f"{name}_p{q:g}_ms": (stats.percentile(ms, q), "ms", len(ms))}


def _hit_body(server, plan, n_hits, first, tally) -> dict:
    latencies, splits = [], []
    for index in plan["hits"][:n_hits]:
        called = time.time()
        done = _hit(server.client, plan, index, first, tally)
        if done is None:
            continue
        seconds, record, received = done
        latencies.append(seconds)
        if record["submitted_at"] >= called:  # a new job, not a dedupe
            splits.append(_job_split(record, received))
    if not latencies:
        raise BenchError("every hit failed")
    ms = [1000 * s for s in latencies]
    named = {"hit_p50_ms": (median(ms), "ms", len(ms)), **_tail("hit", ms)}
    return {
        "latency_ms": ms, "ops": len(ms),
        "named": named, "samples": {"latency_ms": ms},
        "op_seconds": sum(latencies), "extra": _splits_extra(splits),
    }


def _mixed_body(server, plan, n_hits, first, tally) -> dict:
    """Cold jobs back to back (thread A) beside paced hits (thread B)."""
    from repro.service.client import ServiceClient

    cold, digests, splits = [], [], []
    paced, late = [], []
    finished = threading.Event()

    def cold_loop():
        client = ServiceClient(server.client.url, timeout=30.0)
        try:
            for index, spec in enumerate(plan["cold"]):
                try:
                    seconds, record, payload, received = _request(
                        client, spec, tally)
                except BenchError:
                    raise
                except Exception as exc:  # counted, the loop goes on
                    tally.op(False, f"cold job {index}: {exc}")
                    continue
                tally.op(payload.get("all_hold") is True,
                         f"cold job {index} at {spec['technology']}: "
                         "claims fail")
                cold.append(seconds)
                splits.append(_job_split(record, received))
                digests.append({"sample": f"cold[{index}]", "inputs": spec,
                                "outputs": {"payload": _digest(payload)}})
        finally:
            finished.set()

    def hit_loop():
        client = ServiceClient(server.client.url, timeout=30.0)
        start = time.perf_counter()
        for k, index in enumerate(plan["hits"]):
            due = start + k / PACED_HITS_PER_S
            if finished.wait(max(0.0, due - time.perf_counter())):
                return
            late.append(time.perf_counter() - due)
            if _hit(client, plan, index, first, tally) is not None:
                paced.append(time.perf_counter() - due)

    errors = []

    def guarded(loop):
        def run():
            try:
                loop()
            except Exception as exc:  # surfaced after join
                errors.append(exc)
                finished.set()
        return run

    threads = [threading.Thread(target=guarded(cold_loop)),
               threading.Thread(target=guarded(hit_loop))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise BenchError(f"served-mixed: {errors[0]}")
    if not cold or not paced:
        raise BenchError("served-mixed: no cold job or no paced hit finished")
    ms = [1000 * s for s in paced]
    named = {
        "cold_p50_s": (median(cold), "s", len(cold)),
        "busy_hit_p50_ms": (median(ms), "ms", len(ms)),
        **_tail("busy_hit", ms),
    }
    late_ms = [1000 * s for s in late]
    extra = _splits_extra(splits)
    extra["generator.late_p50_ms"] = median(late_ms)
    extra["generator.late_max_ms"] = max(late_ms)
    return {
        "latency_ms": ms, "ops": len(cold),
        "named": named, "digests": digests,
        "samples": {"latency_ms": ms, "cold_s": cold},
        "op_seconds": sum(cold) + sum(paced), "extra": extra,
    }


def run_served_hit(seed, seconds, golden, tally, trace_file):
    return _served("served-hit", seed, seconds, golden, tally, trace_file)


def run_served_mixed(seed, seconds, golden, tally, trace_file):
    return _served("served-mixed", seed, seconds, golden, tally, trace_file)


WORKLOADS = {
    "sweep": run_sweep,
    "screen": run_screen,
    "served-hit": run_served_hit,
    "served-mixed": run_served_mixed,
}


# -- per-layer metrics ------------------------------------------------------------


def layer_metrics(merged: dict, ops: int, extra: dict) -> dict:
    """Per-layer metrics from merged aggregates, per workload operation.

    Counts and seconds are divided by ``ops`` (corners, samples, hits or
    cold jobs); service timings are means per call in ms; every ratio
    names its base in ``perfbench/README.md``.  A layer the workload
    never calls reads 0.
    """
    totals, counts = merged["totals"], merged["counts"]
    ops = max(ops, 1)

    def get(name):
        return totals.get(name, (0, 0.0, 0.0))

    def ratio(part, whole):
        return part / whole if whole else 0.0

    values = {}
    for layer in ("circuit.grid", "circuit.scalar", "core.survey",
                  "core.region_map", "core.completion", "march.run",
                  "parallel.map"):
        calls, _, own = get(layer)
        values[f"{layer}.calls"] = calls / ops
        values[f"{layer}.self_s"] = own / ops
    for cache in ("propagator", "ensemble"):
        hits = counts.get(f"circuit.{cache}.hits", 0)
        misses = counts.get(f"circuit.{cache}.misses", 0)
        values[f"circuit.{cache}.misses"] = misses / ops
        values[f"circuit.{cache}.hit_ratio"] = ratio(hits, hits + misses)
    values["core.completion.possible_ratio"] = ratio(
        counts.get("core.completion.possible", 0), get("core.completion")[0])
    values["core.diagnosis.build_s"] = get("core.diagnosis.build")[1] / ops
    values["core.diagnosis.lookup_s"] = get("core.diagnosis.lookup")[1] / ops
    values["memory.electrical.ops"] = get("memory.electrical")[0] / ops
    values["memory.electrical.self_s"] = get("memory.electrical")[2] / ops
    values["march.run.ops"] = counts.get("march.run.ops", 0) / ops
    values["march.detect_ratio"] = ratio(
        counts.get("march.run.detected", 0), get("march.run")[0])
    values["march.coverage.self_s"] = get("march.coverage")[2] / ops
    values["march.generate.self_s"] = get("march.generate")[2] / ops
    for name in EXPERIMENTS:
        values[f"experiments.{name}.self_s"] = get(f"experiments.{name}")[2] / ops
    for layer in ("store.get", "store.put", "journal.append",
                  "journal.replay", "queue.submit"):
        calls, total, _ = get(f"service.{layer}")
        values[f"service.{layer}_ms"] = 1000 * ratio(total, calls)
    values["service.journal.appends"] = get("service.journal.append")[0] / ops
    for name in ("service.client.submit_ms", "service.client.status_ms",
                 "service.client.result_ms", "service.queue_wait_s",
                 "service.run_s", "service.notify_s", "service.dedup_ratio",
                 "generator.late_p50_ms", "generator.late_max_ms",
                 "trace.coverage_ratio"):
        values[name] = 0.0
    values.update(extra)
    return values


# -- one invocation ---------------------------------------------------------------


def environment(seed: int) -> dict:
    """Where and on what a result was measured."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "machine": platform.machine(),
        "seed": seed,
    }


def end_to_end(result: dict) -> dict:
    """``name -> (value, sample count)`` of every end-to-end metric.

    Timings are medians: of the set-ups, and of the latencies of the
    workload's operations (corners, samples, hits, paced hits).
    """
    return {
        "setup_s": (median(result["setup"]), len(result["setup"])),
        "latency_ms": (median(result["latency_ms"]),
                       len(result["latency_ms"])),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
    }


def run_workload(name: str, seed: int, seconds: int, traced: bool,
                 golden: dict, deadline: float) -> dict:
    """Run one workload; a traced run adds a traced pass after the plain one.

    End-to-end metrics always come from the untraced pass.  A traced
    invocation splits ``seconds`` between an untraced and a traced pass
    so it takes about as long as a plain one; the per-layer numbers come
    from the traced pass and the tracing overhead from comparing the two.
    """
    tally = Tally(deadline)
    env = environment(seed)
    started = time.monotonic()
    record = {"schema": "perfbench-result-v2", "workload": name, "seed": seed,
              "seconds": seconds, "trace": int(traced), "env": env}
    try:
        plain = WORKLOADS[name](seed, seconds / 2 if traced else seconds,
                                golden, tally, None)
        if traced:
            OUT.mkdir(exist_ok=True)
            trace_file = OUT / f"{name}.trace.jsonl"
            trace_file.write_text("")
            with_spans = WORKLOADS[name](seed, seconds / 2, golden, tally,
                                         str(trace_file))
    except Exception as exc:  # reported as a failed run, never a crash
        tally.op(False, f"{type(exc).__name__}: {exc}")
        plain = None
    record["wall_s"] = time.monotonic() - started
    record.update(correct=not tally.failures, attempted=tally.attempted,
                  failed=len(tally.failures), failures=tally.failures[:20])
    if plain is None:
        record.update(metrics={}, named={}, digests=[])
        return record
    e2e = end_to_end(plain)
    record["metrics"] = {k: {"value": v, "n": n} for k, (v, n) in e2e.items()}
    named = {k: {"value": v, "unit": u, "n": n}
             for k, (v, u, n) in plain["named"].items()}
    named["error_rate"] = {
        "value": len(tally.failures) / max(1, tally.attempted),
        "unit": "ratio", "n": tally.attempted,
    }
    record["named"] = named
    if "shares" in plain:
        record["shares"] = plain["shares"]
    record["samples"] = _compact(plain["samples"])
    record["digests"] = plain["digests"]
    if traced:
        traced_e2e = end_to_end(with_spans)
        overhead = {k: traced_e2e[k][0] / v - 1 for k, (v, _) in e2e.items()}
        record["overhead"] = overhead
        layers = dict(with_spans["layers"])
        layers["trace.overhead_ratio"] = overhead["latency_ms"]
        record["layers"] = layers
        record["traced_digests"] = with_spans["digests"]
    return record


def _compact(raw):
    """Per-operation samples at six significant digits, for small records."""
    if isinstance(raw, dict):
        return {k: _compact(v) for k, v in raw.items()}
    return [float(f"{x:.6g}") for x in raw]


def _print_table(record: dict, spec: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']}  "
          f"seconds={record['seconds']}  trace={record['trace']}  "
          f"wall={record['wall_s']:.1f}s  correct={record['correct']}  "
          f"attempted={record['attempted']}  failed={record['failed']}")
    for failure in record.get("failures", []):
        print(f"   FAIL {failure}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"   {'end-to-end':<26} {'value':>14}  {'unit':<6} n")
    for name, metric in record["metrics"].items():
        print(f"   {name:<26} {metric['value']:>14.6g}  {units[name]:<6} "
              f"{metric['n']}")
    for name, metric in record["named"].items():
        print(f"   {name:<26} {metric['value']:>14.6g}  {metric['unit']:<6} "
              f"{metric['n']}")
    for name, share in record.get("shares", {}).items():
        print(f"   share of sample time: {name:<12} {share:>8.1%}")
    if record["trace"] and "layers" in record:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"   {'per layer (per op)':<34} {'value':>12}  unit")
        for name in units:
            print(f"   {name:<34} {record['layers'][name]:>12.6g}  "
                  f"{units[name]}")
        for name, value in record["overhead"].items():
            print(f"   tracing overhead {name:<17} {value:>+12.3%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of "
                        "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report per-layer metrics from a traced pass")
    parser.add_argument("--out", default=str(OUT / "results.jsonl"),
                        help="append each result record to this JSONL file")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    if seconds < 1:
        parser.error("--seconds must be >= 1")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(name, args.seed, seconds, bool(args.trace),
                              golden, time.monotonic() + DEADLINE_S)
        records.append(record)
        _print_table(record, spec)
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, missing = {}, 0
    for record in records:
        values = (record.get("layers", {}) if args.trace else
                  {k: m["value"] for k, m in record["metrics"].items()})
        prefix = "" if len(records) == 1 else f"{record['workload']}."
        for metric in wanted:
            if metric["name"] not in values:
                missing += 1
                continue
            metrics[prefix + metric["name"]] = {
                "value": values[metric["name"]], "unit": metric["unit"]}
    correct = not missing and all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records) + missing,
        "failed": sum(r["failed"] for r in records) + missing,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
