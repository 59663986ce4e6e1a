"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``.  It measures a layer by replacing a
public function or method with a wrapper that times each call.  Every
thread keeps its own stack of open calls, so a call's parent is the
innermost open call on the same thread, and its self time is its
duration minus the time of the calls nested directly inside it.

Spans stay in memory and are written out once, when the process ends
(:meth:`Recorder.write_spans`).  Calls into hot layers (the solver, the
electrical memory and march runs, tens of thousands per sample) are
only aggregated as count, total and self time; every other call is also
kept as one span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple


class Recorder:
    """Spans and per-layer aggregates of one process."""

    def __init__(self, sample: object = None) -> None:
        self.sample = sample
        #: Kept spans as ``(id, parent id, name, start, end, thread)``.
        self.spans: List[Tuple[int, Optional[int], str, float, float, int]] = []
        #: Layer name -> ``[calls, total seconds, self seconds]``.
        self.totals: Dict[str, List[float]] = {}
        #: Named counts attached by result observers.
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, keep: bool, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one call of layer ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = [next(self._ids), 0.0]  # span id, time in nested calls
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            with self._lock:
                total = self.totals.setdefault(name, [0, 0.0, 0.0])
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[1]
                if keep:
                    self.spans.append((
                        frame[0], parent[0] if parent else None, name,
                        start, end, threading.get_ident(),
                    ))

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def summary(self) -> Dict[str, object]:
        """Aggregates only, JSON-ready (what a parent process merges)."""
        with self._lock:
            return {
                "totals": {k: list(v) for k, v in self.totals.items()},
                "counts": dict(self.counts),
            }

    def write_spans(self, path: str, process: str) -> None:
        """Append every kept span to ``path`` as JSON lines."""
        with self._lock:
            spans = list(self.spans)
        with open(path, "a", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, thread in spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "id": span_id, "parent": parent,
                    "sample": self.sample, "process": process,
                    "thread": thread,
                }) + "\n")


def merge(summaries) -> Dict[str, Dict[str, object]]:
    """Sum several :meth:`Recorder.summary` results."""
    totals: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    for summary in summaries:
        for name, (calls, total, own) in summary.get("totals", {}).items():
            into = totals.setdefault(name, [0, 0.0, 0.0])
            into[0] += calls
            into[1] += total
            into[2] += own
        for name, value in summary.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + value
    return {"totals": totals, "counts": counts}


# -- result observers -----------------------------------------------------------


def _completion_outcome(recorder: Recorder, outcome) -> None:
    if outcome.possible:
        recorder.count("core.completion.possible")


def _march_result(recorder: Recorder, result) -> None:
    recorder.count("march.run.ops", result.operations)
    if result.detected:
        recorder.count("march.run.detected")


class Layer(NamedTuple):
    """One wrapped entry point: ``target`` is ``module:attr[.attr]``."""

    name: str
    target: str
    keep: bool = True
    observe: Optional[Callable[[Recorder, object], None]] = None


#: Every wrapped entry point, named after the module that owns it.
#: ``NetworkEnsemble.run_grid_blocks``/``region_map_grid``/``parallel_map``
#: are left out because they only delegate to a wrapped call.
LAYERS: Tuple[Layer, ...] = (
    Layer("circuit.grid", "repro.circuit.network:NetworkEnsemble.run_grid", keep=False),
    Layer("circuit.grid", "repro.circuit.network:NetworkEnsemble.run_grid_array", keep=False),
    Layer("circuit.scalar", "repro.circuit.network:Network.run", keep=False),
    Layer("circuit.scalar", "repro.circuit.network:Network.run_batch", keep=False),
    Layer("core.survey", "repro.core.analysis:ColumnFaultAnalyzer.survey"),
    Layer("core.region_map", "repro.core.analysis:ColumnFaultAnalyzer.region_map"),
    Layer("core.completion", "repro.core.completion:complete_fault",
          observe=_completion_outcome),
    Layer("core.diagnosis.build", "repro.core.diagnosis:SignatureDatabase.__init__"),
    Layer("core.diagnosis.lookup", "repro.core.diagnosis:SignatureDatabase.diagnose"),
    Layer("memory.electrical", "repro.memory.simulator:ElectricalMemory.read", keep=False),
    Layer("memory.electrical", "repro.memory.simulator:ElectricalMemory.write", keep=False),
    Layer("memory.electrical", "repro.memory.simulator:ElectricalMemory.tick", keep=False),
    Layer("march.run", "repro.march.simulator:run_march", keep=False,
          observe=_march_result),
    Layer("march.coverage", "repro.march.coverage:coverage_matrix"),
    Layer("march.generate", "repro.march.generator:generate_march"),
    Layer("experiments.table1", "repro.experiments.table1:run_table1"),
    Layer("experiments.fig3", "repro.experiments.fig3:run_fig3"),
    Layer("experiments.fig4", "repro.experiments.fig4:run_fig4"),
    Layer("experiments.escapes", "repro.experiments.escapes:run_escapes"),
    Layer("experiments.diagnosis", "repro.experiments.diagnosis:run_diagnosis"),
    Layer("experiments.march_pf", "repro.experiments.march_pf:run_march_pf"),
    Layer("parallel.map", "repro.parallel:parallel_map_ex"),
    Layer("service.store.get", "repro.service.store:ResultStore.get"),
    Layer("service.store.put", "repro.service.store:ResultStore.put"),
    Layer("service.journal.append", "repro.service.journal:JobJournal.append"),
    Layer("service.journal.replay", "repro.service.journal:JobJournal.replay"),
    Layer("service.queue.submit", "repro.service.queue:JobQueue.submit"),
)

#: The client side of the served path, wrapped in the benchmark process.
CLIENT_LAYERS: Tuple[Layer, ...] = (
    Layer("service.client.submit", "repro.service.client:ServiceClient.submit"),
    Layer("service.client.status", "repro.service.client:ServiceClient.job"),
    Layer("service.client.result", "repro.service.client:ServiceClient.result"),
)


def _wrapper(recorder: Recorder, layer: Layer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        result = recorder.call(layer.name, layer.keep, fn, *args, **kwargs)
        if layer.observe is not None:
            layer.observe(recorder, result)
        return result
    return wrapped


def install(recorder: Recorder, layers=LAYERS) -> Callable[[], None]:
    """Wrap every layer entry point; return a function that undoes it.

    A method is replaced on its class.  A function is replaced in its
    own module and in every loaded ``repro`` module that imported it by
    name, so callers that bound it at import time are measured too.
    """
    undo: List[Tuple[object, str, object]] = []
    for layer in layers:
        module_name, _, path = layer.target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            undo.append((owner, attr, original))
            setattr(owner, attr, _wrapper(recorder, layer, original))
            continue
        original = getattr(module, attr)
        wrapped = _wrapper(recorder, layer, original)
        for name, loaded in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    undo.append((loaded, key, original))
                    setattr(loaded, key, wrapped)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def cache_counts() -> Dict[str, int]:
    """Hit/miss totals of the solver's propagator and ensemble caches."""
    from repro.circuit.network import ensemble_cache_info, propagator_cache_info

    prop, ens = propagator_cache_info(), ensemble_cache_info()
    return {
        "circuit.propagator.hits": prop.hits,
        "circuit.propagator.misses": prop.misses,
        "circuit.ensemble.hits": ens.hits,
        "circuit.ensemble.misses": ens.misses,
    }


def cache_delta(before: Dict[str, int]) -> Dict[str, int]:
    after = cache_counts()
    return {name: after[name] - before[name] for name in after}
