"""One sample of the ``sweep`` or ``screen`` workload in a fresh interpreter.

Run by ``run.py`` as ``python perfbench/sample.py SPEC`` with ``SPEC`` a
JSON object and ``src`` on ``PYTHONPATH``.  A fresh interpreter per
sample is the point: a CLI user pays the cold propagator and ensemble
caches on every run.  The last line of stdout is one JSON object with
the moment the imports finished (``time.monotonic``, shared by every
process of the host), each experiment's wall time, report digest and
claims, the peak RSS and, when traced, the layer aggregates.

``SPEC`` keys: ``kind`` (``sweep``, ``screen`` or ``probe-sweep`` /
``probe-screen`` to import and exit), ``temperature`` (sweep),
``escapes_seed``/``diagnosis_seed`` (screen), ``trace`` (a file to
append spans to, or null) and ``sample`` (its index).
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

def _calls(spec, modules):
    """The ``(name, function, kwargs)`` experiment calls of one sample."""
    if spec["kind"] == "sweep":
        table1, fig3, fig4, technology = modules
        corner = technology.Technology().scaled(temperature=spec["temperature"])
        return [
            ("table1", table1.run_table1, {"technology": corner}),
            ("fig3", fig3.run_fig3, {"technology": corner}),
            ("fig4", fig4.run_fig4, {"technology": corner}),
        ]
    escapes, diagnosis, march_pf = modules
    # The experiments' default sizes: 120 defects, 24 diagnosis trials.
    return [
        ("escapes", escapes.run_escapes,
         {"n_defects": 120, "seed": spec["escapes_seed"]}),
        ("diagnosis", diagnosis.run_diagnosis, {"seed": spec["diagnosis_seed"]}),
        ("march_pf", march_pf.run_march_pf, {}),
    ]


def main(argv) -> int:
    spec = json.loads(argv[1])
    kind = spec["kind"]
    if kind.endswith("sweep"):
        from repro.circuit import technology
        from repro.experiments import fig3, fig4, table1
        modules = (table1, fig3, fig4, technology)
    else:
        from repro.experiments import diagnosis, escapes, march_pf
        modules = (escapes, diagnosis, march_pf)
    ready = time.monotonic()
    out = {"ready": ready, "calls": {}}
    if kind.startswith("probe"):
        print(json.dumps(out))
        return 0

    recorder = None
    if spec.get("trace"):
        import tracing

        recorder = tracing.Recorder(sample=spec["sample"])
        tracing.install(recorder)
        caches = tracing.cache_counts()
    # Resolved after install() so traced runs call the wrappers.
    for name, fn, kwargs in _calls(spec, modules):
        start = time.perf_counter()
        result = fn(**kwargs)
        seconds = time.perf_counter() - start
        report = result.report
        out["calls"][name] = {
            "seconds": seconds,
            "digest": hashlib.sha256(report.render().encode()).hexdigest(),
            "claims": {claim.name: claim.holds for claim in report.claims},
        }
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        out["layers"] = recorder.summary()
        out["layers"]["counts"].update(tracing.cache_delta(caches))
        recorder.write_spans(spec["trace"], process=f"sample-{spec['sample']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
