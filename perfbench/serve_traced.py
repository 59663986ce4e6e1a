"""Run ``repro-partial-faults serve`` with the layer wrappers installed.

Usage: ``python perfbench/serve_traced.py SUMMARY TRACE LABEL SERVE-ARGS...``
with ``src`` on ``PYTHONPATH``.  The wrappers go in before the service
starts; when ``serve`` returns (SIGTERM drains it), the layer aggregates
and solver-cache deltas are written to ``SUMMARY`` as JSON and the kept
spans are appended to ``TRACE``.
"""

from __future__ import annotations

import json
import sys

import tracing


def main(argv) -> int:
    summary_path, trace_path, label = argv[1:4]
    recorder = tracing.Recorder(sample=label)
    tracing.install(recorder)
    caches = tracing.cache_counts()
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *argv[4:]])
    finally:
        summary = recorder.summary()
        summary["counts"].update(tracing.cache_delta(caches))
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle)
        recorder.write_spans(trace_path, process=f"server-{label}")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
