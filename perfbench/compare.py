#!/usr/bin/env python3
"""Compare two sets of benchmark runs: parent against change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds result records as ``run.py --out`` appends them.  Only
untraced runs count, and failed runs only towards ``error_rate``.  For
every workload, every end-to-end metric of ``BENCHMARK.json`` and every
per-workload metric of ``run.NAMED_METRICS`` (``sweep_s``,
``escapes_s``, ``hit_p99_ms``, ...), the tool prints each side's median
and quartiles, the share of pairs the change wins (runs paired by seed,
in file order; ties count for neither side) and a verdict:

``improved``    at least 10 pairs, the change wins at least 9 in 10 of
                them, and the medians differ, in the better direction,
                by more than the parent's quartile distance;
``regressed``   the change's median is worse than the parent's by more
                than the metric's bound (``error_rate``: the change
                failed a larger share of all its operations);
``unresolved``  fewer than 10 pairs, or the parent's own quartile
                distance is wider than the bound and not every change run
                reads better than every parent run;
``unchanged``   otherwise.

It also lists every sample whose output digest differs between the two
sides for the same workload, seed and inputs.  Exit status is 1 when a
row regressed or an output differs, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import stats

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path) -> list:
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return [r for r in records if not r.get("trace")]


def pairs(parent: list, change: list) -> list:
    """``(parent run, change run)`` pairs of one workload, matched by seed."""
    matched = []
    for seed in sorted({r["seed"] for r in parent} & {r["seed"] for r in change}):
        matched += zip([r for r in parent if r["seed"] == seed],
                       [r for r in change if r["seed"] == seed])
    return matched


def verdict(parent: list, change: list, paired: list, better: str,
            bound: float) -> tuple:
    """``(verdict, win share)`` for one metric; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in paired if sign * (c - p) > 0)
    share = wins / len(paired) if paired else 0.0
    q1, p_med, q3 = stats.quartiles(parent)
    c_med = stats.quartiles(change)[1]
    gain = sign * (c_med - p_med)
    if (len(paired) >= MIN_PAIRS and share >= WIN_SHARE
            and gain > q3 - q1):
        return "improved", share
    if -gain > bound * abs(p_med):
        return "regressed", share
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if len(paired) < MIN_PAIRS or (
            stats.spread(parent) > bound and not all_better):
        return "unresolved", share
    return "unchanged", share


def error_verdict(parent: list, change: list) -> tuple:
    """``(verdict, parent rate, change rate)`` of ``error_rate``.

    The rate is failed over attempted operations of all a side's runs;
    any increase regresses.
    """
    def rate(records):
        return (sum(r["failed"] for r in records)
                / max(1, sum(r["attempted"] for r in records)))

    before, after = rate(parent), rate(change)
    if after > before:
        return "regressed", before, after
    return ("improved" if after < before else "unchanged"), before, after


def metrics_of(spec: dict, workload: str) -> list:
    """``(name, unit, better, bound, where)`` of every metric of a workload."""
    rows = [(m["name"], m["unit"], m["better"], m["bound"], "metrics")
            for m in spec["end_to_end"]]
    rows += [(name, unit, "lower", run.NAMED_BOUND, "named")
             for name, unit in run.NAMED_METRICS.get(workload, {}).items()]
    return rows


def digest_differences(parent: list, change: list) -> list:
    """Samples whose outputs differ between the sides on the same inputs."""
    def outputs(records):
        seen = {}
        for record in records:
            for entry in record.get("digests", []):
                key = (record["workload"], record["seed"], str(entry["sample"]),
                       json.dumps(entry["inputs"], sort_keys=True))
                seen.setdefault(key, entry["outputs"])
        return seen

    before, after = outputs(parent), outputs(change)
    return [(key, before[key], after[key]) for key in sorted(before.keys() & after.keys())
            if before[key] != after[key]]


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    parent, change = load(argv[1]), load(argv[2])
    failed = False
    print(f"{'workload':<13} {'metric':<17} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'wins':>5} {'pairs':>5}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [[r for r in side if r["workload"] == workload]
                for side in (parent, change)]
        # A failed run has no metrics; it only counts towards error_rate.
        mine, theirs = [[r for r in side if r["metrics"]] for side in runs]
        if not mine or not theirs:
            continue
        matched = pairs(mine, theirs)
        for name, unit, better, bound, where in metrics_of(spec, workload):
            p_vals = [r[where][name]["value"] for r in mine]
            c_vals = [r[where][name]["value"] for r in theirs]
            paired = [(p[where][name]["value"], c[where][name]["value"])
                      for p, c in matched]
            result, share = verdict(p_vals, c_vals, paired, better, bound)
            failed |= result == "regressed"
            cells = []
            for values in (p_vals, c_vals):
                q1, med, q3 = stats.quartiles(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {unit}")
            print(f"{workload:<13} {name:<17} {cells[0]:<34} {cells[1]:<34} "
                  f"{share:>5.0%} {len(paired):>5}  {result}")
        result, before, after = error_verdict(*runs)
        failed |= result == "regressed"
        print(f"{workload:<13} {'error_rate':<17} {before:<34.3g} "
              f"{after:<34.3g} {'':>5} {len(matched):>5}  {result}")
    differences = digest_differences(parent, change)
    for (workload, seed, sample, inputs), before, after in differences:
        print(f"OUTPUT DIFFERS: {workload} seed={seed} sample={sample} "
              f"inputs={inputs}: {before} -> {after}")
    return 1 if failed or differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
