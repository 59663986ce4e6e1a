"""Fast checks of the benchmark harness itself.

Run explicitly (the repository's own test suite does not collect it):

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import json
import re
import sys
import threading
from pathlib import Path

import pytest

import compare
import run
import stats
import tracing

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- percentile rule ------------------------------------------------------------


@pytest.mark.parametrize("n, tail", [
    (1, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond_it(n, tail):
    assert stats.tail_percentile(n) == tail


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99) == 99
    assert stats.percentile([7.0], 99) == 7.0


#: One workload pass as the workload functions return it.
PASS = {"setup": [0.3, 0.2, 0.9], "latency_ms": [5.0, 4.0, 50.0],
        "peak_rss_mb": 40.0}


def test_timings_are_medians():
    assert run.end_to_end(PASS) == {
        "setup_s": (0.3, 3), "latency_ms": (5.0, 3), "peak_rss_mb": (40.0, 1)}


def test_tail_is_named_after_its_percentile():
    assert run._tail("hit", [1.0] * 99) == {}
    assert set(run._tail("hit", [1.0] * 100)) == {"hit_p90_ms"}
    assert set(run._tail("hit", [1.0] * 2000)) == {"hit_p99_ms"}


def test_quartiles_match_statistics_quantiles():
    q1, med, q3 = stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert (q1, med, q3) == (2.75, 5.5, 8.25)
    assert stats.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(1.0)


# -- spans and self time --------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


def test_self_time_subtracts_nested_spans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing, "time", clock)
    recorder = tracing.Recorder(sample=3)

    def leaf(seconds):
        clock.now += seconds

    def inner():
        clock.now += 1.0
        recorder.call("leaf", False, leaf, 2.0)

    def outer():
        clock.now += 4.0
        recorder.call("inner", True, inner)
        recorder.call("inner", True, inner)

    recorder.call("outer", True, outer)
    totals = recorder.summary()["totals"]
    assert totals["outer"] == [1, 10.0, 4.0]
    assert totals["inner"] == [2, 6.0, 2.0]
    assert totals["leaf"] == [2, 4.0, 4.0]
    # Self times add up to the root span: nothing is lost or counted twice.
    assert sum(t[2] for t in totals.values()) == totals["outer"][1]
    spans = {span[2]: span for span in recorder.spans}
    assert "leaf" not in spans  # aggregated only
    outer_id = spans["outer"][0]
    assert spans["outer"][1] is None
    assert all(s[1] == outer_id for s in recorder.spans if s[2] == "inner")


def test_threads_keep_separate_stacks():
    recorder = tracing.Recorder()
    started = threading.Event()
    release = threading.Event()

    def blocked():
        started.set()
        release.wait(5)

    worker = threading.Thread(
        target=recorder.call, args=("worker", True, blocked))
    worker.start()
    assert started.wait(5)
    recorder.call("main", True, lambda: None)
    release.set()
    worker.join(5)
    assert not worker.is_alive()
    assert all(span[1] is None for span in recorder.spans)


def test_merge_sums_aggregates():
    a = {"totals": {"x": [1, 2.0, 1.0]}, "counts": {"c": 2}}
    b = {"totals": {"x": [2, 1.0, 0.5], "y": [1, 1.0, 1.0]}, "counts": {"c": 1}}
    merged = tracing.merge([a, b])
    assert merged["totals"] == {"x": [3, 3.0, 1.5], "y": [1, 1.0, 1.0]}
    assert merged["counts"] == {"c": 3}


def test_install_wraps_names_bound_at_import_and_undoes_it():
    sys.path.insert(0, str(run.SRC))
    from repro.experiments import escapes
    from repro.march import simulator

    original = simulator.run_march
    recorder = tracing.Recorder()
    uninstall = tracing.install(recorder, [
        tracing.Layer("march.run", "repro.march.simulator:run_march"),
    ])
    try:
        assert escapes.run_march is simulator.run_march is not original
    finally:
        uninstall()
    assert escapes.run_march is simulator.run_march is original


# -- seeded inputs --------------------------------------------------------------


def test_same_seed_gives_same_inputs_and_other_seed_other_inputs():
    assert run.sweep_plan(5, 8) == run.sweep_plan(5, 8)
    assert run.sweep_plan(5, 8) != run.sweep_plan(6, 8)
    assert run.screen_plan(5, 3) == run.screen_plan(5, 3)
    assert run.screen_plan(5, 3) != run.screen_plan(6, 3)
    for workload in ("served-hit", "served-mixed"):
        one = run.served_plan(workload, 5, 200, 4)
        assert one == run.served_plan(workload, 5, 200, 4)
        other = run.served_plan(workload, 6, 200, 4)
        assert one["hits"] != other["hits"]
        assert one["warm"][3:] != other["warm"][3:]
        assert one["cold"] != other["cold"]


def test_nominal_inputs_for_the_golden_digests():
    for seed in (1, 2002, 99):
        assert run.sweep_plan(seed, 3)[0] == run.NOMINAL_C
        assert run.served_plan("served-hit", seed, 10)["warm"][:3] == [
            run._job("table1"), run._job("fig3"), run._job("fig4")]
    # A screen run holds one sample: nominal at the default seed only.
    assert run.screen_plan(run.DEFAULT_SEED, 1) == [run.NOMINAL_SCREEN]
    for seed in (1, 99):
        assert run.NOMINAL_SCREEN not in run.screen_plan(seed, 2)


def test_served_inputs_are_distinct_new_addresses():
    plan = run.served_plan("served-mixed", 2002, 100, 20)
    keys = [json.dumps(spec, sort_keys=True) for spec in plan["warm"] + plan["cold"]]
    assert len(keys) == len(set(keys)) == 32
    assert all(0 <= i < len(plan["warm"]) for i in plan["hits"])
    lo, hi = run.CORNER_C
    for spec in plan["cold"]:
        assert lo <= spec["technology"]["temperature"] <= hi


# -- the benchmark definition -----------------------------------------------------


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and 0 < len(workload["why"]) <= 200
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[group]]
    for group in ("workloads", "end_to_end", "per_layer"):
        group_names = [m["name"] for m in SPEC[group]]
        assert len(group_names) == len(set(group_names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_harness_reports_exactly_the_declared_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(run.NAMED_METRICS) == list(run.WORKLOADS)
    assert set(run.end_to_end(PASS)) == {m["name"] for m in SPEC["end_to_end"]}
    layer_names = set(run.layer_metrics({"totals": {}, "counts": {}}, 1, {}))
    layer_names.add("trace.overhead_ratio")
    assert layer_names == {m["name"] for m in SPEC["per_layer"]}


def test_golden_covers_every_checked_output():
    golden = json.loads(run.GOLDEN.read_text())
    assert set(golden["sweep"]) == {"table1", "fig3", "fig4"}
    assert set(golden["screen"]) == {"escapes", "diagnosis", "march_pf"}
    assert set(golden["served"]) == {"table1", "fig3", "fig4"}
    for digests in golden.values():
        assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in digests.values())


# -- comparison verdicts ----------------------------------------------------------


def _paired(parent, change):
    return list(zip(parent, change))


def test_verdicts():
    parent = [100.0 + i % 3 for i in range(10)]
    faster = [80.0 + i % 3 for i in range(10)]
    slower = [120.0 + i % 3 for i in range(10)]
    same = [100.5 + (i + 1) % 3 for i in range(10)]
    noisy = [60.0 + 10 * i for i in range(10)]
    assert compare.verdict(parent, faster, _paired(parent, faster),
                           "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, slower, _paired(parent, slower),
                           "lower", 0.1)[0] == "regressed"
    assert compare.verdict(parent, same, _paired(parent, same),
                           "lower", 0.1)[0] == "unchanged"
    assert compare.verdict(noisy, noisy, _paired(noisy, noisy),
                           "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(parent[:5], same[:5], _paired(parent[:5], same[:5]),
                           "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(parent, slower, _paired(parent, slower),
                           "higher", 0.1)[0] == "improved"


def test_error_rate_regresses_on_any_increase():
    clean = [{"failed": 0, "attempted": 100}] * 10
    one = clean[:9] + [{"failed": 1, "attempted": 100}]
    assert compare.error_verdict(clean, clean)[0] == "unchanged"
    assert compare.error_verdict(clean, one)[0] == "regressed"
    assert compare.error_verdict(one, clean)[0] == "improved"


def test_named_metrics_get_verdicts():
    rows = compare.metrics_of(SPEC, "served-hit")
    names = [row[0] for row in rows]
    assert names[:len(SPEC["end_to_end"])] == [
        m["name"] for m in SPEC["end_to_end"]]
    assert {"hit_p50_ms", "hit_p99_ms"} <= set(names)


def test_digest_differences_flag_changed_outputs():
    def record(digest):
        return {"workload": "sweep", "seed": 1, "digests": [
            {"sample": 0, "inputs": {"temperature": 25.0},
             "outputs": {"table1": digest}}]}

    assert compare.digest_differences([record("a")], [record("a")]) == []
    assert len(compare.digest_differences([record("a")], [record("b")])) == 1
