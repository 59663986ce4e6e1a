"""Sweep-engine acceleration benchmark: before/after the propagator
cache, the vectorized grid engine, and parallel surveys.

Runs the coarse-grid Table 1 survey in four configurations —

1. ``baseline``: propagator cache disabled, scalar per-point execution
   (the pre-acceleration engine),
2. ``cache+scalar``: propagator cache on, grid engine off — the scalar
   oracle every point runs through when ``grid_engine=False``,
3. ``vectorized_grid``: the array-first grid engine (stacked
   ``(R_def, U)`` tile solves),
4. ``jobs2``: the grid engine with the opens spread over two worker
   processes —

asserts the four inventories are identical, and writes the timings,
speedups, cache hit rates, and grid fallback counts to
``benchmarks/BENCH_sweep.json``.  Two acceptance bars are asserted
with slack for machine noise: the cache at least 3x over the baseline,
and the grid engine at least 4x over cache + scalar.  The first three
configurations run in one process (``jobs=1``), so the bars compare
engines, not core counts.
"""

import json
import os
import time

from repro.circuit.network import (
    propagator_cache_clear,
    propagator_cache_configure,
)
from repro.experiments.table1 import run_table1

_OUT = os.path.join(os.path.dirname(__file__), "BENCH_sweep.json")

#: Coarse grid: the same sweep shape as the full run, small enough that
#: the baseline configuration stays in CI budget.
_GRID = dict(n_r=8, n_u=6, max_extra_ops=3)


def _inventory(result):
    return [
        (str(r.ffm_sim), str(r.ffm_com), r.open_number, r.completed_text,
         r.floating)
        for r in result.rows
    ]


def _counter(name):
    from repro import telemetry

    return telemetry.get_metrics().counter_value(name)


_CACHE_COUNTERS = ("solver.propagator_hits", "solver.propagator_misses")
_GRID_COUNTERS = (
    "solver.ensemble_hits", "solver.ensemble_misses",
    "solver.grid_settles", "column.grid_forks", "column.grid_demotions",
    "analyzer.grid_prefix_reuses",
)


def _timed(**kwargs):
    """Time one configuration; cache stats come from the telemetry
    counters (the bench session enables telemetry), which
    :func:`repro.parallel.parallel_map_ex` also merges back from worker
    processes — so the numbers are correct for any ``jobs``."""
    propagator_cache_clear()
    before = {
        name: _counter(name) for name in _CACHE_COUNTERS + _GRID_COUNTERS
    }
    start = time.perf_counter()
    result = run_table1(**_GRID, **kwargs)
    elapsed = time.perf_counter() - start
    delta = {
        name: _counter(name) - before[name]
        for name in _CACHE_COUNTERS + _GRID_COUNTERS
    }
    hits = delta["solver.propagator_hits"]
    misses = delta["solver.propagator_misses"]
    total = hits + misses
    stats = {
        "propagator_hits": hits,
        "propagator_misses": misses,
        "propagator_hit_ratio": round(hits / total, 4) if total else None,
        "ensemble_hits": delta["solver.ensemble_hits"],
        "ensemble_misses": delta["solver.ensemble_misses"],
        "grid_settles": delta["solver.grid_settles"],
        "grid_forks": delta["column.grid_forks"],
        "grid_fallback_members": delta["column.grid_demotions"],
        "grid_prefix_reuses": delta["analyzer.grid_prefix_reuses"],
    }
    return _inventory(result), elapsed, stats


def test_bench_sweep(benchmark):
    # 1. Baseline: no propagator cache, scalar execution.
    propagator_cache_configure(enabled=False)
    try:
        inv_base, t_base, _ = _timed(grid_engine=False, jobs=1)
    finally:
        propagator_cache_configure(enabled=True)

    # 2. The propagator cache with the scalar oracle (grid engine off).
    inv_scalar, t_scalar, cache_scalar = _timed(grid_engine=False, jobs=1)

    # 3. The vectorized grid engine, in process.
    inv_grid, t_grid, cache_grid = _timed(jobs=1)

    # 4. The grid engine over two worker processes.
    inv_jobs, t_jobs, cache_jobs = _timed(jobs=2)

    assert inv_scalar == inv_base, "the cache changed the inventory"
    assert inv_grid == inv_base, "the grid engine changed the inventory"
    assert inv_jobs == inv_base, "parallel fan-out changed the inventory"
    speedup_scalar = t_base / t_scalar
    # The cache alone: >=3x over the baseline, with noise slack.
    assert speedup_scalar >= 3.0, (
        f"cache speedup collapsed to {speedup_scalar:.1f}x"
    )
    speedup_grid_vs_scalar = t_scalar / t_grid
    # The grid engine: >=4x over the cached scalar oracle.
    assert speedup_grid_vs_scalar >= 4.0, (
        f"grid-engine speedup collapsed to {speedup_grid_vs_scalar:.1f}x "
        f"over cache+scalar"
    )

    payload = {
        "grid": _GRID,
        "rows": len(inv_base),
        "baseline_seconds": round(t_base, 3),
        "cache_scalar_jobs1_seconds": round(t_scalar, 3),
        "vectorized_grid_seconds": round(t_grid, 3),
        "jobs2_seconds": round(t_jobs, 3),
        "speedup_cache_scalar_jobs1": round(speedup_scalar, 2),
        "speedup_vectorized_grid": round(t_base / t_grid, 2),
        "speedup_vectorized_grid_vs_cache_scalar": round(
            speedup_grid_vs_scalar, 2
        ),
        "speedup_jobs2": round(t_base / t_jobs, 2),
        "cache_scalar_jobs1": cache_scalar,
        "vectorized_grid": cache_grid,
        "jobs2": cache_jobs,
        "inventories_identical": True,
    }
    with open(_OUT, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)

    # Give pytest-benchmark a stable (cheap) measurement target: the
    # accelerated configuration on a warm cache.
    benchmark.pedantic(
        run_table1, kwargs=dict(_GRID, jobs=1), rounds=1, iterations=1
    )
