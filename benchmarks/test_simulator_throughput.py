"""Simulator throughput: instructions per second of the cycle engine.

Not a paper figure — engineering benchmarks for the reproduction itself,
so regressions in the one-pass engine or the fabric co-simulation are
visible.  pytest-benchmark reports wall time for a fixed 10k-instruction
window; divide to get instructions/second.
"""

import shutil

import pytest

from repro.cachefile import CACHE_DIR_ENV
from repro.core import CoreParams, PFMParams, SimConfig, simulate
from repro.registry import build_workload
from repro.telemetry import TelemetryParams
from repro.workloads import tracecache
from repro.workloads.astar import build_astar_workload
from repro.workloads.bfs import build_bfs_workload
from repro.workloads.graphs import road_graph
from repro.workloads.libquantum import build_libquantum_workload

WINDOW = 10_000
_graph = road_graph(side=96)


def test_throughput_baseline_astar(benchmark):
    stats = benchmark.pedantic(
        lambda: simulate(
            build_astar_workload(grid_width=128, grid_height=128),
            SimConfig(max_instructions=WINDOW),
        ),
        rounds=3,
        iterations=1,
    )
    assert stats.instructions == WINDOW


def test_throughput_pfm_astar(benchmark):
    stats = benchmark.pedantic(
        lambda: simulate(
            build_astar_workload(grid_width=128, grid_height=128),
            SimConfig(max_instructions=WINDOW, pfm=PFMParams(delay=0)),
        ),
        rounds=3,
        iterations=1,
    )
    assert stats.pfm_predicted_branches > 0


def test_throughput_pfm_astar_two_tenant(benchmark):
    """Astar predictor plus an observe-only co-tenant in a second slot.

    Measures what fabric sharing costs end to end: the mirrored
    observation stream, partitioned-table dispatch, and the scheduler's
    arbitration of the crossing.  The single-tenant overhead of the same
    machinery is gated separately — ``test_throughput_pfm_astar`` runs
    through the slot container too and ``check_regression.py`` holds it
    to a 5% tighter tolerance against the recorded seed baseline.
    """
    from repro.pfm.tenancy import parse_tenant_spec

    pfm = PFMParams(delay=0, tenants=(parse_tenant_spec("introspect"),))
    stats = benchmark.pedantic(
        lambda: simulate(
            build_astar_workload(grid_width=128, grid_height=128),
            SimConfig(max_instructions=WINDOW, pfm=pfm),
        ),
        rounds=3,
        iterations=1,
    )
    assert stats.pfm_predicted_branches > 0
    probe = stats.tenant_stats["1:introspect"]
    assert probe["obs_pushes"] > 0
    benchmark.extra_info["probe_obs_pushes"] = probe["obs_pushes"]
    benchmark.extra_info["probe_sched_stall_cycles"] = (
        probe["sched_stall_cycles"]
    )


def test_throughput_pfm_bfs(benchmark):
    stats = benchmark.pedantic(
        lambda: simulate(
            build_bfs_workload(graph=_graph),
            SimConfig(max_instructions=WINDOW, pfm=PFMParams(delay=0)),
        ),
        rounds=3,
        iterations=1,
    )
    assert stats.instructions == WINDOW


def test_throughput_prefetcher_libquantum(benchmark):
    stats = benchmark.pedantic(
        lambda: simulate(
            build_libquantum_workload(),
            SimConfig(max_instructions=WINDOW, pfm=PFMParams(width=1, delay=0)),
        ),
        rounds=3,
        iterations=1,
    )
    assert stats.agent_prefetches > 0


def test_throughput_pfm_astar_telemetry(benchmark):
    """Ring sink attached: bounds the probes' enabled-path overhead.

    The no-sink case is ``test_throughput_pfm_astar`` above (probe sites
    cost one ``None`` test each there).
    """
    stats = benchmark.pedantic(
        lambda: simulate(
            build_astar_workload(grid_width=128, grid_height=128),
            SimConfig(
                max_instructions=WINDOW,
                pfm=PFMParams(delay=0),
                telemetry=TelemetryParams(),
            ),
        ),
        rounds=3,
        iterations=1,
    )
    assert stats.telemetry is not None
    assert stats.telemetry["captured"] > 0


#: Pre-decomposition reference: instructions/second of the monolithic
#: ``SuperscalarCore`` (commit 5c3eb25), median of 8 interleaved runs on
#: the development machine.  The stage-pipeline engine must stay within
#: 5% of these on comparable hardware; wall clock on shared runners is
#: too noisy for a hard 5% gate, so the test records the measured ratio
#: in ``extra_info`` and only fails on a catastrophic (>2x) regression.
SEED_INST_PER_SEC = {"baseline": 36_900, "pfm": 25_400}


def _stage_vs_seed(benchmark, variant: str, pfm: PFMParams | None) -> None:
    stats = benchmark.pedantic(
        lambda: simulate(
            build_astar_workload(grid_width=128, grid_height=128),
            SimConfig(max_instructions=WINDOW, pfm=pfm),
        ),
        rounds=5,
        iterations=1,
    )
    assert stats.instructions == WINDOW
    measured = WINDOW / benchmark.stats.stats.median
    seed = SEED_INST_PER_SEC[variant]
    benchmark.extra_info["seed_inst_per_sec"] = seed
    benchmark.extra_info["measured_inst_per_sec"] = round(measured)
    benchmark.extra_info["vs_seed_pct"] = round(100 * measured / seed, 1)
    assert measured > seed / 2, (
        f"stage pipeline at {measured:.0f} inst/s vs seed {seed} —"
        " beyond any plausible machine-speed difference"
    )


def test_throughput_stage_pipeline_vs_seed_baseline(benchmark):
    _stage_vs_seed(benchmark, "baseline", None)


def test_throughput_stage_pipeline_vs_seed_pfm(benchmark):
    _stage_vs_seed(benchmark, "pfm", PFMParams())


# --------------------------------------------------------------------- #
# trace cache: cold compile vs warm replay
# --------------------------------------------------------------------- #

#: Median seconds per cold run, filled by the cold benchmark so the warm
#: benchmark (later in file order) can measure the speedup.
_trace_timings: dict[str, float] = {}


def _registry_astar_run(backend: str = "python"):
    """Registry-built run with the engine pinned.

    The cold/warm benchmarks pin ``python`` so their numbers keep
    measuring the reference engine (and stay comparable to the recorded
    baseline); the numpy entries pin ``numpy`` explicitly.
    """
    return simulate(
        build_workload("astar", grid_width=128, grid_height=128),
        SimConfig(
            core=CoreParams(backend=backend), max_instructions=WINDOW
        ),
    )


@pytest.fixture
def _isolated_trace_cache(tmp_path, monkeypatch):
    """Point the trace cache at a private tmp dir for cold/warm control."""
    cache = tmp_path / "trace-bench-cache"
    monkeypatch.setenv(CACHE_DIR_ENV, str(cache))
    tracecache.reset_memory_cache()
    yield cache
    tracecache.reset_memory_cache()


def test_throughput_trace_cold_compile(benchmark, _isolated_trace_cache):
    """Same run as ``test_throughput_baseline_astar`` but registry-built,
    with the cache emptied before every round: each round pays the
    one-time compile (to the campaign floor) plus the replayed timing run.
    """

    def flush():
        tracecache.reset_memory_cache()
        shutil.rmtree(_isolated_trace_cache, ignore_errors=True)

    stats = benchmark.pedantic(
        _registry_astar_run, setup=flush, rounds=3, iterations=1
    )
    assert stats.instructions == WINDOW
    assert tracecache.STATS["compiles"] >= 1
    _trace_timings["cold"] = benchmark.stats.stats.min
    benchmark.extra_info["inst_per_sec"] = round(
        WINDOW / benchmark.stats.stats.median
    )


def test_throughput_trace_warm_replay(benchmark, _isolated_trace_cache):
    """Warm path: the compiled trace is memoized in-process, every round
    is a pure replay.  Asserts the tentpole's speedup target against the
    cold benchmark above — measured here, not taken on faith."""
    _registry_astar_run()  # prewarm: compile once, outside the timer
    stats = benchmark.pedantic(_registry_astar_run, rounds=5, iterations=1)
    assert stats.instructions == WINDOW
    assert tracecache.STATS["compiles"] == 1  # the prewarm, never a round

    benchmark.extra_info["inst_per_sec"] = round(
        WINDOW / benchmark.stats.stats.median
    )
    # Speedup from the per-test minima: scheduling noise only ever adds
    # time, so min is the cleanest estimator of the true cost of each path.
    warm = benchmark.stats.stats.min
    _trace_timings["warm"] = warm
    cold = _trace_timings.get("cold")
    if cold is not None:
        speedup = cold / warm
        benchmark.extra_info["warm_vs_cold_speedup"] = round(speedup, 2)
        assert speedup >= 1.5, (
            f"warm replay only {speedup:.2f}x the cold-compile path"
            f" (cold {cold:.3f}s, warm {warm:.3f}s); the compiled-trace"
            f" cache should be paying for itself"
        )


def test_throughput_trace_warm_replay_numpy(benchmark, _isolated_trace_cache):
    """Vectorized warm replay: same memoized trace, numpy backend.

    This is the PR's headline gate — the chunked replay must clear 2x
    the warm *python* replay (measured by the benchmark above in the
    same process) while staying byte-identical (the differential suite
    in ``tests/test_backend_equivalence.py`` pins the identity half).
    """
    from repro.backends import have_numpy

    if not have_numpy():
        pytest.skip("numpy not installed")
    _registry_astar_run()  # prewarm: compile once, outside the timer
    stats = benchmark.pedantic(
        lambda: _registry_astar_run(backend="numpy"), rounds=5, iterations=1
    )
    assert stats.instructions == WINDOW
    assert stats.backend == "numpy"  # replay engaged, no silent fallback
    assert stats.backend_fallbacks == 0
    assert tracecache.STATS["compiles"] == 1

    benchmark.extra_info["inst_per_sec"] = round(
        WINDOW / benchmark.stats.stats.median
    )
    vec = benchmark.stats.stats.min
    warm = _trace_timings.get("warm")
    if warm is not None:
        speedup = warm / vec
        benchmark.extra_info["numpy_vs_python_warm_speedup"] = round(
            speedup, 2
        )
        assert speedup >= 2.0, (
            f"numpy warm replay only {speedup:.2f}x the python warm path"
            f" (python {warm:.3f}s, numpy {vec:.3f}s); the vectorized"
            f" backend should clear 2x"
        )


def test_throughput_trace_warm_from_disk(benchmark, _isolated_trace_cache):
    """Fresh-process shape: memo empty, trace loaded from the on-disk
    store each round (what a new SweepPool worker pays)."""
    _registry_astar_run()  # populate the on-disk store

    def drop_memo():
        tracecache.reset_memory_cache()

    stats = benchmark.pedantic(
        _registry_astar_run, setup=drop_memo, rounds=3, iterations=1
    )
    assert stats.instructions == WINDOW
    assert tracecache.STATS["disk_hits"] >= 1
    benchmark.extra_info["inst_per_sec"] = round(
        WINDOW / benchmark.stats.stats.median
    )


# --------------------------------------------------------------------- #
# result store: cold sweep vs warm (store-hit) sweep
# --------------------------------------------------------------------- #

#: Small grid, real engine: 2 workloads x (baseline + 2 PFM configs).
_SWEEP_WINDOW = 2_000
_SWEEP_GRID = {"workloads": ("astar", "libquantum")}

#: Cold minimum, filled by the cold benchmark for the warm gate below.
_store_timings: dict[str, float] = {}


def _sweep_grid_points():
    from repro.experiments.sweep import sweep_points

    return sweep_points(_SWEEP_WINDOW, **_SWEEP_GRID)


def test_throughput_sweep_cold_store(benchmark, tmp_path):
    """Every round simulates the whole grid into an empty store — the
    single-host cost a shard fleet or a re-invoked CLI amortizes away."""
    from repro.experiments.pool import SweepPool

    store = tmp_path / "cold-store"
    _registry_astar_run()  # compile traces outside the timer

    def flush():
        shutil.rmtree(store, ignore_errors=True)
        return (), {}

    def run():
        pool = SweepPool(store=store)
        pool.run(_sweep_grid_points())
        return pool

    pool = benchmark.pedantic(run, setup=flush, rounds=3, iterations=1)
    assert pool.last_run_info["computed"] == len(_sweep_grid_points())
    _store_timings["cold"] = benchmark.stats.stats.min
    benchmark.extra_info["points"] = len(_sweep_grid_points())


def test_throughput_sweep_warm_store(benchmark, tmp_path):
    """Fresh-process shape over a populated store: every round drops the
    in-process memos (trace cache, trace-key memo) and builds a new pool,
    so each round pays exactly what a second host or later invocation
    pays — store reads instead of simulation.  Gated at <= 0.25x the cold
    sweep with a >= 95% store hit rate (the issue's acceptance bar)."""
    from repro.experiments.pool import SweepPool
    from repro.store import ResultStore, reset_trace_key_memo

    store = tmp_path / "warm-store"
    SweepPool(store=store).run(_sweep_grid_points())  # populate once

    def fresh_process():
        tracecache.reset_memory_cache()
        reset_trace_key_memo()
        return (), {}

    def run():
        pool = SweepPool(store=ResultStore(store))
        pool.run(_sweep_grid_points())
        return pool

    pool = benchmark.pedantic(run, setup=fresh_process, rounds=5, iterations=1)
    points = len(_sweep_grid_points())
    info = pool.last_run_info
    assert info["computed"] == 0, f"warm sweep recomputed: {info}"
    hit_rate = info["store_hits"] / points
    benchmark.extra_info["store_hit_rate"] = hit_rate
    assert hit_rate >= 0.95, f"store hit rate {hit_rate:.0%} below 95%"

    warm = benchmark.stats.stats.min
    cold = _store_timings.get("cold")
    if cold is not None:
        ratio = warm / cold
        benchmark.extra_info["warm_vs_cold_ratio"] = round(ratio, 3)
        assert ratio <= 0.25, (
            f"warm store-hit sweep at {ratio:.2f}x the cold sweep"
            f" (cold {cold:.3f}s, warm {warm:.3f}s); store lookups should"
            f" cost a small fraction of simulation"
        )


def test_throughput_functional_executor(benchmark):
    def run():
        executor = build_astar_workload(
            grid_width=128, grid_height=128
        ).executor()
        count = sum(1 for _ in executor.run(50_000))
        return count

    count = benchmark.pedantic(run, rounds=3, iterations=1)
    assert count == 50_000
