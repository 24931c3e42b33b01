"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures from the paper — these isolate the contribution of individual
mechanisms in the reproduction:

* the baseline predictor tier (TAGE-SC-L vs gshare) — how much the paper's
  strong baseline matters to the reported deltas;
* the baseline prefetchers (next-line + VLDP) — the custom prefetchers are
  measured *on top of* a prefetching baseline;
* the adaptive-distance policy (rate vs the paper's literal hill-climb);
* the store-inference CAM in the astar component (disabled -> mispredicts
  on every in-window revisit).
"""

import dataclasses

import pytest

from conftest import BENCH_WINDOW

from repro.core import CoreParams, PFMParams, SimConfig, simulate
from repro.memory.hierarchy import HierarchyParams
from repro.pfm.components.prefetchers import (
    AdaptiveDistanceController,
    LibquantumPrefetcher,
)
from repro.pfm.components.template import (
    TemplatedRunaheadPredictor,
    astar_template_spec,
)
from repro.workloads.astar import build_astar_workload
from repro.workloads.libquantum import build_libquantum_workload


def test_ablation_baseline_predictor_strength(benchmark):
    """TAGE-SC-L must clearly beat gshare on astar's hard branches —
    i.e. the custom component's win is NOT an artifact of a weak
    baseline predictor."""

    def run_both():
        tage = simulate(
            build_astar_workload(), SimConfig(max_instructions=BENCH_WINDOW)
        )
        gshare = simulate(
            build_astar_workload(),
            SimConfig(
                max_instructions=BENCH_WINDOW,
                core=CoreParams(predictor="gshare"),
            ),
        )
        return tage, gshare

    tage, gshare = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print(f"\nTAGE-SC-L MPKI {tage.mpki:.1f} vs gshare MPKI {gshare.mpki:.1f}")
    assert tage.mpki < gshare.mpki


def test_ablation_baseline_prefetchers(benchmark):
    """Disabling next-line+VLDP must hurt the libquantum baseline: the
    custom prefetcher's speedup is measured over a real prefetching
    baseline, not a strawman."""

    def run_both():
        with_pf = simulate(
            build_libquantum_workload(),
            SimConfig(max_instructions=BENCH_WINDOW),
        )
        without_pf = simulate(
            build_libquantum_workload(),
            SimConfig(
                max_instructions=BENCH_WINDOW,
                memory=HierarchyParams(
                    enable_l1_prefetcher=False, enable_vldp=False
                ),
            ),
        )
        return with_pf, without_pf

    with_pf, without_pf = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print(f"\nbaseline IPC with prefetchers {with_pf.ipc:.3f}, "
          f"without {without_pf.ipc:.3f}")
    assert with_pf.ipc > without_pf.ipc


def test_ablation_distance_policy(benchmark):
    """Rate-based distance control vs the paper's literal hill-climb."""

    class HillclimbLibq(LibquantumPrefetcher):
        def __init__(self, timings, memory, metadata=None):
            super().__init__(timings, memory, metadata)
            self.controller = AdaptiveDistanceController(mode="hillclimb")

    def run_both():
        base = simulate(
            build_libquantum_workload(),
            SimConfig(max_instructions=BENCH_WINDOW),
        )
        rate = simulate(
            build_libquantum_workload(),
            SimConfig(max_instructions=BENCH_WINDOW,
                      pfm=PFMParams(width=1, delay=0)),
        )
        hill = simulate(
            build_libquantum_workload(component_factory=HillclimbLibq),
            SimConfig(max_instructions=BENCH_WINDOW,
                      pfm=PFMParams(width=1, delay=0)),
        )
        return base, rate, hill

    base, rate, hill = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print(f"\nrate {100 * rate.speedup_over(base):+.0f}%  "
          f"hillclimb {100 * hill.speedup_over(base):+.0f}%")
    # Both help; the rate policy converges within these short windows at
    # least as well as hill-climbing.
    assert rate.ipc >= hill.ipc * 0.95
    assert hill.ipc > base.ipc * 0.9


_NO_CAM_SPEC = dataclasses.replace(astar_template_spec(), infer_stores=False)


def _no_cam_astar(timings, memory, metadata=None):
    """astar component with the index1_CAM inference disabled."""
    return TemplatedRunaheadPredictor(
        timings, memory, {**(metadata or {}), "spec": _NO_CAM_SPEC}
    )


def test_ablation_astar_alt_strategy(benchmark):
    """Section 5's two astar strategies: the load-based main design vs
    the table-mimicking astar-alt (paper: 154% vs 125%)."""
    from repro.workloads.astar import build_astar_alt_workload

    def run_all():
        base = simulate(
            build_astar_workload(), SimConfig(max_instructions=BENCH_WINDOW)
        )
        main = simulate(
            build_astar_workload(),
            SimConfig(max_instructions=BENCH_WINDOW, pfm=PFMParams(delay=0)),
        )
        alt = simulate(
            build_astar_alt_workload(),
            SimConfig(max_instructions=BENCH_WINDOW, pfm=PFMParams(delay=0)),
        )
        return base, main, alt

    base, main, alt = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print(f"\nmain {100 * main.speedup_over(base):+.0f}%  "
          f"alt {100 * alt.speedup_over(base):+.0f}%  "
          f"(paper: +154% vs +125%)")
    assert base.ipc < alt.ipc < main.ipc
    assert alt.agent_loads == 0  # mimics data structures, never loads


def test_ablation_store_inference(benchmark):
    """Without the index1_CAM the component mispredicts every in-window
    revisit — the loop-carried dependency the paper's design exists to
    solve (Section 4.1.2)."""

    def run_both():
        with_cam = simulate(
            build_astar_workload(),
            SimConfig(max_instructions=BENCH_WINDOW, pfm=PFMParams(delay=0)),
        )
        without_cam = simulate(
            build_astar_workload(component_factory=_no_cam_astar),
            SimConfig(max_instructions=BENCH_WINDOW, pfm=PFMParams(delay=0)),
        )
        return with_cam, without_cam

    with_cam, without_cam = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print(f"\nMPKI with CAM {with_cam.mpki:.2f}, without {without_cam.mpki:.2f}")
    assert without_cam.mpki > with_cam.mpki * 1.5
    assert without_cam.ipc < with_cam.ipc
