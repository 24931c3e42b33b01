"""End-to-end use-case checks: each paper workload's headline behaviour."""

import pytest

from repro.core import PFMParams, SimConfig, SuperscalarCore, simulate
from repro.workloads.bfs import build_bfs_workload
from repro.workloads.bwaves import build_bwaves_workload
from repro.workloads.graphs import road_graph
from repro.workloads.lbm import build_lbm_workload
from repro.workloads.leslie import build_leslie_workload
from repro.workloads.libquantum import build_libquantum_workload
from repro.workloads.milc import build_milc_workload

WINDOW = 15_000

_graph = road_graph(side=96)


def run(build, pfm=None, **kwargs):
    return simulate(
        build(), SimConfig(max_instructions=WINDOW, pfm=pfm, **kwargs)
    )


def bfs_build():
    return build_bfs_workload(graph=_graph)


# ---------------------------------------------------------------------- #
# bfs (Section 4.2)
# ---------------------------------------------------------------------- #

def test_bfs_mpki_collapses():
    baseline = run(bfs_build)
    custom = run(bfs_build, pfm=PFMParams(delay=0))
    assert baseline.mpki > 10
    assert custom.mpki < baseline.mpki / 4
    assert custom.ipc > baseline.ipc


def test_bfs_idealization_ordering():
    """Figure 12: perfBP < perfD$ < perfBP+D$; custom between."""
    baseline = run(bfs_build)
    perf_bp = run(bfs_build, perfect_branch_prediction=True)
    perf_d = run(bfs_build, perfect_dcache=True)
    both = run(bfs_build, perfect_branch_prediction=True, perfect_dcache=True)
    custom = run(bfs_build, pfm=PFMParams(delay=0))
    assert perf_bp.ipc < perf_d.ipc < both.ipc
    assert baseline.ipc < custom.ipc < both.ipc


def test_bfs_scope_scaling():
    """Figure 14: performance scales with the queue entries."""
    small = run(
        bfs_build,
        pfm=PFMParams(delay=4, component_overrides={"queue_entries": 4}),
    )
    large = run(
        bfs_build,
        pfm=PFMParams(delay=4, component_overrides={"queue_entries": 64}),
    )
    assert large.ipc > small.ipc


def test_bfs_component_issues_many_loads():
    core = SuperscalarCore(
        bfs_build(), SimConfig(max_instructions=WINDOW, pfm=PFMParams(delay=0))
    )
    stats = core.run()
    # T0-T3 load frontier, offsets, neighbours, and properties.
    assert stats.agent_loads > stats.loads / 2


# ---------------------------------------------------------------------- #
# prefetchers (Section 4.3)
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize(
    "build",
    [
        build_libquantum_workload,
        build_bwaves_workload,
        build_lbm_workload,
        build_milc_workload,
        build_leslie_workload,
    ],
    ids=["libquantum", "bwaves", "lbm", "milc", "leslie"],
)
def test_prefetcher_speeds_up(build):
    baseline = run(build)
    custom = run(build, pfm=PFMParams(clk_ratio=4, width=1, delay=0))
    assert custom.ipc > baseline.ipc * 1.03
    assert custom.agent_prefetches > 100


def test_prefetcher_resistant_to_width():
    """Figure 17: W barely matters for prefetch-only use-cases."""
    narrow = run(build_libquantum_workload, pfm=PFMParams(width=1, delay=0))
    wide = run(build_libquantum_workload, pfm=PFMParams(width=4, delay=0))
    assert abs(narrow.ipc - wide.ipc) / wide.ipc < 0.25


def test_prefetcher_resistant_to_delay():
    near = run(build_libquantum_workload, pfm=PFMParams(width=1, delay=0))
    far = run(build_libquantum_workload, pfm=PFMParams(width=1, delay=8))
    assert far.ipc > near.ipc * 0.8


def test_prefetcher_never_stalls_fetch():
    stats = run(build_libquantum_workload, pfm=PFMParams(width=1, delay=0))
    assert stats.fetch_stall_pfm_cycles == 0  # no FST entries
    assert stats.pfm_predicted_branches == 0


def test_lbm_sets_never_partial():
    core = SuperscalarCore(
        build_lbm_workload(),
        SimConfig(max_instructions=WINDOW, pfm=PFMParams(width=1, delay=0)),
    )
    core.run()
    component = core.fabric.slots[0].component
    issued = {site.issued for site in component.sites}
    staged = len(component._staged_set)
    # All sites aligned except for a partially-drained staged set.
    assert max(issued) - min(issued) <= 1 or staged > 0


def test_milc_adaptive_distance_engages():
    core = SuperscalarCore(
        build_milc_workload(),
        SimConfig(max_instructions=WINDOW, pfm=PFMParams(width=1, delay=0)),
    )
    core.run()
    controller = core.fabric.slots[0].component.controller
    assert controller.adjustments > 0
