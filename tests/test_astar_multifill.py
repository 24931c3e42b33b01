"""Repeated fill() calls: the fillnum sentinel and ROI re-entry."""

from repro.core import PFMParams, SimConfig, SuperscalarCore
from repro.workloads.astar import build_astar_workload

GRID = dict(grid_width=48, grid_height=48)


def test_multiple_fills_complete():
    workload = build_astar_workload(fills=4, **GRID)
    executor = workload.executor()
    fillnum_bumps = 0
    roi_pc = workload.program.pcs_with_comment("snoop:fillnum")[0]
    for dyn in executor.run(3_000_000):
        if dyn.pc == roi_pc:
            fillnum_bumps += 1
        if executor.halted:
            break
    assert fillnum_bumps == 4
    # fillnum ended at 7 + 4.
    assert executor.regs["s0"] == 11


def test_fillnum_sentinel_invalidates_previous_fill():
    """The second fill() must revisit cells the first fill marked: the
    sentinel changes instead of the waymap being cleared."""
    workload = build_astar_workload(fills=2, **GRID)
    executor = workload.executor()
    for _ in range(3_000_000):
        if executor.halted:
            break
        executor.step()
    assert executor.halted
    waymap_base = workload.memory.base("waymap")
    ncells = 48 * 48
    marks = [
        int(workload.memory.load(waymap_base + i * 16)) for i in range(ncells)
    ]
    # Cells from both fills coexist with different sentinels.
    assert 8 in marks and 9 in marks


def test_pfm_survives_roi_reentry():
    """The component re-synchronizes at every fill(): new fillnum snoop,
    squash, fresh call — and keeps supplying accurate predictions."""
    baseline = SuperscalarCore(
        build_astar_workload(fills=8, **GRID),
        SimConfig(max_instructions=40_000),
    ).run()
    core = SuperscalarCore(
        build_astar_workload(fills=8, **GRID),
        SimConfig(max_instructions=40_000, pfm=PFMParams(delay=0)),
    )
    stats = core.run()
    assert core.fabric.slots[0].enabled
    assert stats.pfm_fallback_predictions < stats.pfm_predicted_branches / 50
    assert stats.mpki < baseline.mpki / 5
    assert stats.ipc > baseline.ipc * 1.5


def test_component_tracks_fillnum_across_fills():
    # A 16x16 grid completes a fill in ~20k instructions, so the window
    # spans several fill() calls and the component must track the moving
    # sentinel through repeated ROI-begin packets.
    core = SuperscalarCore(
        build_astar_workload(fills=6, grid_width=16, grid_height=16),
        SimConfig(max_instructions=60_000, pfm=PFMParams(delay=0)),
    )
    core.run()
    component = core.fabric.slots[0].component
    assert component.env["fillnum"] > 8  # advanced beyond the first fill
