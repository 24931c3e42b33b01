"""Smaller behaviours across modules."""

from repro.core import PFMParams, SimConfig, SuperscalarCore
from repro.core.stats import SimStats
from repro.pfm.packets import LoadPacket, ObsPacket, SquashPacket
from repro.pfm.snoop import SnoopKind
from repro.workloads.astar import build_astar_workload


def test_packet_dataclasses_hold_fields():
    obs = ObsPacket(
        kind=SnoopKind.STORE_VALUE, tag="s", pc=0x10, value=1.0, address=0x80
    )
    assert obs.kind is SnoopKind.STORE_VALUE and obs.address == 0x80
    load = LoadPacket(ident=9, address=0x100, is_prefetch=True)
    assert load.is_prefetch
    squash = SquashPacket(core_time=77, reason="branch")
    assert squash.core_time == 77


def test_stats_pfm_accuracy():
    stats = SimStats()
    assert stats.pfm_accuracy == 0.0
    stats.pfm_predicted_branches = 100
    stats.pfm_mispredicts = 5
    assert stats.pfm_accuracy == 0.95


def test_stats_speedup_against_zero_baseline():
    stats = SimStats()
    stats.instructions, stats.cycles = 100, 100
    assert stats.speedup_over(SimStats()) == 0.0


def test_fabric_queue_stats_shape():
    core = SuperscalarCore(
        build_astar_workload(grid_width=48, grid_height=48),
        SimConfig(max_instructions=6_000, pfm=PFMParams(delay=0)),
    )
    core.run()
    stats = core.fabric.queue_stats()
    assert set(stats) == {"ObsQ-R", "IntQ-IS", "ObsQ-EX", "IntQ-F"}
    assert stats["ObsQ-R"]["pushes"] > 0
    assert stats["IntQ-IS"]["pushes"] > 0
    assert stats["IntQ-F"]["pushes"] > 0
    for counters in stats.values():
        assert counters["full_rejects"] >= 0


def test_obs_q_max_occupancy_bounded_by_capacity():
    params = PFMParams(delay=0, queue_size=8)
    core = SuperscalarCore(
        build_astar_workload(grid_width=48, grid_height=48),
        SimConfig(max_instructions=6_000, pfm=params),
    )
    core.run()
    for name, queue_stats in core.fabric.queue_stats().items():
        if name == "IntQ-F":
            # Its high-water mark spans the whole pending prediction
            # stream, delay pipeline included (see FetchAgent.stats).
            continue
        assert queue_stats["max_occupancy"] <= 8, name


def test_component_structures_all_have_width():
    from repro.experiments.fpga_table4 import component_structures

    for name, structure in component_structures().items():
        assert structure.get("width", 0) >= 1, name
        assert all(v >= 0 for v in structure.values()), name


def test_tlb_cost_visible_for_agent_loads():
    """Agent loads translate through the TLB like demand loads (§2.4)."""
    core = SuperscalarCore(
        build_astar_workload(grid_width=128, grid_height=128),
        SimConfig(max_instructions=8_000, pfm=PFMParams(delay=0)),
    )
    before = core.hierarchy.tlb.accesses
    core.run()
    assert core.hierarchy.tlb.accesses > before
    assert core.hierarchy.tlb.misses > 0
