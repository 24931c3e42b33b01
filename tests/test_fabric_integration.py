"""PFM fabric integration with the core: end-to-end mechanism checks."""

import pytest

from repro.core import PFMParams, SimConfig, SuperscalarCore, simulate
from repro.experiments.pool import SweepPoint, run_point
from repro.experiments.runner import parse_config_label
from repro.memory.hierarchy import HierarchyParams
from repro.pfm import tenancy
from repro.pfm.component import CustomComponent
from repro.pfm.fetch_agent import FetchAgent
from repro.workloads.astar import build_astar_workload

WINDOW = 15_000


def astar_run(pfm=None, **kwargs):
    config = SimConfig(max_instructions=WINDOW, pfm=pfm, **kwargs)
    core = SuperscalarCore(build_astar_workload(grid_width=128, grid_height=128), config)
    stats = core.run()
    return core, stats


def test_pfm_reduces_mpki_dramatically():
    _, baseline = astar_run()
    _, custom = astar_run(pfm=PFMParams(delay=0))
    assert baseline.mpki > 20
    assert custom.mpki < baseline.mpki / 5
    assert custom.ipc > baseline.ipc * 1.5


def test_roi_activates_and_counts():
    core, stats = astar_run(pfm=PFMParams())
    assert core.fabric.slots[0].roi_active
    assert core.fabric.slots[0].roi_fetch_active
    assert stats.retired_in_roi > 0
    assert stats.fetched_in_roi > 0
    assert 0 < stats.fst_hit_pct < 100
    assert 0 < stats.rst_hit_pct < 100


def test_predictions_supplied_without_fallbacks():
    core, stats = astar_run(pfm=PFMParams())
    assert stats.pfm_predicted_branches > 1000
    assert stats.pfm_fallback_predictions == 0
    assert core.fabric.slots[0].enabled  # chicken switch never fired


def test_squash_protocol_costs_cycles():
    _, fast = astar_run(pfm=PFMParams(delay=0))
    _, slow = astar_run(pfm=PFMParams(delay=8))
    assert slow.retire_stall_squash_sync_cycles >= fast.retire_stall_squash_sync_cycles
    assert slow.ipc <= fast.ipc * 1.02  # delay never helps


def test_bandwidth_starvation_stalls_fetch():
    _, wide = astar_run(pfm=PFMParams(clk_ratio=4, width=4, delay=0))
    _, narrow = astar_run(pfm=PFMParams(clk_ratio=8, width=1, delay=0))
    assert narrow.fetch_stall_pfm_cycles > wide.fetch_stall_pfm_cycles
    assert narrow.ipc < wide.ipc


def test_port_ls1_close_to_port_all():
    """Figure 9c: PRF port availability is not an issue for astar."""
    _, all_ports = astar_run(pfm=PFMParams(delay=4, port="ALL"))
    _, one_port = astar_run(pfm=PFMParams(delay=4, port="LS1"))
    assert one_port.ipc > all_ports.ipc * 0.9


def test_queue_size_insensitivity():
    """Figure 9b: performance resistant to communication queue size.

    Resistance holds from 16 entries up in this model; below that the
    agent-side discard variant occupies IntQ-F entries the paper's
    T2-side discard never allocates (documented deviation, DESIGN.md §5).
    """
    _, small = astar_run(pfm=PFMParams(delay=4, queue_size=16))
    _, large = astar_run(pfm=PFMParams(delay=4, queue_size=64))
    assert small.ipc > large.ipc * 0.8


def test_scope_sensitivity():
    """Figure 10: a 1-entry index_queue collapses the speedup."""
    _, tiny = astar_run(
        pfm=PFMParams(delay=4, component_overrides={"index_queue_entries": 1})
    )
    _, full = astar_run(
        pfm=PFMParams(delay=4, component_overrides={"index_queue_entries": 8})
    )
    assert full.ipc > tiny.ipc * 1.3


def test_agent_loads_issued_and_counted():
    core, stats = astar_run(pfm=PFMParams())
    assert stats.agent_loads > 1000
    assert core.fabric.slots[0].load_agent.loads_issued == stats.agent_loads
    assert core.hierarchy.stats.agent_loads == stats.agent_loads


def test_obs_packets_of_all_kinds():
    _, stats = astar_run(pfm=PFMParams())
    assert stats.obs_dest_value > 0
    assert stats.obs_branch_outcome > 0
    assert stats.obs_store_value > 0


class _BrokenComponent(CustomComponent):
    """Never produces predictions: exercises the §2.4 watchdog path."""

    def step(self, io):
        while io.pop_obs() is not None:
            pass
        while io.pop_return() is not None:
            pass

    def is_idle(self):
        return True


def test_buggy_component_falls_back_to_core_predictor():
    workload = build_astar_workload(
        grid_width=128, grid_height=128, component_factory=_BrokenComponent
    )
    stats = simulate(
        workload, SimConfig(max_instructions=WINDOW, pfm=PFMParams())
    )
    # Every FST-hit branch fell back; the run completes, close to baseline.
    assert stats.pfm_fallback_predictions > 1000
    assert stats.pfm_predicted_branches == 0
    assert stats.instructions == WINDOW


class _SlowComponent(_BrokenComponent):
    """Claims work forever without producing: watchdog must fire."""

    def is_idle(self):
        return False


def test_watchdog_chicken_switch_disables_component(monkeypatch):
    monkeypatch.setattr(tenancy, "WATCHDOG_RF_CYCLES", 2_000)
    workload = build_astar_workload(
        grid_width=128, grid_height=128, component_factory=_SlowComponent
    )
    core = SuperscalarCore(
        workload, SimConfig(max_instructions=WINDOW, pfm=PFMParams())
    )
    stats = core.run()
    assert not core.fabric.slots[0].enabled  # chicken switch fired
    assert stats.instructions == WINDOW  # run still completes


def test_pfm_prefetch_effect_can_beat_perfect_bp():
    """Figure 8's note: the custom predictor's loads warm the cache, so
    clk4_w4 can slightly exceed perfect branch prediction."""
    _, perfect = astar_run(perfect_branch_prediction=True)
    _, custom = astar_run(pfm=PFMParams(delay=0))
    assert custom.ipc > perfect.ipc * 0.9  # at least comparable



def test_one_intqf_admission_scan_per_prediction_push(monkeypatch):
    """IntQ-F occupancy is scanned once per prediction push, inside
    ``FetchAgent.push``: the fabric does not pre-check it (astar golden
    configuration, fault-free, so every push reaches the agent)."""
    calls = {"can_push": 0, "pred_push": 0}
    for cls, name in ((FetchAgent, "can_push"), (tenancy.FabricSlot, "pred_push")):
        method = getattr(cls, name)

        def counted(*args, _name=name, _method=method, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    run_point(
        SweepPoint(
            label="pfm:astar",
            workload="astar",
            window=5_000,
            pfm=parse_config_label("clk4_w4, delay4, queue32, portLS1"),
        )
    )
    assert calls["pred_push"] > 0
    assert calls["can_push"] == calls["pred_push"]
