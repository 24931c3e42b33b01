"""Energy model and FPGA cost estimator."""

from repro.core import PFMParams, SimConfig, simulate
from repro.core.stats import SimStats
from repro.power.core_energy import CoreEnergyModel, EnergyBreakdown
from repro.power.fpga import (
    ASTAR_ALT_STRUCTURE,
    FPGAModel,
    table4_header,
)
from repro.workloads.astar import build_astar_workload


def fake_stats(instructions=1000, cycles=2000, squashes=10):
    stats = SimStats()
    stats.instructions = instructions
    stats.cycles = cycles
    stats.issued_ops = instructions
    stats.prf_reads = 2 * instructions
    stats.prf_writes = instructions
    stats.conditional_branches = instructions // 10
    stats.pipeline_squashes = squashes
    stats.memory_levels = {
        "L1I": {"accesses": instructions // 4, "misses": 0},
        "L1D": {"accesses": instructions // 3, "misses": 10},
        "L2": {"accesses": 10, "misses": 5},
        "L3": {"accesses": 5, "misses": 2},
    }
    return stats


def test_energy_positive_and_decomposes():
    model = CoreEnergyModel()
    energy = model.energy(fake_stats())
    assert energy.dynamic_nj > 0
    assert energy.static_nj > 0
    assert energy.total_nj == (
        energy.dynamic_nj
        + energy.wasted_speculation_nj
        + energy.static_nj
        + energy.rf_dynamic_nj
        + energy.rf_static_nj
    )


def test_fewer_squashes_less_wasted_energy():
    model = CoreEnergyModel()
    many = model.energy(fake_stats(squashes=100))
    few = model.energy(fake_stats(squashes=5))
    assert many.wasted_speculation_nj > few.wasted_speculation_nj


def test_shorter_runtime_less_static_energy():
    model = CoreEnergyModel()
    slow = model.energy(fake_stats(cycles=10_000))
    fast = model.energy(fake_stats(cycles=2_000))
    assert slow.static_nj > fast.static_nj


def test_rf_power_adds_energy():
    model = CoreEnergyModel()
    without = model.energy(fake_stats())
    with_rf = model.energy(fake_stats(), rf_dynamic_w=0.25, rf_static_w=0.86)
    assert with_rf.total_nj > without.total_nj
    assert with_rf.rf_static_nj > with_rf.rf_dynamic_nj  # 0.86 W > 0.25 W


def test_normalization():
    model = CoreEnergyModel()
    base = model.energy(fake_stats(cycles=4000))
    better = model.energy(fake_stats(cycles=2000))
    assert better.normalized_to(base) < 1.0
    assert base.normalized_to(base) == 1.0


def test_pfm_run_reduces_total_energy():
    """Figure 18's direction on a real run: PFM (core+RF) below baseline."""
    window = 15_000
    baseline = simulate(
        build_astar_workload(grid_width=128, grid_height=128),
        SimConfig(max_instructions=window),
    )
    custom = simulate(
        build_astar_workload(grid_width=128, grid_height=128),
        SimConfig(max_instructions=window, pfm=PFMParams(delay=0)),
    )
    model = CoreEnergyModel()
    base_energy = model.energy(baseline)
    pfm_energy = model.energy(custom, rf_dynamic_w=0.25, rf_static_w=0.87)
    assert pfm_energy.normalized_to(base_energy) < 1.0


# ---------------------------------------------------------------------- #
# FPGA estimator
# ---------------------------------------------------------------------- #

def astar_structure(width=4, scope=8):
    from repro.pfm.component import RFTimings
    from repro.registry.components import resolve_component
    from repro.workloads.mem import MemoryImage

    return resolve_component("astar-custom-bp")(
        RFTimings(4, width, 4), MemoryImage(), {"index_queue_entries": scope}
    ).structure()


def test_astar_inventory_is_the_figure7_design():
    """Table 4's astar row: the registered component at clk4_w4, scope 8
    carries Figure 7's inventory (queues, CAM, comparators, adders)."""
    assert astar_structure() == {
        "queue_bits": 2056, "cam_bits": 1536, "comparators": 24,
        "adders": 12, "multipliers": 0, "fsm_states": 12, "table_bits": 0,
        "width": 4,
    }


def test_astar_estimate_matches_paper_band():
    estimate = FPGAModel().estimate("astar", astar_structure())
    assert 4500 <= estimate.lut <= 8500  # paper: 6249
    assert 2500 <= estimate.ff <= 5000  # paper: 3523
    assert estimate.bram == 0 and estimate.dsp == 0
    assert 400 <= estimate.freq_mhz <= 620  # paper: 500


def test_astar_alt_uses_bram():
    estimate = FPGAModel().estimate("astar-alt", ASTAR_ALT_STRUCTURE)
    assert estimate.bram >= 10  # paper: 17.5
    assert estimate.lut < 2000  # paper: 1064


def test_small_prefetcher_is_small():
    structure = {
        "queue_bits": 0, "cam_bits": 0, "comparators": 2, "adders": 3,
        "multipliers": 0, "fsm_states": 8, "table_bits": 128, "width": 1,
    }
    estimate = FPGAModel().estimate("libq", structure)
    assert estimate.lut < 600
    assert estimate.freq_mhz > 650
    assert estimate.dyn_logic_mw < 30


def test_dsp_multipliers_counted_and_slow_clock():
    base = {
        "queue_bits": 0, "cam_bits": 0, "comparators": 4, "adders": 6,
        "multipliers": 0, "fsm_states": 10, "table_bits": 256, "width": 1,
    }
    without = FPGAModel().estimate("x", base)
    with_dsp = FPGAModel().estimate("x", {**base, "multipliers": 4})
    assert with_dsp.dsp == 4
    assert with_dsp.freq_mhz < without.freq_mhz
    assert with_dsp.dyn_io_mw > without.dyn_io_mw


def test_wider_design_costs_more():
    narrow = FPGAModel().estimate("a", astar_structure(width=1))
    wide = FPGAModel().estimate("a", astar_structure(width=4))
    assert wide.ff > narrow.ff


def test_bigger_scope_costs_more():
    small = FPGAModel().estimate("a", astar_structure(scope=4))
    large = FPGAModel().estimate("a", astar_structure(scope=16))
    assert large.lut > small.lut
    assert large.freq_mhz <= small.freq_mhz


def test_static_power_device_dominated():
    estimate = FPGAModel().estimate("astar", astar_structure())
    assert 855 <= estimate.static_mw <= 880  # paper: 861-865


def test_row_rendering():
    estimate = FPGAModel().estimate("astar", astar_structure())
    assert "astar" in estimate.row()
    assert len(table4_header()) > 20
