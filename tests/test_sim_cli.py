"""The command-line simulation driver and context-isolation API."""

import pytest

from repro.core import PFMParams, SimConfig, SuperscalarCore
from repro.sim import main
from repro.workloads.astar import build_astar_workload


def test_cli_baseline_run(capsys):
    assert main(["--workload", "libquantum", "--window", "4000"]) == 0
    out = capsys.readouterr().out
    assert "IPC" in out
    assert "libquantum" in out


def test_cli_pfm_notation(capsys):
    assert main([
        "--workload", "libquantum", "--window", "4000",
        "--pfm", "clk4_w1, delay0",
    ]) == 0
    out = capsys.readouterr().out
    assert "clk4_w1" in out


def test_cli_report_sections(capsys):
    assert main([
        "--workload", "astar", "--window", "5000",
        "--pfm", "clk4_w4", "--report",
    ]) == 0
    out = capsys.readouterr().out
    assert "memory hierarchy" in out
    assert "load agent" in out
    assert "core energy" in out


def test_cli_compare(capsys):
    assert main([
        "--workload", "libquantum", "--window", "4000", "--compare",
    ]) == 0
    out = capsys.readouterr().out
    assert "baseline IPC" in out


def test_cli_compare_parallel_matches_serial(capsys):
    args = ["--workload", "libquantum", "--window", "4000",
            "--pfm", "clk4_w1, delay0", "--compare"]
    assert main(args) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    # identical stats; only the wall-clock line may differ
    strip = lambda text: [line for line in text.splitlines()
                          if "wall clock" not in line]
    assert strip(serial) == strip(parallel)


def test_cli_astar_alt_workload(capsys):
    assert main(["--workload", "astar-alt", "--window", "3000"]) == 0
    out = capsys.readouterr().out
    assert "IPC" in out


def test_cli_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["--workload", "crysis"])


def test_cli_perfect_modes(capsys):
    assert main([
        "--workload", "astar", "--window", "4000", "--perfect-bp",
    ]) == 0
    out = capsys.readouterr().out
    assert "mispredicted 0" in out


# ---------------------------------------------------------------------- #
# context isolation (Section 2.4)
# ---------------------------------------------------------------------- #

def test_deprogram_flushes_and_disables():
    core = SuperscalarCore(
        build_astar_workload(grid_width=128, grid_height=128),
        SimConfig(max_instructions=8000, pfm=PFMParams(delay=0)),
    )
    core.run()
    fabric = core.fabric
    slot = fabric.slots[0]
    assert slot.enabled and slot.roi_active
    fabric.deprogram()
    assert not slot.enabled
    assert not slot.roi_active
    assert slot.obs_q.occupancy == 0
    assert slot.intq_is.occupancy == 0
    assert slot.fetch_agent.pending_count() == 0
    # Disabled fabric supplies nothing.
    assert slot.predict_entry("waymap:0", 10**6 + 1) is None


def test_reprogram_builds_fresh_component():
    core = SuperscalarCore(
        build_astar_workload(grid_width=128, grid_height=128),
        SimConfig(max_instructions=8000, pfm=PFMParams(delay=0)),
    )
    core.run()
    fabric = core.fabric
    slot = fabric.slots[0]
    old_component = slot.component
    fabric.deprogram()
    fabric.reprogram(now=10**6 + 100)
    assert slot.enabled
    assert slot.component is not old_component  # no state survives
    assert not slot.roi_active  # must re-enter the ROI
