"""astar-alt: the table-mimicking alternative design (Section 5)."""

import pytest

from repro.core import PFMParams, SimConfig, SuperscalarCore, simulate
from repro.pfm.component import RFTimings
from repro.pfm.components.astar_alt import (
    AstarAltPredictor,
    _MimicTable,
)
from repro.workloads.astar import build_astar_alt_workload, build_astar_workload
from repro.workloads.mem import MemoryImage

WINDOW = 15_000


def grid_kwargs(side=128):
    return dict(grid_width=side, grid_height=side)


# ---------------------------------------------------------------------- #
# mimic table
# ---------------------------------------------------------------------- #

def test_mimic_table_roundtrip_and_miss():
    table = _MimicTable(16)
    assert table.read(5) is None
    table.write(5, 99)
    assert table.read(5) == 99


def test_mimic_table_aliasing():
    table = _MimicTable(16)
    table.write(5, 1)
    table.write(5 + 16, 2)  # same slot, different tag: evicts
    assert table.read(5) is None
    assert table.read(5 + 16) == 2


def test_mimic_table_power_of_two():
    with pytest.raises(ValueError):
        _MimicTable(24)


# ---------------------------------------------------------------------- #
# end to end
# ---------------------------------------------------------------------- #

def test_alt_issues_no_loads():
    core = SuperscalarCore(
        build_astar_alt_workload(**grid_kwargs()),
        SimConfig(max_instructions=WINDOW, pfm=PFMParams(delay=0)),
    )
    stats = core.run()
    assert stats.agent_loads == 0
    assert stats.agent_prefetches == 0
    assert stats.pfm_predicted_branches > 500


def test_alt_improves_but_less_than_main_design():
    """Section 5: astar-alt yields 125% vs the main design's 154%."""
    baseline = simulate(
        build_astar_workload(**grid_kwargs()),
        SimConfig(max_instructions=WINDOW),
    )
    alt = simulate(
        build_astar_alt_workload(**grid_kwargs()),
        SimConfig(max_instructions=WINDOW, pfm=PFMParams(delay=0)),
    )
    main = simulate(
        build_astar_workload(**grid_kwargs()),
        SimConfig(max_instructions=WINDOW, pfm=PFMParams(delay=0)),
    )
    assert baseline.ipc < alt.ipc < main.ipc
    assert alt.mpki < baseline.mpki / 2


def test_alt_active_updates_cover_loop_carried_dependency():
    core = SuperscalarCore(
        build_astar_alt_workload(**grid_kwargs()),
        SimConfig(max_instructions=WINDOW, pfm=PFMParams(delay=0)),
    )
    core.run()
    component = core.fabric.slots[0].component
    assert component.active_updates > 100
    assert component.corrections > 100


def test_alt_less_robust_to_large_inputs():
    """The paper's footnote: the load-based strategy is 'more robust to
    different input dataset sizes' — shrink astar-alt's tables below the
    grid size and its accuracy degrades; the main design is unaffected."""
    def alt_mpki(table_entries):
        stats = simulate(
            build_astar_alt_workload(
                table_entries=table_entries, **grid_kwargs(side=192)
            ),
            SimConfig(max_instructions=WINDOW, pfm=PFMParams(delay=0)),
        )
        return stats.mpki

    large_tables = alt_mpki(64 * 1024)
    # The wavefront's active set must overflow the table for aliasing to
    # bite: 256 entries against a 36864-cell grid degrades heavily.
    tiny_tables = alt_mpki(256)
    assert tiny_tables > large_tables * 1.5


def test_alt_structure_is_bram_dominated():
    component = AstarAltPredictor(
        RFTimings(4, 1, 4), MemoryImage(), {"table_entries": 16 * 1024}
    )
    structure = component.structure()
    assert structure["table_bits"] > 500_000
    assert structure["cam_bits"] == 0


def test_alt_worklist_reconciliation():
    """The internal worklists must track the program's actual worklists
    (appends are reconciled from the retire stream)."""
    core = SuperscalarCore(
        build_astar_alt_workload(**grid_kwargs()),
        SimConfig(max_instructions=WINDOW, pfm=PFMParams(delay=0)),
    )
    core.run()
    component = core.fabric.slots[0].component
    # After the first call the component is self-sustaining.
    assert not component._first_call
    assert len(component._in_list) > 0
