"""The custom astar branch predictor (the registered ``astar-custom-bp``,
the run-ahead template over the astar spec): engines, ordering, store
inference."""

import pytest

from tests.pfm_harness import FakeFabric, enable, make_io, send_obs, step_component

from repro.pfm.component import RFTimings
from repro.pfm.snoop import SnoopKind
from repro.registry.components import resolve_component
from repro.workloads.mem import MemoryImage

astar_bp = resolve_component("astar-custom-bp")


def make_setup(width=4, scope=8, grid_width=16, fillnum=8):
    memory = MemoryImage()
    ncells = grid_width * grid_width
    waymap_base = memory.allocate("waymap", 2 * ncells)
    maparp_base = memory.allocate("maparp", ncells)
    worklist_base = memory.allocate("worklist", ncells)
    component = astar_bp(
        RFTimings(clk_ratio=4, width=width, delay=0),
        memory,
        {"index_queue_entries": scope, "waymap_stride": 16},
    )
    fabric = FakeFabric(memory)
    io = make_io(component, fabric)
    enable(fabric, value=fillnum)
    send_obs(fabric, SnoopKind.DEST_VALUE, "yoffset", value=grid_width)
    send_obs(fabric, SnoopKind.DEST_VALUE, "waymap_base", value=waymap_base)
    send_obs(fabric, SnoopKind.DEST_VALUE, "maparp_base", value=maparp_base)
    send_obs(fabric, SnoopKind.DEST_VALUE, "worklist_base", value=worklist_base)
    return component, fabric, io, memory


def test_snoops_configure_component():
    component, fabric, io, _ = make_setup()
    step_component(component, fabric, io, cycles=3)
    assert component.enabled
    assert component.env == {"fillnum": 8, "yoffset": 16}
    assert component.worklist_base is not None
    assert fabric.new_calls == 1


def test_t0_runs_ahead_up_to_scope():
    component, fabric, io, _ = make_setup(scope=4)
    step_component(component, fabric, io, cycles=12)
    # One T0 worklist load per iteration, bounded by the 4-entry scope.
    t0_loads = [l for l in fabric.loads if not l[0] & (1 << 20)]
    assert len(t0_loads) == 4


def test_head_advance_frees_scope():
    component, fabric, io, _ = make_setup(scope=4)
    step_component(component, fabric, io, cycles=12)
    send_obs(fabric, SnoopKind.DEST_VALUE, "iter_inc", value=2)
    step_component(component, fabric, io, cycles=8)
    t0_loads = [l for l in fabric.loads if not l[0] & (1 << 20)]
    assert len(t0_loads) == 6  # two more after retiring two iterations


def test_predictions_follow_program_order_pairs():
    component, fabric, io, memory = make_setup(grid_width=16)
    # Worklist: one index in the grid interior, all neighbours unvisited
    # and unblocked -> all pairs predicted [NT, NT].
    memory.store_index("worklist", 0, 5 * 16 + 5)
    step_component(component, fabric, io, cycles=40)
    tags = [tag for _, tag in fabric.preds[:16]]
    expected = []
    for k in range(8):
        expected += [f"waymap:{k}", f"maparp:{k}"]
    assert tags == expected
    directions = [taken for taken, _ in fabric.preds[:16]]
    assert directions == [False] * 16  # all enter the CD region


def test_visited_cell_predicts_taken():
    component, fabric, io, memory = make_setup(grid_width=16, fillnum=8)
    index = 5 * 16 + 5
    memory.store_index("worklist", 0, index)
    # Mark neighbour k=0 (index - 17) as already visited with fillnum 8.
    waymap_base = memory.base("waymap")
    memory.store(waymap_base + (index - 17) * 16, 8)
    step_component(component, fabric, io, cycles=40)
    assert fabric.preds[0] == (True, "waymap:0")


def test_blocked_cell_predicts_maparp_taken():
    component, fabric, io, memory = make_setup(grid_width=16)
    index = 5 * 16 + 5
    memory.store_index("worklist", 0, index)
    memory.store_index("maparp", index - 17, 1)  # k=0 neighbour blocked
    step_component(component, fabric, io, cycles=40)
    assert fabric.preds[0] == (False, "waymap:0")
    assert fabric.preds[1] == (True, "maparp:0")


def test_inferred_store_overrides_later_visit():
    """Two worklist cells sharing a neighbour: the second visit must be
    predicted taken even though the store is not in memory (the
    index1_CAM inference of Section 4.1.2)."""
    component, fabric, io, memory = make_setup(grid_width=16)
    a = 5 * 16 + 5
    b = a + 2  # shares neighbours in the column between them
    memory.store_index("worklist", 0, a)
    memory.store_index("worklist", 1, b)
    step_component(component, fabric, io, cycles=80)
    # Neighbour a+1 (k=4 of cell a) == neighbour b-1 (k=3 of cell b).
    preds = {}
    iteration = 0
    k_counts = {}
    ordered = [tag for _, tag in fabric.preds]
    # Find the second iteration's waymap:3 prediction (cell b's b-1).
    first_iter_end = 16
    second = fabric.preds[first_iter_end:]
    way3 = [p for p in second if p[1] == "waymap:3"]
    assert way3 and way3[0][0] is True
    assert component.store_inferences >= 1


@pytest.mark.parametrize("width", [1, 2, 4])
def test_each_inferred_store_counted_once(width):
    """A check group straddling RF cycles (W < 2 checks) re-evaluates its
    CAM hit on resume; the inference still counts once, at its push."""
    component, fabric, io, memory = make_setup(width=width, grid_width=16)
    a = 5 * 16 + 5
    memory.store_index("worklist", 0, a)
    memory.store_index("worklist", 1, a + 2)
    step_component(component, fabric, io, cycles=200)
    # 43 distinct (iteration, derived index) inferences at every width.
    assert component.store_inferences == 43


def test_cam_scope_deallocates_on_retire():
    component, fabric, io, memory = make_setup(grid_width=16, scope=2)
    a = 5 * 16 + 5
    memory.store_index("worklist", 0, a)
    memory.store_index("worklist", 1, a + 2)
    step_component(component, fabric, io, cycles=60)
    assert component._cam  # inferences recorded
    send_obs(fabric, SnoopKind.DEST_VALUE, "iter_inc", value=2)
    step_component(component, fabric, io, cycles=4)
    assert not component._cam  # scope slid past both iterations


def test_new_call_resets_state():
    component, fabric, io, memory = make_setup()
    memory.store_index("worklist", 0, 5 * 16 + 5)
    step_component(component, fabric, io, cycles=40)
    assert fabric.preds
    other = memory.allocate("worklist2", 16)
    send_obs(fabric, SnoopKind.DEST_VALUE, "worklist_base", value=other)
    step_component(component, fabric, io, cycles=2)
    assert fabric.new_calls == 2
    assert component._tail <= component.scope  # restarted


def test_width_limits_prediction_rate():
    component, fabric, io, memory = make_setup(width=2)
    memory.store_index("worklist", 0, 5 * 16 + 5)
    before_counts = []
    step_component(component, fabric, io, cycles=1)
    for _ in range(30):
        before = len(fabric.preds)
        step_component(component, fabric, io, cycles=1)
        before_counts.append(len(fabric.preds) - before)
    assert max(before_counts) <= 2  # W=2 predictions per RF cycle


def test_is_idle_before_enable_and_after_work():
    component, fabric, io, memory = make_setup(scope=2)
    fresh = astar_bp(
        RFTimings(4, 4, 0), memory, {"index_queue_entries": 2}
    )
    assert fresh.is_idle()
    memory.store_index("worklist", 0, 5 * 16 + 5)
    step_component(component, fabric, io, cycles=60)
    # Scope full, all pairs emitted: nothing processable.
    assert component.is_idle()


def test_structure_inventory_scales_with_scope():
    small = astar_bp(
        RFTimings(4, 4, 0), MemoryImage(), {"index_queue_entries": 4}
    ).structure()
    large = astar_bp(
        RFTimings(4, 4, 0), MemoryImage(), {"index_queue_entries": 16}
    ).structure()
    assert large["queue_bits"] > small["queue_bits"]
    assert large["cam_bits"] > small["cam_bits"]
