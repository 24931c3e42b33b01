"""The bfs custom component: T0-T3 decoupling and visited inference."""

import pytest

from tests.pfm_harness import FakeFabric, enable, make_io, send_obs, step_component

from repro.pfm.component import RFTimings
from repro.pfm.components.bfs_engine import BfsEngine
from repro.pfm.snoop import SnoopKind
from repro.workloads.graphs import CSRGraph
from repro.workloads.mem import MemoryImage


def line_graph(n=6):
    """0-1-2-...-n-1 chain."""
    offsets, neighbors = [0], []
    for u in range(n):
        if u > 0:
            neighbors.append(u - 1)
        if u < n - 1:
            neighbors.append(u + 1)
        offsets.append(len(neighbors))
    return CSRGraph(n, offsets, neighbors)


def make_setup(graph=None, frontier=(0,), width=4, scope=16, visited=()):
    graph = graph or line_graph()
    memory = MemoryImage()
    offsets_base = memory.store_array("offsets", graph.offsets)
    neighbors_base = memory.store_array("neighbors", graph.neighbors)
    props = [-1] * graph.num_nodes
    for v in visited:
        props[v] = 99
    prop_base = memory.store_array("properties", props)
    frontier_base = memory.store_array(
        "frontier", list(frontier) + [0] * (graph.num_nodes - len(frontier))
    )
    component = BfsEngine(
        RFTimings(clk_ratio=4, width=width, delay=0),
        memory,
        {"queue_entries": scope},
    )
    fabric = FakeFabric(memory)
    io = make_io(component, fabric)
    enable(fabric)
    send_obs(fabric, SnoopKind.DEST_VALUE, "offsets_base", value=offsets_base)
    send_obs(fabric, SnoopKind.DEST_VALUE, "neighbors_base", value=neighbors_base)
    send_obs(fabric, SnoopKind.DEST_VALUE, "prop_base", value=prop_base)
    send_obs(fabric, SnoopKind.DEST_VALUE, "frontier_base", value=frontier_base)
    return component, fabric, io, memory, graph


def test_configuration_and_call_reset():
    component, fabric, io, _, _ = make_setup()
    step_component(component, fabric, io, cycles=3)
    assert component.enabled
    assert component.offsets_base is not None
    assert fabric.new_calls == 1


def test_prediction_interleaving_for_middle_node():
    # Node 2 of the chain has neighbours 1 and 3, both unvisited.
    component, fabric, io, _, _ = make_setup(frontier=(2,))
    step_component(component, fabric, io, cycles=40)
    tags = [tag for _, tag in fabric.preds[:5]]
    assert tags == ["loop_exit", "visited", "loop_exit", "visited", "loop_exit"]
    values = [taken for taken, _ in fabric.preds[:5]]
    # Two iterations (NT on loop_exit), both neighbours unvisited (NT),
    # then the final loop exit (T).
    assert values == [False, False, False, False, True]


def test_visited_neighbor_predicted_taken():
    component, fabric, io, _, _ = make_setup(frontier=(2,), visited=(1,))
    step_component(component, fabric, io, cycles=40)
    # First visited prediction corresponds to neighbour 1: taken.
    visited_preds = [taken for taken, tag in fabric.preds if tag == "visited"]
    assert visited_preds[0] is True
    assert visited_preds[1] is False  # neighbour 3


def test_trip_count_zero_node_emits_single_exit():
    graph = CSRGraph(3, [0, 0, 1, 2], [2, 1])  # node 0 isolated
    component, fabric, io, _, _ = make_setup(graph=graph, frontier=(0,))
    step_component(component, fabric, io, cycles=30)
    assert fabric.preds[0] == (True, "loop_exit")


def test_inferred_visited_store_within_window():
    """Nodes 1 and 3 share neighbour 2: the second examination of node 2
    must be predicted visited even though the store is not in memory."""
    component, fabric, io, _, _ = make_setup(frontier=(1, 3))
    step_component(component, fabric, io, cycles=80)
    visited_preds = [taken for taken, tag in fabric.preds if tag == "visited"]
    # Node 1's neighbours: 0, 2 -> [NT, NT]; node 3's: 2, 4 -> [T!, NT].
    assert visited_preds[:4] == [False, False, True, False]
    assert component.store_inferences >= 1


def test_window_dealloc_clears_inference():
    component, fabric, io, _, _ = make_setup(frontier=(1, 3), scope=8)
    step_component(component, fabric, io, cycles=80)
    assert component._inferred
    send_obs(fabric, SnoopKind.DEST_VALUE, "iter_inc", value=8)
    step_component(component, fabric, io, cycles=4)
    assert not component._inferred


def test_t0_bounded_by_scope():
    component, fabric, io, _, _ = make_setup(scope=4)
    step_component(component, fabric, io, cycles=30)
    frontier_loads = [
        info for info in component._pending_loads.values()
        if info[0] == "frontier"
    ]
    assert component._tail - component._head <= 4


def test_loads_cover_all_structures():
    component, fabric, io, memory, _ = make_setup(frontier=(2,))
    step_component(component, fabric, io, cycles=40)
    addresses = [addr for _, addr, _ in fabric.loads]
    for region in ("frontier", "offsets", "neighbors", "properties"):
        assert any(memory.contains(region, a) for a in addresses), region


def test_is_idle_semantics():
    component, fabric, io, memory, _ = make_setup(scope=2, frontier=(2,))
    fresh = BfsEngine(RFTimings(4, 4, 0), memory, {"queue_entries": 2})
    assert fresh.is_idle()
    step_component(component, fabric, io, cycles=60)
    assert component.is_idle()  # scope exhausted, everything emitted


def test_structure_inventory():
    structure = BfsEngine(
        RFTimings(4, 4, 0), MemoryImage(), {"queue_entries": 64}
    ).structure()
    assert structure["queue_bits"] > 0
    assert structure["width"] == 4


@pytest.mark.parametrize("width", [1, 2, 4])
def test_each_inferred_store_counted_once(width):
    """No node is visited in memory, so every visited prediction pushed
    taken is one inferred store (8 at W=1, 14 at W=2 and 4).  A visited
    push refused for budget is retried next RF cycle; the retry must not
    count the inference again (counting before the push reads 16, 20
    and 15)."""
    component, fabric, io, _, _ = make_setup(frontier=(1, 3), width=width)
    step_component(component, fabric, io, cycles=80)
    taken = [t for t, tag in fabric.preds if tag == "visited" and t]
    assert len(taken) >= 8
    assert component.store_inferences == len(taken)
