"""Squash/squash-done protocol edge cases (§2.1, §4.1.2).

Two situations the integration suite never lines up on its own: a squash
arriving while ObsQ-R is completely full, and a second squash issued
before the first squash-done has elapsed.  Squash notifications travel
out-of-band (they are not ObsQ-R entries), so back-pressure must never
delay or drop them, and the handshake must serialize cleanly when
squashes pile up.
"""

from __future__ import annotations

import pytest

from repro.core import PFMParams, SimConfig, SuperscalarCore, simulate
from repro.faults import check_equivalence
from repro.pfm.fetch_agent import FetchAgent
from repro.pfm.packets import ObsPacket, SquashPacket
from repro.pfm.snoop import SnoopKind
from repro.workloads.astar import build_astar_workload


def make_slot(queue_size: int = 8):
    workload = build_astar_workload(grid_width=64, grid_height=64)
    config = SimConfig(
        max_instructions=1_000, pfm=PFMParams(queue_size=queue_size)
    )
    core = SuperscalarCore(workload, config)
    slot = core.fabric.slots[0]
    slot.roi_active = True  # on_core_squash is a no-op outside the ROI
    return slot


def _packet(i: int) -> ObsPacket:
    return ObsPacket(kind=SnoopKind.DEST_VALUE, tag="t", pc=0x40, value=float(i))


def test_squash_bypasses_full_obsq():
    slot = make_slot(queue_size=4)
    for i in range(4):
        slot.obs_q.push(10 + i, _packet(i))
    assert not slot.obs_q.can_push()

    done = slot.on_core_squash(100, "branch")
    c = slot.timings.clk_ratio
    assert done == 100 + (slot.timings.delay + 3) * c

    # The squash is visible to the component ahead of every queued
    # observation, full queue notwithstanding.
    now = 100 + c
    head = slot.obs_peek(now)
    assert isinstance(head, SquashPacket)
    popped = slot.obs_pop(now)
    assert isinstance(popped, SquashPacket)
    assert popped.core_time == 100 + c
    # ObsQ-R contents survived untouched; next pop is the oldest packet.
    assert slot.obs_q.occupancy == 4
    assert slot.obs_pop(now).value == 0.0


def test_back_to_back_squashes_serialize():
    slot = make_slot()
    c = slot.timings.clk_ratio
    first_done = slot.on_core_squash(100, "branch")
    second_done = slot.on_core_squash(104, "disambiguation")
    assert second_done > first_done >= 100
    assert slot.squashes_signalled == 2
    assert slot._pending_squashes == [100 + c, 104 + c]

    # Both notifications reach the component, oldest first.
    now = second_done
    first = slot.obs_pop(now)
    second = slot.obs_pop(now)
    assert isinstance(first, SquashPacket) and isinstance(second, SquashPacket)
    assert first.core_time < second.core_time
    assert slot._pending_squashes == []


def test_repeated_squash_refloors_pending_predictions():
    agent = FetchAgent(queue_size=16, clk_ratio=4, width=4)
    for i in range(8):
        agent.push(taken=bool(i % 2), ready=10 + i, tag=f"b{i}")

    agent.apply_squash(squash_done=100)
    first_floors = [e.ready for e in agent._pending]
    assert min(first_floors) >= 100 + 4  # squash_done + one RF cycle

    # A second squash before any packet was consumed must re-floor to the
    # *later* done time — floors only ever move forward.
    agent.apply_squash(squash_done=200)
    second_floors = [e.ready for e in agent._pending]
    assert min(second_floors) >= 200 + 4
    assert all(b >= a for a, b in zip(first_floors, second_floors))
    # Replay bandwidth: W packets per RF cycle after squash-done.
    assert second_floors == sorted(second_floors)
    assert second_floors[0] == second_floors[3]  # same replay group of 4
    assert second_floors[4] == second_floors[0] + 4


def test_squash_storm_with_tiny_queue_stays_architecturally_equivalent():
    """Full-run stress: queue8 forces ObsQ-R back-pressure around the
    frequent astar squashes; timing degrades, architecture must not."""
    workload = build_astar_workload(grid_width=64, grid_height=64)
    window = SimConfig(max_instructions=2_500)
    baseline = simulate(workload, window)
    core = SuperscalarCore(
        build_astar_workload(grid_width=64, grid_height=64),
        SimConfig(max_instructions=2_500, pfm=PFMParams(queue_size=8)),
    )
    stats = core.run()
    assert core.fabric.slots[0].squashes_signalled > 0
    assert check_equivalence(baseline, stats).ok
