"""Load Agent: lane arbitration, MLB replay, out-of-order returns."""

from repro.core.params import CoreParams
from repro.core.resources import LaneScheduler
from repro.memory.hierarchy import HierarchyParams, MemoryHierarchy
from repro.pfm.load_agent import MLB_REPLAY_PERIOD, LoadAgent
from repro.pfm.packets import LoadPacket
from repro.pfm.queues import TimedQueue
from repro.workloads.mem import MemoryImage


def make_agent(mlb_entries=64, warm_lines=(), retq_capacity=32):
    params = CoreParams()
    lanes = LaneScheduler(params.num_lanes, params.issue_width)
    hierarchy = MemoryHierarchy(
        HierarchyParams(
            tlb_walk_latency=0, enable_l1_prefetcher=False, enable_vldp=False
        )
    )
    memory = MemoryImage()
    memory.allocate("data", 1 << 16)
    for line in warm_lines:
        hierarchy.l1d.insert(line, now=0, fill_time=0)
    intq = TimedQueue("IntQ-IS", 32)
    retq = TimedQueue("ObsQ-EX", retq_capacity)
    agent = LoadAgent(
        intq, retq, hierarchy, memory, lanes, params.ls_lanes(),
        mlb_entries=mlb_entries,
    )
    return agent, intq, retq, memory, hierarchy


def test_load_returns_value_from_memory():
    agent, intq, retq, memory, _ = make_agent()
    base = memory.base("data")
    memory.store(base + 16, 42)
    warm_line = (base + 16) >> 6
    agent._hierarchy.l1d.insert(warm_line, now=0, fill_time=0)
    intq.push(10, LoadPacket(ident=7, address=base + 16))
    agent.tick(500)
    ret = retq.pop(10_000)
    assert ret.ident == 7
    assert ret.value == 42


def test_prefetch_produces_no_return():
    agent, intq, retq, memory, _ = make_agent()
    intq.push(10, LoadPacket(ident=1, address=memory.base("data"), is_prefetch=True))
    agent.tick(500)
    assert agent.prefetches_issued == 1
    assert retq.occupancy == 0


def test_missed_load_quantized_to_replay_period():
    agent, intq, retq, memory, _ = make_agent()
    intq.push(10, LoadPacket(ident=2, address=memory.base("data")))
    agent.tick(100)
    assert agent.load_misses == 1
    assert agent.replays >= 1
    (ready, ret), = agent._pending_returns or [(None, None)] if False else [
        (r, x) for r, x in agent._pending_returns
    ]
    # Ready time is issue + ceil(miss/period)*period + 1: period-aligned.
    assert (ready - 1) % MLB_REPLAY_PERIOD in range(MLB_REPLAY_PERIOD)
    assert ready > 100


def test_hit_returns_fast_miss_returns_slow():
    agent, intq, retq, memory, hierarchy = make_agent()
    base = memory.base("data")
    hierarchy.l1d.insert(base >> 6, now=0, fill_time=0)
    intq.push(10, LoadPacket(ident=1, address=base))  # hit
    intq.push(10, LoadPacket(ident=2, address=base + 8192))  # miss
    agent.tick(50)
    agent.tick(5000)
    first = retq.pop(10_000)
    second = retq.pop(10_000)
    assert first.ident == 1  # the hit came back first (out-of-order ok)
    assert second.ident == 2


def test_returns_blocked_by_full_obsq():
    agent, intq, retq, memory, hierarchy = make_agent(retq_capacity=8)
    base = memory.base("data")
    for i in range(20):
        hierarchy.l1d.insert((base + i * 64) >> 6, now=0, fill_time=0)
        intq.push(10, LoadPacket(ident=i, address=base + i * 64))
    agent.tick(5000)
    # ObsQ-EX capacity 8: the rest wait in the agent.
    assert retq.occupancy == 8
    assert agent.in_flight > 0
    while retq.peek_visible(10_000) is not None:
        retq.pop(10_000)
    agent.tick(6000)
    assert retq.occupancy > 0  # drained returns pushed afterwards


def test_mlb_capacity_delays_excess_misses():
    agent, intq, retq, memory, _ = make_agent(mlb_entries=2)
    base = memory.base("data")
    for i in range(4):
        intq.push(10, LoadPacket(ident=i, address=base + i * 4096))
    agent.tick(100)
    readies = sorted(r for r, _ in agent._pending_returns)
    assert len(readies) == 4
    # With only 2 MLB entries the 3rd/4th miss cannot even be accepted
    # until an earlier fill drains: their completion is strictly after
    # the first fill.
    assert readies[2] > readies[0]
    assert readies[3] > readies[1]
    assert agent.load_misses == 4


def test_next_event_time_reports_pending_work():
    agent, intq, retq, memory, _ = make_agent()
    assert agent.next_event_time() is None
    intq.push(10, LoadPacket(ident=1, address=memory.base("data")))
    assert agent.next_event_time() == 10
    agent.tick(100)
    assert agent.next_event_time() is not None  # pending return


def test_lane_slots_consumed():
    agent, intq, retq, memory, _ = make_agent()
    lanes = agent._lanes
    base = memory.base("data")
    intq.push(10, LoadPacket(ident=1, address=base))
    agent.tick(50)
    ls_lane = CoreParams().ls_lanes()
    assert any(
        not lanes.is_lane_free(lane, cycle)
        for lane in ls_lane
        for cycle in range(10, 15)
    )
