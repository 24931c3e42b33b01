"""Structural resource models for the one-pass cycle engine.

The cycle model processes the correct-path trace in program order, binding
each instruction to timestamps (fetch, dispatch, issue, complete, retire).
These helpers enforce the finite-capacity structures of Table 1 in that
timestamp domain:

* :class:`RingOccupancy` — in-order-release structures (ROB, LDQ, STQ,
  fetch queue): entry *i* cannot allocate until entry *i - capacity* has
  released.
* :class:`HeapOccupancy` — out-of-order-release structures (the issue
  queue): allocation waits for the earliest outstanding release.
* :class:`LaneScheduler` — execution lanes with per-cycle slots, a shared
  issue-width limiter, unpipelined ops, and the PRF read-port availability
  queries the Retire Agent's port-sharing (portP) model uses.
"""

from __future__ import annotations

import heapq
from collections import deque


class RingOccupancy:
    """Capacity-limited structure whose entries release in FIFO order.

    ``releases`` holds the release times of the last ``capacity``
    allocations (a ``deque(maxlen=capacity)``, so each append past
    capacity drops the oldest).  The dispatch and fetch stages read it
    directly: a new entry waits for ``releases[0]`` when the ring is full.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.releases: deque[int] = deque(maxlen=capacity)

    def earliest_alloc(self, now: int) -> int:
        """Earliest time >= *now* a new entry can allocate."""
        releases = self.releases
        if len(releases) == self.capacity and releases[0] > now:
            return releases[0]
        return now

    def allocate(self, release_time: int) -> None:
        """Record an allocation that will release at *release_time*.

        Call after :meth:`earliest_alloc`; drops the oldest entry once the
        window slides past capacity.
        """
        self.releases.append(release_time)


class HeapOccupancy:
    """Capacity-limited structure with out-of-order releases (issue queue).

    ``releases`` is a min-heap of outstanding release times; the dispatch
    and execute stages pop and push it directly with :mod:`heapq`.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.releases: list[int] = []

    def earliest_alloc(self, now: int) -> int:
        heap = self.releases
        while heap and heap[0] <= now:
            heapq.heappop(heap)
        if len(heap) < self.capacity:
            return now
        return heap[0]

    def allocate(self, release_time: int) -> None:
        heapq.heappush(self.releases, release_time)


class LaneScheduler:
    """Execution lanes with per-cycle reservations.

    Lanes are numbered globally (ALU lanes first, then load/store, then
    FP/complex).  Each lane accepts one new operation per cycle; an
    unpipelined operation additionally blocks its lane for its full
    latency.  A global per-cycle limiter enforces the core's issue width.
    """

    def __init__(self, num_lanes: int, issue_width: int):
        self.num_lanes = num_lanes
        self.issue_width = issue_width
        self._reserved: list[dict[int, bool]] = [dict() for _ in range(num_lanes)]
        self._busy_until = [0] * num_lanes  # for unpipelined ops
        self._issue_count: dict[int, int] = {}
        self._prune_floor = 0

    # ------------------------------------------------------------------ #

    def reserve(
        self,
        lanes: tuple[int, ...],
        earliest: int,
        *,
        block_cycles: int = 0,
        max_scan: int = 100_000,
    ) -> tuple[int, int]:
        """Reserve the earliest free slot on any of *lanes* at >= *earliest*.

        Returns ``(lane, cycle)``.  *block_cycles* > 0 marks the lane busy
        beyond the issue cycle (unpipelined dividers).
        """
        reserved = self._reserved
        busy_until = self._busy_until
        counts = self._issue_count
        width = self.issue_width
        cycle = earliest
        for _ in range(max_scan):
            issued = counts.get(cycle, 0)
            if issued < width:
                for lane in lanes:
                    row = reserved[lane]
                    if cycle in row or busy_until[lane] > cycle:
                        continue
                    row[cycle] = True
                    counts[cycle] = issued + 1
                    if block_cycles and busy_until[lane] < cycle + block_cycles:
                        busy_until[lane] = cycle + block_cycles
                    return lane, cycle
            cycle += 1
        raise RuntimeError("lane scheduler scan exhausted (model bug)")

    def is_lane_free(self, lane: int, cycle: int) -> bool:
        """True if *lane* issues nothing at *cycle* (its PRF port is idle).

        The Retire Agent uses this to model opportunistic PRF port sharing:
        "the select for this MUX is a busy signal in the register read
        stage of the execution lane" (Section 2.1).
        """
        return cycle not in self._reserved[lane] and self._busy_until[lane] <= cycle

    def earliest_free_port(
        self, lanes: tuple[int, ...], earliest: int, max_scan: int = 100_000
    ) -> int:
        """Earliest cycle >= *earliest* when any of *lanes* has an idle port."""
        cycle = earliest
        for _ in range(max_scan):
            for lane in lanes:
                if self.is_lane_free(lane, cycle):
                    return cycle
            cycle += 1
        raise RuntimeError("port scan exhausted (model bug)")

    def prune(self, before_cycle: int) -> None:
        """Drop reservation state older than *before_cycle* (memory bound)."""
        if before_cycle <= self._prune_floor:
            return
        self._prune_floor = before_cycle
        for reserved in self._reserved:
            stale = [c for c in reserved if c < before_cycle]
            for c in stale:
                del reserved[c]
        stale = [c for c in self._issue_count if c < before_cycle]
        for c in stale:
            del self._issue_count[c]
