"""Load Agent (Section 2.3, Figure 5).

Pops prefetch/load packets from the Intervention Queue at Issue (IntQ-IS)
and injects them into a load/store execution lane when its issue port is
idle.  Injected loads are handled specially by the core: no store-queue
search, no wakeup/bypass, no PRF write — they only translate through the
TLB and access the data cache, and their results steer back to the agent.

Loads that miss are parked in the :data:`MLB_ENTRIES`-entry Missed Load
Buffer and replayed every :data:`MLB_REPLAY_PERIOD` core cycles until they
hit; values return to the component via the
Observation Queue at Execute (ObsQ-EX), possibly out of order, tagged with
the component's unique identifier.
"""

from __future__ import annotations

import heapq
from operator import itemgetter

from repro.memory.hierarchy import MemoryHierarchy
from repro.pfm.packets import LoadPacket, LoadReturn
from repro.pfm.queues import TimedQueue
from repro.workloads.mem import WORD_BYTES, MemoryImage

#: Missed Load Buffer capacity (fixed in the paper; a fault plan may
#: shrink it).
MLB_ENTRIES = 64
#: Core cycles between MLB replay attempts.
MLB_REPLAY_PERIOD = 8

_READY = itemgetter(0)  # sort key of a (ready, LoadReturn) pending return


class LoadAgent:
    """IntQ-IS consumer; ObsQ-EX producer.

    ``watchdog`` (a :class:`~repro.core.watchdog.Watchdog`) gates packet
    acceptance when its MLB-thrash throttle is open; ``injector`` (a
    :class:`~repro.faults.inject.FaultInjector`) may drop or corrupt load
    returns in transit.  Both are optional and duck-typed so the agent
    carries no dependency on either subsystem.
    """

    def __init__(
        self,
        intq: TimedQueue,
        retq: TimedQueue,
        hierarchy: MemoryHierarchy,
        memory: MemoryImage,
        lanes,
        ls_lanes: tuple[int, ...],
        mlb_entries: int = MLB_ENTRIES,
        watchdog=None,
        injector=None,
    ):
        self._intq = intq
        self._retq = retq
        self._hierarchy = hierarchy
        self._memory = memory
        self._lanes = lanes
        self._ls_lanes = ls_lanes
        self._mlb_entries = mlb_entries
        self._watchdog = watchdog
        self._injector = injector
        self._mlb_fills: list[int] = []  # outstanding missed-load fill times
        self._pending_returns: list[tuple[int, LoadReturn]] = []  # (ready, ret)
        self.loads_issued = 0
        self.prefetches_issued = 0
        self.load_misses = 0
        self.replays = 0
        self.loads_sanitized = 0
        self.probe = None  # optional telemetry hub

    # ------------------------------------------------------------------ #

    def tick(self, now: int) -> None:
        """Process IntQ-IS packets and return completions visible by *now*."""
        pop_visible = self._intq.pop_visible
        while True:
            head = pop_visible(now)
            if head is None:
                break
            visible, packet = head
            if self._watchdog is not None and self._watchdog.load_throttled():
                # MLB-thrash throttle open: shed injection packets rather
                # than let replays keep hammering the cache ports.
                self._watchdog.note_load_dropped()
                continue
            self._issue(packet, max(visible, 0))
        if self._pending_returns:
            self._flush_returns(now)

    def _issue(self, packet: LoadPacket, earliest: int) -> None:
        address = packet.address
        if address < 0 or address % WORD_BYTES:
            # In-transit corruption can hand the agent a torn address.
            # Injected loads are hints and must never trap: align and
            # clamp instead of letting the memory image raise.
            address = max(0, address - address % WORD_BYTES)
            self.loads_sanitized += 1
        lane, issue_cycle = self._lanes.reserve(self._ls_lanes, earliest)
        access_time = issue_cycle + 1  # address generation / translation
        ready, level = self._hierarchy.data_access(
            address,
            access_time,
            from_agent=True,
            is_prefetch=packet.is_prefetch,
        )
        if packet.is_prefetch:
            self.prefetches_issued += 1
            return
        self.loads_issued += 1
        missed = False
        mlb_full = False
        if level != "L1D" or ready > access_time + 2:
            missed = True
            ready, mlb_full = self._mlb_schedule(access_time, ready)
        if self._watchdog is not None:
            self._watchdog.record_injected_load(missed, mlb_full)
        value = self._memory.load(address)
        ret = LoadReturn(ident=packet.ident, value=value, address=address)
        if self._injector is not None:
            ret = self._injector.on_return(ret)
            if ret is None:
                return
        self._pending_returns.append((ready, ret))

    def _mlb_schedule(self, issue_time: int, fill_time: int) -> tuple[int, bool]:
        """Missed load: park in the MLB and replay until it hits.

        The replay loop quantizes the effective latency to the replay
        period; a full MLB delays acceptance until the earliest
        outstanding fill drains.  Returns ``(ready, mlb_was_full)``.
        """
        self.load_misses += 1
        heap = self._mlb_fills
        while heap and heap[0] <= issue_time:
            heapq.heappop(heap)
        was_full = len(heap) >= self._mlb_entries
        if was_full:
            issue_time = max(issue_time, heap[0])
        wait = max(0, fill_time - issue_time)
        rounds = (wait + MLB_REPLAY_PERIOD - 1) // MLB_REPLAY_PERIOD
        self.replays += rounds
        ready = issue_time + rounds * MLB_REPLAY_PERIOD + 1
        heapq.heappush(heap, ready)
        probe = self.probe
        if probe is not None:
            probe.agent(issue_time, "load", "mlb_fill", len(heap))
            if rounds:
                probe.agent(issue_time, "load", "mlb_replay", rounds)
            if was_full:
                probe.agent(issue_time, "load", "mlb_full", len(heap))
        return ready, was_full

    def _flush_returns(self, now: int) -> None:
        """Push completed load values into ObsQ-EX, oldest-completion first."""
        pending = self._pending_returns
        if len(pending) > 1:
            pending.sort(key=_READY)
        remaining: list[tuple[int, LoadReturn]] = []
        retq = self._retq
        for ready, ret in pending:
            if ready <= now and retq.can_push():
                retq.push(ready, ret)
            else:
                remaining.append((ready, ret))
        self._pending_returns = remaining

    # ------------------------------------------------------------------ #

    def reset(self) -> int:
        """Drop in-flight MLB fills and un-flushed load returns.

        Deprogram / hot-swap path: a replacement component must never
        observe values requested by its predecessor (the load ident
        namespace restarts with the component).  Returns the number of
        pending load returns discarded.
        """
        dropped = len(self._pending_returns)
        self._pending_returns.clear()
        self._mlb_fills.clear()
        return dropped

    def next_event_time(self) -> int | None:
        """Earliest future time at which this agent has work (fast-forward)."""
        times = [ready for ready, _ in self._pending_returns]
        head = self._intq.head_visible_time()
        if head is not None:
            times.append(head)
        return min(times) if times else None

    @property
    def in_flight(self) -> int:
        return len(self._pending_returns) + self._intq.occupancy

    @property
    def mlb_occupancy(self) -> int:
        """Outstanding Missed Load Buffer entries (occupancy sampler)."""
        return len(self._mlb_fills)
