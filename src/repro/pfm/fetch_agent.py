"""Fetch Agent (Section 2.2).

Sits between the core's fetch unit and the RF component.  PCs in the fetch
bundle that hit the Fetch Snoop Table are supplied conditional branch
predictions popped from the Intervention Queue at Fetch (IntQ-F); if the
queue is empty because the component is running late, the fetch unit
stalls until the packet arrives (the fetch-stall cycles the clkC_wW
sensitivity studies measure).

Stream alignment: every prediction carries ``(call_id, tag)``.  The agent
drops packets from earlier calls and packets whose branch was skipped on
the actual path (the component pushes a prediction for every *potential*
FST branch; the agent discards those not encountered — a Fetch-Agent-side
variant of the paper's T2-side discard, equivalent in outcome and simpler
to realign after squashes; see DESIGN.md §5).  After a pipeline squash the
squash/squash-done protocol re-floors the ready times of unconsumed
packets, modelling the rollback + replay of Section 4.1.2.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(slots=True)
class _PendEntry:
    call: int
    seq: int
    tag: str
    taken: bool
    ready: int


class FetchAgentError(RuntimeError):
    """Alignment invariant violated (model bug, not a workload condition)."""


class FetchAgent:
    """IntQ-F consumer side plus producer bookkeeping."""

    # Max packets we allow dropping while searching for a tag match; the
    # astar stream can legitimately skip up to a full iteration of pairs.
    MAX_DROP_RUN = 64

    def __init__(
        self, queue_size: int, clk_ratio: int, width: int, strict: bool = True
    ):
        self.queue_size = queue_size
        self.clk_ratio = clk_ratio
        self.width = width
        #: With ``strict`` (the default), a drop run past MAX_DROP_RUN is a
        #: model bug and raises.  Under fault injection the prediction
        #: stream is corrupted *by design*, so the fabric clears it: the
        #: agent stops dropping and lets the caller fall back instead.
        self.strict = strict
        self._pending: deque[_PendEntry] = deque()
        #: How many leading ``_pending`` entries may have a later ready
        #: time than some entry behind them.  Pushes arrive in ready order
        #: except after a squash re-floored the stream (:meth:`apply_squash`
        #: keeps an ordered stream ordered, but the next push can land
        #: below its tail); while this is zero the stream is sorted and
        #: :meth:`occupancy_at` counts from the right.
        self._unsorted = 0
        self.producer_call = 0
        self.producer_seq = 0
        self.consumer_call = 0
        self.predictions_supplied = 0
        self.packets_dropped = 0
        self.stall_cycles = 0
        self.pushes = 0
        self.max_pending = 0  # high-water mark of the prediction stream
        self._fallback_debt: dict[str, int] = {}
        self._resync_call = False  # first call after a reset realigns
        self.probe = None  # optional telemetry hub

    # ------------------------------------------------------------------ #
    # producer side (called from the component via the fabric)
    # ------------------------------------------------------------------ #

    def occupancy_at(self, now: int) -> int:
        """IntQ-F entries resident at *now* (exited the delay pipeline)."""
        pending = self._pending
        if self._unsorted:
            return sum(1 for e in pending if e.ready <= now)
        # Sorted by ready time: the resident entries are a prefix.
        count = len(pending)
        while count and pending[count - 1].ready > now:
            count -= 1
        return count

    def can_push(self, now: int) -> bool:
        return self.occupancy_at(now) < self.queue_size

    def push(self, taken: bool, ready: int, tag: str) -> bool:
        """Admit one prediction exiting the delay pipeline at *ready*.

        A refusal leaves the prediction with the component, which pushes
        it again on a later RF cycle — IntQ-F never sheds a packet.
        """
        if not self.can_push(ready):
            return False
        pending = self._pending
        if pending and ready < pending[-1].ready:
            self._unsorted = len(pending)
        pending.append(
            _PendEntry(
                call=self.producer_call,
                seq=self.producer_seq,
                tag=tag,
                taken=taken,
                ready=ready,
            )
        )
        self.producer_seq += 1
        self.pushes += 1
        if len(pending) > self.max_pending:
            self.max_pending = len(pending)
        if self.probe is not None:
            self.probe.queue(ready, "IntQ-F", "push", len(pending))
        return True

    def _popleft(self) -> _PendEntry:
        if self._unsorted:
            self._unsorted -= 1
        return self._pending.popleft()

    def new_call(self) -> None:
        """Component signalled a new ROI call: flush the previous stream."""
        self.packets_dropped += len(self._pending)
        self._pending.clear()
        self._unsorted = 0
        if self._resync_call:
            # First call of a freshly loaded component: adopt the fetch
            # unit's current call position instead of incrementing.  The
            # call marker (the worklist-base instruction) always fetches
            # before its own retirement triggers this snoop, so at this
            # moment the consumer counter already names the call the
            # component is starting — see :meth:`reset`.
            self._resync_call = False
            self.producer_call = self.consumer_call
        else:
            self.producer_call += 1
        self.producer_seq = 0

    def reset(self) -> int:
        """Flush all in-flight state for a deprogram or hot swap.

        Returns the number of pending predictions discarded.  The call
        counters *realign* rather than advance: a freshly loaded
        component has produced nothing, and blindly incrementing the
        producer on its first call would drift whenever the flush or the
        reload window swallowed a call's worklist snoop (one permanent
        off-by-one and every later prediction is dropped as stale — or
        worse, the producer runs ahead and trips the strict-mode
        invariant).  Realigning both here and at the first ``new_call``
        afterwards keeps the streams exact for every straddle ordering.
        """
        dropped = len(self._pending)
        self.packets_dropped += dropped
        self._pending.clear()
        self._unsorted = 0
        self._fallback_debt.clear()
        self.producer_call = self.consumer_call
        self.producer_seq = 0
        self._resync_call = True
        return dropped

    # ------------------------------------------------------------------ #
    # consumer side (called from the core's fetch stage via the fabric)
    # ------------------------------------------------------------------ #

    def on_call_marker(self) -> None:
        """Fetch unit reached a per-call marker PC: expect the next call."""
        self.consumer_call += 1
        self._fallback_debt.clear()

    def note_fallback(self, tag: str) -> None:
        """The core predicted FST branch *tag* itself (watchdog fallback).

        The matching packet, if produced late, must be dropped instead of
        consumed by a later instance of the same static branch — the
        "count of how many late packets to drop" of Section 2.4.
        """
        self._fallback_debt[tag] = self._fallback_debt.get(tag, 0) + 1

    def _drop_stale(self, fst_tag: str) -> None:
        dropped_run = 0
        while self._pending:
            head = self._pending[0]
            if head.call < self.consumer_call:
                self._popleft()
                self.packets_dropped += 1
                continue
            debt = self._fallback_debt.get(head.tag, 0)
            if debt and head.call == self.consumer_call:
                self._fallback_debt[head.tag] = debt - 1
                self._popleft()
                self.packets_dropped += 1
                continue
            if head.call == self.consumer_call and head.tag != fst_tag:
                self._popleft()
                self.packets_dropped += 1
                dropped_run += 1
                if dropped_run > self.MAX_DROP_RUN:
                    if self.strict:
                        raise FetchAgentError(
                            f"dropped {dropped_run} packets without matching "
                            f"tag {fst_tag!r}: prediction stream misaligned"
                        )
                    break  # corrupted stream: stop dropping, caller falls back
                continue
            break

    def try_pop(
        self,
        fst_tag: str,
        fetch_time: int,
        only_ready: bool = False,
        deadline: int | None = None,
    ) -> tuple[bool, int] | None:
        """Pop the prediction for the FST branch *fst_tag*.

        Returns ``(taken, effective_time)`` where effective_time >=
        fetch_time reflects any stall waiting for the packet, or None if
        the matching packet has not been produced yet (caller advances the
        component and retries).

        With ``only_ready`` (the §2.4 non-stalling Fetch Agent), a packet
        whose ready time is in the future is left in place and None is
        returned — the fetch unit proceeds with the core's predictor and
        the late packet is dropped via the fallback-debt counter.

        With ``deadline`` (the graceful-degradation watchdog), a matching
        packet that will only be ready after the deadline is left in
        place — the fetch-stall timeout path consumes it via
        :meth:`drop_match` so the stream stays aligned without the stall.
        """
        self._drop_stale(fst_tag)
        if not self._pending:
            return None
        head = self._pending[0]
        if head.call > self.consumer_call:
            # Producer is already in a later call than the fetch unit —
            # impossible with the marker ordering, so under a clean run
            # it is a model bug.  Under fault injection it is reachable
            # (a duplicated worklist observation makes the component
            # signal new_call twice), so the non-strict agent declines to
            # supply and the core falls back; the stream realigns once
            # the fetch unit reaches the next call marker.
            if self.strict:
                raise FetchAgentError("producer call ahead of consumer call")
            return None
        if head.tag != fst_tag:
            return None
        if only_ready and head.ready > fetch_time:
            return None
        if deadline is not None and head.ready > deadline:
            return None
        self._popleft()
        effective = max(fetch_time, head.ready)
        self.stall_cycles += effective - fetch_time
        self.predictions_supplied += 1
        probe = self.probe
        if probe is not None:
            probe.queue(effective, "IntQ-F", "pop", len(self._pending))
            if effective > fetch_time:
                probe.agent(
                    fetch_time, "fetch", "intqf_stall", effective - fetch_time
                )
        return head.taken, effective

    def drop_match(self, fst_tag: str) -> bool:
        """Consume-and-discard the head packet if it matches *fst_tag*.

        The fetch-stall timeout path: the packet exists but is too late to
        wait for, so discarding it (rather than recording fallback debt)
        keeps the stream aligned without double-counting the drop.
        """
        if not self._pending:
            return False
        head = self._pending[0]
        if head.call == self.consumer_call and head.tag == fst_tag:
            self._popleft()
            self.packets_dropped += 1
            return True
        return False

    # ------------------------------------------------------------------ #
    # squash protocol
    # ------------------------------------------------------------------ #

    def apply_squash(self, squash_done: int) -> None:
        """Re-floor unconsumed packet timing after a pipeline squash.

        The component replays recorded final predictions at W per RF cycle
        once its rollback completes (Section 4.1.2).
        """
        for idx, entry in enumerate(self._pending):
            replay_ready = squash_done + (idx // self.width + 1) * self.clk_ratio
            entry.ready = max(entry.ready, replay_ready)

    def pending_count(self) -> int:
        return len(self._pending)

    def stats(self) -> dict[str, int]:
        """Counter summary shaped like :meth:`TimedQueue.stats`.

        ``max_occupancy`` is the high-water mark of the whole pending
        prediction stream (delay pipeline included), and ``dropped`` the
        stale/fallback packets discarded to keep the stream aligned.  A
        refused push is retried by the component, never raised or shed,
        so ``backpressure`` and ``full_rejects`` are always zero.
        """
        return {
            "pushes": self.pushes,
            "pops": self.predictions_supplied,
            "max_occupancy": self.max_pending,
            "backpressure": 0,
            "full_rejects": 0,
            "dropped": self.packets_dropped,
        }
