"""Finite communication queues in the timestamp domain.

The one-pass cycle model binds events to timestamps rather than stepping
every queue every cycle.  A :class:`TimedQueue` therefore tags each entry
with the time it becomes visible to the consumer.  Capacity is a plain
occupancy bound: the producer tests :meth:`TimedQueue.can_push` and, on a
full queue, advances the consumer (the RF clock) or sheds the packet —
the back-pressure policy lives with each queue's agent.

A fixed crossing latency models the core/RF clock-domain synchronizers on
each queue's read side.
"""

from __future__ import annotations

from collections import deque


class QueueFullError(RuntimeError):
    """Push attempted while the consumer has not freed an entry yet."""


class QueueInvariantError(IndexError):
    """Timestamp-domain invariant violated on a queue endpoint.

    Subclasses :class:`IndexError` so callers treating "nothing to pop"
    as an index condition keep working; the message carries a diagnosis
    (which queue, which timestamps) instead of a bare index complaint.
    """


class TimedQueue:
    """Bounded FIFO whose pushes and pops carry timestamps.

    Entries become visible to the consumer ``crossing_latency`` time units
    after their push time.

    With ``monotonic_push`` the queue additionally asserts (under
    ``__debug__``) that push timestamps never decrease — the producer
    side of some queues is a clocked pipeline whose exit times are
    nondecreasing by construction, so a violation is a model bug, not a
    workload condition.
    """

    __slots__ = (
        "name", "owner", "capacity", "crossing_latency", "monotonic_push",
        "_entries", "_last_push_time",
        "pushes", "pops", "push_backpressure", "max_occupancy",
        "full_rejects", "probe",
    )

    def __init__(
        self,
        name: str,
        capacity: int,
        crossing_latency: int = 0,
        monotonic_push: bool = False,
        owner: str = "",
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.name = name
        #: Owning subsystem label ("slot0:astar-bp", ...) threaded into
        #: every diagnostic so multi-tenant invariant failures name the
        #: queue's owner, not just the queue.
        self.owner = owner
        self.capacity = capacity
        self.crossing_latency = crossing_latency
        self.monotonic_push = monotonic_push
        self._entries: deque[tuple[int, object]] = deque()  # (visible_time, item)
        self._last_push_time: int | None = None
        self.pushes = 0
        self.pops = 0
        self.push_backpressure = 0
        self.max_occupancy = 0  # high-water mark
        #: Producer gave up on a full queue and shed the item (distinct
        #: from ``push_backpressure``, which counts pushes that *raised*).
        self.full_rejects = 0
        #: Optional telemetry probe (:class:`~repro.telemetry.hub.TelemetryHub`);
        #: attribute-check only, so an unattached queue pays one pointer
        #: test per endpoint operation.
        self.probe = None

    # ------------------------------------------------------------------ #

    def _who(self) -> str:
        """Diagnostic identity: queue name plus owner when labelled."""
        if self.owner:
            return f"{self.name}[{self.owner}]"
        return self.name

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def can_push(self) -> bool:
        return len(self._entries) < self.capacity

    def push(self, now: int, item) -> None:
        """Push at time *now*; raises :class:`QueueFullError` when full."""
        if len(self._entries) >= self.capacity:
            self.push_backpressure += 1
            raise QueueFullError(f"{self._who()}: push while full")
        if __debug__ and self.monotonic_push:
            last = self._last_push_time
            if last is not None and now < last:
                raise QueueInvariantError(
                    f"{self._who()}: non-monotonic push at t={now} after a "
                    f"push at t={last} (producer pipeline exit times must "
                    f"be nondecreasing)"
                )
        self._last_push_time = now
        self._entries.append((now + self.crossing_latency, item))
        self.pushes += 1
        if len(self._entries) > self.max_occupancy:
            self.max_occupancy = len(self._entries)
        if self.probe is not None:
            self.probe.queue(now, self.name, "push", len(self._entries))

    def note_reject(self, now: int | None = None) -> None:
        """Producer observed the queue full and shed the item."""
        self.full_rejects += 1
        if self.probe is not None and now is not None:
            self.probe.queue(now, self.name, "drop", len(self._entries))

    # ------------------------------------------------------------------ #

    def peek_visible(self, now: int):
        """Head item if visible at *now*, else None."""
        if not self._entries:
            return None
        visible_time, item = self._entries[0]
        if visible_time > now:
            return None
        return item

    def head_visible_time(self) -> int | None:
        """Visible time of the head entry, or None if empty."""
        if not self._entries:
            return None
        return self._entries[0][0]

    def pop(self, now: int):
        """Pop the head entry at time *now* (must be visible)."""
        if not self._entries:
            raise QueueInvariantError(
                f"{self._who()}: pop from empty queue at t={now} "
                f"(pushes={self.pushes}, pops={self.pops}); consumer must "
                f"peek_visible before popping"
            )
        visible_time, item = self._entries[0]
        if visible_time > now:
            raise QueueInvariantError(
                f"{self._who()}: pop at t={now} but head not visible until "
                f"t={visible_time} (crossing_latency={self.crossing_latency}); "
                f"consumer clock ran ahead of the synchronizer"
            )
        self._entries.popleft()
        self.pops += 1
        if self.probe is not None:
            self.probe.queue(now, self.name, "pop", len(self._entries))
        return item

    def pop_visible(self, now: int) -> tuple[int, object] | None:
        """Pop the head entry if it is visible at *now*.

        Returns ``(visible_time, item)``, or None when the queue is empty
        or its head has not crossed yet.  The pop itself goes through
        :meth:`pop`.
        """
        entries = self._entries
        if not entries:
            return None
        visible_time = entries[0][0]
        if visible_time > now:
            return None
        return visible_time, self.pop(now)

    def clear(self) -> int:
        """Drop all entries (squash recovery); returns how many were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        return dropped

    def stats(self) -> dict[str, int]:
        return {
            "pushes": self.pushes,
            "pops": self.pops,
            "max_occupancy": self.max_occupancy,
            "backpressure": self.push_backpressure,
            "full_rejects": self.full_rejects,
        }
