"""TimedQueue: capacity, visibility, back-pressure semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.pfm.queues import QueueFullError, QueueInvariantError, TimedQueue


def test_push_pop_fifo_order():
    q = TimedQueue("q", capacity=4)
    for i in range(3):
        q.push(i, f"item{i}")
    assert q.pop(10) == "item0"
    assert q.pop(10) == "item1"
    assert q.occupancy == 1


def test_crossing_latency_hides_fresh_entries():
    q = TimedQueue("q", capacity=4, crossing_latency=5)
    q.push(10, "x")
    assert q.peek_visible(12) is None
    assert q.peek_visible(15) == "x"


def test_pop_before_visible_raises():
    q = TimedQueue("q", capacity=4, crossing_latency=5)
    q.push(10, "x")
    with pytest.raises(IndexError):
        q.pop(12)


def test_pop_empty_raises():
    with pytest.raises(IndexError):
        TimedQueue("q", capacity=2).pop(0)


def test_capacity_enforced():
    q = TimedQueue("q", capacity=2)
    q.push(0, "a")
    q.push(0, "b")
    assert not q.can_push()
    with pytest.raises(QueueFullError):
        q.push(0, "c")


def test_clear_counts_as_pops():
    q = TimedQueue("q", capacity=2)
    q.push(0, "a")
    q.push(0, "b")
    dropped = q.clear()
    assert dropped == 2
    assert q.occupancy == 0
    assert q.can_push()


def test_head_visible_time():
    q = TimedQueue("q", capacity=2, crossing_latency=3)
    assert q.head_visible_time() is None
    q.push(7, "a")
    assert q.head_visible_time() == 10


def test_stats():
    q = TimedQueue("q", capacity=2)
    q.push(0, "a")
    q.pop(1)
    stats = q.stats()
    assert stats["pushes"] == 1
    assert stats["pops"] == 1
    assert stats["max_occupancy"] == 1


def test_capacity_validation():
    with pytest.raises(ValueError):
        TimedQueue("q", capacity=0)


def test_invariant_error_is_an_index_error():
    """Callers treating 'nothing to pop' as IndexError keep working."""
    assert issubclass(QueueInvariantError, IndexError)


def test_pop_before_visible_diagnostics():
    q = TimedQueue("IntQ-F", capacity=4, crossing_latency=5)
    q.push(10, "x")
    with pytest.raises(QueueInvariantError) as exc_info:
        q.pop(12)
    message = str(exc_info.value)
    assert "IntQ-F" in message
    assert "t=12" in message and "t=15" in message
    assert "crossing_latency=5" in message


def test_pop_empty_diagnostics():
    q = TimedQueue("ObsQ-R", capacity=2)
    q.push(0, "a")
    q.pop(1)
    with pytest.raises(QueueInvariantError) as exc_info:
        q.pop(3)
    message = str(exc_info.value)
    assert "ObsQ-R" in message
    assert "pushes=1" in message and "pops=1" in message


def test_monotonic_push_rejects_time_regression():
    q = TimedQueue("IntQ-IS", capacity=4, monotonic_push=True)
    q.push(10, "a")
    q.push(10, "b")  # equal times are fine (same pipeline exit cycle)
    q.push(12, "c")
    with pytest.raises(QueueInvariantError, match="non-monotonic"):
        q.push(11, "d")
    assert q.occupancy == 3  # the offending push did not land


def test_monotonic_push_off_by_default():
    q = TimedQueue("ObsQ-R", capacity=4)
    q.push(10, "a")
    q.push(5, "b")  # PRF port contention legitimately reorders send times
    assert q.occupancy == 2


@given(st.lists(st.sampled_from(["push", "pop"]), min_size=1, max_size=200))
def test_property_occupancy_bounded(ops):
    """Occupancy stays within [0, capacity] under any push/pop sequence."""
    capacity = 3
    q = TimedQueue("q", capacity=capacity)
    now = 0
    for op in ops:
        now += 1
        if op == "push":
            if q.can_push():
                q.push(now, now)
        else:
            if q.peek_visible(now) is not None:
                q.pop(now)
        assert 0 <= q.occupancy <= capacity
