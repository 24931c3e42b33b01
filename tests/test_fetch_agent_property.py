"""Property-based tests for the Fetch Agent's alignment machinery."""

from hypothesis import given, settings, strategies as st

from repro.pfm.fetch_agent import FetchAgent

TAGS = ["a", "b", "c"]


@given(
    st.lists(
        st.tuples(st.sampled_from(TAGS), st.booleans()),
        min_size=1,
        max_size=60,
    ),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_pop_never_returns_wrong_tag_value(stream, data):
    """With a producer stream in program order and a consumer popping a
    subsequence of it (skipped branches are legal), every popped value
    must equal the produced value for that instance."""
    agent = FetchAgent(queue_size=256, clk_ratio=4, width=4)
    for i, (tag, taken) in enumerate(stream):
        assert agent.push(taken, ready=i, tag=tag)
    # The consumer visits a monotone subsequence of the stream.
    indices = sorted(
        data.draw(
            st.sets(
                st.integers(0, len(stream) - 1),
                min_size=1,
                max_size=len(stream),
            )
        )
    )
    cursor = 0
    for index in indices:
        tag, taken = stream[index]
        # Dropping everything before `index` is only legal if no earlier
        # *matching* tag remains undropped; the real system guarantees it
        # because skipped packets correspond to skipped branches.  Emulate
        # by only popping when `index` is the next matching instance.
        remaining = [t for t, _ in stream[cursor:index]]
        if tag in remaining:
            continue  # would be ambiguous; the core never does this
        result = agent.try_pop(tag, fetch_time=10_000)
        if result is None:
            continue
        popped_taken, effective = result
        assert popped_taken == taken, (index, tag)
        assert effective >= 10_000
        cursor = index + 1


@given(st.integers(1, 64), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_occupancy_never_exceeds_queue_size(queue_size, width):
    agent = FetchAgent(queue_size=queue_size, clk_ratio=4, width=width)
    pushed = 0
    for i in range(queue_size * 3):
        if agent.push(True, ready=0, tag="x"):
            pushed += 1
    assert pushed == queue_size
    assert agent.occupancy_at(10) == queue_size


@given(st.lists(st.integers(0, 100), min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_squash_refloor_is_monotone_per_group(readies):
    """After a squash, replayed ready times never decrease and respect
    the W-per-RF-cycle pacing."""
    width = 2
    clk = 4
    agent = FetchAgent(queue_size=256, clk_ratio=clk, width=width)
    for i, ready in enumerate(sorted(readies)):
        agent.push(True, ready=ready, tag=f"t{i}")
    agent.apply_squash(squash_done=1000)
    previous = 0
    for i in range(len(readies)):
        result = agent.try_pop(f"t{i}", fetch_time=0)
        assert result is not None
        _, effective = result
        assert effective >= previous
        assert effective >= 1000 + clk  # nothing replays before the sync
        previous = effective


def _push(sign: int) -> st.SearchStrategy:
    """A push whose ready time lies below (-1), at (0) or above (+1) the
    stream's tail."""
    return st.tuples(
        st.just("push"), st.just(sign), st.integers(1, 40), st.sampled_from(TAGS)
    )


_STEPS = st.one_of(
    _push(-1), _push(0), _push(1),
    # pop with the head's own tag (one entry) or any tag (may drop a run)
    st.tuples(st.just("pop"), st.just(None), st.integers(0, 300), st.booleans()),
    st.tuples(
        st.just("pop"), st.sampled_from(TAGS), st.integers(0, 300), st.booleans()
    ),
    st.tuples(st.just("squash"), st.integers(0, 300)),
    st.tuples(st.just("drop_match"), st.sampled_from(TAGS)),
    st.tuples(st.just("new_call")),
    st.tuples(st.just("call_marker")),
    st.tuples(st.just("reset")),
)


@given(st.lists(_STEPS, min_size=8, max_size=80), st.integers(1, 12))
@settings(max_examples=500, deadline=None)
def test_occupancy_matches_brute_force_count(steps, queue_size):
    """IntQ-F admission counts resident entries from the right while the
    stream is sorted by ready time and scans it whole otherwise; after
    every push, squash re-floor, pop, drop, new call and reset it must
    equal the plain count of entries with ``ready <= t``."""
    agent = FetchAgent(queue_size=queue_size, clk_ratio=4, width=2, strict=False)
    for step in steps:
        op = step[0]
        pending = agent._pending
        if op == "push":
            tail = pending[-1].ready if pending else 50
            ready = max(0, tail + step[1] * step[2])
            agent.push(True, ready=ready, tag=step[3])
        elif op == "squash":
            agent.apply_squash(step[1])
        elif op == "pop":
            tag = step[1] or (pending[0].tag if pending else TAGS[0])
            agent.try_pop(tag, fetch_time=step[2], only_ready=step[3])
        elif op == "drop_match":
            agent.drop_match(step[1])
        elif op == "new_call":
            agent.new_call()
        elif op == "call_marker":
            agent.on_call_marker()
        else:
            agent.reset()
        readies = [entry.ready for entry in agent._pending]
        probes = {0, 10**9}
        for ready in readies:
            probes.update((ready - 1, ready, ready + 1))
        for t in probes:
            assert agent.occupancy_at(t) == sum(r <= t for r in readies), (
                step, t, readies
            )
