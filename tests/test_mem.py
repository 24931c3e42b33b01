"""Memory image: allocation, lazy storage, access checking."""

import pytest
from hypothesis import given, strategies as st

from repro.workloads.mem import WORD_BYTES, MemoryImage


def test_allocation_is_aligned_and_disjoint():
    memory = MemoryImage()
    a = memory.allocate("a", 10)
    b = memory.allocate("b", 10)
    assert a % 64 == 0 and b % 64 == 0
    assert b >= a + 10 * WORD_BYTES


def test_duplicate_region_rejected():
    memory = MemoryImage()
    memory.allocate("a", 4)
    with pytest.raises(ValueError):
        memory.allocate("a", 4)


def test_empty_region_rejected():
    with pytest.raises(ValueError):
        MemoryImage().allocate("a", 0)


def test_untouched_words_read_zero():
    memory = MemoryImage()
    base = memory.allocate("a", 1000)
    assert memory.load(base + 512 * WORD_BYTES) == 0
    assert memory.touched_words() == 0  # lazily materialized


def test_store_load_roundtrip():
    memory = MemoryImage()
    base = memory.allocate("a", 4)
    memory.store(base + 8, 42)
    assert memory.load(base + 8) == 42
    assert memory.touched_words() == 1


def test_misaligned_access_rejected():
    memory = MemoryImage()
    base = memory.allocate("a", 4)
    with pytest.raises(ValueError):
        memory.load(base + 3)
    with pytest.raises(ValueError):
        memory.store(base + 5, 1)


def test_indexed_helpers():
    memory = MemoryImage()
    memory.allocate("a", 8)
    memory.store_index("a", 3, 7)
    assert memory.load_index("a", 3) == 7
    assert memory.load_index("a", 2) == 0


def test_store_array_allocates_and_fills():
    memory = MemoryImage()
    base = memory.store_array("data", [5, 6, 7])
    assert memory.base("data") == base
    assert [memory.load_index("data", i) for i in range(3)] == [5, 6, 7]
    assert memory.size_words("data") == 3


def test_strided_store_array_equals_per_word_stores():
    values = [3, 0, 9, 4]
    stride = 2 * WORD_BYTES
    looped, bulk = MemoryImage(), MemoryImage()
    base = looped.allocate("nodes", 2 * len(values))
    assert bulk.allocate("nodes", 2 * len(values)) == base
    for i, value in enumerate(values):
        looped.store(base + i * stride, value)
    assert bulk.store_array("nodes", values, stride=stride) == base
    assert list(bulk.iter_words()) == list(looped.iter_words())
    assert bulk.load(base + WORD_BYTES) == 0  # the gaps stay untouched
    assert bulk.touched_words() == len(values)
    fresh = MemoryImage()
    fresh.store_array("nodes", values, stride=stride)
    assert fresh.size_words("nodes") == 2 * len(values)


@pytest.mark.parametrize("stride", [0, -WORD_BYTES, WORD_BYTES // 2, 12])
def test_store_array_rejects_a_stride_off_the_word_grid(stride):
    with pytest.raises(ValueError, match="stride"):
        MemoryImage().store_array("data", [1, 2], stride=stride)


def test_copy_is_independent_of_its_source():
    memory = MemoryImage()
    base = memory.store_array("data", [5, 6, 7])
    clone = memory.copy()
    assert list(clone.iter_words()) == list(memory.iter_words())
    assert clone.regions() == memory.regions()
    clone.store(base, 50)
    clone.store(base + 5 * WORD_BYTES, 0)  # materializes a word
    assert memory.load(base) == 5
    assert memory.touched_words() == 3 and clone.touched_words() == 4
    # Both continue from the same bump pointer, but allocate apart.
    assert clone.allocate("more", 2) == memory.allocate("more", 2)
    clone.allocate("only-clone", 1)
    assert "only-clone" not in memory.regions()


def test_contains():
    memory = MemoryImage()
    base = memory.allocate("a", 4)
    assert memory.contains("a", base)
    assert memory.contains("a", base + 3 * WORD_BYTES)
    assert not memory.contains("a", base + 4 * WORD_BYTES)


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=-(2**40), max_value=2**40),
        max_size=50,
    )
)
def test_property_roundtrip_many_words(values):
    """Stores are independent per word and reads reproduce them exactly."""
    memory = MemoryImage()
    base = memory.allocate("region", 501)
    for index, value in values.items():
        memory.store(base + index * WORD_BYTES, value)
    for index in range(501):
        expected = values.get(index, 0)
        assert memory.load(base + index * WORD_BYTES) == expected
