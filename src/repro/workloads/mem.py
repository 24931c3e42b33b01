"""Data memory image shared by the functional executor and the PFM fabric.

Memory is doubleword (8-byte) granular and lazily materialized: a named
region is just a reserved address range, and untouched words read as zero.
This keeps multi-megabyte benchmark arrays cheap — only words actually
written occupy storage — while still giving every access a real address
that the cache hierarchy maps to a 64-byte line.

The same image is read by Load-Agent-injected loads from custom components
(see :mod:`repro.pfm.load_agent`), which is how a component's run-ahead
loads observe the program's data structures exactly as the paper describes.
"""

from __future__ import annotations

WORD_BYTES = 8


class MemoryImage:
    """Lazily-materialized doubleword-addressable memory.

    Addresses are byte addresses and must be 8-byte aligned.  Regions are
    allocated from a bump pointer; region base addresses stand in for the
    program's heap/static layout.
    """

    def __init__(self, base: int = 0x1000_0000):
        self._words: dict[int, float] = {}
        self._bump = base
        self._regions: dict[str, tuple[int, int]] = {}

    # ------------------------------------------------------------------ #
    # allocation
    # ------------------------------------------------------------------ #

    def allocate(self, name: str, nwords: int, align: int = 64) -> int:
        """Reserve *nwords* doublewords under *name*; return the base address."""
        if name in self._regions:
            raise ValueError(f"region {name!r} already allocated")
        if nwords <= 0:
            raise ValueError("region must have at least one word")
        base = (self._bump + align - 1) // align * align
        self._bump = base + nwords * WORD_BYTES
        self._regions[name] = (base, nwords)
        return base

    def base(self, name: str) -> int:
        return self._regions[name][0]

    def size_words(self, name: str) -> int:
        return self._regions[name][1]

    def regions(self) -> dict[str, tuple[int, int]]:
        return dict(self._regions)

    def contains(self, name: str, addr: int) -> bool:
        base, nwords = self._regions[name]
        return base <= addr < base + nwords * WORD_BYTES

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #

    def load(self, addr: int) -> float:
        """Read the doubleword at *addr* (0 if never written)."""
        if addr % WORD_BYTES:
            raise ValueError(f"misaligned load address {addr:#x}")
        return self._words.get(addr, 0)

    def store(self, addr: int, value: float) -> None:
        """Write *value* to the doubleword at *addr*."""
        if addr % WORD_BYTES:
            raise ValueError(f"misaligned store address {addr:#x}")
        self._words[addr] = value

    def load_index(self, name: str, index: int) -> float:
        """Read element *index* of region *name*."""
        return self.load(self.base(name) + index * WORD_BYTES)

    def store_index(self, name: str, index: int, value: float) -> None:
        """Write element *index* of region *name*."""
        self.store(self.base(name) + index * WORD_BYTES, value)

    def store_array(self, name: str, values, stride: int = WORD_BYTES) -> int:
        """Allocate (if needed) and fill region *name* with *values*, one
        every *stride* bytes (a multiple of the word size)."""
        if stride <= 0 or stride % WORD_BYTES:
            raise ValueError(f"stride {stride} is not a positive word multiple")
        values = list(values)
        if name not in self._regions:
            self.allocate(name, max(1, len(values) * (stride // WORD_BYTES)))
        base = self.base(name)
        if values and base % WORD_BYTES:
            raise ValueError(f"misaligned store address {base:#x}")
        end = base + len(values) * stride
        self._words.update(zip(range(base, end, stride), values))
        return base

    def copy(self) -> "MemoryImage":
        """Independent image with the same regions, bump pointer and
        materialized words (a store to either never reaches the other)."""
        clone = MemoryImage(self._bump)
        clone._words = dict(self._words)
        clone._regions = dict(self._regions)
        return clone

    def touched_words(self) -> int:
        """Number of words actually materialized (for tests/diagnostics)."""
        return len(self._words)

    def iter_words(self):
        """Yield materialized ``(addr, value)`` pairs in address order.

        Deterministic iteration over the final memory state, used by the
        architectural digest (:mod:`repro.core.archstate`).
        """
        for addr in sorted(self._words):
            yield addr, self._words[addr]
