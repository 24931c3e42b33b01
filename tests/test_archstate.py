"""ArchDigest final-state hashing: the byte stream, pinned."""

from __future__ import annotations

import hashlib

from repro.core.archstate import ArchDigest
from repro.workloads.mem import MemoryImage


def _image(values) -> MemoryImage:
    memory = MemoryImage()
    base = memory.allocate("words", len(values))
    for i, value in enumerate(values):
        memory.store(base + 8 * i, value)
    return memory


def test_finalize_pins_zero_words_and_registers():
    """Materialized zero words (int and float) and zero registers are
    hashed like any other value, one ``name=repr`` line each; the digest
    is the one the per-line implementation produced."""
    values = [0, 0.0, 7, -2.5, 0, 1e-300]
    memory = _image(values)
    assert memory.touched_words() == len(values)
    regs = {"zero": 0, "r1": 0.0, "r2": 3, "f1": -0.0}

    digest = ArchDigest().finalize(regs, memory)
    assert digest == (
        "91b141225b305b80e8275354deccb2dbd98f5d84345709b458b6d4b40a5584f7"
    )

    reference = hashlib.sha256()
    reference.update(b"=regs=\n")
    for name in sorted(regs):
        reference.update(f"{name}={regs[name]!r}\n".encode())
    reference.update(b"=mem=\n")
    for addr, value in memory.iter_words():
        reference.update(f"{addr}={value!r}\n".encode())
    assert digest == reference.hexdigest()


def test_finalize_without_registers_or_words():
    assert ArchDigest().finalize(None, MemoryImage()) == (
        "7ea96d69a51a49e7000f5a9bfeec556530fc86ac05d498f2cfe0dc52af96c3e8"
    )
