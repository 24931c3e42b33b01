"""Architectural-state digest: the hints-only safety invariant, testable.

The paper's central safety argument (Sections 2.1-2.3) is that PFM
components only *hint*: Fetch Agent overrides are verified by the core,
Load Agent injections never write the PRF, and Retire Agent observations
are read-only.  A buggy — or deliberately fault-injected — RF component
can therefore cost performance but can never corrupt architectural state.

This module makes that claim falsifiable.  Every simulation folds its
retired instruction stream and final architectural state (register file +
data memory) into a hash, reported as ``SimStats.arch_digest``.  Two runs
of the same workload retire the same instructions with the same
architectural effects *iff* their digests match — which is exactly what
the fault-injection oracle (:mod:`repro.faults.oracle`) asserts between a
faulted PFM run and the plain-core baseline.

Only functional execution observes the stream live, one
:meth:`ArchDigest.observe` per retired instruction.  A replayed run's
stream is the compiled trace's first rows, written by the replay cursor
alone, so its digest is a function of the trace and the window: it is
served from the trace's direction-column file, or computed from the
trace columns (:meth:`ArchDigest.observe_columns`) and stored there (see
:func:`repro.workloads.columns.replay_digest`).

Only architectural quantities enter the hash: sequence numbers, PCs,
control-flow targets, destination/store values, effective addresses, and
branch outcomes.  Timing (cycles, stalls, queue occupancies) is excluded
by construction, so arbitrary timing perturbations leave the digest
untouched while any state corruption changes it.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

from repro.workloads.trace import DynInst


#: Buffered records per hash update; one big ``sha256.update`` call
#: amortizes the C-call overhead of per-instruction updates.  The byte
#: stream fed to the hash is identical to unbuffered updating, so every
#: committed digest is unchanged.
_FLUSH_EVERY = 1024


class ArchDigest:
    """Running hash over a retired instruction stream + final state."""

    __slots__ = ("_hash", "_pending")

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._pending: list[str] = []

    def observe(self, dyn: DynInst) -> None:
        """Fold one retired instruction's architectural effects in."""
        pending = self._pending
        pending.append(
            f"{dyn.seq};{dyn.pc};{dyn.next_pc};{dyn.dst};"
            f"{dyn.dst_value!r};{dyn.mem_addr};{dyn.store_value!r};"
            f"{dyn.taken}\n"
        )
        if len(pending) >= _FLUSH_EVERY:
            self._hash.update("".join(pending).encode())
            pending.clear()

    def tap(self, stream: Iterator[DynInst]) -> Iterator[DynInst]:
        """Yield *stream* unchanged, observing each instruction first."""
        observe = self.observe
        for dyn in stream:
            observe(dyn)
            yield dyn

    def observe_columns(
        self, n: int, pcs, next_pcs, dsts, dst_values, mem_addrs,
        store_values, taken,
    ) -> None:
        """Fold in rows ``0..n-1`` of per-instruction columns: the bytes
        :meth:`observe` folds for the instructions of sequence numbers
        ``0..n-1`` with those fields."""
        self._flush()
        self._hash.update("".join([
            f"{seq};{pc};{next_pc};{dst};{dst_value!r};{mem_addr};"
            f"{store_value!r};{tk}\n"
            for seq, pc, next_pc, dst, dst_value, mem_addr, store_value, tk
            in zip(
                range(n), pcs, next_pcs, dsts, dst_values, mem_addrs,
                store_values, taken,
            )
        ]).encode())

    def _flush(self) -> None:
        if self._pending:
            self._hash.update("".join(self._pending).encode())
            self._pending.clear()

    def finalize(self, regs: dict[str, float] | None, memory) -> str:
        """Fold in the final register file and memory image; return hex.

        *memory* is a :class:`~repro.workloads.mem.MemoryImage`; only
        materialized (written) words participate, in address order.  Each
        part is hashed in one joined update; the byte stream is the same
        as one update per line.  Both engines pass the final register
        file; ``regs=None`` hashes the same as an empty one.
        """
        self._flush()
        h = self._hash
        h.update(b"=regs=\n")
        h.update("".join(
            f"{name}={regs[name]!r}\n" for name in sorted(regs or ())
        ).encode())
        h.update(b"=mem=\n")
        h.update("".join(
            f"{addr}={value!r}\n" for addr, value in memory.iter_words()
        ).encode())
        return h.hexdigest()
