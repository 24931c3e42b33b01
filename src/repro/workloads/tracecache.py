"""Compiled-trace replay cache: execute each workload once, replay forever.

Every ``simulate()`` call is trace-driven: the functional executor
re-derives the workload's correct-path :class:`~repro.workloads.trace.DynInst`
stream, and the cycle engine assigns timing to it.  The stream, however,
depends only on the workload's *architectural* content (program, initial
memory, initial registers, entry point) — never on the core or PFM
configuration, because PFM components only hint (the paper's Sections
2.1–2.3 safety argument, pinned by ``SimStats.arch_digest``).  Sweep and
fault campaigns therefore replay the exact same stream dozens of times
per workload.

This module compiles the stream once into an immutable
:class:`CompiledTrace` — parallel per-instruction columns (pcs, op-class
codes, memory addresses, values, taken flags) over interned mnemonic /
register / source-tuple tables — and replays it through a zero-copy
:class:`TraceCursor`: the cursor indexes the shared columns directly,
re-applies each store to the live memory image (so Load-Agent-injected
loads observe exactly the state they would under functional execution)
and rebuilds the architectural register file as it advances, so a
replayed run ends in the same registers and memory as an executed one.

A trace is named by its workload's content key
(:mod:`repro.workloads.identity`), memoized in-process and stored as
``traces/<name>--<key>.trace.pkl``; a file :func:`decode_trace` rejects
is counted in ``recoveries`` and recompiled, never trusted.  The
direction columns beside it belong to :mod:`repro.workloads.columns`.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.cachefile import CacheFileRejected, frame, publish, trace_dir, unframe
from repro.isa.instructions import OpClass
from repro.workloads import identity
from repro.workloads.trace import DynInst

if TYPE_CHECKING:
    from repro.workloads.base import Workload

#: Compiled-trace replay on; off, every run functionally executes (the
#: tests switch it off to compare replay against execution).
ENABLED = True

#: Campaign windows reuse one compilation: requests at or above
#: :data:`FLOOR_THRESHOLD` compile to at least :data:`TRACE_FLOOR` (the
#: CLI default window) so one cold compile serves every later window of
#: a sweep.  Tiny test windows compile exactly.
TRACE_FLOOR = 40_000
FLOOR_THRESHOLD = 10_000

#: Windows beyond this never compile (the columns would not fit memory
#: comfortably); such runs fall back to streaming functional execution.
TRACE_MAX = 2_000_000

#: File format version; bump on any layout change to shed stale files.
TRACE_VERSION = 2

_OPCLASSES: tuple[OpClass, ...] = tuple(OpClass)
_OPCODE_OF: dict[OpClass, int] = {op: i for i, op in enumerate(_OPCLASSES)}
_BRANCH_CODE = _OPCODE_OF[OpClass.BRANCH]
_JUMP_CODE = _OPCODE_OF[OpClass.JUMP]

#: In-process memoization: content key -> compiled trace.  Shared by all
#: simulate() calls in this process (SweepPool points, baseline cache
#: fills, benchmarks), so each process compiles a workload at most once.
_MEMO: dict[str, "CompiledTrace"] = {}

#: Subsystem accounting, exposed for tests and the ``cache`` CLI.
STATS = {
    "compiles": 0,
    "memo_hits": 0,
    "disk_hits": 0,
    "replays": 0,
    "recoveries": 0,
    "column_builds": 0,
    "column_disk_hits": 0,
    "column_recoveries": 0,
    "recipe_recoveries": 0,
}


# --------------------------------------------------------------------- #
# the compiled form
# --------------------------------------------------------------------- #


class CompiledTrace:
    """Immutable compiled correct-path stream of one workload.

    Parallel per-instruction columns plus interned tables.  ``length`` is
    the number of compiled instructions; ``halted`` records whether the
    program halted at that point (a halted trace serves *any* window).
    """

    __slots__ = (
        "name", "key", "length", "halted",
        "pcs", "next_pcs", "op_codes", "mnemonic_idx", "dst_idx",
        "srcs_idx", "comment_idx", "mem_addrs", "store_values",
        "dst_values", "taken",
        "mnemonics", "registers", "src_tuples", "comments",
        "_cols", "_nd", "_profile", "_directions",
    )

    def __init__(self, name: str, key: str) -> None:
        self.name = name
        self.key = key
        self.length = 0
        self.halted = False
        self.pcs: list[int] = []
        self.next_pcs: list[int] = []
        self.op_codes: list[int] = []
        self.mnemonic_idx: list[int] = []
        self.dst_idx: list[int] = []
        self.srcs_idx: list[int] = []
        self.comment_idx: list[int] = []
        self.mem_addrs: list[int | None] = []
        self.store_values: list[float | None] = []
        self.dst_values: list[float | None] = []
        self.taken: list[bool | None] = []
        self.mnemonics: list[str] = []
        self.registers: list[str] = []
        self.src_tuples: list[tuple[str, ...]] = []
        self.comments: list[str] = []
        self._cols: tuple | None = None
        self._nd: dict[str, Any] | None = None
        #: The numpy backend's replay profile of this trace, built lazily.
        self._profile: Any = None
        #: Predictor name -> (instructions covered, direction column,
        #: stored replay digests or None when the column is not stored);
        #: kept by :func:`repro.workloads.columns.directions`.
        self._directions: dict[
            str, tuple[int, list[bool], dict[int, str] | None]
        ] = {}

    # ------------------------------------------------------------------ #

    @classmethod
    def compile(
        cls, workload: "Workload", length: int, key: str, name: str
    ) -> "CompiledTrace":
        """Functionally execute a *pristine* workload into the compiled form.

        The workload's memory image is consumed (mutated to the
        ``length``-instruction state); callers must pass a dedicated
        copy, never one that will be simulated afterwards.
        """
        trace = cls(name, key)
        mn_table: dict[str, int] = {}
        reg_table: dict[str, int] = {}
        srcs_table: dict[tuple[str, ...], int] = {}
        cm_table: dict[str, int] = {}

        def intern(table: dict, value: Any) -> int:
            idx = table.get(value)
            if idx is None:
                idx = len(table)
                table[value] = idx
            return idx

        executor = workload.executor()
        pcs = trace.pcs
        next_pcs = trace.next_pcs
        op_codes = trace.op_codes
        mnemonic_idx = trace.mnemonic_idx
        dst_idx = trace.dst_idx
        srcs_idx = trace.srcs_idx
        comment_idx = trace.comment_idx
        mem_addrs = trace.mem_addrs
        store_values = trace.store_values
        dst_values = trace.dst_values
        taken = trace.taken
        opcode_of = _OPCODE_OF
        for dyn in executor.run(length):
            pcs.append(dyn.pc)
            next_pcs.append(dyn.next_pc)
            op_codes.append(opcode_of[dyn.op_class])
            mnemonic_idx.append(intern(mn_table, dyn.mnemonic))
            dst_idx.append(-1 if dyn.dst is None else intern(reg_table, dyn.dst))
            srcs_idx.append(intern(srcs_table, dyn.srcs))
            comment_idx.append(intern(cm_table, dyn.comment))
            mem_addrs.append(dyn.mem_addr)
            store_values.append(dyn.store_value)
            dst_values.append(dyn.dst_value)
            taken.append(dyn.taken)

        trace.length = len(pcs)
        trace.halted = executor.halted
        trace.mnemonics = list(mn_table)
        trace.registers = list(reg_table)
        trace.src_tuples = list(srcs_table)
        trace.comments = list(cm_table)
        return trace

    # ------------------------------------------------------------------ #

    def check_columns(self) -> None:
        """Validate column lengths against the header count.

        :func:`decode_trace` performs this check on every disk load, but
        a trace truncated *after* decode (a torn in-memory copy, a buggy
        builder mutating columns, or a hand-constructed trace in tests)
        used to replay silently with short columns and crash — or worse,
        wrap — deep inside the cursor.  Every replay entry point calls
        this instead, raising the loader's ``shape`` rejection.
        """
        columns = (
            self.pcs, self.next_pcs, self.op_codes, self.mnemonic_idx,
            self.dst_idx, self.srcs_idx, self.comment_idx,
            self.mem_addrs, self.store_values, self.dst_values,
            self.taken,
        )
        if any(len(col) != self.length for col in columns):
            raise CacheFileRejected("shape", "trace column lengths disagree with header")

    def columns(self) -> tuple:
        """Decoded per-instruction columns (shared, built once).

        Interned index columns expand to columns of shared object
        references so the replay loop pays a single list index per field.
        """
        cols = self._cols
        if cols is None:
            self.check_columns()
            mnemonics = self.mnemonics
            registers = self.registers
            src_tuples = self.src_tuples
            comments = self.comments
            opclasses = _OPCLASSES
            cols = (
                self.pcs,
                [mnemonics[i] for i in self.mnemonic_idx],
                [opclasses[c] for c in self.op_codes],
                [None if i < 0 else registers[i] for i in self.dst_idx],
                [src_tuples[i] for i in self.srcs_idx],
                self.mem_addrs,
                self.store_values,
                self.dst_values,
                self.taken,
                self.next_pcs,
                [comments[i] for i in self.comment_idx],
            )
            self._cols = cols
        return cols

    def cursor(
        self, memory: Any, initial_regs: dict[str, float] | None
    ) -> "TraceCursor":
        """Zero-copy replay cursor over this trace for one simulation."""
        self.check_columns()
        STATS["replays"] += 1
        return TraceCursor(self, memory, initial_regs)

    def ndarrays(self) -> "dict[str, Any] | None":
        """Numeric columns as NumPy arrays (shared, built once).

        Feeds the vectorized backend's per-trace profile: op codes,
        dst-register indices and pcs as dense integer arrays, and
        ``mem_addrs`` as an int64 array with -1 where the column holds
        None (non-memory ops).  Returns None when numpy is unavailable.
        """
        if self._nd is not None:
            return self._nd
        # Validate before the availability gate: a torn trace is corrupt
        # whether or not numpy is importable.
        self.check_columns()
        try:
            import numpy as np
        except ImportError:  # pragma: no cover - numpy baked into the image
            return None
        self._nd = {
            "op_codes": np.asarray(self.op_codes, dtype=np.int8),
            "dst_idx": np.asarray(self.dst_idx, dtype=np.int32),
            "pcs": np.asarray(self.pcs, dtype=np.int64),
            "mem_addrs": np.asarray(
                [-1 if a is None else a for a in self.mem_addrs],
                dtype=np.int64,
            ),
        }
        return self._nd

    def branch_count(self, length: int | None = None) -> int:
        """Conditional branches among the first *length* instructions
        (default: the whole trace)."""
        codes = self.op_codes if length is None else self.op_codes[:length]
        return codes.count(_BRANCH_CODE)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def to_payload(self) -> dict:
        return {
            "version": TRACE_VERSION,
            "name": self.name,
            "key": self.key,
            "length": self.length,
            "halted": self.halted,
            **{field: getattr(self, field) for field in _PAYLOAD_FIELDS},
        }


#: The trace file's list fields, in payload order after the header.
_PAYLOAD_FIELDS = (
    "pcs", "next_pcs", "op_codes", "mnemonic_idx", "dst_idx", "srcs_idx",
    "comment_idx", "mem_addrs", "store_values", "dst_values", "taken",
    "mnemonics", "registers", "src_tuples", "comments",
)

#: Each interned index column, the table it indexes, and its least legal
#: index (``dst_idx`` holds -1 for "no destination").  ``op_codes``
#: indexes :class:`OpClass`.
_INDEX_COLUMNS = (
    ("mnemonic_idx", "mnemonics", 0),
    ("dst_idx", "registers", -1),
    ("srcs_idx", "src_tuples", 0),
    ("comment_idx", "comments", 0),
)


def _indices_in_range(trace: CompiledTrace) -> bool:
    """Every interned index of *trace* names an entry of its table: a
    past-the-end index would raise at replay, and a negative one would
    wrap to another entry.  One C-level set probe per column."""
    bounds = [
        (getattr(trace, column), least, len(getattr(trace, table)))
        for column, table, least in _INDEX_COLUMNS
    ]
    bounds.append((trace.op_codes, 0, len(_OPCLASSES)))
    return all(
        set(range(least, size)).issuperset(values)
        for values, least, size in bounds
    )


class TraceCursor:
    """Replays a :class:`CompiledTrace` as a functional-executor stand-in.

    Quacks like :class:`~repro.workloads.trace.FunctionalExecutor` for
    the cycle engine: ``run(limit)`` yields :class:`DynInst` records in
    program order, ``regs`` accumulates the architectural register file,
    and ``memory`` is the live image, updated store-by-store exactly when
    functional execution would have updated it (Load-Agent-injected loads
    from custom components read it mid-run).
    """

    __slots__ = ("trace", "memory", "regs", "halted")

    def __init__(
        self,
        trace: CompiledTrace,
        memory: Any,
        initial_regs: dict[str, float] | None,
    ) -> None:
        self.trace = trace
        self.memory = memory
        self.regs: dict[str, float] = dict(initial_regs or {})
        self.halted = False

    def run(self, max_instructions: int) -> Iterator[DynInst]:
        """Yield up to *max_instructions* replayed dynamic instructions."""
        trace = self.trace
        n = trace.length if max_instructions > trace.length else max_instructions
        (
            pcs, mnemonics, ops, dsts, srcs, addrs, svals, dvals, takens,
            npcs, comments,
        ) = trace.columns()
        regs = self.regs
        store = self.memory.store
        make = DynInst
        store_op = OpClass.STORE
        for i in range(n):
            op = ops[i]
            dst = dsts[i]
            addr = addrs[i]
            sval = svals[i]
            dval = dvals[i]
            dyn = make(
                i, pcs[i], mnemonics[i], op, dst, srcs[i], addr, sval,
                dval, takens[i], npcs[i], comments[i],
            )
            if op is store_op:
                store(addr, sval)
            if dst is not None and dst != "zero":
                regs[dst] = dval
            yield dyn
        if n == trace.length and trace.halted:
            self.halted = True


# --------------------------------------------------------------------- #
# the trace file
# --------------------------------------------------------------------- #


def _trace_path(name: str, key: str) -> Path:
    return trace_dir() / f"{name}--{key}.trace.pkl"


def _compile_length(need: int) -> int:
    return max(need, TRACE_FLOOR) if need >= FLOOR_THRESHOLD else need


def decode_trace(raw: bytes, key: str) -> CompiledTrace:
    """The trace a file of trace *key* holds.  Raises
    :class:`~repro.cachefile.CacheFileRejected`: ``checksum`` or
    ``header`` (framing, another :data:`TRACE_VERSION`, not a trace),
    ``stale`` (a trace of another key) or ``shape`` (columns that
    disagree with the header, or an interned index outside its
    table)."""
    payload = unframe(raw)
    try:
        if payload["version"] != TRACE_VERSION:
            raise CacheFileRejected("header")
        trace = CompiledTrace(payload["name"], payload["key"])
        trace.length = payload["length"]
        trace.halted = payload["halted"]
        for field in _PAYLOAD_FIELDS:
            setattr(trace, field, payload[field])
    except (TypeError, KeyError):
        raise CacheFileRejected("header") from None
    if trace.key != key:
        raise CacheFileRejected("stale")
    if type(trace.length) is not int or any(
        type(getattr(trace, field)) is not list for field in _PAYLOAD_FIELDS
    ):
        raise CacheFileRejected("shape")
    trace.check_columns()
    if not _indices_in_range(trace):
        raise CacheFileRejected("shape", "interned index outside its table")
    return trace


def summarize(path: Path, raw: bytes) -> str:
    """``cache list``'s line for a trace file."""
    trace = decode_trace(raw, path.name[:-len(".trace.pkl")].rpartition("--")[2])
    halted = ", halted" if trace.halted else ""
    return f"{trace.name}, {trace.length} insts{halted}"


def _load_trace(path: Path, key: str) -> CompiledTrace | None:
    """The trace file *path* of *key*, or None when it is missing or
    rejected; a rejection counts in ``recoveries`` and the caller's
    recompile heals the file."""
    try:
        return decode_trace(path.read_bytes(), key)
    except OSError:
        return None
    except CacheFileRejected:
        STATS["recoveries"] += 1
        return None


def _rebuild(workload: "Workload") -> "Workload | None":
    """A pristine copy of *workload* for the compile to execute, so the
    caller's own image stays untouched for its simulation."""
    ref = workload.build_ref
    if ref is None:
        return None
    # Imported lazily: the registry autoloads workload modules, which
    # import this module's decorators' neighbors.
    from repro.registry import build_workload

    try:
        return build_workload(ref[0], **ref[1])
    except Exception:
        return None


def get_trace(workload: "Workload", window: int) -> CompiledTrace | None:
    """Compiled trace covering *window* instructions, or None.

    None means "functionally execute": the cache is disabled, the
    workload was not registry-built (no identity), the window is beyond
    the compile ceiling, or the pristine copy the compile executes failed
    verification.
    """
    key = getattr(workload, "trace_key", None)
    if key is None or window <= 0 or not ENABLED or window > TRACE_MAX:
        return None

    memo = _MEMO.get(key)
    if memo is not None and (memo.halted or memo.length >= window):
        STATS["memo_hits"] += 1
        return memo

    ref = workload.build_ref
    name = ref[0] if ref is not None else workload.name
    path = _trace_path(name, key)
    disk = _load_trace(path, key)
    if disk is not None and (disk.halted or disk.length >= window):
        STATS["disk_hits"] += 1
        _MEMO[key] = disk
        return disk

    # Compile (or extend a too-short trace to the new high-water mark).
    have = max(
        memo.length if memo is not None else 0,
        disk.length if disk is not None else 0,
    )
    fresh = _rebuild(workload)
    if fresh is None:
        return None
    if identity.workload_content_key(fresh) != key:
        # The key came from the on-disk recipe index (or a
        # nondeterministic builder) and does not match this content:
        # replay would diverge; refuse to cache.
        return None
    trace = CompiledTrace.compile(
        fresh, _compile_length(max(window, have)), key=key, name=name
    )
    STATS["compiles"] += 1
    _MEMO[key] = trace
    publish(path, frame(trace.to_payload()))
    return trace


def reset_memory_cache() -> None:
    """Drop all in-process state (tests and cold-path benchmarks)."""
    _MEMO.clear()
    identity._KEY_MEMO.clear()
    identity._BASE.clear()
    for counter in STATS:
        STATS[counter] = 0
