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

Cache identity is a *content* digest of the built workload (program text,
labels, initial memory words, initial registers, entry), not of the
builder arguments — a builder code change that alters the kernel
invalidates the cache automatically, and distinct override spellings that
build identical workloads share one compilation.  Traces persist under
``<cache-dir>/traces/`` (``$REPRO_CACHE_DIR`` or ``.repro-cache``) and
are memoized in-process so every SweepPool worker compiles each workload
at most once.  Each file carries a sha256 of its payload, and the payload
decodes as plain containers only; corrupt, tampered, stale, or
version-skewed files are recompiled, never trusted.

Beside each trace lies a *direction column* per core predictor
(``<name>--<key>.<predictor>.pred``): the predictor's raw ``predict()``
bit for every conditional branch, in program order.  The core's
predictor always runs and always trains, whether or not the Fetch Agent
overrides it (§2.2), so on a correct-path trace those bits depend on the
trace alone.  :meth:`CompiledTrace.directions` builds the column on
first use by replaying the engine's exact call sequence on a fresh
predictor, over the asking run's window only (the bits are
prefix-stable; a longer window rebuilds the file), and both engines
read it instead of re-running the predictor.  A column file uses the
trace file's framing (sha256, then a plain-container pickle) and is
keyed on the trace key, the predictor name and the package's
:func:`source_fingerprint`, so an edit to
predictor code never serves stale bits; predictors defined outside the
package are never stored.  Any file that fails a check is rejected with
a named reason (:class:`ColumnRejected`) and rebuilt.

The same file stores the replay's ``arch_digest`` per window
(``digests``: instructions replayed -> hex digest).  A replay's stream
is the trace's first rows and only the cursor writes registers and
memory, so the digest depends on the trace key and the window alone,
never on timing or PFM hints (§2.1–2.3).  :func:`replay_digest` serves a
stored one, or hashes the trace rows and the final state once and
stores the result; only functional execution observes instructions live.

Naming a workload's content needs a build plus a hash over its whole
memory image, so this module also keeps the *recipe index*: one
``<name>--<recipe key>.recipe`` file beside the traces per build recipe
(registry name, plain-JSON overrides, source fingerprint), recording
its content key in the same framing.  :func:`trace_key_for` reads it to
key result-store entries without building anything; any edit under
``src/repro`` changes the fingerprint and misses every recipe once.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import os
import pickle
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.isa.instructions import OpClass
from repro.workloads.trace import DynInst

if TYPE_CHECKING:
    from repro.workloads.base import Workload

#: Environment override for the on-disk cache location (shared with the
#: sweep engine's baseline cache; traces live in a ``traces/`` subdir).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default on-disk cache directory (relative to the invocation cwd).
DEFAULT_CACHE_DIR = ".repro-cache"

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

#: Direction-column file format version.
COLUMN_VERSION = 2

#: Content-key schema version.  Separate from :data:`TRACE_VERSION`:
#: trace keys feed every result-store key, so a file-format change must
#: not re-address stored results.
KEY_VERSION = 1

_OPCLASSES: tuple[OpClass, ...] = tuple(OpClass)
_OPCODE_OF: dict[OpClass, int] = {op: i for i, op in enumerate(_OPCLASSES)}
_BRANCH_CODE = _OPCODE_OF[OpClass.BRANCH]
_JUMP_CODE = _OPCODE_OF[OpClass.JUMP]

#: In-process memoization: content key -> compiled trace.  Shared by all
#: simulate() calls in this process (SweepPool points, baseline cache
#: fills, benchmarks), so each process compiles a workload at most once.
_MEMO: dict[str, "CompiledTrace"] = {}

#: The one process memo of build recipes: :func:`recipe_digest` ->
#: content key.  :func:`annotate` fills it on every registry build and
#: :func:`trace_key_for` fills it from the on-disk recipe index, so a
#: process hashes each workload's content at most once and a recipe-index
#: hit spares the build entirely.  ``None`` records a recipe that does
#: not build.
_KEY_MEMO: dict[str, str | None] = {}

#: The process's pristine base workload, ``{recipe digest: base}`` with
#: at most one entry, kept and copied by
#: :func:`repro.registry.workloads.build_workload`.  One slot bounds the
#: memory to one extra image; the grids run each workload's points
#: together, so each group still builds once.
_BASE: "dict[str, Workload]" = {}

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


def canonical_bytes(obj: Any, pickled: bool = True) -> bytes:
    """Deterministic byte encoding of a declarative spec.

    JSON with sorted keys covers plain values; dataclasses flatten to
    dicts; anything else (e.g. a component factory passed as a builder
    override) falls back to a pickle digest — deterministic for the
    list/dataclass payloads the workload builders accept.  With
    ``pickled=False`` such values raise :class:`TypeError` instead, for
    callers that must only address what plain JSON spells out.
    """

    def _default(value: Any) -> Any:
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return dataclasses.asdict(value)
        if not pickled:
            raise TypeError(f"{type(value).__name__} has no plain encoding")
        return {
            "__pickle_sha256__": hashlib.sha256(
                pickle.dumps(value, protocol=4)
            ).hexdigest()
        }

    return json.dumps(obj, sort_keys=True, default=_default).encode()


def recipe_digest(name: str, overrides: dict) -> str | None:
    """Process-memo key of a build recipe (registry name + overrides);
    ``None`` when the overrides cannot be encoded at all."""
    try:
        spec = canonical_bytes({"name": name, "overrides": overrides})
    except Exception:
        return None
    return hashlib.sha256(spec).hexdigest()


# --------------------------------------------------------------------- #
# cache identity
# --------------------------------------------------------------------- #


def workload_content_key(workload: "Workload") -> str:
    """Content digest of everything that determines the dynamic stream.

    Program instructions (with comments — they ride into the trace),
    label map, entry point, initial registers, and the initial memory
    words.  Bitstream and core/PFM configuration are deliberately
    excluded: hints never change the correct-path stream, so one trace
    serves baseline, PFM, and fault-injected runs alike.
    """
    h = hashlib.sha256()
    program = workload.program
    h.update(
        f"v{KEY_VERSION};base={program.base_pc};entry={workload.entry}\n".encode()
    )
    lines = [
        f"{i.pc};{i.mnemonic};{i.dst};{i.srcs};{i.imm};{i.target};{i.comment}"
        for i in program.instructions
    ]
    h.update("\n".join(lines).encode())
    h.update(b"\n=labels=\n")
    for name in sorted(program.labels):
        h.update(f"{name}={program.labels[name]}\n".encode())
    h.update(b"=regs=\n")
    regs = workload.initial_regs
    for name in sorted(regs):
        h.update(f"{name}={regs[name]!r}\n".encode())
    h.update(b"=mem=\n")
    h.update(
        "\n".join(
            f"{addr}={value!r}" for addr, value in workload.memory.iter_words()
        ).encode()
    )
    return h.hexdigest()[:20]


def annotate(workload: "Workload", name: str, overrides: dict) -> None:
    """Stamp a registry-built workload with its trace-cache identity.

    Called by :func:`repro.registry.workloads.build_workload` on the
    base it keeps.  The content key is memoized per build recipe
    (:data:`_KEY_MEMO`), so a base evicted and built again is not
    hashed again, and a recipe-index hit spares the hash entirely.
    """
    workload.build_ref = (name, dict(overrides))
    digest = recipe_digest(name, overrides)
    key = _KEY_MEMO.get(digest) if digest is not None else None
    if key is None:
        # Unencodable overrides are still cacheable, just never memoized.
        key = workload_content_key(workload)
        if digest is not None:
            _KEY_MEMO[digest] = key
    workload.trace_key = key


@functools.cache
def source_fingerprint() -> str:
    """sha256 over the relative path and bytes of every ``*.py`` file in
    the ``repro`` package, computed once per process.

    Hashing the whole package rather than a list of builder modules
    means no module a builder reads can be left out.
    """
    root = Path(__file__).resolve().parents[1]
    files = sorted(
        (path.relative_to(root).as_posix(), path) for path in root.rglob("*.py")
    )
    h = hashlib.sha256()
    for rel, path in files:
        data = path.read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def recipe_key(workload: str, overrides: dict) -> str | None:
    """Recipe-index address of a registry build, or ``None`` when the
    build must stay out of the on-disk index: overrides that encode only
    through the pickle-digest fallback (a component factory), or a builder
    defined outside the ``repro`` package, whose source the fingerprint
    cannot see."""
    from repro.registry.workloads import WORKLOADS

    try:
        builder = WORKLOADS.get(workload)
        spec = canonical_bytes(
            {"name": workload, "overrides": overrides}, pickled=False
        )
    except (TypeError, ValueError):  # unknown name, or not plain JSON
        return None
    if not getattr(builder, "__module__", "").startswith("repro."):
        return None
    h = hashlib.sha256(spec)
    h.update(b"\0" + source_fingerprint().encode())
    return h.hexdigest()


def decode_recipe(raw: bytes, rk: str) -> str | None:
    """The content key a recipe file records for *rk*; ``None`` (never a
    raise) on any defect: checksum, format version, address or key."""
    try:
        payload = _loads(raw)
        key = payload["trace_key"]
        current = payload["version"] == KEY_VERSION and payload["rk"] == rk
    except Exception:
        return None
    if (
        not current or type(key) is not str or len(key) != 20
        or key.strip("0123456789abcdef")
    ):
        return None
    return key


def _recipe_path(name: str, rk: str) -> Path:
    return trace_dir() / f"{name}--{rk}.recipe"


def _read_recipe(name: str, rk: str) -> str | None:
    """The indexed content key of recipe *rk*; a defective file reads as
    a miss, counted in ``recipe_recoveries``, and is republished by the
    caller's rebuild."""
    try:
        raw = _recipe_path(name, rk).read_bytes()
    except OSError:
        return None
    key = decode_recipe(raw, rk)
    if key is None:
        STATS["recipe_recoveries"] += 1
    return key


def trace_key_for(workload: str, overrides: dict) -> str | None:
    """Content key of the registry build of *workload* with *overrides*.

    Served from the process memo, then from the recipe index; only a
    miss builds the workload through the registry (which stamps its
    trace key) and republishes the recipe.  Returns ``None`` when the
    workload cannot be built or carries no key; a result-store key then
    degrades to config-only addressing.
    """
    digest = recipe_digest(workload, overrides)
    if digest is not None and digest in _KEY_MEMO:
        return _KEY_MEMO[digest]
    rk = recipe_key(workload, overrides)
    key = _read_recipe(workload, rk) if rk is not None else None
    if key is None:
        from repro.registry import build_workload

        try:
            key = getattr(build_workload(workload, **overrides),
                          "trace_key", None)
        except Exception:
            key = None
        if rk is not None and key is not None:
            _write(_recipe_path(workload, rk),
                   {"version": KEY_VERSION, "rk": rk, "trace_key": key})
    if digest is not None:
        _KEY_MEMO[digest] = key
    return key


def reset_trace_key_memo() -> None:
    """Drop the per-process trace-key memo (tests and benchmarks)."""
    _KEY_MEMO.clear()


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
        #: see :meth:`directions` and :func:`replay_digest`.
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

        ``from_payload`` performs this check on every disk load, but a
        trace truncated *after* decode (a torn in-memory copy, a buggy
        builder mutating columns, or a hand-constructed trace in tests)
        used to replay silently with short columns and crash — or worse,
        wrap — deep inside the cursor.  Every replay entry point calls
        this instead, raising the same corruption error as the loader.
        """
        columns = (
            self.pcs, self.next_pcs, self.op_codes, self.mnemonic_idx,
            self.dst_idx, self.srcs_idx, self.comment_idx,
            self.mem_addrs, self.store_values, self.dst_values,
            self.taken,
        )
        if any(len(col) != self.length for col in columns):
            raise ValueError("trace column lengths disagree with header")

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

    def directions(self, predictor: str, length: int | None = None) -> list[bool]:
        """The *predictor*'s raw ``predict()`` bit for every conditional
        branch of the first *length* instructions (default: the whole
        trace), in program order; may cover more instructions than asked.

        Read from the column file beside the trace when it passes every
        check and covers *length*, else built (one predictor pass over
        those instructions) and published.  The bits are prefix-stable,
        so a run builds only its own window and a longer run rebuilds the
        file over its longer window.  Built lazily, never by
        :meth:`compile`: a run that never asks for a column pays nothing
        for it.
        """
        need = self.length if length is None else min(length, self.length)
        column = self._directions.get(predictor)
        if column is None or column[0] < need:
            column = _direction_column(self, predictor, need)
            self._directions[predictor] = column
        return column[1]

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
            "pcs": self.pcs,
            "next_pcs": self.next_pcs,
            "op_codes": self.op_codes,
            "mnemonic_idx": self.mnemonic_idx,
            "dst_idx": self.dst_idx,
            "srcs_idx": self.srcs_idx,
            "comment_idx": self.comment_idx,
            "mem_addrs": self.mem_addrs,
            "store_values": self.store_values,
            "dst_values": self.dst_values,
            "taken": self.taken,
            "mnemonics": self.mnemonics,
            "registers": self.registers,
            "src_tuples": self.src_tuples,
            "comments": self.comments,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CompiledTrace":
        if payload["version"] != TRACE_VERSION:
            raise ValueError(f"trace version {payload['version']} != {TRACE_VERSION}")
        trace = cls(payload["name"], payload["key"])
        trace.length = payload["length"]
        trace.halted = payload["halted"]
        for field in (
            "pcs", "next_pcs", "op_codes", "mnemonic_idx", "dst_idx",
            "srcs_idx", "comment_idx", "mem_addrs", "store_values",
            "dst_values", "taken", "mnemonics", "registers", "src_tuples",
            "comments",
        ):
            setattr(trace, field, payload[field])
        trace.check_columns()
        return trace


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
# direction columns
# --------------------------------------------------------------------- #


class ColumnRejected(ValueError):
    """A direction-column file that must not be used.

    ``reason`` names the failed check: ``checksum`` (torn, truncated or
    flipped bytes), ``header`` (undecodable or another format version),
    ``stale`` (another trace key, predictor or source fingerprint),
    ``count`` (not one bit per conditional branch of the instructions it
    covers), ``bits`` (a byte other than 0 or 1) or ``digests`` (a
    replay-digest map that is not a dict of instruction counts within
    the covered window to 64-digit lowercase hex strings).
    """

    def __init__(self, reason: str) -> None:
        super().__init__(f"direction column rejected: {reason}")
        self.reason = reason


def stores_directions(predictor: str) -> bool:
    """True when *predictor* is defined inside the ``repro`` package.

    Only such a predictor may be served from a stored column: the
    column's source fingerprint covers the package alone, so a stored
    column of a predictor defined elsewhere could outlive an edit to it.
    """
    from repro.registry.predictors import PREDICTORS

    try:
        factory = PREDICTORS.get(predictor)
    except ValueError:
        return False
    return getattr(factory, "__module__", "").startswith("repro.")


def build_directions(
    trace: CompiledTrace, predictor: str, length: int
) -> list[bool]:
    """Run a fresh *predictor* over the first *length* instructions of
    *trace* with the engine's exact call sequence: ``on_taken_control``
    on each jump, ``predict`` then ``update`` on each conditional
    branch."""
    from repro.registry.predictors import make_predictor

    live = make_predictor(predictor)
    predict = live.predict
    update = live.update
    on_taken = live.on_taken_control
    bits: list[bool] = []
    append = bits.append
    branch = _BRANCH_CODE
    jump = _JUMP_CODE
    for code, pc, npc, taken in zip(
        trace.op_codes[:length], trace.pcs, trace.next_pcs, trace.taken
    ):
        if code == branch:
            append(bool(predict(pc)))
            update(pc, bool(taken))
        elif code == jump:
            on_taken(pc, npc)
    return bits


def column_header(trace: CompiledTrace, predictor: str) -> dict:
    """Everything a stored column must agree with to be used, besides
    the number of instructions it covers."""
    return {
        "version": COLUMN_VERSION,
        "key": trace.key,
        "predictor": predictor,
        "fingerprint": source_fingerprint(),
    }


def decode_column(
    raw: bytes, header: dict, trace: CompiledTrace
) -> tuple[int, list[bool], dict[int, str]]:
    """(instructions covered, bits, replay digests) of a column file,
    checked against the *header* it must carry and the branches of
    *trace*; raises :class:`ColumnRejected` on any defect.  A column
    built over a longer trace of the same key is cut to *trace*, and so
    are its digests."""
    try:
        payload = _loads(raw)
    except _ChecksumMismatch:
        raise ColumnRejected("checksum") from None
    except Exception:
        raise ColumnRejected("header") from None
    try:
        stored = dict(payload["header"])
        length = stored.pop("length")
        bits = payload["bits"]
    except (TypeError, KeyError, ValueError):
        raise ColumnRejected("header") from None
    if (
        stored.get("version") != header["version"]
        or not isinstance(bits, bytes)
        or type(length) is not int
        or length < 0
    ):
        raise ColumnRejected("header")
    if stored != header:
        raise ColumnRejected("stale")
    covered = min(length, trace.length)
    branches = trace.branch_count(covered)
    if len(bits) != branches and not (
        length > trace.length and len(bits) > branches
    ):
        raise ColumnRejected("count")
    bits = bits[:branches]
    if bits.translate(None, b"\x00\x01"):
        raise ColumnRejected("bits")
    digests = payload.get("digests")
    if type(digests) is not dict or not all(
        type(n) is int and 0 <= n <= length
        and type(hexdigest) is str and len(hexdigest) == 64
        and not hexdigest.strip("0123456789abcdef")
        for n, hexdigest in digests.items()
    ):
        raise ColumnRejected("digests")
    return covered, [bit == 1 for bit in bits], {
        n: hexdigest for n, hexdigest in digests.items() if n <= covered
    }


def _column_path(name: str, key: str, predictor: str) -> Path:
    return trace_dir() / f"{name}--{key}.{predictor}.pred"


def _direction_column(
    trace: CompiledTrace, predictor: str, length: int
) -> tuple[int, list[bool], dict[int, str] | None]:
    """(instructions covered, bits, replay digests) of the trace's stored
    column when it covers *length*, else of a column built over *length*
    and published, keeping the stored digests.  A predictor defined
    outside the package is built, never stored, and has no digests."""
    if not stores_directions(predictor):
        return length, build_directions(trace, predictor, length), None
    digests: dict[int, str] = {}
    try:
        covered, bits, digests = decode_column(
            _column_path(trace.name, trace.key, predictor).read_bytes(),
            column_header(trace, predictor), trace,
        )
    except OSError:
        pass
    except ColumnRejected:
        STATS["column_recoveries"] += 1
    else:
        if covered >= length:
            STATS["column_disk_hits"] += 1
            return covered, bits, digests
    bits = build_directions(trace, predictor, length)
    STATS["column_builds"] += 1
    _write_column(trace, predictor, length, bits, digests)
    return length, bits, digests


def _write_column(
    trace: CompiledTrace, predictor: str, length: int, bits: list[bool],
    digests: dict[int, str],
) -> None:
    """Publish a column file.  Concurrent writers race and the last one
    wins; what the loser wrote (a digest, or a column over a longer
    window) is rebuilt by a later run that needs it."""
    _write(
        _column_path(trace.name, trace.key, predictor),
        {
            "header": {**column_header(trace, predictor), "length": length},
            "bits": bytes(bits),
            "digests": digests,
        },
    )


#: What :func:`replay_digest` reads for a run with no stored column.
_NO_COLUMN: tuple[int, list[bool], None] = (0, [], None)


def replay_digest(
    trace: CompiledTrace, predictor: str | None, n: int,
    regs: dict[str, float], memory: Any,
) -> str:
    """``arch_digest`` of a run that replayed the first *n* rows of
    *trace* and ended in *regs* and *memory*.

    Served from the run's stored direction column (*predictor*'s, read
    by :meth:`CompiledTrace.directions`) when it holds a digest for
    exactly *n* instructions.  Otherwise the rows are hashed straight
    from the columns, then the final state, and the result is stored
    in that column.  ``predictor=None`` (a predictor swapped in after
    construction) and a predictor whose column is never stored serve
    and store nothing.
    """
    from repro.core.archstate import ArchDigest

    covered, bits, digests = (
        trace._directions.get(predictor, _NO_COLUMN) if predictor
        else _NO_COLUMN
    )
    if digests is not None and n in digests:
        return digests[n]
    digest = ArchDigest()
    digest.observe_columns(
        n, trace.pcs, trace.next_pcs, trace.columns()[3], trace.dst_values,
        trace.mem_addrs, trace.store_values, trace.taken,
    )
    hexdigest = digest.finalize(regs, memory)
    if digests is not None and n <= covered:
        digests[n] = hexdigest
        _write_column(trace, predictor, covered, bits, digests)
    return hexdigest


# --------------------------------------------------------------------- #
# the store
# --------------------------------------------------------------------- #


def trace_dir(base: str | os.PathLike | None = None) -> Path:
    """The on-disk trace directory under the shared cache layout."""
    if base is None:
        base = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
    return Path(base) / "traces"


def _trace_path(name: str, key: str) -> Path:
    return trace_dir() / f"{name}--{key}.trace.pkl"


def _compile_length(need: int) -> int:
    return max(need, TRACE_FLOOR) if need >= FLOOR_THRESHOLD else need


class _PlainUnpickler(pickle.Unpickler):
    """Decodes plain containers only.  A trace payload names no class or
    function, so a file that does was tampered with: refuse the name
    rather than import and call it."""

    def find_class(self, module: str, name: str) -> Any:
        raise pickle.UnpicklingError(
            f"trace payload names {module}.{name}"
        )


def _dumps(payload: dict) -> bytes:
    """File bytes for *payload*: its sha256, then the pickle."""
    body = pickle.dumps(payload, protocol=4)
    return hashlib.sha256(body).digest() + body


class _ChecksumMismatch(ValueError):
    """File bytes that do not match their sha256."""


def _loads(raw: bytes) -> dict:
    """Inverse of :func:`_dumps`; raises on a checksum mismatch or on a
    payload that names any class or function."""
    digest, body = raw[:32], raw[32:]
    if hashlib.sha256(body).digest() != digest:
        raise _ChecksumMismatch("checksum mismatch")
    return _PlainUnpickler(io.BytesIO(body)).load()


def _load_trace(path: Path, key: str) -> CompiledTrace | None:
    """Load and validate one trace file; None (never a raise) on any defect."""
    try:
        trace = CompiledTrace.from_payload(_loads(path.read_bytes()))
    except FileNotFoundError:
        return None
    except Exception:
        # Torn write, disk corruption, tampering, stale format: recompile.
        STATS["recoveries"] += 1
        return None
    if trace.key != key:
        return None
    return trace


def _write(path: Path, payload: dict) -> None:
    """Publish a trace, column or recipe file through the result store's
    writer: a unique fsynced temp file renamed into place, so concurrent
    workers writing one file never share a temp file.  A read-only cache
    dir leaves the content in memory only."""
    from repro.store.resultstore import ResultStore

    ResultStore._write_raw(path, _dumps(payload))


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
    if workload_content_key(fresh) != key:
        # The key came from the on-disk recipe index (or a
        # nondeterministic builder) and does not match this content:
        # replay would diverge; refuse to cache.
        return None
    trace = CompiledTrace.compile(
        fresh, _compile_length(max(window, have)), key=key, name=name
    )
    STATS["compiles"] += 1
    _MEMO[key] = trace
    _write(path, trace.to_payload())
    return trace


def reset_memory_cache() -> None:
    """Drop all in-process state (tests and cold-path benchmarks)."""
    _MEMO.clear()
    _KEY_MEMO.clear()
    _BASE.clear()
    for counter in STATS:
        STATS[counter] = 0


# --------------------------------------------------------------------- #
# inspection (the ``cache`` CLI subcommand)
# --------------------------------------------------------------------- #


def trace_files(base: str | os.PathLike | None = None) -> list[dict]:
    """Metadata of every on-disk trace, sorted by filename.

    Each entry: path, size_bytes, valid, and (when loadable) workload
    name, key, length, halted.
    """
    directory = trace_dir(base)
    entries: list[dict] = []
    if not directory.is_dir():
        return entries
    for path in sorted(directory.glob("*.trace.pkl")):
        info: dict[str, Any] = {
            "path": path,
            "size_bytes": path.stat().st_size,
            "valid": False,
        }
        try:
            trace = CompiledTrace.from_payload(_loads(path.read_bytes()))
        except Exception:
            entries.append(info)
            continue
        info.update(
            valid=True,
            workload=trace.name,
            key=trace.key,
            length=trace.length,
            halted=trace.halted,
        )
        entries.append(info)
    return entries


def column_files(base: str | os.PathLike | None = None) -> list[dict]:
    """Metadata of every on-disk direction column, sorted by filename.

    Each entry: path, size_bytes, valid (the checksum and header
    decode), and when valid the predictor, the instructions covered, the
    bit count and the sorted windows with a stored replay digest.
    Staleness needs the trace and the current sources, so it is checked
    only when a run reads the column.
    """
    directory = trace_dir(base)
    entries: list[dict] = []
    if not directory.is_dir():
        return entries
    for path in sorted(directory.glob("*.pred")):
        info: dict[str, Any] = {
            "path": path,
            "size_bytes": path.stat().st_size,
            "valid": False,
        }
        try:
            payload = _loads(path.read_bytes())
            info.update(
                predictor=payload["header"]["predictor"],
                length=payload["header"]["length"],
                branches=len(payload["bits"]),
                digests=sorted(payload["digests"]),
                valid=True,
            )
        except Exception:
            pass
        entries.append(info)
    return entries

