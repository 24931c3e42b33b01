"""Workload identity: the content key every cache file is addressed by.

A workload's *content key* (:func:`workload_content_key`) hashes what
determines its correct-path stream, not its builder arguments, so a
builder edit that alters the kernel invalidates its trace, columns and
stored results by itself.  Naming content needs a build plus a hash
over the whole memory image, so the *recipe index* records it: one
``traces/<name>--<recipe key>.recipe`` file per build recipe (registry
name, plain-JSON overrides, :func:`source_fingerprint`), read by
:func:`trace_key_for` to key result-store entries without building
anything.  The process keeps the keys it knows (:data:`_KEY_MEMO`) and
its one pristine base workload (:data:`_BASE`).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pickle
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.cachefile import CacheFileRejected, frame, publish, trace_dir, unframe

if TYPE_CHECKING:
    from repro.workloads.base import Workload

#: Content-key schema version.  Separate from the trace file format:
#: trace keys feed every result-store key, so a file-format change must
#: not re-address stored results.
KEY_VERSION = 1

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


def decode_recipe(raw: bytes, rk: str) -> str:
    """The content key a recipe file records for *rk*.  Raises
    :class:`~repro.cachefile.CacheFileRejected`: ``checksum`` or
    ``header`` (framing, another :data:`KEY_VERSION`, not a recipe),
    ``stale`` (another recipe key) or ``shape`` (a content key that is
    not 20 lowercase hex digits)."""
    payload = unframe(raw)
    try:
        current = payload["version"] == KEY_VERSION
        stale = payload["rk"] != rk
        key = payload["trace_key"]
    except (TypeError, KeyError):
        raise CacheFileRejected("header") from None
    if not current:
        raise CacheFileRejected("header")
    if stale:
        raise CacheFileRejected("stale")
    if type(key) is not str or len(key) != 20 or key.strip("0123456789abcdef"):
        raise CacheFileRejected("shape")
    return key


def _recipe_path(name: str, rk: str) -> Path:
    return trace_dir() / f"{name}--{rk}.recipe"


def _read_recipe(name: str, rk: str) -> str | None:
    """The indexed content key of recipe *rk*; a rejected file reads as
    a miss, counted in ``recipe_recoveries``, and is republished by the
    caller's rebuild."""
    try:
        return decode_recipe(_recipe_path(name, rk).read_bytes(), rk)
    except OSError:
        return None
    except CacheFileRejected:
        from repro.workloads.tracecache import STATS  # it imports this module

        STATS["recipe_recoveries"] += 1
        return None


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
            publish(_recipe_path(workload, rk), frame(
                {"version": KEY_VERSION, "rk": rk, "trace_key": key}
            ))
    if digest is not None:
        _KEY_MEMO[digest] = key
    return key


def reset_trace_key_memo() -> None:
    """Drop the per-process trace-key memo (tests and benchmarks)."""
    _KEY_MEMO.clear()
