"""Content-addressed result store for sweep points.

Every sweep point is a deterministic function of its full
configuration, so its :class:`~repro.core.SimStats` can be published
under a content digest and served to any later run — same process,
next invocation, or a different host entirely.  The store is the layer
every distributed sweep sits on:

* **Keying** — entries are addressed by a sha256 digest over the
  complete point spec *plus* the workload's ``trace_key`` (the content
  hash of the compiled instruction stream).  Editing a workload builder
  changes the trace_key and silently invalidates every dependent entry;
  the execution backend is *excluded* because results are byte-identical
  across backends by construction (``tests/test_backend_equivalence.py``).
* **Atomicity** — entries are written to a unique temp file, fsynced,
  and ``os.replace``d into place, so concurrent writers (threads, worker
  processes, or two invocations sharing a directory) always leave a whole
  entry behind: last writer wins, readers never see a torn file, and a
  published entry survives a machine crash.  That durability is what
  makes resuming an interrupted sweep a plain re-run against the store.
* **Validation** — every read checks the envelope version, the embedded
  key, the stats schema and the type of every stats value; anything
  torn, corrupted, or written by an older store version reads as a miss
  (counted in ``recoveries``) and gets recomputed rather than trusted.
* **Memory-only mode** — ``ResultStore(None)`` keeps entries in its
  in-process memo alone, so a library pool without a cache directory
  still computes each distinct point once.
* **Union** — :meth:`ResultStore.merge_from` copies validated entries
  between stores, so N hosts each running a shard produce stores that
  merge into one result set byte-identical to a single-host run.
* **Recipe index** — computing a store key needs the workload's
  ``trace_key``, which costs a workload build plus a hash over its whole
  memory image.  The store's ``recipes/`` section maps each build recipe
  (registry name, canonical overrides, source fingerprint) to that
  ``trace_key``, so a fresh process keys a populated sweep without
  building anything.  Any edit under ``src/repro`` changes the
  fingerprint and misses every recipe once.

Layout: ``<directory>/<key[:2]>/<key>.json`` — two-level fanout keeps
directory listings sane at million-entry scale — and
``<directory>/recipes/<rk[:2]>/<rk>.json`` for the recipe index.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

from repro.core import SimStats
from repro.workloads.tracecache import _KEY_MEMO, canonical_bytes, recipe_digest

#: Bumped whenever the entry envelope or SimStats serialization changes
#: incompatibly; old entries then read as misses, never as wrong data.
STORE_VERSION = 1

#: Subdirectory of a cache dir (``.repro-cache/``) holding the store.
DEFAULT_STORE_SUBDIR = "store"


def store_dir(cache_dir: str | os.PathLike) -> Path:
    """Conventional store location under a sweep cache directory."""
    return Path(cache_dir) / DEFAULT_STORE_SUBDIR


# --------------------------------------------------------------------- #
# workload content keys
# --------------------------------------------------------------------- #

#: Subdirectory of a store holding the recipe index.
RECIPES_SUBDIR = "recipes"

_TRACE_KEY_RE = re.compile(r"[0-9a-f]{20}")


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


def trace_key_for(workload: str, overrides: dict,
                  store: "ResultStore | None" = None) -> str | None:
    """Content key of the built workload's instruction stream.

    Served from the process memo, then from *store*'s recipe index when
    the store is on disk; only a miss builds the workload through the
    registry (which stamps its trace key) and republishes the recipe.
    Returns ``None`` when the workload cannot be built or carries no
    key; the store key then degrades to config-only addressing.
    """
    digest = recipe_digest(workload, overrides)
    if digest is not None and digest in _KEY_MEMO:
        return _KEY_MEMO[digest]
    rk = None
    if store is not None and store.directory is not None:
        rk = recipe_key(workload, overrides)
    key = store.get_recipe(rk) if rk is not None else None
    if key is None:
        from repro.registry import build_workload

        try:
            key = getattr(build_workload(workload, **overrides),
                          "trace_key", None)
        except Exception:
            key = None
        if rk is not None and key is not None:
            store.put_recipe(rk, key)
    if digest is not None:
        _KEY_MEMO[digest] = key
    return key


def reset_trace_key_memo() -> None:
    """Drop the per-process trace-key memo (tests and benchmarks)."""
    _KEY_MEMO.clear()


# --------------------------------------------------------------------- #
# sharding
# --------------------------------------------------------------------- #


def parse_shard(text: str) -> tuple[int, int]:
    """Parse ``"i/n"`` into ``(index, count)`` with ``1 <= i <= n``."""
    index_text, sep, count_text = str(text).partition("/")
    try:
        if not sep:
            raise ValueError(text)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"shard spec {text!r} is not of the form I/N (e.g. 2/4)"
        ) from None
    if count < 1 or not 1 <= index <= count:
        raise ValueError(
            f"shard index must satisfy 1 <= {index} <= {count}"
        )
    return index, count


def shard_of(key: str, count: int) -> int:
    """Deterministic 1-based shard assignment for a sweep-point key.

    Hash-based, so the assignment depends only on the key — never on
    enumeration order, host, or process — and every point lands in
    exactly one shard.
    """
    return int(hashlib.sha256(key.encode()).hexdigest(), 16) % count + 1


# --------------------------------------------------------------------- #
# the store
# --------------------------------------------------------------------- #


def _stats_field_types() -> dict[str, tuple[type, ...]]:
    """Accepted JSON value types per :class:`SimStats` field, read off
    the field defaults (counters are ints, labels strs, tables dicts)."""
    types: dict[str, tuple[type, ...]] = {}
    for f in dataclasses.fields(SimStats):
        if f.default_factory is not dataclasses.MISSING:
            types[f.name] = (type(f.default_factory()),)
        elif f.default is None:
            types[f.name] = (dict, type(None))
        else:
            types[f.name] = (type(f.default),)
    return types


_STATS_FIELD_TYPES = _stats_field_types()


def _parse(raw: bytes) -> object:
    """``json.loads`` that never raises: ``None`` on any defect,
    including nesting past the recursion limit and integers past the
    int-digit limit."""
    try:
        return json.loads(raw)
    except (ValueError, RecursionError):
        return None


def _stats_types_match(payload: dict) -> bool:
    for name, value in payload.items():
        expected = _STATS_FIELD_TYPES.get(name)
        if expected is None:
            return False
        if isinstance(value, bool) and bool not in expected:
            return False  # JSON true/false is not a counter
        if not isinstance(value, expected):
            return False
    return True


class ResultStore:
    """Content-addressed ``{digest: SimStats}`` map, on disk or in memory.

    Reads are validated (version/key/schema/types) and memoized
    in-process; writes are atomic and durable.  All methods tolerate a
    read-only or missing directory — the store then behaves as
    always-miss.  ``directory=None`` makes a memory-only store.
    """

    def __init__(self, directory: str | os.PathLike | None):
        #: ``None`` for a memory-only store (the memo is all there is).
        self.directory = Path(directory) if directory is not None else None
        self._memo: dict[str, SimStats] = {}
        self.counters: dict[str, int] = {
            "hits": 0,
            "memo_hits": 0,
            "misses": 0,
            "publishes": 0,
            "recoveries": 0,
        }

    def path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    # -- encoding ------------------------------------------------------ #

    @staticmethod
    def encode(key: str, stats: SimStats, meta: dict | None = None) -> bytes:
        """Deterministic entry bytes: identical stats -> identical bytes.

        ``sort_keys`` json over plain dicts means two hosts that computed
        the same point independently publish byte-identical entries —
        which is what lets :meth:`merge_from` treat byte-equality as
        result-equality.
        """
        payload = {
            "version": STORE_VERSION,
            "key": key,
            "meta": dict(meta or {}),
            "stats": dataclasses.asdict(stats),
        }
        return (json.dumps(payload, sort_keys=True) + "\n").encode()

    @staticmethod
    def decode(raw: bytes, key: str) -> SimStats | None:
        """Validate entry bytes; ``None`` on any defect (never raises)."""
        payload = _parse(raw)
        if not isinstance(payload, dict):
            return None
        if payload.get("version") != STORE_VERSION:
            return None
        if payload.get("key") != key:
            return None  # entry copied/renamed to the wrong address
        stats_payload = payload.get("stats")
        if not isinstance(stats_payload, dict):
            return None
        if not _stats_types_match(stats_payload):
            return None  # e.g. "cycles": "garbage"; recompute instead
        try:
            return SimStats(**stats_payload)
        except TypeError:
            return None  # stats schema drifted; recompute instead

    # -- read / write -------------------------------------------------- #

    def get(self, key: str) -> SimStats | None:
        stats = self._memo.get(key)
        if stats is not None:
            self.counters["memo_hits"] += 1
            return stats
        if self.directory is None:
            self.counters["misses"] += 1
            return None
        try:
            raw = self.path_for(key).read_bytes()
        except OSError:
            self.counters["misses"] += 1
            return None
        stats = self.decode(raw, key)
        if stats is None:
            self.counters["recoveries"] += 1
            self.counters["misses"] += 1
            return None
        self.counters["hits"] += 1
        self._memo[key] = stats
        return stats

    def put(self, key: str, stats: SimStats,
            meta: dict | None = None) -> None:
        self._memo[key] = stats
        if self.directory is not None:
            self._write_raw(self.path_for(key), self.encode(key, stats, meta))
        self.counters["publishes"] += 1

    @staticmethod
    def _write_raw(path: Path, raw: bytes) -> None:
        """Atomic, durable publish: the temp file is fsynced before the
        rename, so the entry is whole on disk once it is visible.  A
        failed write degrades to memory-only."""
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=path.stem[:8], suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(raw)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_name, path)
            except BaseException:
                os.unlink(tmp_name)
                raise
        except OSError:
            pass

    # -- recipe index -------------------------------------------------- #

    def recipe_path(self, rk: str) -> Path:
        return self.directory / RECIPES_SUBDIR / rk[:2] / f"{rk}.json"

    @staticmethod
    def encode_recipe(rk: str, trace_key: str) -> bytes:
        payload = {"version": STORE_VERSION, "rk": rk, "trace_key": trace_key}
        return (json.dumps(payload, sort_keys=True) + "\n").encode()

    @staticmethod
    def decode_recipe(raw: bytes, rk: str) -> str | None:
        """Validate recipe bytes; ``None`` on any defect (never raises)."""
        payload = _parse(raw)
        if not isinstance(payload, dict):
            return None
        if payload.get("version") != STORE_VERSION or payload.get("rk") != rk:
            return None
        trace_key = payload.get("trace_key")
        if not isinstance(trace_key, str) or not _TRACE_KEY_RE.fullmatch(trace_key):
            return None
        return trace_key

    def get_recipe(self, rk: str) -> str | None:
        """The indexed ``trace_key`` for *rk*; a defective entry reads
        as a miss, counted in ``recoveries``, and is republished by the
        caller's rebuild."""
        try:
            raw = self.recipe_path(rk).read_bytes()
        except OSError:
            return None
        trace_key = self.decode_recipe(raw, rk)
        if trace_key is None:
            self.counters["recoveries"] += 1
        return trace_key

    def put_recipe(self, rk: str, trace_key: str) -> None:
        self._write_raw(self.recipe_path(rk), self.encode_recipe(rk, trace_key))

    # -- introspection ------------------------------------------------- #

    def files(self) -> list[Path]:
        """Result entries (the recipe index is not among them)."""
        if self.directory is None or not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("??/*.json"))

    def recipe_files(self) -> list[Path]:
        if self.directory is None:
            return []
        return sorted(self.directory.glob(f"{RECIPES_SUBDIR}/??/*.json"))

    def temp_files(self) -> list[Path]:
        """Temp files of entries and recipes whose writer died before
        the rename."""
        if self.directory is None:
            return []
        return sorted(self.directory.glob("??/*.tmp")) + sorted(
            self.directory.glob(f"{RECIPES_SUBDIR}/??/*.tmp")
        )

    def __len__(self) -> int:
        return len(self.files())

    def size_bytes(self) -> int:
        total = 0
        for path in self.files():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def reset_memo(self) -> None:
        """Drop the in-process memo (fresh-process simulation in tests)."""
        self._memo.clear()

    def clear(self) -> tuple[int, int]:
        """Delete every entry, recipe and orphaned temp file; returns
        ``(files_removed, bytes_freed)``."""
        removed = freed = 0
        for path in self.files() + self.recipe_files() + self.temp_files():
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue
            removed += 1
            freed += size
        self._memo.clear()
        return removed, freed

    # -- union --------------------------------------------------------- #

    def merge_from(self, source: ResultStore | str | os.PathLike
                   ) -> dict[str, int]:
        """Union *source*'s entries into this store.

        Recipes are not copied: each host re-derives its own on a miss.
        Entries are validated before copying (a corrupt shard file never
        propagates) and copied as raw bytes, preserving byte-identity.
        On a key collision: identical bytes count as ``identical``;
        differing bytes keep ours and count as ``conflicts`` — with
        deterministic simulation a conflict means one side is stale or
        damaged, and first-wins keeps merges order-insensitive once a
        value has landed.
        """
        if not isinstance(source, ResultStore):
            source = ResultStore(source)
        summary = {"added": 0, "identical": 0, "conflicts": 0, "invalid": 0}
        for path in source.files():
            key = path.stem
            try:
                raw = path.read_bytes()
            except OSError:
                summary["invalid"] += 1
                continue
            if self.decode(raw, key) is None:
                summary["invalid"] += 1
                continue
            dest = self.path_for(key)
            try:
                existing = dest.read_bytes()
            except OSError:
                existing = None
            if existing is not None:
                summary["identical" if existing == raw else "conflicts"] += 1
                continue
            self._write_raw(dest, raw)
            summary["added"] += 1
        return summary
