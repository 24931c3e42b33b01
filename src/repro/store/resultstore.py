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

Layout: ``<directory>/<key[:2]>/<key>.json`` — two-level fanout keeps
directory listings sane at million-entry scale.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

from repro.cachefile import CacheFileRejected, publish
from repro.core import SimStats

#: Bumped whenever the entry envelope or SimStats serialization changes
#: incompatibly; old entries then read as misses, never as wrong data.
STORE_VERSION = 1

#: Subdirectory of a cache dir (``.repro-cache/``) holding the store.
DEFAULT_STORE_SUBDIR = "store"


def store_dir(cache_dir: str | os.PathLike) -> Path:
    """Conventional store location under a sweep cache directory."""
    return Path(cache_dir) / DEFAULT_STORE_SUBDIR


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
    def decode(raw: bytes, key: str) -> SimStats:
        """The stats of entry bytes for *key*.  Raises
        :class:`~repro.cachefile.CacheFileRejected`: ``header`` (not a
        JSON object, or another :data:`STORE_VERSION`), ``stale`` (an
        entry of another key) or ``shape`` (stats that fail the
        :class:`SimStats` fields and their types)."""
        try:
            payload = json.loads(raw)
        except (ValueError, RecursionError):  # deep nesting, huge ints too
            raise CacheFileRejected("header") from None
        if not isinstance(payload, dict) or payload.get("version") != STORE_VERSION:
            raise CacheFileRejected("header")
        if payload.get("key") != key:
            raise CacheFileRejected("stale")  # copied to the wrong address
        stats = payload.get("stats")
        if not isinstance(stats, dict) or not _stats_types_match(stats):
            raise CacheFileRejected("shape")  # e.g. "cycles": "garbage"
        try:
            return SimStats(**stats)
        except TypeError:
            raise CacheFileRejected("shape") from None

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
            stats = self.decode(self.path_for(key).read_bytes(), key)
        except OSError:
            self.counters["misses"] += 1
            return None
        except CacheFileRejected:
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
            publish(self.path_for(key), self.encode(key, stats, meta))
        self.counters["publishes"] += 1

    # -- introspection ------------------------------------------------- #

    def files(self) -> list[Path]:
        """Result entries."""
        if self.directory is None or not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("??/*.json"))

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

    # -- union --------------------------------------------------------- #

    def merge_from(self, source: ResultStore | str | os.PathLike
                   ) -> dict[str, int]:
        """Union *source*'s entries into this store.

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
                self.decode(raw, key)
            except (OSError, CacheFileRejected):
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
            publish(dest, raw)
            summary["added"] += 1
        return summary
