"""The on-disk cache sections, their listing, eviction and clearing.

``.repro-cache/`` accumulates two sections of content-addressed files —
the trace cache (compiled traces, their direction columns and the
recipe index) and the result store — and at fleet scale the store grows
without bound.  Each section also counts the
``*.tmp`` files a writer killed between its temp write and the rename
leaves behind.  :data:`SECTIONS` is the one table of what the program
writes there: :func:`listing` decodes it for ``cache list``, ``cache
clear`` empties one section of it, and ``cache gc --max-bytes SIZE``
walks every section, sorts by mtime (every cache read touches its file
via :func:`os.utime`-free reads, so mtime is write-recency:
least-recently *published* goes first), and deletes oldest-first until
the total fits the budget.

Eviction is always safe: every evicted file is a pure cache entry that
the next run recomputes and republishes.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple

from repro.cachefile import CacheFileRejected
from repro.workloads import columns, tracecache

#: ``(section name, ((glob pattern relative to the cache dir, kind,
#: summarize), ...))`` — the evictable sections, each with its orphaned
#: temp files.  ``summarize`` turns a file's path and bytes into its
#: ``cache list`` summary or raises ``CacheFileRejected``; kinds without
#: one are only counted.  Failed-points logs are deliberately absent.
SECTIONS = (
    ("traces", (
        ("traces/*.trace.pkl", "compiled trace(s)", tracecache.summarize),
        ("traces/*.pred", "direction column(s)", columns.summarize),
        ("traces/*.recipe", "recipe(s)", None),
        ("traces/*.tmp", "temp file(s)", None),
    )),
    ("store", (
        ("store/??/*.json", "result-store entries", None),
        ("store/??/*.tmp", "temp file(s)", None),
    )),
)


class CacheFile(NamedTuple):
    """One file of a section, as :func:`collect` finds it."""

    path: Path
    size: int
    mtime: float
    section: str
    kind: str


_SUFFIXES = {"k": 1024, "m": 1024**2, "g": 1024**3}


def parse_size(text: str) -> int:
    """``"512"`` bytes, ``"64K"``, ``"200M"``, ``"1G"`` -> byte count."""
    cleaned = str(text).strip().lower()
    factor = 1
    if cleaned and cleaned[-1] in _SUFFIXES:
        factor = _SUFFIXES[cleaned[-1]]
        cleaned = cleaned[:-1]
    try:
        value = int(cleaned)
    except ValueError:
        raise ValueError(
            f"size {text!r} is not an integer with optional K/M/G suffix"
        ) from None
    if value < 0:
        raise ValueError("size must be >= 0")
    return value * factor


def collect(cache_dir: str | os.PathLike) -> list[CacheFile]:
    """Every evictable file."""
    base = Path(cache_dir)
    entries: list[CacheFile] = []
    for section, kinds in SECTIONS:
        for pattern, kind, _ in kinds:
            for path in base.glob(pattern):
                try:
                    stat = path.stat()
                except OSError:
                    continue  # concurrently deleted
                entries.append(CacheFile(path, stat.st_size, stat.st_mtime, section, kind))
    return entries


def listing(
    cache_dir: str | os.PathLike,
) -> list[tuple[CacheFile, str | None, str | None]]:
    """Every evictable file by path, with its summary or, when its
    kind's decoder rejects it, the rejection reason (both ``None`` for
    kinds that are only counted)."""
    summarizers = {
        kind: summarize for _, kinds in SECTIONS for _, kind, summarize in kinds
    }
    rows: list[tuple[CacheFile, str | None, str | None]] = []
    for entry in sorted(collect(cache_dir)):
        summarize = summarizers[entry.kind]
        summary = reason = None
        if summarize is not None:
            try:
                summary = summarize(entry.path, entry.path.read_bytes())
            except CacheFileRejected as exc:
                reason = exc.reason
            except OSError:
                continue  # concurrently deleted
        rows.append((entry, summary, reason))
    return rows


def clear_section(
    cache_dir: str | os.PathLike, section: str
) -> list[CacheFile]:
    """Delete every file of *section*; returns the entries removed."""
    return [
        entry for entry in collect(cache_dir)
        if entry.section == section and _unlink(entry.path)
    ]


def _unlink(path: Path) -> bool:
    try:
        path.unlink()
    except OSError:
        return False  # already gone or unwritable: skip, keep going
    return True


def gc_cache(cache_dir: str | os.PathLike, max_bytes: int) -> dict:
    """Evict LRU files until the evictable sections fit *max_bytes*.

    Returns a summary::

        {"sections": {name: {"files": n, "bytes": b,
                             "evicted_files": n, "evicted_bytes": b}},
         "total_bytes": ..., "evicted_bytes": ..., "kept_bytes": ...}
    """
    entries = collect(cache_dir)
    sections: dict[str, dict[str, int]] = {
        name: {"files": 0, "bytes": 0, "evicted_files": 0, "evicted_bytes": 0}
        for name, _ in SECTIONS
    }
    total = 0
    for _, size, _, section, _ in entries:
        sections[section]["files"] += 1
        sections[section]["bytes"] += size
        total += size

    # Oldest mtime first; path as tiebreaker keeps eviction deterministic
    # when a whole batch shares one timestamp.
    entries.sort(key=lambda entry: (entry[2], str(entry[0])))
    evicted = 0
    excess = total - max_bytes
    for path, size, _, section, _ in entries:
        if excess <= 0:
            break
        if not _unlink(path):
            continue
        sections[section]["evicted_files"] += 1
        sections[section]["evicted_bytes"] += size
        evicted += size
        excess -= size
    return {
        "sections": sections,
        "total_bytes": total,
        "evicted_bytes": evicted,
        "kept_bytes": total - evicted,
    }
