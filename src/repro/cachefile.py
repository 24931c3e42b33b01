"""How a file of the on-disk cache is located, written, framed and rejected.

Everything under the cache dir is a pure cache: traces, direction
columns and recipes under ``traces/``, result entries under ``store/``.
Each file is published by :func:`publish`, so a reader sees a whole
file or none; trace-cache files share one framing (:func:`frame`).
Every decoder of cache bytes raises :class:`CacheFileRejected` with a
reason from :data:`REASONS`, and its reader recovers by recomputing.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any

#: Environment override for the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the invocation cwd).
DEFAULT_CACHE_DIR = ".repro-cache"

#: The closed set of reasons a decoder rejects a cache file for.
REASONS = {
    "checksum": "bytes that do not match their sha256 (torn or flipped)",
    "header": "undecodable, names a class, or another format version",
    "stale": "written for another key, recipe, predictor or sources",
    "shape": "fields that disagree with their header or their types",
    "count": "not one direction bit per conditional branch covered",
    "bits": "a direction byte other than 0 or 1",
    "digests": "replay digests outside the window or not lowercase hex",
}


class CacheFileRejected(ValueError):
    """Cache bytes that must not be used; ``reason`` is a key of
    :data:`REASONS`."""

    def __init__(self, reason: str, detail: str | None = None) -> None:
        super().__init__(f"{reason}: {detail or REASONS[reason]}")
        self.reason = reason


def cache_dir() -> str:
    """The cache directory the environment names (unset or empty: the
    default)."""
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


def trace_dir() -> Path:
    """The trace cache's directory under :func:`cache_dir`."""
    return Path(cache_dir()) / "traces"


def publish(path: Path, raw: bytes) -> None:
    """Atomic, durable write of *raw* to *path*: the temp file is
    fsynced before the rename, so the file is whole on disk once it is
    visible.  Concurrent writers never share a temp file; the last
    rename wins.  A failed write leaves no file and raises nothing."""
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


def frame(payload: Any) -> bytes:
    """File bytes for *payload*: its pickle's sha256, then the pickle."""
    body = pickle.dumps(payload, protocol=4)
    return hashlib.sha256(body).digest() + body


class _PlainUnpickler(pickle.Unpickler):
    """Decodes plain containers only.  No payload names a class or
    function, so a file that does was tampered with: refuse the name
    rather than import and call it."""

    def find_class(self, module: str, name: str) -> Any:
        raise pickle.UnpicklingError(f"payload names {module}.{name}")


def unframe(raw: bytes) -> Any:
    """Inverse of :func:`frame`: ``checksum`` on a sha256 mismatch,
    ``header`` on a body that does not unpickle to plain containers."""
    digest, body = raw[:32], raw[32:]
    if hashlib.sha256(body).digest() != digest:
        raise CacheFileRejected("checksum")
    try:
        return _PlainUnpickler(io.BytesIO(body)).load()
    except Exception:
        raise CacheFileRejected("header") from None
