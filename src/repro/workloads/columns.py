"""Direction columns and replay digests, stored beside each compiled trace.

A *direction column* (``<name>--<key>.<predictor>.pred`` in the trace
directory) holds the core predictor's raw ``predict()`` bit for every
conditional branch of a compiled trace, in program order.  The core's
predictor always runs and always trains, whether or not the Fetch Agent
overrides it (§2.2), so on a correct-path trace those bits depend on the
trace alone.  :func:`directions` builds the column on first use by
replaying the engine's exact call sequence on a fresh predictor, over
the asking run's window only (the bits are prefix-stable; a longer
window rebuilds the file), and both engines read it instead of
re-running the predictor.  A column file is keyed on the trace key, the
predictor name and the package's source fingerprint, so an edit to
predictor code never serves stale bits; predictors defined outside the
package are never stored.  A rejected file is rebuilt.

The same file stores the replay's ``arch_digest`` per window
(``digests``: instructions replayed -> hex digest).  A replay's stream
is the trace's first rows and only the cursor writes registers and
memory, so the digest depends on the trace key and the window alone,
never on timing or PFM hints (§2.1–2.3).  :func:`replay_digest` serves a
stored one, or hashes the trace rows and the final state once and
stores the result; only functional execution observes instructions live.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.cachefile import CacheFileRejected, frame, publish, trace_dir, unframe
from repro.workloads.identity import source_fingerprint
from repro.workloads.tracecache import (
    _BRANCH_CODE,
    _JUMP_CODE,
    STATS,
    CompiledTrace,
)

#: Direction-column file format version.
COLUMN_VERSION = 2


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


def directions(
    trace: CompiledTrace, predictor: str, length: int | None = None
) -> list[bool]:
    """The *predictor*'s raw ``predict()`` bit for every conditional
    branch of the first *length* instructions of *trace* (default: the
    whole trace), in program order; may cover more instructions than
    asked.

    Read from the column file beside the trace when it passes every
    check and covers *length*, else built (one predictor pass over
    those instructions) and published.  Kept on the trace per predictor,
    so a run that never asks for a column pays nothing for it.
    """
    need = trace.length if length is None else min(length, trace.length)
    column = trace._directions.get(predictor)
    if column is None or column[0] < need:
        column = _direction_column(trace, predictor, need)
        trace._directions[predictor] = column
    return column[1]


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


def column_header(key: str, predictor: str) -> dict:
    """Everything a stored column of trace *key* must agree with to be
    used, besides the number of instructions it covers."""
    return {
        "version": COLUMN_VERSION,
        "key": key,
        "predictor": predictor,
        "fingerprint": source_fingerprint(),
    }


def _column_parts(raw: bytes, header: dict) -> tuple[int, bytes, dict]:
    """(instructions covered, bits, replay digests) of a column file
    that carries *header*; every check but the branch count."""
    payload = unframe(raw)
    try:
        stored = dict(payload["header"])
        length = stored.pop("length")
        bits = payload["bits"]
    except (TypeError, KeyError, ValueError):
        raise CacheFileRejected("header") from None
    if (
        stored.get("version") != header["version"]
        or not isinstance(bits, bytes)
        or type(length) is not int
        or length < 0
    ):
        raise CacheFileRejected("header")
    if stored != header:
        raise CacheFileRejected("stale")
    if bits.translate(None, b"\x00\x01"):
        raise CacheFileRejected("bits")
    digests = payload.get("digests")
    if type(digests) is not dict or not all(
        type(n) is int and 0 <= n <= length
        and type(hexdigest) is str and len(hexdigest) == 64
        and not hexdigest.strip("0123456789abcdef")
        for n, hexdigest in digests.items()
    ):
        raise CacheFileRejected("digests")
    return length, bits, digests


def decode_column(
    raw: bytes, header: dict, trace: CompiledTrace
) -> tuple[int, list[bool], dict[int, str]]:
    """(instructions covered, bits, replay digests) of a column file,
    checked against the *header* it must carry and the branches of
    *trace*.  Raises :class:`~repro.cachefile.CacheFileRejected`:
    ``checksum``, ``header`` (undecodable or another format version),
    ``stale`` (another trace key, predictor or source fingerprint),
    ``bits``, ``digests`` or ``count`` (not one bit per conditional
    branch of the instructions it covers).  A column built over a longer
    trace of the same key is cut to *trace*, and so are its digests."""
    length, bits, digests = _column_parts(raw, header)
    covered = min(length, trace.length)
    branches = trace.branch_count(covered)
    if len(bits) != branches and not (
        length > trace.length and len(bits) > branches
    ):
        raise CacheFileRejected("count")
    return covered, [bit == 1 for bit in bits[:branches]], {
        n: hexdigest for n, hexdigest in digests.items() if n <= covered
    }


def summarize(path: Path, raw: bytes) -> str:
    """``cache list``'s line for a column file: every check that needs
    no trace (the branch count is checked when a run reads it)."""
    key, _, predictor = path.name[:-len(".pred")].rpartition("--")[2].partition(".")
    length, bits, digests = _column_parts(raw, column_header(key, predictor))
    windows = ", ".join(map(str, sorted(digests))) or "none"
    return (f"{predictor}, {length} insts, {len(bits)} branches,"
            f" digests at {windows}")


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
            column_header(trace.key, predictor), trace,
        )
    except OSError:
        pass
    except CacheFileRejected:
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
    publish(_column_path(trace.name, trace.key, predictor), frame({
        "header": {**column_header(trace.key, predictor), "length": length},
        "bits": bytes(bits),
        "digests": digests,
    }))


#: What :func:`replay_digest` reads for a run with no stored column.
_NO_COLUMN: tuple[int, list[bool], None] = (0, [], None)


def replay_digest(
    trace: CompiledTrace, predictor: str | None, n: int,
    regs: dict[str, float], memory: Any,
) -> str:
    """``arch_digest`` of a run that replayed the first *n* rows of
    *trace* and ended in *regs* and *memory*.

    Served from the run's stored direction column (*predictor*'s, read
    by :func:`directions`) when it holds a digest for exactly *n*
    instructions.  Otherwise the rows are hashed straight from the
    columns, then the final state, and the result is stored in that
    column.  ``predictor=None`` (a predictor swapped in after
    construction) and a predictor whose column is never stored serve and
    store nothing.
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
