"""Compiled-trace replay cache correctness.

The cache may only ever change *when* work happens, never *what* the
simulator computes: every test here pins the architectural digest — the
hash over the retired stream plus final register/memory state — across
the executed, cold-compiled, in-process-memoized, and warm-on-disk
paths, plus the failure modes (corrupted file, changed build params,
registry-bypassing workloads) where the cache must step aside rather
than lie, and the reason each damaged file is rejected for.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachefile import REASONS, CacheFileRejected, frame, trace_dir, unframe
from repro.core import SimConfig, simulate
from repro.isa.instructions import OpClass
from repro.experiments.runner import parse_config_label
from repro.registry import build_workload, workload_names
from repro.workloads import tracecache
from repro.workloads.astar import build_astar_workload
from repro.workloads.tracecache import decode_trace

GOLDEN_DIR = Path(__file__).parent / "goldens"
GOLDEN_WINDOW = 5_000
PFM_CONFIG = "clk4_w4, delay4, queue32, portLS1"

SMALL_WINDOW = 1_500


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Each test starts from an empty in-process trace memo.

    The on-disk side is already per-test (the shared autouse fixture
    points ``REPRO_CACHE_DIR`` at a tmp dir); the module-level memo
    would otherwise leak compiled traces between tests and hide the
    cold/warm distinction these tests assert on.
    """
    tracecache.reset_memory_cache()
    yield
    tracecache.reset_memory_cache()


def _simulate(workload, window: int, pfm_label: str | None = None):
    pfm = parse_config_label(pfm_label) if pfm_label else None
    return simulate(workload, SimConfig(max_instructions=window, pfm=pfm))


def _executed_digest(name: str, window: int, monkeypatch, **overrides) -> str:
    monkeypatch.setattr(tracecache, "ENABLED", False)
    digest = _simulate(build_workload(name, **overrides), window).arch_digest
    monkeypatch.setattr(tracecache, "ENABLED", True)
    return digest


# --------------------------------------------------------------------- #
# digest identity
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", workload_names())
def test_executed_vs_replayed_digest_all_workloads(name, monkeypatch):
    """Replay is architecturally invisible for every registered workload."""
    executed = _executed_digest(name, SMALL_WINDOW, monkeypatch)

    cold = _simulate(build_workload(name), SMALL_WINDOW).arch_digest
    assert tracecache.STATS["compiles"] == 1
    assert tracecache.STATS["replays"] == 1
    assert cold == executed

    warm = _simulate(build_workload(name), SMALL_WINDOW).arch_digest
    assert tracecache.STATS["memo_hits"] == 1
    assert warm == executed


GOLDEN_CASES = [
    (workload, variant)
    for workload in workload_names()
    for variant in ("baseline", "pfm")
]


@pytest.mark.parametrize(
    "workload,variant",
    GOLDEN_CASES,
    ids=[f"{w}-{v}" for w, v in GOLDEN_CASES],
)
def test_golden_digest_enabled_disabled_and_warm(workload, variant, monkeypatch):
    """All 18 golden cases: digest byte-identical to the committed golden
    with the cache disabled, enabled (cold compile), and warm on disk."""
    golden_path = GOLDEN_DIR / f"{workload}--{variant}.json"
    golden = json.loads(golden_path.read_text())["stats"]["arch_digest"]
    pfm_label = None if variant == "baseline" else PFM_CONFIG

    monkeypatch.setattr(tracecache, "ENABLED", False)
    disabled = _simulate(
        build_workload(workload), GOLDEN_WINDOW, pfm_label
    ).arch_digest
    monkeypatch.setattr(tracecache, "ENABLED", True)
    assert disabled == golden

    cold = _simulate(
        build_workload(workload), GOLDEN_WINDOW, pfm_label
    ).arch_digest
    assert cold == golden
    assert tracecache.STATS["compiles"] == 1

    # Drop the memo so the next run must come off the on-disk file.
    tracecache.reset_memory_cache()
    warm = _simulate(
        build_workload(workload), GOLDEN_WINDOW, pfm_label
    ).arch_digest
    assert warm == golden
    assert tracecache.STATS["disk_hits"] == 1
    assert tracecache.STATS["compiles"] == 0


def test_baseline_and_pfm_share_one_compilation():
    """Hints never change the correct path, so one trace serves both."""
    _simulate(build_workload("astar"), SMALL_WINDOW)
    _simulate(build_workload("astar"), SMALL_WINDOW, PFM_CONFIG)
    assert tracecache.STATS["compiles"] == 1
    assert tracecache.STATS["replays"] == 2


# --------------------------------------------------------------------- #
# keying and invalidation
# --------------------------------------------------------------------- #


def test_build_param_change_invalidates(monkeypatch):
    """Changed builder params produce a different content key and a
    fresh compilation — never a replay of the old trace."""
    small = build_workload("astar")
    large = build_workload("astar", grid_width=24, grid_height=24)
    assert small.trace_key is not None
    assert large.trace_key is not None
    assert small.trace_key != large.trace_key

    _simulate(small, SMALL_WINDOW)
    assert tracecache.STATS["compiles"] == 1
    digest = _simulate(large, SMALL_WINDOW).arch_digest
    assert tracecache.STATS["compiles"] == 2

    executed = _executed_digest(
        "astar", SMALL_WINDOW, monkeypatch, grid_width=24, grid_height=24
    )
    assert digest == executed


def test_identical_builds_share_a_key():
    a = build_workload("astar")
    b = build_workload("astar")
    assert a.trace_key == b.trace_key
    assert a.build_ref == ("astar", {})


def test_direct_builder_bypasses_cache():
    """Hand-built workloads carry no trace identity and always execute."""
    workload = build_astar_workload()
    assert workload.trace_key is None
    assert tracecache.get_trace(workload, SMALL_WINDOW) is None
    stats = _simulate(workload, SMALL_WINDOW)
    assert tracecache.STATS["compiles"] == 0
    assert tracecache.STATS["replays"] == 0
    assert stats.instructions == SMALL_WINDOW


def test_escape_hatch_disables_everything(monkeypatch):
    monkeypatch.setattr(tracecache, "ENABLED", False)
    _simulate(build_workload("astar"), SMALL_WINDOW)
    assert tracecache.STATS["compiles"] == 0
    assert tracecache.STATS["replays"] == 0
    assert not _trace_files()


# --------------------------------------------------------------------- #
# durability
# --------------------------------------------------------------------- #


def _trace_files() -> list[Path]:
    return sorted(trace_dir().glob("*.trace.pkl"))


def _single_trace_file() -> Path:
    (path,) = _trace_files()
    return path


def _rejection(path: Path) -> str:
    """The reason the trace file *path* of astar's key is rejected for."""
    with pytest.raises(CacheFileRejected) as excinfo:
        decode_trace(path.read_bytes(), build_workload("astar").trace_key)
    return excinfo.value.reason


def _recovers(path: Path, executed: str) -> None:
    """A run over the damaged *path* recompiles, counts one recovery,
    matches functional execution and heals the file."""
    tracecache.reset_memory_cache()
    digest = _simulate(build_workload("astar"), SMALL_WINDOW).arch_digest
    assert digest == executed
    assert tracecache.STATS["recoveries"] == 1
    assert tracecache.STATS["compiles"] == 1
    key = build_workload("astar").trace_key
    assert decode_trace(path.read_bytes(), key).key == key


def test_corrupted_file_recovers_by_recompiling(monkeypatch):
    executed = _executed_digest("astar", SMALL_WINDOW, monkeypatch)
    _simulate(build_workload("astar"), SMALL_WINDOW)
    path = _single_trace_file()

    path.write_bytes(b"\x00not a pickle")
    assert _rejection(path) == "checksum"
    _recovers(path, executed)


def test_truncated_payload_recovers(monkeypatch):
    """A structurally valid pickle with mismatched columns is rejected."""
    executed = _executed_digest("astar", SMALL_WINDOW, monkeypatch)
    _simulate(build_workload("astar"), SMALL_WINDOW)
    path = _single_trace_file()

    payload = unframe(path.read_bytes())
    payload["pcs"] = payload["pcs"][: len(payload["pcs"]) // 2]
    path.write_bytes(frame(payload))
    assert _rejection(path) == "shape"
    _recovers(path, executed)


#: ``(index column, table it indexes or None for OpClass, least legal
#: index)`` for every interned index column of a trace file.
INDEX_COLUMNS = [
    ("mnemonic_idx", "mnemonics", 0),
    ("dst_idx", "registers", -1),
    ("srcs_idx", "src_tuples", 0),
    ("comment_idx", "comments", 0),
    ("op_codes", None, 0),
]


@pytest.mark.parametrize("past_the_end", [True, False], ids=["past-end", "negative"])
@pytest.mark.parametrize(
    "column,table,least", INDEX_COLUMNS, ids=[c for c, _, _ in INDEX_COLUMNS]
)
def test_index_outside_its_table_is_rejected_as_shape(
    column, table, least, past_the_end, monkeypatch
):
    """A checksum-valid file whose interned index points past its table,
    or below its least legal index (which list indexing would wrap to
    another entry), is rejected as ``shape``, counted and recompiled."""
    executed = _executed_digest("astar", SMALL_WINDOW, monkeypatch)
    _simulate(build_workload("astar"), SMALL_WINDOW)
    path = _single_trace_file()

    payload = unframe(path.read_bytes())
    size = len(payload[table]) if table else len(OpClass)
    payload[column][0] = size if past_the_end else least - 1
    path.write_bytes(frame(payload))
    assert _rejection(path) == "shape"
    _recovers(path, executed)


def test_trace_of_another_key_is_rejected_as_stale(monkeypatch):
    """A checksum-valid file whose embedded key is not the one its name
    carries is rejected as ``stale``, counted, recompiled and healed."""
    executed = _executed_digest("astar", SMALL_WINDOW, monkeypatch)
    _simulate(build_workload("astar"), SMALL_WINDOW)
    path = _single_trace_file()

    payload = unframe(path.read_bytes())
    payload["key"] = "0" * 20
    path.write_bytes(frame(payload))
    assert _rejection(path) == "stale"
    _recovers(path, executed)


def test_trace_persists_past_a_squatted_temp_path():
    """Each publish writes its own unique temp file, so a directory
    squatting on the old fixed temp path ``<name>--<key>.trace.tmp``
    (or a sibling worker mid-write there) cannot stop the trace from
    persisting."""
    workload = build_workload("astar")
    squat = trace_dir() / f"astar--{workload.trace_key}.trace.tmp"
    squat.mkdir(parents=True)
    _simulate(workload, SMALL_WINDOW)
    raw = _single_trace_file().read_bytes()
    assert decode_trace(raw, workload.trace_key).key == workload.trace_key


def test_cursor_rejects_short_column_after_decode():
    """A trace truncated *after* decode must raise the loader's
    corruption error at replay, never silently run short columns."""
    workload = build_workload("astar")
    _simulate(workload, SMALL_WINDOW)
    trace = tracecache.get_trace(build_workload("astar"), SMALL_WINDOW)
    assert trace is not None

    trace.store_values = trace.store_values[:-1]
    trace._cols = None  # drop caches built before the truncation
    trace._nd = None
    with pytest.raises(
        ValueError, match="trace column lengths disagree with header"
    ):
        trace.cursor(workload.memory, workload.initial_regs)
    with pytest.raises(
        ValueError, match="trace column lengths disagree with header"
    ):
        trace.ndarrays()


def test_stale_version_recompiles(monkeypatch):
    executed = _executed_digest("astar", SMALL_WINDOW, monkeypatch)
    _simulate(build_workload("astar"), SMALL_WINDOW)
    path = _single_trace_file()

    payload = unframe(path.read_bytes())
    payload["version"] = tracecache.TRACE_VERSION + 1
    path.write_bytes(frame(payload))
    assert _rejection(path) == "header"
    _recovers(path, executed)


def test_mutated_trace_file_is_rejected_or_exact():
    """Any byte mutation of a trace file is caught: the decoder returns
    exactly the original trace, or raises the one rejection type with a
    reason from the closed set (any other exception fails), never a
    different trace that would replay silently wrong."""
    workload = build_workload("astar")
    _simulate(workload, SMALL_WINDOW)
    raw = _single_trace_file().read_bytes()
    key = workload.trace_key
    original = tracecache.get_trace(workload, SMALL_WINDOW).to_payload()

    @settings(max_examples=200, deadline=None)
    @given(
        writes=st.lists(
            st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)),
            min_size=1, max_size=4,
        ),
        cut=st.none() | st.integers(0, len(raw) - 1),
    )
    def check(writes, cut):
        mutated = bytearray(raw)
        for pos, byte in writes:
            mutated[pos] = byte
        if cut is not None:
            del mutated[cut:]
        try:
            loaded = decode_trace(bytes(mutated), key)
        except CacheFileRejected as exc:
            assert exc.reason in REASONS
        else:
            assert loaded.to_payload() == original

    check()


_CALLS: list[str] = []


def _record_call(tag: str) -> str:
    _CALLS.append(tag)
    return tag


class _Tampered:
    def __reduce__(self):
        return (_record_call, ("ran",))


def test_trace_file_naming_a_function_is_refused(monkeypatch):
    """A checksum-valid file whose pickle names a function is rejected
    without the function running, and the trace is recompiled."""
    executed = _executed_digest("astar", SMALL_WINDOW, monkeypatch)
    _simulate(build_workload("astar"), SMALL_WINDOW)
    path = _single_trace_file()
    payload = unframe(path.read_bytes())
    payload["comments"] = [_Tampered()]
    path.write_bytes(frame(payload))

    _CALLS.clear()
    assert _rejection(path) == "header"
    _recovers(path, executed)
    assert _CALLS == []


def test_window_growth_extends_the_trace(monkeypatch):
    """A longer window than any compiled trace recompiles to cover it."""
    short = 500
    _simulate(build_workload("astar"), short)
    assert tracecache.STATS["compiles"] == 1

    executed = _executed_digest("astar", SMALL_WINDOW, monkeypatch)
    digest = _simulate(build_workload("astar"), SMALL_WINDOW).arch_digest
    assert digest == executed
    assert tracecache.STATS["compiles"] == 2

    # ...and the longer trace now serves the shorter window from memo.
    _simulate(build_workload("astar"), short)
    assert tracecache.STATS["compiles"] == 2
    assert tracecache.STATS["memo_hits"] == 1


def test_compile_floor_covers_campaign_windows(monkeypatch):
    """At campaign scale one compilation is shared across windows: a
    window at the floor threshold compiles out to the configured floor."""
    monkeypatch.setattr(tracecache, "TRACE_FLOOR", 12_000)
    _simulate(build_workload("astar"), tracecache.FLOOR_THRESHOLD)
    raw = _single_trace_file().read_bytes()
    assert decode_trace(raw, build_workload("astar").trace_key).length == 12_000

    # Any window under the compiled length is a memo hit, no recompile.
    _simulate(build_workload("astar"), 11_000)
    assert tracecache.STATS["compiles"] == 1
    assert tracecache.STATS["memo_hits"] == 1


def test_trace_max_gates_giant_windows(monkeypatch):
    monkeypatch.setattr(tracecache, "TRACE_MAX", 1_000)
    _simulate(build_workload("astar"), SMALL_WINDOW)
    assert tracecache.STATS["compiles"] == 0
    assert tracecache.STATS["replays"] == 0


# --------------------------------------------------------------------- #
# the cache CLI
# --------------------------------------------------------------------- #


def test_cache_cli_list_and_clear(capsys):
    from repro.experiments.__main__ import _fmt_bytes, main

    _simulate(build_workload("astar"), SMALL_WINDOW)
    assert main(["cache", "list"]) == 0
    out = capsys.readouterr().out
    assert "astar" in out
    assert "compiled traces" in out
    assert "unreadable" not in out

    # A torn trace and a column of another format version each say why.
    trace = _single_trace_file()
    trace.write_bytes(trace.read_bytes()[:-9])
    (column,) = trace_dir().glob("*.pred")
    payload = unframe(column.read_bytes())
    payload["header"]["version"] += 1
    column.write_bytes(frame(payload))
    assert main(["cache", "list"]) == 0
    out = capsys.readouterr().out
    assert (f"{trace.name}  {_fmt_bytes(trace.stat().st_size)}  (unreadable:"
            " checksum — will be recompiled on next use)") in out
    assert (f"{column.name}  {_fmt_bytes(column.stat().st_size)}  (unreadable:"
            " header — will be rebuilt on next use)") in out

    assert main(["cache", "clear"]) == 0
    out = capsys.readouterr().out
    assert "removed 1 compiled trace(s)" in out
    assert not _trace_files()

    assert main(["cache"]) == 0
    assert "(none)" in capsys.readouterr().out
