"""The content-addressed result store (repro.store).

Covers the properties the distributed-sweep design leans on: canonical
full-config addressing, byte-deterministic entries, atomic concurrent
publishes, corruption read as a miss, order-insensitive merges, and
hash-sharding that partitions a grid exactly.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core import PFMParams, SimStats
from repro.experiments import pool as pool_module
from repro.experiments.pool import (
    SweepPoint,
    SweepPool,
    baseline_point,
    pfm_point,
)
from repro.experiments.sweep import (
    run_sweep_shard,
    shard_slice,
    sweep_points,
)
from repro.store import (
    ResultStore,
    STORE_VERSION,
    clear_section,
    gc_cache,
    parse_shard,
    parse_size,
    shard_of,
    store_dir,
)
from repro.telemetry import TelemetryParams
from repro.workloads.identity import trace_key_for

WINDOW = 1_500


def _stats(cycles: int = 200) -> SimStats:
    return SimStats(instructions=100, cycles=cycles)


def _all_point_kinds() -> list[SweepPoint]:
    """One point per request shape the store must address distinctly."""
    return [
        baseline_point("libquantum", WINDOW),
        pfm_point("pfm", "libquantum", WINDOW, PFMParams(delay=2)),
        SweepPoint(label="pd", workload="libquantum", window=WINDOW,
                   perfect_dcache=True),
        SweepPoint(label="pb", workload="libquantum", window=WINDOW,
                   perfect_branch_prediction=True),
        SweepPoint(label="orc", workload="astar", window=WINDOW,
                   oracle="astar-slipstream"),
        SweepPoint(label="tel", workload="libquantum", window=WINDOW,
                   telemetry=TelemetryParams()),
    ]


# ---------------------------------------------------------------------- #
# addressing
# ---------------------------------------------------------------------- #


def test_store_keys_distinct_across_point_kinds():
    keys = [point.store_key() for point in _all_point_kinds()]
    assert len(set(keys)) == len(keys)
    for key in keys:
        assert len(key) == 64 and int(key, 16) >= 0  # full sha256 hex


def test_store_key_ignores_label():
    a = pfm_point("a", "libquantum", WINDOW, PFMParams(delay=0))
    b = pfm_point("b", "libquantum", WINDOW, PFMParams(delay=0))
    assert a.store_key() == b.store_key()


def test_store_key_incorporates_workload_content():
    """The trace_key folds the compiled instruction stream into the
    address, so the key is more than the config hash."""
    point = baseline_point("libquantum", WINDOW)
    assert trace_key_for("libquantum", {}) is not None
    assert point.store_key() != point.config_key()


def test_trace_key_degrades_to_none_for_unknown_workload():
    assert trace_key_for("no-such-workload", {}) is None


# ---------------------------------------------------------------------- #
# round trip / byte identity
# ---------------------------------------------------------------------- #


def test_round_trip_every_point_kind(tmp_path):
    store = ResultStore(tmp_path)
    stamped = {}
    for i, point in enumerate(_all_point_kinds()):
        stats = _stats(cycles=300 + i)
        stats.memory_levels = {"L1": {"accesses": 10.0, "misses": 1.0}}
        store.put(point.store_key(), stats)
        stamped[point.store_key()] = stats
    store.reset_memo()  # force the disk path, as a fresh process would
    for key, stats in stamped.items():
        assert store.get(key) == stats
    assert store.counters["hits"] == len(stamped)
    assert store.counters["misses"] == 0


def test_entry_bytes_deterministic(tmp_path):
    """Two hosts that computed the same point publish identical bytes —
    the invariant merge_from uses to equate byte- and result-equality."""
    key = baseline_point("libquantum", WINDOW).store_key()
    a, b = ResultStore(tmp_path / "a"), ResultStore(tmp_path / "b")
    a.put(key, _stats())
    b.put(key, _stats())
    assert a.path_for(key).read_bytes() == b.path_for(key).read_bytes()
    assert a.path_for(key).read_bytes() == ResultStore.encode(key, _stats())


def test_memo_serves_repeat_reads(tmp_path):
    store = ResultStore(tmp_path)
    key = "ab" + "0" * 62
    store.put(key, _stats())
    assert store.get(key) == _stats()
    assert store.counters["memo_hits"] == 1  # put() primed the memo


def test_memory_only_store_keeps_entries_in_its_memo():
    store = ResultStore(None)
    key = "ab" + "0" * 62
    assert store.get(key) is None
    store.put(key, _stats())
    assert store.get(key) == _stats()
    assert len(store) == 0 and store.files() == []  # nothing on disk
    assert store.counters == {
        "hits": 0, "memo_hits": 1, "misses": 1, "publishes": 1,
        "recoveries": 0,
    }


# ---------------------------------------------------------------------- #
# corruption / recovery
# ---------------------------------------------------------------------- #


def _poisoned(tmp_path, raw: bytes) -> tuple[ResultStore, str]:
    store = ResultStore(tmp_path)
    key = "cd" + "1" * 62
    path = store.path_for(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(raw)
    return store, key


@pytest.mark.parametrize("raw", [
    b'{"version": 1, "key": "cd',                      # torn mid-write
    b"\x00\xff garbage",                               # not JSON at all
    b'["not", "a", "dict"]',                           # wrong shape
    json.dumps({"version": STORE_VERSION - 1, "key": "cd" + "1" * 62,
                "stats": {"instructions": 1, "cycles": 1}}).encode(),
    json.dumps({"version": STORE_VERSION, "key": "f" * 64,
                "stats": {"instructions": 1, "cycles": 1}}).encode(),
    json.dumps({"version": STORE_VERSION, "key": "cd" + "1" * 62,
                "stats": "not-a-dict"}).encode(),
    json.dumps({"version": STORE_VERSION, "key": "cd" + "1" * 62,
                "stats": {"no_such_field": True}}).encode(),
    json.dumps({"version": STORE_VERSION, "key": "cd" + "1" * 62,
                "stats": {"instructions": 1, "cycles": "garbage"}}).encode(),
    b"[" * 100_000,                                    # RecursionError
    b"1" * 5000,                                       # int-digit limit
], ids=["torn", "binary", "non-dict", "stale-version", "wrong-key",
        "stats-shape", "stats-schema", "stats-types", "deep-nesting",
        "huge-int"])
def test_defective_entries_read_as_misses(tmp_path, raw):
    store, key = _poisoned(tmp_path, raw)
    assert store.get(key) is None
    assert store.counters == {
        "hits": 0, "memo_hits": 0, "misses": 1, "publishes": 0,
        "recoveries": 1,
    }
    # a recomputed result can be republished right over the damage
    store.put(key, _stats())
    store.reset_memo()
    assert store.get(key) == _stats()


def test_missing_entry_is_a_plain_miss(tmp_path):
    store = ResultStore(tmp_path)
    assert store.get("ee" + "2" * 62) is None
    assert store.counters["misses"] == 1
    assert store.counters["recoveries"] == 0  # absence is not damage


# ---------------------------------------------------------------------- #
# concurrent writers
# ---------------------------------------------------------------------- #


def test_concurrent_writers_atomic_last_wins(tmp_path):
    """Two writers hammering one key must leave a whole, valid entry —
    one of theirs, never an interleaving."""
    store = ResultStore(tmp_path)
    key = "aa" + "3" * 62
    rounds = 50

    def writer(cycles: int) -> None:
        own = ResultStore(tmp_path)  # separate instance, like another process
        for _ in range(rounds):
            own.put(key, _stats(cycles=cycles))

    threads = [threading.Thread(target=writer, args=(c,)) for c in (111, 222)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    final = store.get(key)
    assert final is not None and final.cycles in (111, 222)
    # no temp droppings left behind
    assert [p.name for p in store.files()] == [f"{key}.json"]
    assert not list(tmp_path.glob("??/*.tmp"))


# ---------------------------------------------------------------------- #
# merge
# ---------------------------------------------------------------------- #


def _filled(directory, spec: dict[str, int]) -> ResultStore:
    store = ResultStore(directory)
    for key, cycles in spec.items():
        store.put(key, _stats(cycles=cycles))
    return store


def test_merge_disjoint_stores(tmp_path):
    k1, k2, k3 = ("a" * 64, "b" * 64, "c" * 64)
    ours = _filled(tmp_path / "ours", {k1: 1})
    theirs = _filled(tmp_path / "theirs", {k2: 2, k3: 3})
    summary = ours.merge_from(theirs)
    assert summary == {"added": 2, "identical": 0, "conflicts": 0,
                       "invalid": 0}
    ours.reset_memo()
    assert {ours.get(k).cycles for k in (k1, k2, k3)} == {1, 2, 3}
    # copied raw: byte-identical to the source entry
    assert ours.path_for(k2).read_bytes() == theirs.path_for(k2).read_bytes()


def test_merge_overlap_and_conflicts_keep_ours(tmp_path):
    shared, conflicted, fresh = ("d" * 64, "e" * 64, "f" * 64)
    ours = _filled(tmp_path / "ours", {shared: 7, conflicted: 10})
    theirs = _filled(tmp_path / "theirs",
                     {shared: 7, conflicted: 99, fresh: 5})
    summary = ours.merge_from(theirs)
    assert summary == {"added": 1, "identical": 1, "conflicts": 1,
                       "invalid": 0}
    ours.reset_memo()
    assert ours.get(conflicted).cycles == 10  # first-wins
    assert ours.get(fresh).cycles == 5


def test_merge_skips_invalid_source_entries(tmp_path):
    ours = ResultStore(tmp_path / "ours")
    theirs = _filled(tmp_path / "theirs", {"a" * 64: 1})
    bad = theirs.path_for("b" * 64)
    bad.parent.mkdir(parents=True, exist_ok=True)
    bad.write_bytes(b"{torn")
    summary = ours.merge_from(tmp_path / "theirs")  # path form accepted
    assert summary == {"added": 1, "identical": 0, "conflicts": 0,
                       "invalid": 1}
    assert len(ours) == 1


def test_merge_order_insensitive(tmp_path):
    """A ⊎ B == B ⊎ A entry-for-entry when there are no conflicts."""
    a_spec, b_spec = {"a" * 64: 1, "c" * 64: 3}, {"b" * 64: 2}
    left = _filled(tmp_path / "l", dict(a_spec))
    left.merge_from(_filled(tmp_path / "lb", dict(b_spec)))
    right = _filled(tmp_path / "r", dict(b_spec))
    right.merge_from(_filled(tmp_path / "ra", dict(a_spec)))
    left_bytes = {p.name: p.read_bytes() for p in left.files()}
    right_bytes = {p.name: p.read_bytes() for p in right.files()}
    assert left_bytes == right_bytes


# ---------------------------------------------------------------------- #
# sharding
# ---------------------------------------------------------------------- #


def test_parse_shard():
    assert parse_shard("1/1") == (1, 1)
    assert parse_shard("2/4") == (2, 4)
    for bad in ("0/4", "5/4", "2", "a/b", "1/0", "-1/4", ""):
        with pytest.raises(ValueError):
            parse_shard(bad)


def test_shard_of_deterministic_and_in_range():
    keys = [f"key-{i}" for i in range(200)]
    for count in (1, 2, 3, 7):
        shards = [shard_of(key, count) for key in keys]
        assert all(1 <= s <= count for s in shards)
        assert shards == [shard_of(key, count) for key in keys]  # stable
    assert all(shard_of(key, 1) == 1 for key in keys)


def test_shard_slice_partitions_grid_exactly():
    points = sweep_points(WINDOW)
    assert shard_slice(points, (1, 1)) == points
    for count in (2, 3, 4):
        slices = [shard_slice(points, (i, count))
                  for i in range(1, count + 1)]
        labels = [p.label for s in slices for p in s]
        assert sorted(labels) == sorted(p.label for p in points)
        assert len(labels) == len(set(labels))  # no point run twice
    with pytest.raises(ValueError):
        shard_slice(points, (3, 2))


@pytest.fixture
def counted_run_point(monkeypatch):
    calls: list[str] = []

    def fake(point: SweepPoint) -> SimStats:
        calls.append(point.label)
        return _stats(cycles=100 + len(point.label))

    monkeypatch.setattr(pool_module, "run_point", fake)
    return calls


def _store_bytes(store: ResultStore) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in store.files()}


GRID = {"workloads": ("astar", "libquantum"),
        "configs": ("clk4_w1, delay0", "clk4_w4, delay4, queue32, portLS1")}


def test_four_way_shard_merge_matches_single_host(tmp_path, counted_run_point):
    """The headline determinism property: 4 shard runs merged are
    byte-identical, entry for entry, to one unsharded run."""
    solo = SweepPool(store=tmp_path / "solo")
    solo.run(sweep_points(WINDOW, **GRID))
    solo_count = len(counted_run_point)

    merged = ResultStore(tmp_path / "merged")
    for i in range(1, 5):
        shard_store = tmp_path / f"shard-{i}"
        pool = SweepPool(store=shard_store)
        payload = run_sweep_shard(WINDOW, pool, (i, 4), **GRID)
        assert payload["shard"] == f"{i}/4"
        assert payload["points_selected"] == len(payload["points"])
        summary = merged.merge_from(shard_store)
        assert summary["conflicts"] == summary["invalid"] == 0
    assert len(counted_run_point) == 2 * solo_count  # exact partition
    assert _store_bytes(merged) == _store_bytes(solo.store)


def test_shard_run_requires_a_store():
    with pytest.raises(ValueError, match="result store"):
        run_sweep_shard(WINDOW, SweepPool(), (1, 2), **GRID)


def test_shard_store_identical_across_jobs(tmp_path):
    """Worker count must not leak into published entries (real runs)."""
    grid = {"workloads": ("astar",), "configs": ("clk4_w1, delay0",)}
    stores = {}
    for jobs in (1, 4):
        stores[jobs] = tmp_path / f"jobs{jobs}"
        run_sweep_shard(800, SweepPool(jobs=jobs, store=stores[jobs]),
                        (1, 1), **grid)
    assert _store_bytes(ResultStore(stores[1])) == \
        _store_bytes(ResultStore(stores[4]))
    assert len(ResultStore(stores[1])) == 2  # baseline + one config


# ---------------------------------------------------------------------- #
# gc
# ---------------------------------------------------------------------- #


def test_parse_size():
    assert parse_size("512") == 512
    assert parse_size("64K") == 64 * 1024
    assert parse_size("200m") == 200 * 1024**2
    assert parse_size(" 1G ") == 1024**3
    for bad in ("", "12Q", "ten", "-5"):
        with pytest.raises(ValueError):
            parse_size(bad)


def _touch(path, size: int, mtime: float) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"x" * size)
    import os
    os.utime(path, (mtime, mtime))


def test_gc_evicts_lru_across_sections(tmp_path):
    traces = tmp_path / "traces"
    _touch(traces / "old.trace.pkl", 100, 1_000)
    _touch(traces / ("astar--" + "1" * 64 + ".recipe"), 100, 1_500)
    _touch(tmp_path / "store" / "ef" / ("e" * 64 + ".json"), 100, 2_000)
    _touch(traces / ("lbm--" + "2" * 64 + ".recipe"), 100, 2_500)
    _touch(tmp_path / "store" / "ab" / ("a" * 64 + ".json"), 100, 3_000)
    _touch(tmp_path / "store" / "cd" / ("c" * 64 + ".json"), 100, 4_000)

    summary = gc_cache(tmp_path, max_bytes=200)
    assert summary["total_bytes"] == 600
    assert summary["evicted_bytes"] == 400
    assert summary["kept_bytes"] == 200
    assert set(summary["sections"]) == {"traces", "store"}
    assert summary["sections"]["traces"]["files"] == 3
    assert summary["sections"]["traces"]["evicted_files"] == 3
    assert summary["sections"]["store"]["evicted_files"] == 1
    # the two newest store entries survived; recipes are trace-cache files
    assert list(traces.iterdir()) == []
    assert len(ResultStore(store_dir(tmp_path))) == 2


def test_gc_under_budget_evicts_nothing(tmp_path):
    _touch(tmp_path / "store" / "ab" / ("a" * 64 + ".json"), 50, 1_000)
    summary = gc_cache(tmp_path, max_bytes=1_000)
    assert summary["evicted_bytes"] == 0
    assert summary["sections"]["store"]["files"] == 1


def test_gc_ignores_checkpoints_and_journals(tmp_path):
    _touch(tmp_path / "checkpoints" / "sweep.jsonl", 500, 1_000)
    _touch(tmp_path / "store" / "ab" / ("a" * 64 + ".json"), 50, 2_000)
    summary = gc_cache(tmp_path, max_bytes=0)
    assert summary["total_bytes"] == 50  # state files never counted
    assert (tmp_path / "checkpoints" / "sweep.jsonl").exists()


def test_store_clear(tmp_path):
    store = _filled(store_dir(tmp_path), {"a" * 64: 1, "b" * 64: 2})
    _touch(tmp_path / "traces" / "old.trace.pkl", 100, 1_000)
    size = store.size_bytes()
    assert size > 0
    removed = clear_section(tmp_path, "store")
    assert (len(removed), sum(entry[1] for entry in removed)) == (2, size)
    assert len(store) == 0
    assert (tmp_path / "traces" / "old.trace.pkl").exists()  # other section
    store.reset_memo()
    assert store.get("a" * 64) is None
