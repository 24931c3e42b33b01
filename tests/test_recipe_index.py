"""The result store's recipe index (``<store>/recipes/``).

A store key folds in the workload's ``trace_key``, which costs a
workload build plus a hash over its memory image.  The recipe index maps
(registry name, canonical overrides, source fingerprint) to that key, so
a fresh process keys a populated sweep without building anything.  These
tests pin the index to the content key it stands in for, show that a
warm pool builds nothing, and check that every defective entry reads as
a miss and is republished.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import registry
from repro.core import PFMParams, SimStats
from repro.experiments.__main__ import main
from repro.experiments.pool import SweepPool, baseline_point, pfm_point
from repro.registry import WORKLOADS, workload_names
from repro.store import (
    STORE_VERSION,
    ResultStore,
    recipe_key,
    reset_trace_key_memo,
    store_dir,
    trace_key_for,
)
from repro.store import resultstore
from repro.workloads import tracecache
from repro.workloads.tracecache import workload_content_key

WINDOW = 800


@pytest.fixture(autouse=True)
def _fresh_memos():
    """Each test starts as a fresh process would: no memoized keys."""
    tracecache.reset_memory_cache()
    yield
    tracecache.reset_memory_cache()


@pytest.fixture
def builds(monkeypatch) -> list[str]:
    """Names of every registry build, as the store and the pool call it."""
    calls: list[str] = []
    real = registry.build_workload

    def counted(name, **overrides):
        calls.append(name)
        return real(name, **overrides)

    monkeypatch.setattr(registry, "build_workload", counted)
    return calls


# ---------------------------------------------------------------------- #
# the index stands in for the content key
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("name", workload_names())
def test_index_key_equals_content_key(tmp_path, name):
    store = ResultStore(tmp_path)
    fresh = workload_content_key(WORKLOADS.get(name)())
    assert trace_key_for(name, {}, store) == fresh
    rk = recipe_key(name, {})
    assert rk is not None
    assert store.get_recipe(rk) == fresh
    reset_trace_key_memo()
    assert trace_key_for(name, {}, store) == fresh  # served by the index


def test_warm_pool_builds_nothing(tmp_path, builds):
    points = [
        baseline_point("astar", WINDOW),
        pfm_point("pfm", "astar", WINDOW, PFMParams(delay=0)),
        baseline_point("libquantum", WINDOW),
    ]
    cold = SweepPool(store=tmp_path).run(points)
    assert builds  # the cold pool built and simulated

    tracecache.reset_memory_cache()
    builds.clear()
    warm_pool = SweepPool(store=tmp_path)
    warm = warm_pool.run(points)
    assert builds == []
    assert warm_pool.last_run_info["store_hits"] == len(points)
    for point in points:
        assert ResultStore.encode("k", warm[point.label]) == \
            ResultStore.encode("k", cold[point.label])


def test_memory_only_pool_keeps_config_keys(builds):
    pool = SweepPool()
    point = baseline_point("astar", WINDOW)
    assert pool._store_key(point) == point.key()
    assert builds == []  # no trace key needed, so no build


def test_new_fingerprint_misses_and_rebuilds(tmp_path, monkeypatch, builds):
    store = ResultStore(tmp_path)
    key = trace_key_for("libquantum", {}, store)
    reset_trace_key_memo()
    builds.clear()

    monkeypatch.setattr(resultstore, "source_fingerprint", lambda: "0" * 64)
    assert trace_key_for("libquantum", {}, store) == key
    assert builds == ["libquantum"]
    assert len(store.recipe_files()) == 2  # one recipe per fingerprint


def test_pickled_overrides_stay_out_of_the_index(tmp_path, builds):
    overrides = {"grid_width": 40, "grid_height": 40, "component_factory": len}
    store = ResultStore(tmp_path)
    assert recipe_key("astar", overrides) is None
    key = trace_key_for("astar", overrides, store)
    assert key is not None
    assert store.recipe_files() == []
    assert trace_key_for("astar", overrides, store) == key  # process memo
    assert builds == ["astar"]


def test_builders_outside_the_package_stay_out_of_the_index(monkeypatch):
    workload_names()  # autoload the registry before patching it
    monkeypatch.setitem(
        WORKLOADS._entries, "local-astar",
        lambda **kw: WORKLOADS.get("astar")(grid_width=40, grid_height=40),
    )
    assert recipe_key("astar", {}) is not None
    assert recipe_key("local-astar", {}) is None


def test_unknown_workload_is_not_indexed(tmp_path):
    store = ResultStore(tmp_path)
    assert trace_key_for("no-such-workload", {}, store) is None
    assert store.recipe_files() == []


# ---------------------------------------------------------------------- #
# defective entries
# ---------------------------------------------------------------------- #


def _recipe(**fields) -> bytes:
    payload = {"version": STORE_VERSION, "rk": "RK", "trace_key": "0" * 20}
    payload.update(fields)
    return json.dumps(payload).encode()


@pytest.mark.parametrize("raw", [
    b'{"version": 1, "rk": "',
    b"\x00\xff garbage",
    b"[" * 100_000,
    b"1" * 5000,
    b'["not", "a", "dict"]',
    _recipe(version=STORE_VERSION - 1),
    _recipe(rk="f" * 64),
    _recipe(trace_key=12345),
    _recipe(trace_key="z" * 20),
    _recipe(trace_key="0" * 21),
    _recipe(trace_key="ABCDEF0123456789ABCD"),
], ids=["torn", "binary", "deep-nesting", "huge-int", "non-dict",
        "stale-version", "wrong-address", "int-key", "non-hex-key",
        "long-key", "upper-hex-key"])
def test_defective_recipes_read_as_misses_and_are_republished(
        tmp_path, builds, raw):
    store = ResultStore(tmp_path)
    rk = recipe_key("astar", {})
    path = store.recipe_path(rk)
    path.parent.mkdir(parents=True)
    path.write_bytes(raw.replace(b'"RK"', json.dumps(rk).encode()))

    key = trace_key_for("astar", {}, store)
    assert key == workload_content_key(WORKLOADS.get("astar")())
    assert store.counters["recoveries"] == 1
    assert builds == ["astar"]
    assert path.read_bytes() == ResultStore.encode_recipe(rk, key)


def test_missing_recipe_is_a_plain_miss(tmp_path):
    store = ResultStore(tmp_path)
    assert store.get_recipe("ab" * 32) is None
    assert store.counters["recoveries"] == 0


def test_merge_ignores_recipes(tmp_path):
    source = ResultStore(tmp_path / "source")
    point = baseline_point("astar", WINDOW)
    source.put(point.store_key(source), SimStats(instructions=1, cycles=2))
    assert source.recipe_files()

    merged = ResultStore(tmp_path / "merged")
    assert merged.merge_from(source)["added"] == 1
    assert merged.recipe_files() == []


def test_cache_cli_lists_and_clears_recipes(tmp_path, capsys):
    base = tmp_path / "cache"
    trace_key_for("astar", {}, ResultStore(store_dir(base)))
    assert main(["cache", "list", "--cache-dir", str(base)]) == 0
    assert "1 recipe(s)" in capsys.readouterr().out

    assert main(["cache", "clear", "--store", "--cache-dir", str(base)]) == 0
    assert ResultStore(store_dir(base)).recipe_files() == []


# ---------------------------------------------------------------------- #
# byte-mutation property: readers never raise, never invent values
# ---------------------------------------------------------------------- #

_KEY = "cd" + "1" * 62
_RK = "ef" + "2" * 62
_STATS = SimStats(
    instructions=100, cycles=250, load_hits_by_level={"L1": 7},
    memory_levels={"L1": {"accesses": 10.0, "misses": 1.0}},
    arch_digest="ab" * 8,
)
_ENTRY = ResultStore.encode(_KEY, _STATS, {"workload": "astar"})
_RECIPE = ResultStore.encode_recipe(_RK, "0123456789abcdef0123")

_MUTATION = st.tuples(
    st.sampled_from(("flip", "insert", "delete", "truncate")),
    st.integers(min_value=0, max_value=1 << 16),
    st.integers(min_value=0, max_value=255),
)


def _mutate(raw: bytes, ops) -> bytes:
    data = bytearray(raw)
    for op, where, byte in ops:
        at = where % (len(data) + 1)
        if op == "flip" and at < len(data):
            data[at] = byte
        elif op == "insert":
            data[at:at] = bytes([byte])
        elif op == "delete":
            del data[at:at + 1]
        elif op == "truncate":
            del data[at:]
    return bytes(data)


def _canon(value) -> str:
    return json.dumps(value, sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(st.lists(_MUTATION, max_size=6))
@example([("truncate", 0, 0)])
def test_store_entry_decode_never_raises_or_invents(ops):
    """A mutated entry decodes to None or to exactly what its bytes say
    (a flipped digit is a different well-formed entry: there is no
    checksum); unmutated bytes decode to the original."""
    raw = _mutate(_ENTRY, ops)
    stats = ResultStore.decode(raw, _KEY)
    if not ops:
        assert stats == _STATS
    if stats is not None:
        written = json.loads(raw)["stats"]
        decoded = dataclasses.asdict(stats)
        assert all(_canon(decoded[k]) == _canon(v) for k, v in written.items())


@settings(max_examples=300, deadline=None)
@given(st.lists(_MUTATION, max_size=6))
@example([("truncate", 0, 0)])
def test_recipe_decode_never_raises_or_invents(ops):
    raw = _mutate(_RECIPE, ops)
    trace_key = ResultStore.decode_recipe(raw, _RK)
    if not ops:
        assert trace_key == "0123456789abcdef0123"
    if trace_key is not None:
        assert json.loads(raw)["trace_key"] == trace_key
        assert len(trace_key) == 20 and int(trace_key, 16) >= 0


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=512))
@example(b"[" * 100_000)
@example(b"1" * 5000)
def test_readers_never_raise_on_arbitrary_bytes(raw):
    assert ResultStore.decode(raw, _KEY) is None
    assert ResultStore.decode_recipe(raw, _RK) is None
