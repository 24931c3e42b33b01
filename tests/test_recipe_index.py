"""The trace cache's recipe index (``<cache-dir>/traces/*.recipe``).

A store key folds in the workload's ``trace_key``, which costs a
workload build plus a hash over its memory image.  The recipe index maps
(registry name, canonical overrides, source fingerprint) to that key, so
a fresh process keys a populated sweep without building anything — into
any result store, since the index lives beside the traces.  These tests
pin the index to the content key it stands in for, show that a warm pool
builds nothing, and check that every defective recipe file is rejected
with a named reason, reads as a miss and is republished.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import registry
from repro.cachefile import REASONS, CacheFileRejected, frame, trace_dir
from repro.core import PFMParams, SimStats
from repro.experiments.__main__ import main
from repro.experiments.pool import SweepPool, baseline_point, pfm_point
from repro.isa.instructions import OpClass
from repro.registry import WORKLOADS, workload_names
from repro.store import ResultStore
from repro.workloads import identity, tracecache
from repro.workloads.identity import (
    KEY_VERSION,
    decode_recipe,
    recipe_key,
    reset_trace_key_memo,
    trace_key_for,
    workload_content_key,
)

WINDOW = 800


@pytest.fixture(autouse=True)
def _fresh_memos():
    """Each test starts as a fresh process would: no memoized keys."""
    tracecache.reset_memory_cache()
    yield
    tracecache.reset_memory_cache()


@pytest.fixture
def builds(monkeypatch) -> list[str]:
    """Names of every registry build, as the trace cache and the pool
    call it."""
    calls: list[str] = []
    real = registry.build_workload

    def counted(name, **overrides):
        calls.append(name)
        return real(name, **overrides)

    monkeypatch.setattr(registry, "build_workload", counted)
    return calls


def _recipe_files() -> list[Path]:
    return sorted(trace_dir().glob("*.recipe"))


# ---------------------------------------------------------------------- #
# the index stands in for the content key
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("name", workload_names())
def test_index_key_equals_content_key(name, builds):
    fresh = workload_content_key(WORKLOADS.get(name)())
    assert trace_key_for(name, {}) == fresh
    rk = recipe_key(name, {})
    assert rk is not None
    path = identity._recipe_path(name, rk)
    assert path.parent == trace_dir()
    assert decode_recipe(path.read_bytes(), rk) == fresh
    reset_trace_key_memo()
    builds.clear()
    assert trace_key_for(name, {}) == fresh  # served by the index
    assert builds == []


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


def test_a_new_store_over_warm_traces_keys_without_a_build(tmp_path, builds):
    """Shard runs and benchmarks point fresh stores at one cache
    directory: the index beside the traces keys their points, so only
    computing a point builds its workload."""
    points = [
        baseline_point("astar", WINDOW),
        pfm_point("pfm", "astar", WINDOW, PFMParams(delay=0)),
        baseline_point("libquantum", WINDOW),
    ]
    first = SweepPool(store=tmp_path / "first")
    first.run(points)

    tracecache.reset_memory_cache()
    builds.clear()
    second = SweepPool(store=tmp_path / "second")
    keys = [second._store_key(point) for point in points]
    assert builds == []
    assert keys == [first._store_key(point) for point in points]


def test_memory_only_pool_keeps_config_keys(builds):
    pool = SweepPool()
    point = baseline_point("astar", WINDOW)
    assert pool._store_key(point) == point.key()
    assert builds == []  # no trace key needed, so no build


def test_new_fingerprint_misses_and_rebuilds(monkeypatch, builds):
    key = trace_key_for("libquantum", {})
    reset_trace_key_memo()
    builds.clear()

    monkeypatch.setattr(identity, "source_fingerprint", lambda: "0" * 64)
    assert trace_key_for("libquantum", {}) == key
    assert builds == ["libquantum"]
    assert len(_recipe_files()) == 2  # one recipe per fingerprint


def test_pickled_overrides_stay_out_of_the_index(builds):
    overrides = {"grid_width": 40, "grid_height": 40, "component_factory": len}
    assert recipe_key("astar", overrides) is None
    key = trace_key_for("astar", overrides)
    assert key is not None
    assert _recipe_files() == []
    assert trace_key_for("astar", overrides) == key  # process memo
    assert builds == ["astar"]


def test_builders_outside_the_package_stay_out_of_the_index(monkeypatch):
    workload_names()  # autoload the registry before patching it
    monkeypatch.setitem(
        WORKLOADS._entries, "local-astar",
        lambda **kw: WORKLOADS.get("astar")(grid_width=40, grid_height=40),
    )
    assert recipe_key("astar", {}) is not None
    assert recipe_key("local-astar", {}) is None


def test_unknown_workload_is_not_indexed():
    assert trace_key_for("no-such-workload", {}) is None
    assert _recipe_files() == []


# ---------------------------------------------------------------------- #
# defective recipe files
# ---------------------------------------------------------------------- #


def _recipe(**fields):
    """A well-framed recipe file for the test's *rk*, with *fields*
    replaced."""
    def raw(rk: str) -> bytes:
        payload = {"version": KEY_VERSION, "rk": rk, "trace_key": "0" * 20}
        payload.update(fields)
        return frame(payload)
    return raw


def _framed(body: bytes):
    """*body* behind a matching checksum."""
    return lambda rk: hashlib.sha256(body).digest() + body


def _torn(rk: str) -> bytes:
    return _recipe()(rk)[:-7]


def _flipped(rk: str) -> bytes:
    raw = bytearray(_recipe()(rk))
    raw[-3] ^= 0x01
    return bytes(raw)


#: A pickle of lists nested 100k deep, spelled out opcode by opcode.
_DEEP = b"\x80\x04" + b"]" * 100_000 + b"a" * 99_999 + b"."


@pytest.mark.parametrize("raw,reason", [
    (_torn, "checksum"),
    (_flipped, "checksum"),
    (lambda rk: b"\x00\xff garbage", "checksum"),
    (_framed(_DEEP), "header"),
    (_recipe(version=10**5000), "header"),
    (_framed(pickle.dumps(["not", "a", "dict"], protocol=4)), "header"),
    (_recipe(version=KEY_VERSION - 1), "header"),
    (_recipe(rk="f" * 64), "stale"),
    (_recipe(trace_key=12345), "shape"),
    (_recipe(trace_key="z" * 20), "shape"),
    (_recipe(trace_key="0" * 21), "shape"),
    (_recipe(trace_key="ABCDEF0123456789ABCD"), "shape"),
    (_recipe(trace_key=OpClass.BRANCH), "header"),
], ids=["torn", "checksum", "binary", "deep-nesting", "huge-int", "non-dict",
        "stale-version", "wrong-address", "int-key", "non-hex-key",
        "long-key", "upper-hex-key", "names-a-class"])
def test_defective_recipes_read_as_misses_and_are_republished(
    builds, raw, reason
):
    rk = recipe_key("astar", {})
    path = identity._recipe_path("astar", rk)
    path.parent.mkdir(parents=True)
    path.write_bytes(raw(rk))
    with pytest.raises(CacheFileRejected) as excinfo:
        decode_recipe(raw(rk), rk)
    assert excinfo.value.reason == reason

    key = trace_key_for("astar", {})
    assert key == workload_content_key(WORKLOADS.get("astar")())
    assert tracecache.STATS["recipe_recoveries"] == 1
    assert builds == ["astar"]
    assert path.read_bytes() == _recipe(trace_key=key)(rk)


def test_missing_recipe_is_a_plain_miss():
    assert identity._read_recipe("astar", "ab" * 32) is None
    assert tracecache.STATS["recipe_recoveries"] == 0


def test_merge_ignores_recipes(tmp_path):
    """The result store holds results only: recipes stay beside the
    traces, and a merge copies entries alone."""
    source = ResultStore(tmp_path / "source")
    point = baseline_point("astar", WINDOW)
    source.put(point.store_key(), SimStats(instructions=1, cycles=2))
    assert _recipe_files()

    merged = ResultStore(tmp_path / "merged")
    assert merged.merge_from(source)["added"] == 1
    assert [p for p in merged.directory.rglob("*") if p.is_file()] == \
        merged.files()


def test_cache_cli_lists_and_clears_recipes(capsys):
    cache = Path(os.environ["REPRO_CACHE_DIR"])
    trace_key_for("astar", {})
    assert main(["cache", "list"]) == 0
    assert "1 recipe(s)" in capsys.readouterr().out

    assert main(["cache", "clear", "--store"]) == 0
    assert len(_recipe_files()) == 1  # the index belongs to the traces
    assert main(["cache", "clear"]) == 0
    assert "1 recipe(s)" in capsys.readouterr().out
    assert _recipe_files() == []
    assert [p for p in cache.rglob("*") if p.is_file()] == []


# ---------------------------------------------------------------------- #
# byte-mutation property: decoders return exactly what the bytes say or
# raise the one rejection type with a reason from its closed set; any
# other exception fails
# ---------------------------------------------------------------------- #

_KEY = "cd" + "1" * 62
_RK = "ef" + "2" * 62
_STATS = SimStats(
    instructions=100, cycles=250, load_hits_by_level={"L1": 7},
    memory_levels={"L1": {"accesses": 10.0, "misses": 1.0}},
    arch_digest="ab" * 8,
)
_ENTRY = ResultStore.encode(_KEY, _STATS, {"workload": "astar"})
_RECIPE = _recipe(trace_key="0123456789abcdef0123")(_RK)

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


def _decoded(decode, raw: bytes, key: str):
    """``decode(raw, key)``, or None when it raises the rejection type
    with a reason from the closed set."""
    try:
        return decode(raw, key)
    except CacheFileRejected as exc:
        assert exc.reason in REASONS
        return None


@settings(max_examples=300, deadline=None)
@given(st.lists(_MUTATION, max_size=6))
@example([("truncate", 0, 0)])
def test_store_entry_decode_never_raises_or_invents(ops):
    """A mutated entry is rejected or decodes to exactly what its bytes
    say (a flipped digit is a different well-formed entry: there is no
    checksum); unmutated bytes decode to the original."""
    raw = _mutate(_ENTRY, ops)
    stats = _decoded(ResultStore.decode, raw, _KEY)
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
    """A recipe file carries its checksum: any byte change is rejected,
    and only the unchanged bytes decode."""
    raw = _mutate(_RECIPE, ops)
    expected = "0123456789abcdef0123" if raw == _RECIPE else None
    assert _decoded(decode_recipe, raw, _RK) == expected


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=512))
@example(b"[" * 100_000)
@example(b"1" * 5000)
def test_readers_never_raise_on_arbitrary_bytes(raw):
    """Arbitrary bytes raise nothing but the rejection type."""
    assert _decoded(ResultStore.decode, raw, _KEY) is None
    assert _decoded(decode_recipe, raw, _RK) is None
