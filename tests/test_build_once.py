"""One builder run per recipe and process: the registry's base slot.

``build_workload`` keeps the last encodable recipe's build as a pristine
base (``identity._BASE``) and returns a copy per call.  These tests pin
that a copy is private to its caller (no run, mutation or fault reaches
the next build), that the slot holds one recipe, that unencodable
overrides bypass it, and that a Figure 8 grid runs the astar builder
once, the trace compile's pristine rebuild included.
"""

from __future__ import annotations

import pytest

from repro.backends import have_numpy
from repro.core import CoreParams, SimConfig, simulate
from repro.experiments.astar_sweeps import fig8_points
from repro.experiments.faults import fault_points
from repro.experiments.pool import SweepPool, run_point
from repro.experiments.runner import parse_config_label
from repro.registry import WORKLOADS, build_workload, workload_names
from repro.workloads import identity, tracecache
from repro.workloads.identity import recipe_digest, workload_content_key

WINDOW = 1_500
PFM_CONFIG = "clk4_w4, delay4, queue32, portLS1"

#: Default-recipe trace keys; a builder change that moves them moves every
#: store key and compiled trace.
PINNED_KEYS = {
    "libquantum": "5343127a0e5395ef814d",
    "astar": "7154e24ef728e8dd4df2",
}


@pytest.fixture(autouse=True)
def _fresh_memos():
    tracecache.reset_memory_cache()
    yield
    tracecache.reset_memory_cache()


def _count_builds(monkeypatch, name: str) -> list[dict]:
    """Wrap *name*'s registered builder; return the list of its calls."""
    calls: list[dict] = []
    real = WORKLOADS.get(name)

    def counted(**overrides):
        calls.append(overrides)
        return real(**overrides)

    monkeypatch.setitem(WORKLOADS._entries, name, counted)
    return calls


def _fresh_key(name: str) -> str:
    return workload_content_key(WORKLOADS.get(name)())


@pytest.mark.parametrize("name", sorted(PINNED_KEYS))
def test_default_trace_keys_are_pinned(name):
    assert _fresh_key(name) == PINNED_KEYS[name]
    assert build_workload(name).trace_key == PINNED_KEYS[name]


def test_two_builds_are_private_copies_of_one_base(monkeypatch):
    calls = _count_builds(monkeypatch, "astar")
    a, b = build_workload("astar"), build_workload("astar")
    assert len(calls) == 1
    assert a.trace_key == b.trace_key is not None
    assert a.memory is not b.memory
    assert a.initial_regs is not b.initial_regs
    assert a.metadata is not b.metadata
    assert a.build_ref is not b.build_ref
    assert a.bitstream is not b.bitstream
    assert a.bitstream.rst_entries is not b.bitstream.rst_entries
    assert a.bitstream.fst_entries is not b.bitstream.fst_entries
    assert a.bitstream.metadata is not b.bitstream.metadata
    assert a.program is b.program  # immutable, shared


def test_mutating_a_build_never_reaches_the_next():
    fresh = _fresh_key("astar")
    a = build_workload("astar")
    untouched = max(addr for addr, _ in a.memory.iter_words()) + 8
    a.memory.store(untouched, 0)  # materializing a word changes the content
    a.memory.store(a.memory.base("maparp"), 12345)
    a.initial_regs["a0"] = 7
    a.metadata["ncells"] = -1
    a.bitstream.metadata["index_queue_entries"] = 1
    a.bitstream.rst_entries.clear()
    a.bitstream.fst_entries.clear()
    a.build_ref[1]["seed"] = 99
    assert workload_content_key(a) != fresh

    b = build_workload("astar")
    assert workload_content_key(b) == fresh
    assert b.metadata["ncells"] != -1
    assert b.bitstream.metadata["index_queue_entries"] != 1
    assert b.bitstream.rst_entries and b.bitstream.fst_entries
    assert b.build_ref == ("astar", {})


def _runs() -> list[tuple[str, SimConfig]]:
    runs = [
        ("plain/python", SimConfig(max_instructions=WINDOW)),
        ("pfm/python",
         SimConfig(max_instructions=WINDOW, pfm=parse_config_label(PFM_CONFIG))),
    ]
    if have_numpy():
        runs.append(("plain/numpy", SimConfig(
            max_instructions=WINDOW, core=CoreParams(backend="numpy"),
        )))
    return runs


@pytest.mark.parametrize("name", workload_names())
def test_a_run_leaves_the_base_pristine(name):
    fresh = _fresh_key(name)
    for label, config in _runs():
        workload = build_workload(name)
        simulate(workload, config)
        assert workload_content_key(build_workload(name)) == fresh, label


def test_a_fault_plan_point_leaves_the_base_pristine():
    point = next(
        p for p in fault_points(WINDOW, workloads=("astar",))
        if p.pfm is not None and p.pfm.fault_plan is not None
    )
    fresh = _fresh_key("astar")
    run_point(point)
    assert workload_content_key(build_workload("astar")) == fresh


def test_a_fig8_grid_runs_the_builder_once(tmp_path, monkeypatch):
    calls = _count_builds(monkeypatch, "astar")
    points = fig8_points(WINDOW)
    stats = SweepPool(jobs=1, store=tmp_path / "store").run(points)
    assert len(stats) == len(points)
    # run_point builds per point, trace_key_for on a recipe miss and the
    # trace compile for its pristine copy: one builder call serves all.
    assert tracecache.STATS["compiles"] == 1
    assert calls == [{}]


def test_unencodable_overrides_are_never_kept(monkeypatch):
    calls = _count_builds(monkeypatch, "astar")
    build_workload("astar")
    slot = dict(identity._BASE)

    def factory(*args):  # a local function: no pickle, no recipe digest
        raise AssertionError("never programmed")

    overrides = {"grid_width": 16, "grid_height": 16, "component_factory": factory}
    assert recipe_digest("astar", overrides) is None
    a = build_workload("astar", **overrides)
    b = build_workload("astar", **overrides)
    assert a is not b and a.memory is not b.memory
    assert a.trace_key == b.trace_key is not None
    assert len(calls) == 3
    assert identity._BASE == slot


def test_another_recipe_evicts_the_slot(monkeypatch):
    calls = _count_builds(monkeypatch, "astar")
    build_workload("astar")
    build_workload("libquantum")
    assert list(identity._BASE) == [recipe_digest("libquantum", {})]
    build_workload("astar", seed=2)
    assert list(identity._BASE) == [recipe_digest("astar", {"seed": 2})]
    build_workload("astar")
    assert calls == [{}, {"seed": 2}, {}]


def test_reset_memory_cache_clears_the_slot(monkeypatch):
    calls = _count_builds(monkeypatch, "astar")
    build_workload("astar")
    tracecache.reset_memory_cache()
    assert identity._BASE == {}
    build_workload("astar")
    assert len(calls) == 2
