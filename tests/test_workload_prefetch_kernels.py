"""Prefetch workload kernels: functional semantics and delinquent loads."""

import random

import pytest

from repro.workloads.bwaves import NJ, NK, NL, build_bwaves_workload
from repro.workloads.lbm import CLUSTER, build_lbm_workload
from repro.workloads.leslie import build_leslie_workload
from repro.workloads.libquantum import NODE_STRIDE, build_libquantum_workload
from repro.workloads.milc import DIRECTIONS, build_milc_workload


def run_for(workload, n):
    executor = workload.executor()
    return list(executor.run(n)), executor


def test_libquantum_toffoli_semantics():
    control1, control2, target = 1 << 3, 1 << 7, 1 << 11
    workload = build_libquantum_workload(
        reg_size=64, control1=control1, control2=control2, target=target
    )
    # Reference: apply toffoli then sigma_x to the initial states.
    initial = [
        int(workload.memory.load_index("reg_state", 2 * i)) for i in range(64)
    ]
    _, executor = run_for(workload, 10_000)
    assert executor.halted
    for i, state in enumerate(initial):
        if state & control1 and state & control2:
            state ^= target
        state ^= target  # sigma_x flips unconditionally
        assert workload.memory.load_index("reg_state", 2 * i) == state


@pytest.mark.parametrize("control1, control2, seed", [
    (1 << 3, 1 << 7, 3),
    (1 << 1, 1 << 2, 11),  # control1 inside the random low bits
])
def test_libquantum_register_matches_the_per_node_loop(control1, control2, seed):
    """The bulk register fill stores exactly what one draw of low bits,
    then one coin, per node stores."""
    reg_size = 500
    rng = random.Random(seed)
    expected = []
    for _ in range(reg_size):
        state = control1 | control2 | rng.getrandbits(3)
        if rng.random() < 0.08:
            state &= ~control1
        expected.append(state)
    memory = build_libquantum_workload(
        reg_size=reg_size, control1=control1, control2=control2, seed=seed
    ).memory
    base = memory.base("reg_state")
    assert list(memory.iter_words()) == [
        (base + i * NODE_STRIDE, state) for i, state in enumerate(expected)
    ]


def test_libquantum_delinquent_load_stride():
    workload = build_libquantum_workload(reg_size=128)
    trace, _ = run_for(workload, 4000)
    loads = [d for d in trace if d.is_load and "load B" in d.comment]
    addresses = [d.mem_addr for d in loads[:20]]
    deltas = {b - a for a, b in zip(addresses, addresses[1:])}
    assert deltas == {NODE_STRIDE}


def test_lbm_cluster_loads_per_iteration():
    workload = build_lbm_workload(cells=32)
    trace, executor = run_for(workload, 5000)
    assert executor.halted
    loads = [d for d in trace if d.is_load]
    stores = [d for d in trace if d.is_store]
    assert len(loads) == 32 * CLUSTER
    assert len(stores) == 32


def test_milc_direction_streams_disjoint():
    workload = build_milc_workload(sites=16)
    trace, executor = run_for(workload, 10_000)
    assert executor.halted
    loads = [d for d in trace if d.is_load]
    assert len(loads) == 16 * DIRECTIONS * 2  # two rows per direction
    bases = [workload.memory.base(f"links_{d}") for d in range(DIRECTIONS)]
    for dyn in loads:
        assert any(
            workload.memory.contains(f"links_{d}", dyn.mem_addr)
            for d in range(DIRECTIONS)
        ), hex(dyn.mem_addr)


def test_bwaves_b_walks_plane_strides():
    workload = build_bwaves_workload(outer_sweeps=2)
    trace, _ = run_for(workload, 30_000)
    b_loads = [d for d in trace if "delinquent B" in d.comment]
    a_loads = [d for d in trace if "delinquent A" in d.comment]
    assert b_loads and a_loads
    # A is a contiguous doubleword stream.
    a_deltas = {
        y.mem_addr - x.mem_addr for x, y in zip(a_loads, a_loads[1:])
    }
    assert a_deltas == {8}
    # B jumps by whole planes (NK*NJ doublewords) within the l loop.
    plane = NK * NJ * 8
    b_deltas = [y.mem_addr - x.mem_addr for x, y in zip(b_loads[:NL], b_loads[1:NL])]
    assert all(delta == plane for delta in b_deltas)


def test_bwaves_component_coeffs_reproduce_addresses():
    """The bitstream's coefficient vectors must match the kernel."""
    workload = build_bwaves_workload(outer_sweeps=2)
    group = workload.bitstream.metadata["groups"][0]
    site_a = next(s for s in group["sites"] if s["tag"] == "A")
    site_b = next(s for s in group["sites"] if s["tag"] == "B")
    trace, _ = run_for(workload, 90_000)
    a_loads = [d for d in trace if "delinquent A" in d.comment]
    b_loads = [d for d in trace if "delinquent B" in d.comment]
    a_base = workload.memory.base("A")
    b_base = workload.memory.base("B")

    def nest_counters(flat):
        l = flat % NL
        k = (flat // NL) % NK
        j = (flat // (NL * NK)) % NJ
        i = flat // (NL * NK * NJ)
        return (i, j, k, l)

    for flat in (0, 1, 7, NL * NK + 3, NL * NK * NJ + 11):
        counters = nest_counters(flat)
        expected_a = a_base + sum(
            c * v for c, v in zip(site_a["coeffs"], counters)
        )
        expected_b = b_base + sum(
            c * v for c, v in zip(site_b["coeffs"], counters)
        )
        assert a_loads[flat].mem_addr == expected_a
        assert b_loads[flat].mem_addr == expected_b


def test_leslie_three_rois_execute():
    workload = build_leslie_workload(outer_sweeps=2)
    trace, _ = run_for(workload, 80_000)
    r1 = [d for d in trace if "r1 stream load" in d.comment]
    r2 = [d for d in trace if "r2 stream load" in d.comment]
    r3 = [d for d in trace if "r3 strided load" in d.comment]
    assert r1 and r2 and r3
    # r3 strides one cache line per iteration.
    deltas = {y.mem_addr - x.mem_addr for x, y in zip(r3[:10], r3[1:10])}
    assert deltas == {64}


def test_leslie_coeffs_reproduce_r1b():
    workload = build_leslie_workload(outer_sweeps=2)
    from repro.workloads.leslie import R1_NJ, R1_NK

    trace, _ = run_for(workload, 80_000)
    r1b = [d for d in trace if "r1 transposed load" in d.comment]
    base = workload.memory.base("flux_aux")
    group = workload.bitstream.metadata["groups"][0]
    site = next(s for s in group["sites"] if s["tag"] == "r1b")
    # flat order is (t, j, k): reconstruct counters for sampled positions.
    for flat in (0, 1, R1_NK + 5, R1_NK * R1_NJ + 2):
        k = flat % R1_NK
        j = (flat // R1_NK) % R1_NJ
        t = flat // (R1_NK * R1_NJ)
        expected = base + sum(
            c * v for c, v in zip(site["coeffs"], (t, j, k))
        )
        assert r1b[flat].mem_addr == expected


def test_all_prefetch_bitstreams_have_roi_and_bases():
    from repro.pfm.snoop import SnoopKind

    for build in (
        build_libquantum_workload,
        build_lbm_workload,
        build_milc_workload,
        build_bwaves_workload,
        build_leslie_workload,
    ):
        workload = build()
        kinds = [e.kind for e in workload.bitstream.rst_entries]
        assert SnoopKind.ROI_BEGIN in kinds
        assert not workload.bitstream.fst_entries  # prefetch-only
        tags = {e.tag for e in workload.bitstream.rst_entries}
        assert any(t.startswith("base:") for t in tags)
        assert any(t.startswith("iter:") for t in tags)
