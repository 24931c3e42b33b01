"""libquantum's ROI: ``quantum_toffoli`` / ``quantum_sigma_x`` (Figure 15).

Both functions stream through the quantum register's node array with a
fixed stride, testing control-bit masks and conditionally flipping the
target bit.  The node-state load (annotated **B** in the paper) is the
delinquent load; the array far exceeds the cache hierarchy, so every new
line is a miss that the custom prefetch engine (Figure 16) removes with
an adaptively-distanced stride stream.
"""

from __future__ import annotations

import itertools
import random

from repro.isa.builder import ProgramBuilder
from repro.pfm.snoop import RSTEntry, SnoopKind
from repro.registry.components import make_bitstream
from repro.registry.workloads import register_workload
from repro.workloads.base import Workload
from repro.workloads.mem import MemoryImage

#: The quantum_reg_node struct is 16 bytes: {state, amplitude-ref}.
NODE_STRIDE = 16


@register_workload("libquantum")
def build_libquantum_workload(
    reg_size: int = 200_000,
    control1: int = 1 << 3,
    control2: int = 1 << 7,
    target: int = 1 << 11,
    seed: int = 3,
    component_factory=None,
) -> Workload:
    """Assemble toffoli+sigma_x sweeps over a DRAM-resident register."""
    memory = MemoryImage()
    rng = random.Random(seed)
    state_base = memory.allocate("reg_state", 2 * reg_size)
    # Initialize states so the control masks are usually set (biased,
    # predictable branches — the bottleneck is the loads, not control).
    # Each node draws its low bits (the for clause), then its
    # clear-control1 coin (the condition), in that order.
    getrandbits, coin = rng.getrandbits, rng.random
    controls = control1 | control2
    memory.store_array(
        "reg_state",
        [
            (controls | bits) & ~control1 if coin() < 0.08 else controls | bits
            for bits in map(getrandbits, itertools.repeat(3, reg_size))
        ],
        stride=NODE_STRIDE,
    )

    b = ProgramBuilder()
    b.label("main")
    b.li("s0", 0, comment="snoop:roi_begin  # libquantum ROI")
    b.li("s1", control1)
    b.li("s2", control2)
    b.li("s3", target)
    b.li("s7", reg_size)

    # quantum_toffoli(control1, control2, target)
    b.label("toffoli")
    b.li("s4", state_base, comment="snoop:base:toffoli")
    b.li("s10", 0, comment="i = 0")
    b.label("t_loop")
    b.bge("s10", "s7", "t_done")
    b.slli("t1", "s10", 4)
    b.add("t1", "t1", "s4")
    b.ld("t2", base="t1", offset=0, comment="load B (delinquent)")
    b.and_("t3", "t2", "s1")
    b.beq("t3", "zero", "t_next", comment="control1 test")
    b.and_("t3", "t2", "s2")
    b.beq("t3", "zero", "t_next", comment="control2 test")
    b.xor("t2", "t2", "s3")
    b.sd("t2", base="t1", offset=0, comment="flip target")
    b.label("t_next")
    b.addi("s10", "s10", 1, comment="snoop:iter:toffoli")
    b.j("t_loop")
    b.label("t_done")

    # quantum_sigma_x(target): unconditional flip, same delinquent pattern
    b.label("sigma_x")
    b.li("s5", state_base, comment="snoop:base:sigma_x")
    b.li("s10", 0)
    b.label("s_loop")
    b.bge("s10", "s7", "s_done")
    b.slli("t1", "s10", 4)
    b.add("t1", "t1", "s5")
    b.ld("t2", base="t1", offset=0, comment="load B' (delinquent)")
    b.xor("t2", "t2", "s3")
    b.sd("t2", base="t1", offset=0)
    b.addi("s10", "s10", 1, comment="snoop:iter:sigma_x")
    b.j("s_loop")
    b.label("s_done")
    b.halt()

    program = b.build()

    rst_entries = [
        RSTEntry(
            program.pcs_with_comment("snoop:roi_begin")[0],
            SnoopKind.ROI_BEGIN,
            "libq_roi",
        ),
        RSTEntry(
            program.pcs_with_comment("snoop:base:toffoli")[0],
            SnoopKind.DEST_VALUE,
            "base:toffoli",
        ),
        RSTEntry(
            program.pcs_with_comment("snoop:iter:toffoli")[0],
            SnoopKind.DEST_VALUE,
            "iter:toffoli",
            droppable=True,
        ),
        RSTEntry(
            program.pcs_with_comment("snoop:base:sigma_x")[0],
            SnoopKind.DEST_VALUE,
            "base:sigma_x",
        ),
        RSTEntry(
            program.pcs_with_comment("snoop:iter:sigma_x")[0],
            SnoopKind.DEST_VALUE,
            "iter:sigma_x",
            droppable=True,
        ),
    ]

    metadata = {
        "sites": [
            {"tag": "toffoli", "stride": NODE_STRIDE},
            {"tag": "sigma_x", "stride": NODE_STRIDE},
        ],
        "initial_distance": 8,
    }
    bitstream = make_bitstream(
        "libquantum-prefetcher",
        component=component_factory or "libquantum-prefetcher",
        rst_entries=rst_entries,
        metadata=metadata,
    )
    return Workload(
        name="libquantum",
        program=program,
        memory=memory,
        bitstream=bitstream,
        metadata={"reg_size": reg_size},
    )
