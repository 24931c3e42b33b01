"""Custom prefetching with adaptive distance: the libquantum use-case.

Demonstrates Section 4.3: a tiny FSM in the fabric snoops the delinquent
load's base address and the loop's iteration count from the retire
stream, then streams exact prefetch OPs through the Load Agent ahead of
the core, with the sampling-based feedback mechanism adjusting the
prefetch distance.

Also shows the C/W-insensitivity the paper reports: prefetch-only
use-cases never stall the core waiting for RF packets.

Run:  python examples/custom_prefetcher_libquantum.py
"""

from repro.core import PFMParams, SimConfig, SuperscalarCore
from repro.workloads.libquantum import build_libquantum_workload


def run(pfm: PFMParams | None, window: int = 30_000):
    core = SuperscalarCore(
        build_libquantum_workload(), SimConfig(max_instructions=window, pfm=pfm)
    )
    stats = core.run()
    return core, stats


def main() -> None:
    _, baseline = run(None)
    print(f"baseline: IPC {baseline.ipc:.3f}, "
          f"DRAM accesses {baseline.memory_levels['L3']['misses']}")

    print("\nconfig        speedup   prefetches   settled distance")
    for clk, width in [(1, 1), (4, 1), (4, 4), (8, 1)]:
        pfm = PFMParams(clk_ratio=clk, width=width, delay=0)
        core, stats = run(pfm)
        component = core.fabric.slots[0].component
        print(f"clk{clk}_w{width:<6} {100 * stats.speedup_over(baseline):+7.0f}%"
              f"   {stats.agent_prefetches:>8}   {component.controller.distance:>8}")

    print("\nThe adaptive controller measures retired delinquent-load")
    print("instances per epoch (a proxy for IPC) and sets the prefetch")
    print("distance to cover the memory latency at the observed rate.")


if __name__ == "__main__":
    main()
