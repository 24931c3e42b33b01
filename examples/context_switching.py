"""Context isolation: deprogramming the fabric on a context switch.

Section 2.4: one context's custom component must not observe another
context in the core — enforced by removing the component from RF and the
Agents when its context is swapped out, and re-synthesizing it from the
configuration bitstream when the context returns.

This example simulates an astar time slice, "swaps the context out"
(deprogram), shows that the fabric is inert, then swaps it back in
(reprogram) and shows the component rebuilding from scratch: the ROI must
be re-entered, tables/queues start cold, and performance ramps again.

Run:  python examples/context_switching.py
"""

from repro.core import PFMParams, SimConfig, SuperscalarCore
from repro.workloads.astar import build_astar_workload


def main() -> None:
    window = 12_000
    core = SuperscalarCore(
        build_astar_workload(),
        SimConfig(max_instructions=window, pfm=PFMParams(delay=0)),
    )
    stats = core.run()
    fabric = core.fabric
    slot = fabric.slots[0]  # the primary tenant: this workload's component
    print("--- time slice 1 (component programmed) ---")
    print(f"IPC {stats.ipc:.3f}, MPKI {stats.mpki:.1f}, "
          f"predictions supplied {stats.pfm_predicted_branches}")

    print("\n--- context switch out: deprogram the fabric ---")
    fabric.deprogram()
    print(f"fabric enabled: {slot.enabled}")
    print(f"queues flushed: ObsQ-R={slot.obs_q.occupancy}, "
          f"IntQ-IS={slot.intq_is.occupancy}, "
          f"IntQ-F pending={slot.fetch_agent.pending_count()}")
    print("the swapped-in context now runs with a plain core —")
    print("nothing of this context's behaviour is observable from RF")

    print("\n--- context switch back in: reprogram from the bitstream ---")
    old = id(slot.component)
    fabric.reprogram(now=2 * 10**7)
    print(f"fabric enabled: {slot.enabled}")
    print(f"fresh component instance: {id(slot.component) != old}")
    print(f"ROI re-entry required: roi_active={slot.roi_active}")
    print("\n(a fresh run of the same workload re-trains from zero:)")

    core2 = SuperscalarCore(
        build_astar_workload(),
        SimConfig(max_instructions=window, pfm=PFMParams(delay=0)),
    )
    stats2 = core2.run()
    print(f"time slice 2: IPC {stats2.ipc:.3f}, MPKI {stats2.mpki:.1f}")


if __name__ == "__main__":
    main()
