"""The astar predictor as a declarative template (Section 7).

The paper's future-work section notes that the astar and bfs designs
follow a similar strategy, and "if this could be templated, it suggests a
path toward automation".  The shipped astar component *is* that template:
``astar-custom-bp`` instantiates the worklist-sweep run-ahead template with
astar's declarative spec — worklist source, the eight neighbour
expressions, the two guarded table checks, store inference.  This example
prints the spec and runs the shipped component against the baseline core.

Run:  python examples/templated_component_generation.py
"""

from repro.core import PFMParams, SimConfig, simulate
from repro.pfm.components.template import astar_template_spec
from repro.workloads.astar import build_astar_workload


def main() -> None:
    window = 20_000
    spec = astar_template_spec()
    print("declarative spec for astar (registered as astar-custom-bp):")
    print(f"  worklist base tag : {spec.worklist_base_tag}")
    print(f"  head counter tag  : {spec.head_counter_tag}")
    print(f"  snooped scalars   : {spec.scalar_tags} + {spec.roi_value_name}")
    print(f"  derived indices   : {spec.fanout} per worklist item")
    print(f"  guarded checks    : "
          f"{' -> '.join(c.name for c in spec.checks)}")
    print(f"  store inference   : {spec.infer_stores}")
    print(f"  default scope     : {spec.scope} worklist entries")
    print()

    baseline = simulate(
        build_astar_workload(), SimConfig(max_instructions=window)
    )
    custom = simulate(
        build_astar_workload(),
        SimConfig(max_instructions=window, pfm=PFMParams(delay=0)),
    )

    print(f"{'design':<22} {'speedup':>9} {'MPKI':>7}")
    print(f"{'baseline core':<22} {'—':>9} {baseline.mpki:>7.1f}")
    print(f"{'astar-custom-bp':<22} "
          f"{100 * custom.speedup_over(baseline):>+8.0f}% {custom.mpki:>7.1f}")


if __name__ == "__main__":
    main()
